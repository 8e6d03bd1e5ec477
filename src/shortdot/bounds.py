"""Fundamental sparsity lower bounds and achievability checks.

For any P x N matrix F whose every K rows span the rows of an M x N
matrix A with no all-zero column, the average row sparsity obeys
s_bar >= (N/P)(P-K+1); for M > 1 the tighter bound
s_bar > (N/P)(P-K+M) - (M^2/P) C(P, K-M+1) holds for some A.  The gap to
the constructive budget (N/P)(P-K+M) does not depend on N, so the
construction is near-optimal for large N.  Binomials are kept in exact
integer/rational arithmetic until the final float conversion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .coding import EncodedTransform
from .params import CodeParams

@dataclass(frozen=True)
class BoundReport:
    basic_bound: float
    tight_bound: float  # the basic bound when M = 1
    budget: int
    lambda_cap: int
    gap_ratio: float
    achieved_avg_sparsity: float | None = None
    achieved_max_sparsity: int | None = None
    hypothesis_ok: bool | None = None


def basic_lower_bound(N: int, P: int, K: int) -> float:
    """(N/P)(P-K+1): no scheme can assign shorter average tasks."""
    return (N / P) * (P - K + 1)


def lambda_cap(P: int, K: int, M: int) -> int:
    """Strict upper bound M*C(P, K-M+1) on the number of columns with
    more than K-M zeros (exact integer)."""
    return M * math.comb(P, K - M + 1)


def tight_bound_gap(P: int, K: int, M: int) -> Fraction:
    """Exact gap (M^2/P) C(P, K-M+1) between the budget and the tight
    bound; independent of N."""
    return Fraction(M * M * math.comb(P, K - M + 1), P)


def tight_lower_bound_exact(N: int, P: int, K: int, M: int) -> Fraction:
    if M <= 1:
        raise ValueError("tight bound requires M > 1; use basic_lower_bound for M = 1")
    return Fraction(N * (P - K + M), P) - tight_bound_gap(P, K, M)


def tight_lower_bound(N: int, P: int, K: int, M: int) -> float:
    """Float value of the M > 1 bound; may be negative (vacuous) for
    small N."""
    return float(tight_lower_bound_exact(N, P, K, M))


def bound_report(params: CodeParams) -> BoundReport:
    """The bounds at N = N_raw (the padded columns of F are all zero) and the
    budget s; check_achievability adds the measured fields, None here."""
    P, K, M, N = params.P, params.K, params.M, params.N_raw
    basic = basic_lower_bound(N, P, K)
    cap = lambda_cap(P, K, M)
    return BoundReport(
        basic_bound=basic,
        tight_bound=tight_lower_bound(N, P, K, M) if M > 1 else basic,
        budget=params.s,
        lambda_cap=cap,
        gap_ratio=M * cap / N,  # M^2 C(P, K-M+1) / N
    )


def check_achievability(code: EncodedTransform) -> BoundReport:
    """Measure a constructed code against the lower bounds.

    Sparsity counts the nonzero entries of F, padded (all-zero) columns
    excluded, matching the bounds' no-all-zero-column hypothesis; if an
    unpadded column of F is entirely zero the hypothesis fails, a warning
    is issued and the bound assertion is skipped (hypothesis_ok=False).
    """
    report = bound_report(code.params)
    nonzero = code.F[:, : code.params.N_raw] != 0
    hypothesis_ok = bool(np.all(nonzero.any(axis=0)))
    if not hypothesis_ok:
        warnings.warn(
            "encoded matrix has an all-zero unpadded column; sparsity bounds "
            "assume every column is nontrivial, assertions skipped",
            stacklevel=2,
        )
    row_counts = nonzero.sum(axis=1)
    achieved_avg = float(row_counts.mean())
    # basic <= s for all valid params, and EncodedTransform refuses a row
    # above s; an F whose rows sit below the bound is no code for its A
    if hypothesis_ok and achieved_avg < report.basic_bound - 1e-9:
        raise ValueError(f"measured average sparsity {achieved_avg} sits below the "
                         f"lower bound {report.basic_bound}: inconsistent code")
    return replace(report, achieved_avg_sparsity=achieved_avg,
                   achieved_max_sparsity=int(row_counts.max()),
                   hypothesis_ok=hypothesis_ok)
