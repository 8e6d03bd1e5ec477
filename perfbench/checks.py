"""Reference computations the benchmark checks the package against.

Nothing here calls shortdot: the generator, the zero pattern, the closed
forms and the mixed-group integrals are rebuilt from their definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)
# Decoded A@x may differ from the benchmark's own A@x by DECODE_C * kappa *
# eps * || |A| |x| || (2-norm), kappa the 2-norm condition of the responders'
# rows of the generator.  || |A| |x| || is the forward-error scale of the
# dot products themselves; measured against ||A@x|| instead, the constant
# grew with the row length (2.5e3 at N = 785, 4.9e3 at N = 200000) while
# against || |A| |x| || it stayed below 126 over 30000 straggler-sampled
# Sec. 6 requests and below 14 at N = 200000.  A fixed 1e-8 would reject
# correct decodes that are merely ill-conditioned.
DECODE_C = 1e3
# A Monte Carlo mean must lie within MC_Z standard errors of the exact mean.
MC_Z = 6.0
# Closed forms are exact rationals; the package evaluates them in float.
CLOSED_FORM_RTOL = 1e-12
# The package integrates the mixed-group cases with quad at epsrel 1e-8.
NUMERIC_RTOL = 1e-7


def chebyshev_vandermonde(P: int, K: int) -> np.ndarray:
    """P x K generator: row i holds h_i^(K-1), ..., h_i, 1 at Chebyshev node h_i."""
    h = np.array([math.cos((2 * i - 1) * math.pi / (2 * P)) for i in range(1, P + 1)])
    return h[:, None] ** np.arange(K - 1, -1, -1)[None, :]


def decode_error_ok(got, A, x, kappa: float) -> bool:
    err = np.linalg.norm(np.asarray(got, dtype=float) - A @ x)
    scale = np.linalg.norm(np.abs(A) @ np.abs(x))
    return bool(np.isfinite(err) and err <= DECODE_C * kappa * EPS * scale)


def zero_pattern(P: int, K: int, M: int, N: int) -> np.ndarray:
    """(P, N) mask of the cyclic pattern: column j is zero at rows j..j+K-M-1 mod P."""
    mask = np.zeros((P, N), dtype=bool)
    cols = np.arange(N)
    for t in range(K - M):
        mask[(cols + t) % P, cols] = True
    return mask


def transform_ok(F, supports, P: int, K: int, M: int, N: int) -> bool:
    """F is exactly zero on the pattern, rows hold at most s nonzeros, and
    the 1-based supports are exactly the pattern's allowed columns."""
    F = np.asarray(F)
    if F.shape != (P, N):
        return False
    mask = zero_pattern(P, K, M, N)
    s = (N // P) * (P - K + M)
    if np.any(F[mask] != 0.0) or np.any(np.count_nonzero(F, axis=1) > s):
        return False
    if len(supports) != P:
        return False
    return all(
        np.array_equal(np.asarray(sup), np.flatnonzero(~mask[i]) + 1)
        for i, sup in enumerate(supports)
    )


# --- the straggler model -----------------------------------------------------


def harmonics(n: int) -> list[Fraction]:
    H = [Fraction(0)]
    for i in range(1, n + 1):
        H.append(H[-1] + Fraction(1, i))
    return H


def short_dot_exact(P, K, M, N, mu, H) -> Fraction:
    return Fraction(N, P) * (P - K + M) * (1 + (H[P] - H[P - K]) / mu)


def best_k_exact(P, M, N, mu, H) -> int:
    """argmin over K in M..P of the exact short-dot mean; ties to the smallest K."""
    return min(range(M, P + 1), key=lambda k: (short_dot_exact(P, k, M, N, mu, H), k))


def mixed_groups(P: int, M: int, N: float, strategy: str):
    """(count, shift, rate) factors of the finish-time CDF when M does not divide P.

    m1 rows get c1 = ceil(P/M) workers and m2 rows c2 = floor(P/M).  Uncoded
    splits a row over its workers, so each worker is its own factor with
    shift N/c; repetition waits for the first of a row's c replicas, so each
    row is one factor with shift N and rate c.
    """
    c1, c2 = -(-P // M), P // M
    m1 = P - M * c2
    m2 = M - m1
    if strategy == "uncoded":
        return [(m1 * c1, N / c1, 1.0), (m2 * c2, N / c2, 1.0)]
    return [(m1, N, float(c1)), (m2, N, float(c2))]


def expected_max(factors, mu: float) -> float:
    """E[T] = t0 + integral over [t0, inf) of 1 - prod_g F_g(t)^count_g,
    by composite 32-point Gauss-Legendre on 256 panels up to where the
    survival function is below 1e-20."""
    factors = [f for f in factors if f[0] > 0]
    t0 = max(sh for _, sh, _ in factors)
    t_end = max(sh * (1.0 + math.log(c * 1e20) / (mu * r)) for c, sh, r in factors)
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(t0, t_end, 257)
    half = np.diff(edges)[:, None] / 2.0
    t = (edges[:-1, None] + half) + half * x[None, :]
    log_cdf = sum(c * np.log1p(-np.exp(-mu * r * (t / sh - 1.0))) for c, sh, r in factors)
    return t0 + float(np.sum(-np.expm1(log_cdf) * w[None, :] * half))


def sweep_reference(P: int, N: int, mu: float):
    """(exact analytic_E, tolerance) per (M, strategy), and the exact best K per M."""
    H = harmonics(P)
    mu_q = Fraction(mu)
    ref, best_k = {}, {}
    for M in range(1, P + 1):
        k = best_k_exact(P, M, N, mu_q, H)
        best_k[M] = k
        ref[M, "short-dot"] = float(short_dot_exact(P, k, M, N, mu_q, H)), CLOSED_FORM_RTOL
        ref[M, "mds"] = float(N * (1 + (H[P] - H[P - M]) / mu_q)), CLOSED_FORM_RTOL
        if P % M == 0:
            ref[M, "uncoded"] = float(Fraction(M * N, P) * (1 + H[P] / mu_q)), CLOSED_FORM_RTOL
            ref[M, "repetition"] = float(N * (1 + M * H[M] / (P * mu_q))), CLOSED_FORM_RTOL
        else:
            for name in ("uncoded", "repetition"):
                ref[M, name] = expected_max(mixed_groups(P, M, float(N), name), mu), NUMERIC_RTOL
    return ref, best_k


def sweep_rows_ok(rows: list[dict], ref, best_k, mc: bool = True) -> list[bool]:
    """Verdict per sweep CSV row.

    A row must match its reference mean, its Monte Carlo mean (when `mc`)
    must lie within MC_Z standard errors of it, a short-dot row must use the exact
    best K, and short-dot must be no slower than any other strategy at its M.
    """
    analytic = {(int(r["M"]), r["strategy"]): float(r["analytic_E"]) for r in rows}
    verdicts = []
    for row in rows:
        M, name = int(row["M"]), row["strategy"]
        key = (M, name)
        if key not in ref:
            verdicts.append(False)
            continue
        exact, rtol = ref[key]
        mean, err = float(row["mc_mean"]), float(row["mc_stderr"])
        ok = math.isclose(analytic[key], exact, rel_tol=rtol)
        if mc:
            ok &= err > 0 and abs(mean - exact) <= MC_Z * err
        if name == "short-dot":
            ok &= int(row["K_used"]) == best_k[M]
            ok &= all(analytic[key] <= analytic.get((M, other), -math.inf)
                      for other in ("uncoded", "repetition", "mds"))
        verdicts.append(ok)
    return verdicts
