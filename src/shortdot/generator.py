"""Generator matrices for any-K-of-P recoverable encodings.

The P x K generator B must satisfy two invertibility properties: every
K x K submatrix is invertible, and every (K-M) x (K-M) submatrix of the
last K-M columns is invertible.  A real Vandermonde matrix on distinct
nodes satisfies both; an i.i.d. Gaussian matrix does almost surely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConditioningError
from .params import CodeParams

# Rejection threshold for the condition number of every linear solve.
# Real-node Vandermonde conditioning grows exponentially in the system
# size, so beyond this limit float64 results are not trustworthy to the
# tolerances this package promises; we fail loudly.
COND_LIMIT = 1e8
# verify_generator refuses to enumerate more submatrices than this.
_MAX_SUBSETS = 200_000


@dataclass(frozen=True)
class GeneratorMatrix:
    """A P x K encoding matrix plus the recipe that built it.

    kind is "vandermonde" (nodes holds the P distinct evaluation points,
    entry (i, j) = nodes[i]**(K-1-j)) or "gaussian" (seed holds the RNG
    seed that reproduces the entries).
    """

    entries: np.ndarray
    kind: str
    nodes: np.ndarray | None = None
    seed: int | None = None

    @property
    def P(self) -> int:
        return self.entries.shape[0]

    @property
    def K(self) -> int:
        return self.entries.shape[1]


def chebyshev_nodes(P: int) -> np.ndarray:
    """P distinct nodes cos((2i-1)pi/(2P)), i=1..P, in (-1, 1).

    Chebyshev-like spacing keeps Vandermonde solves far better
    conditioned than equispaced real nodes.
    """
    i = np.arange(1, P + 1, dtype=float)
    return np.cos((2.0 * i - 1.0) * np.pi / (2.0 * P))


def build_generator(
    params: CodeParams,
    kind: str = "vandermonde",
    nodes=None,
    seed: int | None = None,
) -> GeneratorMatrix:
    """Construct a generator for the given parameters.

    Vandermonde kind uses the supplied nodes (must be pairwise distinct)
    or Chebyshev nodes by default.  Gaussian kind requires a seed.
    """
    P, K = params.P, params.K
    if kind == "vandermonde":
        h = chebyshev_nodes(P) if nodes is None else np.asarray(nodes, dtype=float)
        if h.shape != (P,):
            raise ValueError(f"need {P} nodes, got shape {h.shape}")
        if np.unique(h).size != P:
            raise ValueError("Vandermonde nodes must be pairwise distinct")
        entries = np.vander(h, K, increasing=False)
        return GeneratorMatrix(entries=entries, kind=kind, nodes=h)
    if kind == "gaussian":
        if seed is None:
            raise ValueError("gaussian generator requires a seed")
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((P, K))
        return GeneratorMatrix(entries=entries, kind=kind, seed=int(seed))
    raise ValueError(f"unknown generator kind {kind!r}")


def verify_generator(gen: GeneratorMatrix, params: CodeParams) -> None:
    """Exhaustively check the two submatrix-invertibility properties.

    Feasible only for small P (the number of K x K submatrices is
    C(P, K)); raises ValueError if the enumeration would be too large,
    ConditioningError if some required submatrix is (near-)singular.
    """
    P, K, M = params.P, params.K, params.M
    B = gen.entries
    n_full = math.comb(P, K)
    n_tail = math.comb(P, K - M) if K > M else 0
    if n_full + n_tail > _MAX_SUBSETS:
        raise ValueError(f"{n_full + n_tail} submatrices to check exceeds {_MAX_SUBSETS}")
    for rows in combinations(range(P), K):
        check_condition(B[list(rows), :], f"K x K submatrix at rows {rows}")
    if K > M:
        for rows in combinations(range(P), K - M):
            check_condition(B[list(rows), M:], f"tail submatrix at rows {rows}")


def check_condition(mat: np.ndarray, what: str = "solve") -> None:
    """The one conditioning rule: refuse mat if cond(mat) is not finite
    or exceeds COND_LIMIT.  c is np.linalg.cond(mat) bit for bit, minus
    its wrapper; a NaN entry raises LinAlgError from the SVD, as in cond."""
    s = np.linalg.svd(mat, compute_uv=False)
    c = float(s[0]) / float(s[-1]) if s[-1] > 0 else math.inf
    if not math.isfinite(c) or c > COND_LIMIT:
        raise ConditioningError(
            f"{what} rejected: condition {c:.3e} exceeds limit {COND_LIMIT:.1e}"
        )


def guarded_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve behind the condition gate."""
    check_condition(mat)
    return np.linalg.solve(mat, rhs)
