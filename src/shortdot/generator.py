"""Generator matrices for any-K-of-P recoverable encodings.

The P x K generator B must satisfy two invertibility properties: every
K x K submatrix is invertible, and every (K-M) x (K-M) submatrix of the
last K-M columns is invertible.  A real Vandermonde matrix on distinct
nodes satisfies both; an i.i.d. Gaussian matrix does almost surely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# A generator memoizes the condition numbers of at most this many
# responder sets (each keyed by a P-bit mask: under 1 MB at P = 100).
CONDITION_MEMO_CAP = 4096


@dataclass(frozen=True)
class GeneratorMatrix:
    """A P x K encoding matrix plus the recipe that built it.

    kind is "vandermonde" (nodes holds the P distinct evaluation points,
    entry (i, j) = nodes[i]**(K-1-j)) or "gaussian" (seed holds the RNG
    seed that reproduces the entries).

    entries and nodes are read-only from construction on, so the memo of
    responder-set condition numbers (see `condition`) cannot go stale;
    `dataclasses.replace` starts a new generator with an empty memo.
    """

    entries: np.ndarray
    kind: str
    nodes: np.ndarray | None = None
    seed: int | None = None
    _conditions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.entries, self.nodes):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def P(self) -> int:
        return self.entries.shape[0]

    @property
    def K(self) -> int:
        return self.entries.shape[1]

    def condition(self, idx: np.ndarray) -> float:
        """cond of the rows idx (1-based, distinct, any order) of entries.

        The value belongs to the responder set: it is taken by the gate's
        SVD on the rows in ascending order, once per set, and memoized
        for up to CONDITION_MEMO_CAP sets, refused ones (c not finite or
        above COND_LIMIT) included.  A NaN SVD raises LinAlgError and is
        not memoized.  Threads may share a generator: two that miss on
        one set both store the same c, and racing inserts can pass the
        cap by at most one entry per thread.
        """
        mask = np.zeros(self.P, dtype=bool)
        mask[idx - 1] = True
        key = np.packbits(mask).tobytes()
        c = self._conditions.get(key)
        if c is None:
            c = _condition_number(self.entries[mask])
            if len(self._conditions) < CONDITION_MEMO_CAP:
                self._conditions[key] = c
        return c


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

    Vandermonde kind uses the supplied nodes (must be finite and pairwise
    distinct) or Chebyshev nodes by default.  Gaussian kind requires a
    seed.  Each kind refuses the other kind's argument rather than ignore
    it.
    """
    P, K = params.P, params.K
    if kind == "vandermonde":
        if seed is not None:
            raise ValueError("a Vandermonde generator takes nodes, not a seed")
        h = chebyshev_nodes(P) if nodes is None else np.array(nodes, dtype=float)
        if h.shape != (P,):
            raise ValueError(f"need {P} nodes, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError(f"Vandermonde nodes must be finite, got {h.tolist()}")
        if np.unique(h).size != P:
            raise ValueError("Vandermonde nodes must be pairwise distinct")
        entries = np.vander(h, K, increasing=False)
        return GeneratorMatrix(entries=entries, kind=kind, nodes=h)
    if kind == "gaussian":
        if seed is None:
            raise ValueError("gaussian generator requires a seed")
        if nodes is not None:
            raise ValueError("a gaussian generator takes a seed, not nodes")
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


def _condition_number(mat: np.ndarray) -> float:
    """np.linalg.cond(mat) bit for bit, minus its wrapper; a NaN entry
    raises LinAlgError from the SVD, as in cond."""
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[0]) / float(s[-1]) if s[-1] > 0 else math.inf


def check_condition(mat: np.ndarray, what: str = "solve", cond: float | None = None) -> float:
    """The one conditioning rule: refuse mat if c = cond(mat) is not
    finite or exceeds COND_LIMIT, else return c.  A caller that already
    holds c (a generator's `condition`) passes it as cond, and no SVD is
    taken."""
    c = _condition_number(mat) if cond is None else cond
    if not math.isfinite(c) or c > COND_LIMIT:
        raise ConditioningError(
            f"{what} rejected: condition {c:.3e} exceeds limit {COND_LIMIT:.1e}"
        )
    return c


def guarded_solve(mat: np.ndarray, rhs: np.ndarray, cond: float | None = None) -> np.ndarray:
    """np.linalg.solve behind the condition gate; cond as in check_condition."""
    check_condition(mat, cond=cond)
    return np.linalg.solve(mat, rhs)
