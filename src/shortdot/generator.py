"""Generator matrices for any-K-of-P recoverable encodings.

The P x K generator B must satisfy two invertibility properties: every
K x K submatrix is invertible, and every (K-M) x (K-M) submatrix of the
last K-M columns is invertible.  A real Vandermonde matrix on distinct
nodes satisfies both; an i.i.d. Gaussian matrix does almost surely.
build_generator makes the Vandermonde one on the Chebyshev nodes and the
Gaussian one as one fixed draw, so a generator is rebuilt from
(P, K, kind) alone, and a process shares one per (P, K, kind) with its
memos.  A generator is its entries and its kind: the
Vandermonde nodes are not stored beside B, since B's x^1 column holds
them (see coding._check_method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConditioningError
from .params import CodeParams

# Rejection threshold for the condition number of every linear solve.
# Real-node Vandermonde conditioning grows exponentially in the system
# size, so beyond this limit float64 results are not trustworthy to the
# tolerances this package promises; we fail loudly.
COND_LIMIT = 1e8
# The kinds build_generator makes, the first its default.
KINDS = ("vandermonde", "gaussian")
# The Gaussian kind is default_rng(_GAUSSIAN_SEED).standard_normal((P, K)).
_GAUSSIAN_SEED = 0
# A generator memoizes the condition numbers of at most this many
# responder sets (each keyed by its rows as the bits of a Python int:
# under 1 MB at P = 100).
CONDITION_MEMO_CAP = 4096
# build_generator keeps the most recently used generators, at most this
# many, each with its memos (see GeneratorMatrix and
# coding.OPERATOR_MEMO_BYTES); coding._pattern keeps as many sparsity
# patterns, one per (P, K, M, N).
GENERATOR_CACHE_SIZE = 8


@dataclass(frozen=True)
class GeneratorMatrix:
    """A P x K encoding matrix and its kind.

    kind is "vandermonde" (entry (i, j) = h_i**(K-1-j) on P distinct
    nodes h, which are then its x^1 column, entries[:, K-2]) or "gaussian"
    (the fixed draw of build_generator).

    entries must be a 2-D array of real finite numbers, or construction
    raises ValueError.  The generator keeps a read-only array of them
    that it owns (see _own), and never freezes the array it is handed,
    so its memos cannot go stale: the responder-set condition numbers
    (see `condition`), the window operators encode plans per (M, method),
    each with its certificate (see coding._window_operators), and the
    cached `parity` and `pinv`.  `dataclasses.replace` starts a new
    generator with empty memos and no parity or pinv yet.
    """

    entries: np.ndarray
    kind: str
    _conditions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = _own(np.asarray(self.entries))
        # the dtype test keeps object arrays from isfinite
        if entries.ndim != 2 or entries.dtype.kind not in "biuf" or not np.isfinite(entries).all():
            raise ValueError("generator entries must be a 2-D real finite array")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def P(self) -> int:
        return self.entries.shape[0]

    @property
    def K(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def parity(self) -> np.ndarray:
        """H, a read-only orthonormal (P - K) x P basis of the left null
        space of entries, from one full SVD (U[:, K:].T): H @ entries = 0,
        so a P-row matrix is entries @ W for some W exactly when H maps it
        to 0.  Empty (0 x P) when K = P."""
        H = np.linalg.svd(self.entries)[0][:, self.K:].T.copy()
        H.flags.writeable = False
        return H

    @cached_property
    def pinv(self) -> np.ndarray:
        """np.linalg.pinv(entries), K x P and read-only, from one SVD."""
        W = np.linalg.pinv(self.entries)
        W.flags.writeable = False
        return W

    def condition(self, idx: np.ndarray) -> float:
        """cond of the rows idx (1-based, distinct, any order; an int
        array) of entries.

        The value belongs to the responder set: it is taken by the gate's
        SVD on the rows in ascending order, once per set, and memoized
        for up to CONDITION_MEMO_CAP sets, refused ones (c not finite or
        above COND_LIMIT) included, keyed by the int whose bit i is set
        for each row i in idx.  Threads may share a generator: two that
        miss on one set both store the same c, and racing inserts can pass
        the cap by at most one entry per thread.
        """
        key = sum(map((1).__lshift__, idx.tolist()))  # distinct rows: sum is or
        c = self._conditions.get(key)
        if c is None:
            mask = np.zeros(self.P, dtype=bool)
            mask[idx - 1] = True
            c = _condition_number(self.entries[mask])
            if len(self._conditions) < CONDITION_MEMO_CAP:
                self._conditions[key] = c
        return c


def _own(a: np.ndarray) -> np.ndarray:
    """a when it owns its memory and is read-only, else a copy of a: the
    arrays a codec object keeps, frozen, and derives its memos from.  A
    view, a writable array or a foreign buffer could still change, through
    its base, its caller or a view of it."""
    return a if a.flags.owndata and not a.flags.writeable else a.copy()


def chebyshev_nodes(P: int) -> np.ndarray:
    """P distinct nodes cos((2i-1)pi/(2P)), i=1..P, in (-1, 1).

    Chebyshev-like spacing keeps Vandermonde solves far better
    conditioned than equispaced real nodes.
    """
    i = np.arange(1, P + 1, dtype=float)
    return np.cos((2.0 * i - 1.0) * np.pi / (2.0 * P))


def build_generator(params: CodeParams, kind: str = "vandermonde") -> GeneratorMatrix:
    """The generator of the given kind for the given parameters, a
    function of (P, K, kind) alone: the Vandermonde kind is np.vander on
    the P Chebyshev nodes, the Gaussian kind one fixed standard normal
    draw.  Calls with one (P, K, kind) return one shared instance, so its
    memos serve every encode, load and decode in the process; at most
    GENERATOR_CACHE_SIZE are kept, the least recently used dropped."""
    if kind not in KINDS:  # before the cache, which would refuse an unhashable kind
        raise ValueError(f"unknown generator kind {kind!r}")
    return _shared_generator(params.P, params.K, kind)


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _shared_generator(P: int, K: int, kind: str) -> GeneratorMatrix:
    if kind == "vandermonde":
        return GeneratorMatrix(entries=np.vander(chebyshev_nodes(P), K), kind=kind)
    entries = np.random.default_rng(_GAUSSIAN_SEED).standard_normal((P, K))
    return GeneratorMatrix(entries=entries, kind=kind)


def _condition_number(mat: np.ndarray) -> float:
    """np.linalg.cond(mat) bit for bit, minus its wrapper; a NaN entry
    raises LinAlgError from the SVD, as in cond."""
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[0]) / float(s[-1]) if s[-1] > 0 else math.inf


def check_condition(mat: np.ndarray, cond: float | None = None) -> float:
    """The one conditioning rule: refuse mat if c = cond(mat) is not
    finite or exceeds COND_LIMIT, else return c.  A caller that already
    holds c (a generator's `condition`) passes it as cond, and no SVD is
    taken."""
    c = _condition_number(mat) if cond is None else cond
    if not math.isfinite(c) or c > COND_LIMIT:
        raise ConditioningError(
            f"solve rejected: condition {c:.3e} exceeds limit {COND_LIMIT:.1e}"
        )
    return c


def guarded_solve(mat: np.ndarray, rhs: np.ndarray, cond: float | None = None) -> np.ndarray:
    """np.linalg.solve behind the condition gate; cond as in check_condition."""
    check_condition(mat, cond=cond)
    return np.linalg.solve(mat, rhs)
