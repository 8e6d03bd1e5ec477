"""Sparse any-K-of-P encoding of a matrix-vector product.

To compute A @ x (A is M x N) on P workers, the M rows of A are encoded
into P rows of a sparse matrix F = B @ A_tilde, where A_tilde appends
K - M carefully chosen rows to A and B is a P x K generator.  Each
worker computes one short dot product <f_i, x> restricted to the support
of f_i (at most s = (N/P)*(P-K+M) coordinates), and the outputs of any K
workers recover A @ x exactly.

The enforced sparsity pattern is cyclic: column j of F is zero at the
K - M rows U(j) = ({j-1, ..., j+K-M-2} mod P) + 1, a P x P unit block
tiled N/P times, which gives every row exactly s allowed-nonzero
positions.  The pattern depends on (P, K, M, N) alone, so a process
derives it once per (P, K, M, N), whatever N_raw (see _pattern): every
transform of those parameters shares one read-only (P, s) supports
array and gathers its coefficients from F with one flat `take`.  The appended entries
z(j) are the unique solution of B^U(j)[A_j; z] = 0, so
F_j = B[A_j; z(j)] is linear in A_j.  Columns j and j+P share U(j), so
P window operators G_r (P x M each) carry A to F; encode plans them
once per generator and M, and then each encode is one product per
block of windows.

Indices in public interfaces (rows/workers, columns/supports) are
1-based; matrices are plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DecodingError
from .generator import GENERATOR_CACHE_SIZE, GeneratorMatrix, _own, check_condition, guarded_solve
from .params import CodeParams, worker_indices

# encode snaps pattern positions to exact zero; anything above
# ZERO_TOL_FACTOR * max|A| there beforehand means the solve went bad.
# The gate is proven once per held plan where the rounding bound allows
# (see _window_operators), and runs per A otherwise.
ZERO_TOL_FACTOR = 1e-9
# decode rejects solutions whose residual exceeds this times ||v||.
DECODE_RESIDUAL_RTOL = 1e-8
# decode_with_errors: a re-encoded output "matches" a received one
# within 1e-6 * (1 + |output|).
ERROR_MATCH_RTOL = 1e-6
# check_generator refuses max|H F| above this times max|B| max|W| (F = B W).
# Genuine codes read at most 1.6e-15 (every Vandermonde code the encode gate
# admits at P <= 30, Gaussian ones, and P = 100); a node of a
# (20,18,10,785) transform moved by 1e-9 reads 2.4e-11 or more.
PARITY_RTOL = 1e-13
# encode plans and multiplies its P windows in stacked blocks whose float64
# temporaries stay under about this many bytes (one window per block at least)
_ENCODE_BLOCK_BYTES = 1 << 20
# a generator holds its window operators (see _window_operators), one
# (P, P, M) float64 stack per (M, method), while together they take at
# most this many bytes: one stack is 32,000 bytes at (20,18,10) and
# 1,600,000 at (100,98,20), and every single stack fits up to P = 100
OPERATOR_MEMO_BYTES = 8 << 20


def zero_mask(params: CodeParams) -> np.ndarray:
    """Boolean (P, N) mask, True where the pattern forces F to zero."""
    # row r is zero in column j0 when r - j0 lies in 0..K-M-1 (mod P)
    i = np.arange(params.P)
    block = (i[:, None] - i) % params.P < params.K - params.M
    return np.tile(block, params.N // params.P)


def supports_from_pattern(params: CodeParams) -> np.ndarray:
    """(P, s) array: row i lists the 1-based allowed-nonzero columns of
    row i+1 of F, ascending.  Each call derives a fresh, writable array;
    a transform's `supports` is instead the one read-only array that
    _pattern keeps per (P, K, M, N)."""
    # row i is allowed in the columns j0 of each block whose offset
    # d = i - j0 (mod P) lies in K-M..P-1 (see zero_mask)
    P = params.P
    offsets = np.sort((np.arange(P)[:, None] - np.arange(params.K - params.M, P)) % P, axis=1)
    return (np.arange(1, params.N + 1, P)[:, None] + offsets[:, None]).reshape(P, params.s)


class _Pattern(NamedTuple):
    """The sparsity pattern of one (P, K, M, N), as read-only arrays."""

    supports: np.ndarray  # (P, s), see supports_from_pattern
    flat: np.ndarray  # (P, s): where each support entry lies in a C-ordered (P, N) F
    rows: np.ndarray  # (P, K - M): window r's 0-based pattern rows U_r


# one pattern per generator a process keeps: 2 * P * s * 8 bytes of
# supports and flat indices, plus 8 * P * (K - M) of rows, per entry;
# 153,600 + 1,280 bytes at (20,18,10,785) and 3.52 MB at (100,98,20,10000)
@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _pattern(P: int, K: int, M: int, N: int) -> _Pattern:
    """The pattern of (P, K, M, N), derived once in a process and shared
    by every transform and encode of those parameters, whatever N_raw."""
    supports = supports_from_pattern(CodeParams(P=P, K=K, M=M, N=N, N_raw=N))
    flat = supports + (np.arange(P) * N - 1)[:, None]
    rows = (np.arange(P)[:, None] + np.arange(K - M)) % P
    for arr in (supports, flat, rows):
        arr.flags.writeable = False
    return _Pattern(supports, flat, rows)


class WorkerTask(NamedTuple):
    """Row index, support S_i (1-based) and the row's coefficients on S_i."""

    index: int
    support: np.ndarray
    coefficients: np.ndarray


class WorkerOutput(NamedTuple):
    """One worker's result: the scalar <f_i^{S_i}, x^{S_i}>.  Any
    (index, value) pair is a worker output."""

    index: int
    value: float


@dataclass(frozen=True)
class EncodedTransform:
    """The encoded matrix F plus everything needed to task workers.

    F is P x N, real, finite and exactly zero on the cyclic pattern;
    construction refuses any other F.  No tolerance applies: a row's
    sparsity is its count of nonzero entries.  `supports` is the one
    read-only (P, s) array that every transform of these (P, K, M, N)
    shares (see _pattern), and `coefficients`, the (P, s) array of each
    row of F on its support, is gathered once with one flat `take`.
    F and coefficients are read-only too, so the worker tasks read from
    them cannot go stale: F is kept as it is when it owns its memory and
    is read-only, as encode's is, and is copied first otherwise (see
    generator._own), as a load's view of the array it read is.
    """

    F: np.ndarray
    generator: GeneratorMatrix
    params: CodeParams

    def __post_init__(self):
        p = self.params
        if self.F.shape != (p.P, p.N):
            raise ValueError(f"F shape {self.F.shape} != (P, N) = ({p.P}, {p.N})")
        # a complex F would reach run_workers' vecdot, which conjugates it
        if self.F.dtype.kind not in "biuf":
            raise ValueError(f"F must hold real numbers, not {self.F.dtype}")
        F = _own(self.F)
        pattern = _pattern(p.P, p.K, p.M, p.N)
        coefficients = F.take(pattern.flat)
        if not np.all(np.isfinite(coefficients)):
            raise ValueError("F has non-finite entries")
        # equal counts <=> every nonzero of F lies on its row's support;
        # counted on `!= 0` masks, which numpy counts faster than floats
        if np.count_nonzero(coefficients != 0) != np.count_nonzero(F != 0):
            raise ValueError("F is nonzero at a position the sparsity pattern forces to zero")
        F.flags.writeable = coefficients.flags.writeable = False
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "supports", pattern.supports)
        object.__setattr__(self, "coefficients", coefficients)

    def worker_tasks(self) -> tuple[WorkerTask, ...]:
        return tuple(map(WorkerTask, range(1, self.params.P + 1),
                         self.supports, self.coefficients))


def encode(
    A,
    gen: GeneratorMatrix,
    params: CodeParams,
    method: str = "solve",
) -> EncodedTransform:
    """Encode an M x N_raw matrix A into the sparse P x N transform F.

    The appended rows are fixed by the zero pattern, so F is linear in A
    column by column: columns j, j+P, ... share pattern window r, and
    F_j = G_r A_j for a P x M window operator G_r that depends on the
    generator and M alone (see _window_operators).  The first encode of
    a (generator, M, method) plans all P operators: it gates every
    window system, in index order, then solves them in stacked blocks,
    and the generator keeps the plan, so a later encode is one stacked
    product per block of windows.  The first window whose gate refuses
    raises ConditioningError, before any product; so does the first,
    in index order, whose pattern residual exceeds
    ZERO_TOL_FACTOR * max|A|, and the pattern is then snapped to exact
    zero.  That residual gate is proven once per held plan where the
    rounding bound allows (a certified plan, see _window_operators):
    its pattern rows are stored as 0.0, so its products are +0.0 there
    and no A is gated.  A plan that is not certified, or not held, is
    gated per A.  method picks only how a window is planned: "solve" is
    a dense solve, "poly" (Vandermonde only, see _check_method)
    interpolation through the pattern's nodes by Björck–Pereyra: Newton
    divided differences, then expansion into monomial coefficients, in
    place.
    """
    A = _finite_real(A, "A")
    K, M, N = params.K, params.M, params.N
    if A.shape != (M, params.N_raw):
        raise ValueError(f"A shape {A.shape} != (M, N_raw) = ({M}, {params.N_raw})")
    _check_shape(gen, params)
    points = _check_method(method, gen, "encode")

    Apad = np.zeros((M, N))
    Apad[:, : params.N_raw] = A
    F = gen.entries @ Apad if K == M else _encode_windows(Apad, gen, params, method, points)
    F.flags.writeable = False  # no one else holds F: the transform keeps it without a copy
    return EncodedTransform(F=F, generator=gen, params=params)


def _encode_windows(Apad, gen, params, method, points) -> np.ndarray:
    """F for K > M from the padded A: column j of window r is G_r A_j
    (see _window_operators), one stacked product per block of windows,
    then, unless the plan is certified, the pattern-residual gate and the
    snap to zero; see encode."""
    P, K, M, N = params.P, params.K, params.M, params.N
    # window r holds columns r, r+P, ... of F: F3[:, :, r], zero at rows[r]
    rows = _pattern(P, K, M, N).rows
    G, certified = _window_operators(gen, M, method, points, rows)
    if not certified:
        ztol = ZERO_TOL_FACTOR * float(np.max(np.abs(Apad)))  # the padding adds only zeros
    F = np.empty((P, N))
    D, n = K - M, N // P
    A3, F3 = Apad.reshape(M, n, P), F.reshape(P, n, P)
    # a window's float64 temporaries: n columns of A (M rows), of G_r A
    # (P) and of their pattern rows (D), plus its plan when G is not held
    per_window = n * (M + P + D) + (0 if G is not None else _plan_floats(P, K, M))
    step = max(1, _ENCODE_BLOCK_BYTES // (8 * per_window))
    for r0 in range(0, P, step):
        block = slice(r0, r0 + step)
        Gb = G[block] if G is not None else _operators(gen.entries, M, points, rows[block])
        # item w holds Apad[:, r::P] for r = r0 + w, C-ordered: the BLAS
        # takes another dgemm kernel, with other bits, for another layout
        Fcols = Gb @ np.ascontiguousarray(A3[:, :, block].transpose(2, 0, 1))
        if not certified:  # a certified plan's products are +0.0 on the pattern already
            pattern = np.arange(len(Fcols))[:, None], rows[block]
            on_pattern = Fcols[pattern]
            resid = np.max(np.abs(on_pattern, out=on_pattern), axis=(1, 2))
            over = np.flatnonzero(resid > ztol)
            if over.size:
                raise ConditioningError(
                    f"pattern residual {float(resid[over[0]]):.3e} exceeds zero tolerance "
                    f"{ztol:.3e}; generator too ill-conditioned for these parameters"
                )
            Fcols[pattern] = 0.0
        F3[:, :, block] = Fcols.transpose(1, 2, 0)
    return F


def _plan_floats(P: int, K: int, M: int) -> int:
    """The float64 temporaries of one window's plan: BU_r (D x K), C_r
    (D x M), B[:, M:] C_r and G_r (P x M each)."""
    return (K - M) * (K + M) + 2 * P * M


def _window_operators(gen, M: int, method: str, points, rows):
    """(G, certified): the plan of gen's windows for M rows of A, the
    read-only (P, P, M) stack of G_r = B[:, :M] - B[:, M:] C_r, and
    whether it is certified.  Window r's pattern rows
    U_r = rows[r] (see _pattern) give BU_r = B[U_r] and its system
    W_r = BU_r[:, M:]; C_r solves W_r C_r = BU_r[:, :M] (interpolates
    it through points[U_r] for the poly method), so G_r's U_r rows
    vanish up to rounding.

    Every W_r is gated first, in stacked blocks and index order; the
    first refused raises ConditioningError, and nothing is stored.  The
    stack is memoized on gen per (M, method) while the memo's stacks
    together stay within OPERATOR_MEMO_BYTES; one that would not fit is
    not built and None is returned, and encode then plans each block of
    windows as it goes.  Threads may share a generator: two that miss on
    one key both store equal stacks, and racing inserts can pass the cap
    by at most one stack per thread.

    A stored plan is certified when 4 b <= ZERO_TOL_FACTOR, with b the
    largest ||G_r[u, :]||_1 over the windows r and their rows u in U_r.
    A pattern entry of G_r A_j then never exceeds the residual gate's
    ZERO_TOL_FACTOR * max|A|, whatever finite A is.  For max|A| at or
    above the smallest normal float, the dot-product bound with gradual
    underflow (Higham 2002, sec. 3.1) puts it at most
    (1 + gamma_M) (b max|A| + M 2^-1075), inside the margin for M below
    six million.  For subnormal max|A| every product rounds onto the
    evenly spaced subnormal grid, to at most twice its exact magnitude,
    and every partial sum is exact; the entry is then at most
    2 b max|A|, which is under the rounded tolerance or, below one
    subnormal step, is 0.  The gate would pass every A and snap the
    pattern to 0.0, so a certified plan stores its U_r rows as 0.0
    instead, and encode gates no A for it.  Any other plan, and a None
    one, is not certified.  The memo's entry is the pair (G, certified),
    stored in one assignment, so no thread reads a plan without its
    certificate.
    """
    plan = gen._operators.get((M, method))
    if plan is not None:
        return plan
    P, K, B = gen.P, gen.K, gen.entries
    step = max(1, _ENCODE_BLOCK_BYTES // (8 * _plan_floats(P, K, M)))
    for r0 in range(0, P, step):
        windows = B[rows[r0 : r0 + step]][..., M:]
        hi_lo = np.linalg.svd(windows, compute_uv=False)[:, [0, -1]].tolist()
        for window, (hi, lo) in zip(windows, hi_lo):  # both methods solve with these
            check_condition(window, cond=hi / lo if lo > 0 else math.inf)
    held = sum(g.nbytes for g, _ in gen._operators.values())
    if held + 8 * P * P * M > OPERATOR_MEMO_BYTES:
        return None, False
    G = np.empty((P, P, M))
    for r0 in range(0, P, step):
        G[r0 : r0 + step] = _operators(B, M, points, rows[r0 : r0 + step])
    pattern = np.arange(P)[:, None], rows
    certified = 4 * float(np.abs(G[pattern]).sum(axis=2).max()) <= ZERO_TOL_FACTOR
    if certified:
        G[pattern] = 0.0
    G.flags.writeable = False
    gen._operators[M, method] = G, certified
    return G, certified


def _operators(B, M: int, points, rows) -> np.ndarray:
    """(b, P, M): G_r of the gated windows whose pattern rows are rows
    (b, K - M), as in _window_operators."""
    BU = B[rows]
    if points is None:
        C = np.linalg.solve(BU[..., M:], BU[..., :M])
    else:
        C = _newton_monomial(points[rows], BU[..., :M])
    return B[:, :M] - B[:, M:] @ C


def _check_shape(gen: GeneratorMatrix, params: CodeParams) -> None:
    """Refuse a generator that is not (P, K) of params."""
    if gen.entries.shape != (params.P, params.K):
        raise ValueError(f"generator shape {gen.entries.shape} != ({params.P}, {params.K})")


def _check_method(method: str, gen: GeneratorMatrix, call: str) -> np.ndarray | None:
    """The points the method interpolates through: None for "solve", and
    for "poly" the nodes, B's x^1 column, refused (ValueError) unless the
    generator's kind is Vandermonde and its entries are np.vander of that
    column.  At K = 1 there is no x^1 column; column 0, all ones, stands
    in, as a one-point interpolation reads no node.  Any other method is
    refused."""
    if method not in ("solve", "poly"):
        raise ValueError(f"unknown {call} method {method!r}")
    if method == "solve":
        return None
    if gen.kind != "vandermonde":
        raise ValueError("poly method requires a Vandermonde generator")
    points = gen.entries[:, max(gen.K - 2, 0)]
    if not np.array_equal(np.vander(points, gen.K), gen.entries):
        raise ValueError("poly method requires a Vandermonde generator: its entries "
                         "are not np.vander of their x^1 column")
    return points


def _newton_monomial(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Interpolate each column of values through the shared points.
    Björck–Pereyra: Newton divided differences, then expansion into
    monomial coefficients, in place; returns them highest first, (D, ncols).
    Leading axes stack systems: points (..., D), values (..., D, ncols);
    every step is elementwise, so a stacked system's bits are its own."""
    a = values.astype(float, copy=True)
    D = points.shape[-1]
    for k in range(1, D):
        a[..., k:, :] = ((a[..., k:, :] - a[..., k - 1 : -1, :])
                         / (points[..., k:] - points[..., :-k])[..., None])
    for k in range(D - 2, -1, -1):
        a[..., k:-1, :] -= points[..., k, None, None] * a[..., k + 1 :, :]
    return a[..., ::-1, :]


def _finite_real(a, name: str) -> np.ndarray:
    """a as a float array, refused (ValueError) if it is complex, which a
    float cast would silently make real, or has a NaN or infinite entry."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} has complex entries")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _input_behind_zero(x, params: CodeParams) -> np.ndarray:
    """Real finite x of length N_raw or N, zero-padded to length N, behind
    one leading zero: entry j is x_j, so the 1-based supports index it
    directly.  x is 1-D, one row or one column; a block of several rows
    and columns is refused, not flattened into one input."""
    x = _finite_real(x, "x")
    if x.ndim != 1 and (x.ndim != 2 or 1 not in x.shape):
        held = (f"{x.shape[0]} x {x.shape[1]} matrix" if x.ndim == 2
                else f"{x.ndim}-d array of shape {x.shape}")
        raise ValueError(f"x holds a {held}; x must be one row or one column")
    x = x.ravel()
    if x.size not in (params.N_raw, params.N):
        lengths = params.N if params.N_raw == params.N else f"{params.N_raw} or {params.N}"
        raise ValueError(f"x has length {x.size}, expected {lengths}")
    out = np.zeros(params.N + 1)
    out[1 : x.size + 1] = x
    return out


def run_workers(code: EncodedTransform, x) -> list[WorkerOutput]:
    """Simulate all P workers on input x (length N_raw or N; 1-D, one row
    or one column): one gather of x over the (P, s) supports, then one
    vecdot with the coefficients."""
    xz = _input_behind_zero(x, code.params)
    values = np.vecdot(code.coefficients, xz[code.supports])
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return list(map(tuple.__new__, repeat(WorkerOutput),
                    zip(range(1, code.params.P + 1), values.tolist())))


def _read_outputs(outputs, count: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of `outputs`, (index, value) pairs; refused
    (ValueError) unless there are exactly `count` of them, each a pair of
    a real number and a distinct index in 1..P (see worker_indices)."""
    pairs = list(outputs)
    if len(pairs) != count:
        raise ValueError(f"need exactly {count} outputs, got {len(pairs)}")
    try:
        ids, vals = zip(*pairs, strict=True)
    except (TypeError, ValueError):
        raise ValueError("every worker output must be an (index, value) pair") from None
    idx = worker_indices(ids, P)
    if len(set(ids)) != count:  # whole numbers by now: equal values hash alike
        raise ValueError("worker indices must be distinct")
    try:  # a None, text or complex value is refused, not cast to float
        v = np.array(vals)
        if v.dtype.kind not in "biuf" or v.ndim != 1:
            raise ValueError
    except ValueError:  # numpy's too, for a sequence among the numbers
        raise ValueError("worker output values must be real numbers") from None
    return idx, v.astype(float, copy=False)


def decode(
    outputs,
    gen: GeneratorMatrix,
    params: CodeParams,
    method: str = "solve",
) -> np.ndarray:
    """Recover A @ x from exactly K worker outputs with distinct indices.

    Solves B^V w = v, with the rows of B^V in the order of `outputs`, and
    returns the first M entries of w; the solve is rejected
    (ConditioningError) if an output is NaN or infinite, the condition
    gate trips, or the residual ||B^V w - v|| exceeds 1e-8 ||v||.  The gate
    belongs to the responder set, not its order: cond(B^V) is taken on
    the rows in ascending index order, once per set, and memoized on the
    generator (see GeneratorMatrix.condition), so a repeated set, or one
    that decode_with_errors tries again, takes no second SVD.
    """
    _check_shape(gen, params)
    idx, v = _read_outputs(outputs, params.K, params.P)
    points = _check_method(method, gen, "decode")
    return _decode_full(idx, v, gen, points)[: params.M]


def _decode_full(idx, v, gen, points) -> np.ndarray:
    """Solve B^V w = v for checked responders idx, by interpolation
    through points for the poly method (see _check_method); see decode."""
    if not np.isfinite(v).all():
        raise ConditioningError("decode refused: a worker output is NaN or infinite")
    rows = idx - 1
    BV = gen.entries[rows]
    c = gen.condition(idx)
    if points is None:
        w = guarded_solve(BV, v, cond=c)
    else:
        check_condition(BV, cond=c)
        w = _newton_monomial(points[rows], v[:, None])[:, 0]
    # hypot scales, so neither norm overflows before the outputs do
    residual = math.hypot(*(BV @ w - v).tolist())
    if not residual <= DECODE_RESIDUAL_RTOL * math.hypot(*v.tolist()):  # NaN fails too
        raise ConditioningError(
            f"decode residual {residual:.3e} exceeds "
            f"{DECODE_RESIDUAL_RTOL:.0e} * ||v||"
        )
    return w


def decode_with_errors(
    outputs,
    e_max: int,
    gen: GeneratorMatrix,
    params: CodeParams,
) -> np.ndarray:
    """Recover A @ x from all P outputs when up to e_max are garbage.

    A code that tolerates P-K erasures corrects floor((P-K)/2) errors:
    K-subsets are tried in lexicographic index order, and the first
    decode whose re-encoding matches at least P - e_max of the received
    outputs (within 1e-6 * (1 + |output|)) wins.

    Known defect: a wrong K-subset can pass that agreement test when the
    outputs it leaves out are large, since the tolerance grows with them;
    its decode, which holds the corrupted output, is then returned.  At
    (20,18,10,785) with one output corrupted by 1.0, 129 of 400 decodes
    had relative error above 1 (ROADMAP item 1).
    """
    P, K = params.P, params.K
    radius = (P - K) // 2
    if not 0 <= e_max <= radius:
        raise ValueError(f"e_max={e_max} outside correctable radius 0..{radius}")
    _check_shape(gen, params)
    idx, v = _read_outputs(outputs, P, P)
    order = np.argsort(idx)
    idx, v = idx[order], v[order]
    need = P - e_max
    finite = np.isfinite(v)  # an infinite output would match any prediction
    for subset in combinations(range(P), K):
        sel = np.asarray(subset, dtype=int)
        try:
            w = _decode_full(idx[sel], v[sel], gen, None)
        except ConditioningError:
            continue
        agree = _agrees(gen.entries @ w, v)
        if int(np.sum(agree & finite)) >= need:
            return w[: params.M]
    raise DecodingError(
        f"no K-subset decode consistent with >= {need} of {P} outputs; "
        "too many corrupted outputs or tolerance too tight"
    )


def _agrees(predicted, received) -> np.ndarray:
    """Where a re-encoded output matches a received one: within
    ERROR_MATCH_RTOL * (1 + |received|)."""
    return np.abs(predicted - received) <= ERROR_MATCH_RTOL * (1.0 + np.abs(received))


def check_generator(code: EncodedTransform) -> None:
    """Refuse (ValueError) an F that its generator does not reproduce.

    F is B @ W for some W exactly when the generator's parity H maps it
    to 0.  A genuine F holds the rounding of that product, about
    eps |B| |W|, so F is refused when max|H F| exceeds PARITY_RTOL times
    max|B| max|W|, with W = pinv(B) @ F.  With K = P, H is empty and
    nothing is checked.
    """
    gen, F = code.generator, code.F
    miss = float(np.max(np.abs(gen.parity @ F), initial=0.0))
    scale = float(np.max(np.abs(gen.entries)) * np.max(np.abs(gen.pinv @ F)))
    if miss > PARITY_RTOL * scale:
        raise ValueError(
            f"F is not encoded by its {gen.kind} generator: max|H F| is "
            f"{miss / scale:.3e} of max|B| max|W|, above {PARITY_RTOL:.0e}")
