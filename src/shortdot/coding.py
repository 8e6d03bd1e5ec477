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
positions.  The appended entries z(j) are the unique solution of
B^U(j)[A_j; z] = 0.  Columns j and j+P share U(j), so encode solves P
window systems, all of them in stacked blocks.

Indices in public interfaces (rows/workers, columns/supports) are
1-based; matrices are plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DecodingError
from .generator import GeneratorMatrix, check_condition, guarded_solve
from .params import CodeParams, worker_indices

# encode snaps pattern positions to exact zero; anything above
# ZERO_TOL_FACTOR * max|A| there beforehand means the solve went bad.
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
# encode stacks its P window systems in blocks whose float64 temporaries
# stay under about this many bytes (one window per block at least)
_ENCODE_BLOCK_BYTES = 1 << 20


def zero_mask(params: CodeParams) -> np.ndarray:
    """Boolean (P, N) mask, True where the pattern forces F to zero."""
    # row r is zero in column j0 when r - j0 lies in 0..K-M-1 (mod P)
    i = np.arange(params.P)
    block = (i[:, None] - i) % params.P < params.K - params.M
    return np.tile(block, params.N // params.P)


def supports_from_pattern(params: CodeParams) -> np.ndarray:
    """(P, s) array: row i lists the 1-based allowed-nonzero columns of
    row i+1 of F, ascending."""
    # row i is allowed in the columns j0 of each block whose offset
    # d = i - j0 (mod P) lies in K-M..P-1 (see zero_mask)
    P = params.P
    offsets = np.sort((np.arange(P)[:, None] - np.arange(params.K - params.M, P)) % P, axis=1)
    return (np.arange(1, params.N + 1, P)[:, None] + offsets[:, None]).reshape(P, params.s)


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
    sparsity is its count of nonzero entries.  Construction also derives
    `supports` (see supports_from_pattern) and `coefficients`, the (P, s)
    array of each row of F on its support, once; all three are then
    read-only, so the worker tasks read from them cannot go stale.
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
        supports = supports_from_pattern(p)
        coefficients = np.take_along_axis(self.F, supports - 1, axis=1)
        if not np.all(np.isfinite(coefficients)):
            raise ValueError("F has non-finite entries")
        # equal counts <=> every nonzero of F lies on its row's support
        if np.count_nonzero(coefficients) != np.count_nonzero(self.F):
            raise ValueError("F is nonzero at a position the sparsity pattern forces to zero")
        for arr in (self.F, supports, coefficients):
            arr.flags.writeable = False
        object.__setattr__(self, "supports", supports)
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

    Columns j and j+P of F share a zero pattern, so its P window systems
    B^U_{M+1:K} z = -B^U_{1:M} A_j are solved once each, all windows in
    stacked blocks: per block one condition gate over every window, one
    solve and two products.  A block gates all its windows before it
    solves any; the first window, in index order, that the gate refuses
    raises ConditioningError, as does the first whose pattern residual
    exceeds ZERO_TOL_FACTOR * max|A|.  method picks only the window solver:
    "solve" is a dense solve, "poly" (Vandermonde only, see _check_method)
    interpolation through the pattern's nodes by Björck–Pereyra: Newton
    divided differences, then expansion into monomial coefficients, in
    place.
    Both evaluate F_j = B [A_j; z], so they differ only by z's rounding.
    """
    A = _finite_real(A, "A")
    K, M, N = params.K, params.M, params.N
    if A.shape != (M, params.N_raw):
        raise ValueError(f"A shape {A.shape} != (M, N_raw) = ({M}, {params.N_raw})")
    _check_shape(gen, params)
    points = _check_method(method, gen, "encode")

    Apad = np.zeros((M, N))
    Apad[:, : params.N_raw] = A
    F = gen.entries @ Apad if K == M else _encode_windows(Apad, gen, params, points)
    return EncodedTransform(F=F, generator=gen, params=params)


def _encode_windows(Apad, gen, params, points) -> np.ndarray:
    """F for K > M from the padded A: the P window systems in stacked
    blocks, gated, solved (interpolated through points for the poly
    method, see _check_method), multiplied out and checked; see encode."""
    P, K, M, N = params.P, params.K, params.M, params.N
    ztol = ZERO_TOL_FACTOR * float(np.max(np.abs(Apad)))  # the padding adds only zeros
    B = gen.entries
    F = np.empty((P, N))
    D, n = K - M, N // P
    # window r holds columns r, r+P, ... of F: F3[:, :, r], zero at rows[r]
    rows = (np.arange(P)[:, None] + np.arange(D)) % P
    A3, F3 = Apad.reshape(M, n, P), F.reshape(P, n, P)
    # a window's float64 temporaries: BU (D x K), and n columns of Acols
    # (M rows), rhs, Z and the pattern rows of B @ X (D each), X (K) and B @ X (P)
    step = max(1, _ENCODE_BLOCK_BYTES // (8 * (D * K + n * (P + 2 * K + 2 * D))))
    for r0 in range(0, P, step):
        block = slice(r0, r0 + step)
        BU = B[rows[block]]
        windows = BU[..., M:]
        hi_lo = np.linalg.svd(windows, compute_uv=False)[:, [0, -1]].tolist()
        for window, (hi, lo) in zip(windows, hi_lo):  # both methods solve with these
            check_condition(window, cond=hi / lo if lo > 0 else math.inf)
        # Acols[w] has the F-ordered layout of Apad[:, r::P]: a C-ordered
        # operand sends the BLAS down another dgemm kernel, which moves F's bits
        Acols = np.ascontiguousarray(A3[:, :, block].transpose(2, 1, 0)).transpose(0, 2, 1)
        rhs = BU[..., :M] @ Acols
        # X[w] = [Acols[w]; Z[w]] in the layout np.vstack gives one window's
        # pair: F-ordered when Z is one row under a taller Acols[w] (vstack
        # follows its only input of several rows), else C-ordered; B @ X
        # takes another dgemm kernel, and other bits, in the other layout
        b = len(BU)
        X = np.empty((b, n, K)).transpose(0, 2, 1) if D == 1 < M else np.empty((b, K, n))
        X[:, :M] = Acols
        if points is None:
            np.negative(np.linalg.solve(windows, rhs), out=X[:, M:])
        else:
            np.negative(_newton_monomial(points[rows[block]], rhs), out=X[:, M:])
        Fcols = B @ X
        pattern = np.arange(b)[:, None], rows[block]
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
    scale = float(np.max(np.abs(gen.entries)) * np.max(np.abs(np.linalg.pinv(gen.entries) @ F)))
    if miss > PARITY_RTOL * scale:
        raise ValueError(
            f"F is not encoded by its {gen.kind} generator: max|H F| is "
            f"{miss / scale:.3e} of max|B| max|W|, above {PARITY_RTOL:.0e}")
