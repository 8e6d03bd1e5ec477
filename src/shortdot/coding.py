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
B^U(j)[A_j; z] = 0.

Indices in public interfaces (rows/workers, columns/supports) are
1-based; matrices are plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
# check_generator re-encodes this many columns of F at most.
CHECK_COLUMNS = 8


def _zero_rows0(j0: int, P: int, width: int) -> np.ndarray:
    return np.arange(j0, j0 + width) % P


def zero_mask(params: CodeParams) -> np.ndarray:
    """Boolean (P, N) mask, True where the pattern forces F to zero."""
    # row r is zero in column j0 when r - j0 lies in 0..K-M-1 (mod P)
    i = np.arange(params.P)
    block = (i[:, None] - i) % params.P < params.K - params.M
    return np.tile(block, params.N // params.P)


def supports_from_pattern(params: CodeParams) -> np.ndarray:
    """(P, s) array: row i lists the 1-based allowed-nonzero columns of
    row i+1 of F, ascending."""
    return np.nonzero(~zero_mask(params))[1].reshape(params.P, params.s) + 1


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

    F is P x N, finite and exactly zero on the cyclic pattern; construction
    refuses any other F, and a zero_tolerance that is negative or not
    finite.  Construction also derives `supports` (see
    supports_from_pattern) and `coefficients`, the (P, s) array of each
    row of F on its support, once; all three are then read-only, so
    the worker tasks read from them cannot go stale.
    """

    F: np.ndarray
    generator: GeneratorMatrix
    params: CodeParams
    zero_tolerance: float

    def __post_init__(self):
        p = self.params
        if self.F.shape != (p.P, p.N):
            raise ValueError(f"F shape {self.F.shape} != (P, N) = ({p.P}, {p.N})")
        if not 0 <= self.zero_tolerance < np.inf:  # NaN fails too
            raise ValueError(f"zero_tolerance must be finite and >= 0, "
                             f"got {self.zero_tolerance!r}")
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

    method picks only the solver of each pattern's window system
    B^U_{M+1:K} z = -B^U_{1:M} A_j: "solve" is a dense solve, "poly"
    (Vandermonde only) interpolation through the pattern's nodes by
    Björck–Pereyra: Newton divided differences, then expansion into
    monomial coefficients, in place.
    Both evaluate F_j = B [A_j; z], so they differ only by z's rounding.
    """
    A = np.asarray(A, dtype=float)
    P, K, M, N = params.P, params.K, params.M, params.N
    if A.shape != (M, params.N_raw):
        raise ValueError(f"A shape {A.shape} != (M, N_raw) = ({M}, {params.N_raw})")
    if not np.all(np.isfinite(A)):
        raise ValueError("A has non-finite entries")
    _check_shape(gen, params)
    _check_method(method, gen, "encode")

    Apad = np.zeros((M, N))
    Apad[:, : params.N_raw] = A
    ztol = ZERO_TOL_FACTOR * float(np.max(np.abs(A)))

    B = gen.entries
    F = np.empty((P, N))
    if K == M:
        F[:] = B @ Apad
    else:
        # Only P distinct zero patterns exist (columns j and j+P share
        # one), so solve each pattern once for all its columns.
        for r in range(P):
            cols = np.arange(r, N, P)
            rows = _zero_rows0(r, P, K - M)
            Acols = Apad[:, cols]
            BU = B[rows]
            check_condition(BU[:, M:])  # both methods solve with this window
            rhs = BU[:, :M] @ Acols
            if method == "solve":
                Z = -np.linalg.solve(BU[:, M:], rhs)
            else:
                Z = -_newton_monomial(gen.nodes[rows], rhs)
            Fcols = B @ np.vstack([Acols, Z])
            pattern_resid = float(np.max(np.abs(Fcols[rows])))
            if pattern_resid > ztol:
                raise ConditioningError(
                    f"pattern residual {pattern_resid:.3e} exceeds zero tolerance "
                    f"{ztol:.3e}; generator too ill-conditioned for these parameters"
                )
            Fcols[rows] = 0.0
            F[:, cols] = Fcols

    return EncodedTransform(F=F, generator=gen, params=params, zero_tolerance=ztol)


def _check_shape(gen: GeneratorMatrix, params: CodeParams) -> None:
    """Refuse a generator that is not (P, K) of params."""
    if gen.entries.shape != (params.P, params.K):
        raise ValueError(f"generator shape {gen.entries.shape} != ({params.P}, {params.K})")


def _check_method(method: str, gen: GeneratorMatrix, call: str) -> None:
    """Refuse a method other than "solve" or "poly", and "poly" on a
    generator that is not Vandermonde."""
    if method not in ("solve", "poly"):
        raise ValueError(f"unknown {call} method {method!r}")
    if method == "poly" and gen.kind != "vandermonde":
        raise ValueError("poly method requires a Vandermonde generator")


def _newton_monomial(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Interpolate each column of values through the shared points.
    Björck–Pereyra: Newton divided differences, then expansion into
    monomial coefficients, in place; returns them highest first, (D, ncols)."""
    a = values.astype(float, copy=True)
    for k in range(1, points.size):
        a[k:] = (a[k:] - a[k - 1 : -1]) / (points[k:] - points[:-k])[:, None]
    for k in range(points.size - 2, -1, -1):
        a[k:-1] -= points[k] * a[k + 1 :]
    return a[::-1]


def _input_behind_zero(x, params: CodeParams) -> np.ndarray:
    """Finite x of length N_raw or N, zero-padded to length N, behind one
    leading zero: entry j is x_j, so the 1-based supports index it
    directly."""
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("x has non-finite entries")
    if x.size not in (params.N_raw, params.N):
        raise ValueError(f"x has length {x.size}, expected {params.N_raw} or {params.N}")
    out = np.zeros(params.N + 1)
    out[1 : x.size + 1] = x
    return out


def run_workers(code: EncodedTransform, x) -> list[WorkerOutput]:
    """Simulate all P workers on input x (length N_raw or N): one gather of
    x over the (P, s) supports, then one vecdot with the coefficients."""
    xz = _input_behind_zero(x, code.params)
    values = np.vecdot(code.coefficients, xz[code.supports])
    return list(map(WorkerOutput, range(1, code.params.P + 1), values.tolist()))


def _read_outputs(outputs, count: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of `outputs`, (index, value) pairs; refused
    unless there are exactly `count` of them with distinct indices in 1..P
    (see worker_indices)."""
    pairs = list(outputs)
    if len(pairs) != count:
        raise ValueError(f"need exactly {count} outputs, got {len(pairs)}")
    ids, vals = zip(*pairs, strict=True)  # every output is a pair
    idx = worker_indices(ids, P)
    if len(set(idx.tolist())) != count:
        raise ValueError("worker indices must be distinct")
    return idx, np.asarray(vals, dtype=float)


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
    _check_method(method, gen, "decode")
    w = _decode_full(idx, v, gen, method)
    return w[: params.M]


def _decode_full(idx, v, gen, method) -> np.ndarray:
    """Solve B^V w = v for checked responders idx; see decode."""
    if not np.all(np.isfinite(v)):
        raise ConditioningError("decode refused: a worker output is NaN or infinite")
    BV = gen.entries[idx - 1]
    c = gen.condition(idx)
    if method == "solve":
        w = guarded_solve(BV, v, cond=c)
    else:
        check_condition(BV, cond=c)
        w = _newton_monomial(gen.nodes[idx - 1], v[:, None])[:, 0]
    residual = np.linalg.norm(BV @ w - v)
    if not residual <= DECODE_RESIDUAL_RTOL * np.linalg.norm(v):  # NaN fails too
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
            w = _decode_full(idx[sel], v[sel], gen, "solve")
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

    Column j of F holds the P worker outputs for the unit input e_j.  Up
    to CHECK_COLUMNS of them, spread over 1..N_raw and scaled to max|F| = 1,
    are decoded from the workers of one K-subset, the first of the P
    rotations of the evenly spread subset {floor(iP/K)} that passes the
    condition gate (ConditioningError if none does), then re-encoded;
    every other worker must agree as in decode_with_errors.  With K = P
    there is no other worker, and nothing is checked.
    """
    p, gen = code.params, code.generator
    scale = float(np.max(np.abs(code.F)))
    if p.K == p.P or scale == 0.0:
        return
    V = code.F[:, : p.N_raw : -(-p.N_raw // CHECK_COLUMNS)] / scale
    spread = np.arange(p.K) * p.P // p.K
    for shift in range(p.P):
        inside = np.zeros(p.P, dtype=bool)
        inside[(spread + shift) % p.P] = True
        workers, BV = np.flatnonzero(inside) + 1, gen.entries[inside]
        try:
            check_condition(BV, cond=gen.condition(workers))
        except ConditioningError:
            continue
        W = np.linalg.solve(BV, V[inside])
        miss = ~_agrees(gen.entries[~inside] @ W, V[~inside]).all(axis=1)
        if miss.any():
            raise ValueError(
                f"F is not encoded by its {gen.kind} generator: re-encoding from "
                f"workers {workers.tolist()} misses {int(miss.sum())} of the other "
                f"{p.P - p.K} workers")
        return
    raise ConditioningError(
        "cannot check F against its generator: every rotation of the spread "
        "K-subset of workers fails the condition gate")
