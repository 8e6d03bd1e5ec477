"""Helpers shared by the test modules."""

import zlib

import numpy as np

from shortdot import GeneratorMatrix, coding
from shortdot.errors import ConditioningError
from shortdot.generator import check_condition


def vandermonde_on(nodes, K: int) -> GeneratorMatrix:
    """The Vandermonde generator on the given nodes.  build_generator
    makes it on the Chebyshev nodes only, so hand examples and nodes
    chosen to trip a gate are built here."""
    return GeneratorMatrix(entries=np.vander(np.array(nodes, dtype=float), K),
                           kind="vandermonde")


# the key= heads of the six lines of params.txt, in the order encode writes them
PARAMS_LINES = ("P=", "K=", "M=", "N_raw=", "kind=", "F_crc32=")


def layout_refusal(found) -> str:
    """The text with which load_transform refuses a params.txt whose
    lines begin with found (a key and its =, or a whole line without =)
    instead of PARAMS_LINES."""
    return (f"has lines beginning {tuple(found)}, not exactly {PARAMS_LINES}; "
            "run `shortdot encode` again")


def set_param(out, key, value) -> None:
    """Rewrite the key= line of the transform directory out's params.txt."""
    params_txt = out / "params.txt"
    lines = params_txt.read_text().splitlines()
    params_txt.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=")
                                  else line + "\n" for line in lines))


def restamp(out) -> None:
    """Set the F_crc32= line of the transform directory out to the CRC of
    its F.csv and F.npy as they are now, so a load reads an F.npy edited
    after the save."""
    crc = zlib.crc32((out / "F.csv").read_bytes() + (out / "F.npy").read_bytes())
    set_param(out, "F_crc32", f"{crc:08x}")


def replace_f(out, F) -> None:
    """Give the transform directory out the encoded matrix F: F.npy holds
    it and F_crc32 vouches for it, so a load's checks see F itself."""
    np.save(out / "F.npy", np.asarray(F, dtype=np.float64))
    restamp(out)


def encode_by_window(A, gen: GeneratorMatrix, params, method: str = "solve") -> np.ndarray:
    """F as encode built it one pattern window at a time: per window r an
    SVD gate, a solve (or the Björck–Pereyra interpolation) of the
    window system for columns r, r+P, ..., and B @ [A_cols; Z].  encode
    stacks the windows in blocks and must match this bit for bit, with
    the same refusals.  A must be valid for params; encode checks that."""
    A = np.asarray(A, dtype=float)
    P, K, M, N = params.P, params.K, params.M, params.N
    Apad = np.zeros((M, N))
    Apad[:, : params.N_raw] = A
    ztol = coding.ZERO_TOL_FACTOR * float(np.max(np.abs(A)))
    B = gen.entries
    F = np.empty((P, N))
    if K == M:
        F[:] = B @ Apad
        return F
    for r in range(P):
        cols = np.arange(r, N, P)
        rows = np.arange(r, r + K - M) % P
        Acols = Apad[:, cols]
        BU = B[rows]
        check_condition(BU[:, M:])
        rhs = BU[:, :M] @ Acols
        if method == "solve":
            Z = -np.linalg.solve(BU[:, M:], rhs)
        else:
            Z = -_newton_monomial_by_window(B[rows, K - 2], rhs)  # the x^1 column
        Fcols = B @ np.vstack([Acols, Z])
        pattern_resid = float(np.max(np.abs(Fcols[rows])))
        if pattern_resid > ztol:
            raise ConditioningError(
                f"pattern residual {pattern_resid:.3e} exceeds zero tolerance "
                f"{ztol:.3e}; generator too ill-conditioned for these parameters"
            )
        Fcols[rows] = 0.0
        F[:, cols] = Fcols
    return F


def _newton_monomial_by_window(points, values):
    """The Björck–Pereyra interpolation of one window's system."""
    a = values.astype(float, copy=True)
    for k in range(1, points.size):
        a[k:] = (a[k:] - a[k - 1 : -1]) / (points[k:] - points[:-k])[:, None]
    for k in range(points.size - 2, -1, -1):
        a[k:-1] -= points[k] * a[k + 1 :]
    return a[::-1]
