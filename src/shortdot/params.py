"""Code parameters: processor count, recovery threshold and dimensions.

All constructions in this package are governed by the tuple (P, K, M, N):
P workers each compute one short dot product, any K of the P outputs
recover the M true dot products, and N is the (padded) input dimension.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CodeParams:
    """Validated parameter tuple.  Use :func:`validate_params` to build one.

    Attributes:
        P: number of parallel workers.
        K: recovery threshold; any K of the P outputs suffice to decode.
        M: number of dot products to recover (rows of the input matrix).
        N: padded input dimension, always a multiple of P.
        N_raw: original input dimension (N_raw <= N < N_raw + P).
    """

    P: int
    K: int
    M: int
    N: int
    N_raw: int

    @property
    def s(self) -> int:
        """Per-row sparsity budget (N/P)*(P-K+M): the worker task length."""
        return (self.N // self.P) * (self.P - self.K + self.M)

    @property
    def padding(self) -> int:
        return self.N - self.N_raw


def validate_params(P: int, K: int, M: int, N_raw: int) -> CodeParams:
    """Check (P, K, M, N_raw) and zero-pad N_raw up to a multiple of P.

    Raises ValueError on K < M, K > P, or nonpositive dimensions.
    """
    for name, value in (("P", P), ("K", K), ("M", M), ("N_raw", N_raw)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    P, K, M, N_raw = int(P), int(K), int(M), int(N_raw)
    if M > K:
        raise ValueError(f"need M <= K, got M={M} > K={K}")
    if K > P:
        raise ValueError(f"need K <= P, got K={K} > P={P}")
    N = -(-N_raw // P) * P
    params = CodeParams(P=P, K=K, M=M, N=N, N_raw=N_raw)
    # Derived budget always sits between the dense-MDS and uncoded extremes.
    assert params.N % P == 0 and 0 <= params.padding < P
    assert N * M // P <= params.s <= N
    return params


def worker_indices(ids, P: int) -> np.ndarray:
    """ids as a 1-D int array, refused (ValueError) unless ids is a flat
    sequence of real numbers, each a whole number in 1..P.  Integers of
    any dtype are read as they are; a float such as 3.0 reads as worker 3,
    and 2.9, inf, NaN, None, text or a complex number is refused."""
    idx = np.asarray(ids)
    if idx.ndim != 1 or idx.dtype.kind not in "iuf":
        raise ValueError("worker indices must be whole numbers")
    if idx.dtype.kind == "f" and not np.all(idx == np.trunc(idx)):  # NaN fails too
        raise ValueError("worker indices must be whole numbers")
    listed = idx.tolist()  # Python min and max: faster than numpy at small P
    if listed and (min(listed) < 1 or max(listed) > P):  # inf fails here
        raise ValueError(f"worker indices must lie in 1..{P}")
    return idx.astype(int, copy=False)
