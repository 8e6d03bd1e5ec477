"""Polynomial evaluation and interpolation primitives.

These back the polynomial encode/decode path for Vandermonde
generators: a Vandermonde matrix-vector product is a polynomial
evaluation, and a Vandermonde solve is an interpolation.  Baselines are
Horner evaluation (O(D) per point) and Newton divided differences
(O(D^2)); coefficients are stored highest degree first to match the
generator's column order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError

INTERP_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; coefficients[0] multiplies the highest power."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1


def eval_many(p: Polynomial, points) -> np.ndarray:
    """Evaluate p at each point via the Horner recurrence."""
    pts = np.asarray(points, dtype=float)
    return horner(p.coefficients[:, None], pts)[:, 0]


def horner(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate many polynomials (columns of coeffs, highest first) at
    many points; returns an array of shape (len(points), ncols)."""
    out = np.zeros((points.size, coeffs.shape[1]))
    for row in coeffs:
        out *= points[:, None]
        out += row[None, :]
    return out


def newton_monomial(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Newton divided-difference interpolation through shared points for
    each column of values; returns monomial coefficients, highest first,
    shape (D, ncols)."""
    D = points.size
    dd = values.astype(float, copy=True)
    newton = np.empty_like(dd)
    newton[0] = dd[0]
    for level in range(1, D):
        dd = (dd[1:] - dd[:-1]) / (points[level:] - points[:-level])[:, None]
        newton[level] = dd[0]
    # Expand the nested Newton form into monomial coefficients
    # (lowest-first while building, reversed on return).
    mono = np.zeros_like(newton)
    mono[0] = newton[D - 1]
    deg = 0
    for i in range(D - 2, -1, -1):
        shifted = np.zeros_like(mono)
        shifted[1 : deg + 2] = mono[: deg + 1]
        shifted[: deg + 1] -= points[i] * mono[: deg + 1]
        shifted[0] += newton[i]
        mono = shifted
        deg += 1
    return mono[::-1]


def interpolate(points, values) -> Polynomial:
    """Unique polynomial of degree D-1 through D (point, value) pairs.

    Points must be pairwise distinct.  A NaN or infinite value raises
    ConditioningError, and so does a relative residual above 1e-8 when
    the result is re-evaluated at the input points, instead of returning
    inaccurate coefficients.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.ndim != 1 or pts.size < 1 or pts.shape != vals.shape:
        raise ValueError("points and values must be 1-D of equal positive length")
    if np.unique(pts).size != pts.size:
        raise ValueError("interpolation points must be pairwise distinct")
    if not np.all(np.isfinite(vals)):
        raise ConditioningError("interpolation refused: a value is NaN or infinite")
    coeffs = newton_monomial(pts, vals[:, None])[:, 0]
    poly = Polynomial(coeffs)
    residual = np.linalg.norm(eval_many(poly, pts) - vals)
    if not residual <= INTERP_RESIDUAL_RTOL * np.linalg.norm(vals):  # NaN fails too
        raise ConditioningError(
            f"interpolation residual {residual:.3e} exceeds "
            f"{INTERP_RESIDUAL_RTOL:.0e} * ||values||"
        )
    return poly
