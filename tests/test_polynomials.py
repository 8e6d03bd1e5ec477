"""The polynomial path's Newton interpolation, its agreement with the
dense solve at the paper's size, and its decode gate."""

import numpy as np
import pytest

from shortdot import build_generator, decode, encode, validate_params
from shortdot.coding import _newton_monomial
from shortdot.errors import ConditioningError

from helpers import vandermonde_on


def test_newton_line():
    coeffs = _newton_monomial(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(coeffs, [[1.0], [1.0]])  # h + 1


def test_newton_single_point():
    coeffs = _newton_monomial(np.array([3.0]), np.array([[7.5, -2.0]]))
    np.testing.assert_array_equal(coeffs, [[7.5, -2.0]])


def _two_stage_newton_monomial(points, values):
    """The interpolation the in-place solve replaced: divided differences
    into a Newton array, then a monomial expansion that shifts by one
    degree per node."""
    D = points.size
    dd = values.astype(float, copy=True)
    newton = np.empty_like(dd)
    newton[0] = dd[0]
    for level in range(1, D):
        dd = (dd[1:] - dd[:-1]) / (points[level:] - points[:-level])[:, None]
        newton[level] = dd[0]
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


def test_newton_is_bitwise_the_two_stage_interpolation():
    rng = np.random.default_rng(16)
    for trial in range(10_000):
        D = int(rng.integers(1, 41))
        if trial % 2:
            points = rng.permutation(np.cos((2 * np.arange(1, D + 1) - 1) * np.pi / (2 * D)))
        else:
            points = rng.standard_normal(D)
        values = rng.standard_normal((D, int(rng.integers(1, 5))))
        assert np.array_equal(_newton_monomial(points, values),
                              _two_stage_newton_monomial(points, values)), (trial, D)


def test_newton_round_trip_against_polyval():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((6, 3))  # three polynomials of degree 5
    pts = np.cos((2 * np.arange(1, 7) - 1) * np.pi / 12)
    vals = np.polyval(coeffs, pts[:, None])
    back = _newton_monomial(pts, vals)
    np.testing.assert_allclose(back, coeffs, rtol=1e-8)
    np.testing.assert_allclose(np.polyval(back, pts[:, None]), vals, rtol=1e-12)


@pytest.mark.parametrize("P, K, M, N_raw", [(20, 18, 10, 785), (20, 10, 5, 785)])
def test_poly_encode_agrees_with_the_solve_at_the_papers_size(P, K, M, N_raw):
    # the two methods differ only in the window solver; at (20,18,10,785)
    # they were measured 3.7e-10 * max|F| apart
    p = validate_params(P, K, M, N_raw)
    gen = build_generator(p)
    A = np.random.default_rng(0).standard_normal((M, N_raw))
    F_solve = encode(A, gen, p).F
    F_poly = encode(A, gen, p, method="poly").F
    assert np.array_equal(F_poly == 0, F_solve == 0)
    assert np.max(np.abs(F_poly - F_solve)) <= 1e-8 * np.max(np.abs(F_solve))


@pytest.mark.parametrize("method", ["solve", "poly"])
def test_decode_refuses_nearly_coincident_nodes(method):
    # nearly coincident nodes make the coefficients meaningless; the
    # condition gate must refuse rather than return garbage
    p = validate_params(4, 4, 4, 8)
    gen = vandermonde_on([0.1, 0.1 + 1e-13, 0.2, 0.9], p.K)
    outputs = list(zip(range(1, 5), [1.0, -1.0, 2.0, 0.5]))
    with pytest.raises(ConditioningError, match="condition .* exceeds limit"):
        decode(outputs, gen, p, method=method)
