"""The polynomial path's Newton interpolation, and its decode gate."""

import numpy as np
import pytest

from shortdot import build_generator, decode, validate_params
from shortdot.coding import _newton_monomial
from shortdot.errors import ConditioningError


def test_newton_line():
    coeffs = _newton_monomial(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(coeffs, [[1.0], [1.0]])  # h + 1


def test_newton_single_point():
    coeffs = _newton_monomial(np.array([3.0]), np.array([[7.5, -2.0]]))
    np.testing.assert_array_equal(coeffs, [[7.5, -2.0]])


def test_newton_round_trip_against_polyval():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((6, 3))  # three polynomials of degree 5
    pts = np.cos((2 * np.arange(1, 7) - 1) * np.pi / 12)
    vals = np.polyval(coeffs, pts[:, None])
    back = _newton_monomial(pts, vals)
    np.testing.assert_allclose(back, coeffs, rtol=1e-8)
    np.testing.assert_allclose(np.polyval(back, pts[:, None]), vals, rtol=1e-12)


@pytest.mark.parametrize("method", ["solve", "poly"])
def test_decode_refuses_nearly_coincident_nodes(method):
    # nearly coincident nodes make the coefficients meaningless; the
    # condition gate must refuse rather than return garbage
    p = validate_params(4, 4, 4, 8)
    gen = build_generator(p, nodes=[0.1, 0.1 + 1e-13, 0.2, 0.9])
    outputs = list(zip(range(1, 5), [1.0, -1.0, 2.0, 0.5]))
    with pytest.raises(ConditioningError, match="condition .* exceeds limit"):
        decode(outputs, gen, p, method=method)
