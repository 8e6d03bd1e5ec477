import numpy as np
import pytest

from shortdot import Polynomial, eval_many, interpolate
from shortdot.errors import ConditioningError


def test_constant_polynomial():
    p = Polynomial([1.0])
    np.testing.assert_array_equal(eval_many(p, [0.0, 5.0, -3.0]), [1.0, 1.0, 1.0])


def test_identity_polynomial():
    p = Polynomial([1.0, 0.0])  # p(h) = h
    np.testing.assert_array_equal(eval_many(p, [2.0, 3.0]), [2.0, 3.0])


def test_eval_matches_power_sum_oracle():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(8)  # degree 7, highest first
    pts = rng.uniform(-1.5, 1.5, size=10)
    # oracle: naive sum of c_k * h^k
    deg = len(coeffs) - 1
    expected = np.array(
        [sum(c * h ** (deg - k) for k, c in enumerate(coeffs)) for h in pts]
    )
    got = eval_many(Polynomial(coeffs), pts)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_interpolate_line():
    p = interpolate([0.0, 1.0], [1.0, 2.0])
    np.testing.assert_allclose(p.coefficients, [1.0, 1.0])  # h + 1


def test_interpolate_single_point():
    p = interpolate([3.0], [7.5])
    assert p.degree == 0
    np.testing.assert_allclose(p.coefficients, [7.5])


def test_interpolate_round_trip():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(6)  # degree 5
    pts = np.cos((2 * np.arange(1, 7) - 1) * np.pi / 12)
    vals = eval_many(Polynomial(coeffs), pts)
    back = interpolate(pts, vals)
    np.testing.assert_allclose(back.coefficients, coeffs, rtol=1e-8)


def test_interpolate_rejects_duplicates():
    with pytest.raises(ValueError):
        interpolate([1.0, 1.0], [2.0, 3.0])


def test_interpolate_flags_hopeless_conditioning():
    # nearly coincident points make the coefficients meaningless; the
    # residual self-check must refuse rather than return garbage
    pts = np.array([0.1, 0.1 + 1e-13, 0.2, 0.9])
    vals = np.array([1.0, -1.0, 2.0, 0.5])
    with pytest.raises(ConditioningError):
        interpolate(pts, vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_interpolate_refuses_non_finite_values(bad):
    with pytest.raises(ConditioningError):
        interpolate([0.1, 0.5, 0.9], [1.0, bad, 2.0])


def test_polynomial_requires_coefficients():
    with pytest.raises(ValueError):
        Polynomial([])
