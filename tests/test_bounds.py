import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from shortdot import (
    basic_lower_bound,
    bound_report,
    build_generator,
    check_achievability,
    encode,
    lambda_cap,
    tight_bound_gap,
    tight_lower_bound,
    tight_lower_bound_exact,
    validate_params,
)


def test_basic_bound_values():
    assert basic_lower_bound(12, 6, 5) == 4.0
    assert basic_lower_bound(12, 6, 6) == 2.0  # K = P: the uncoded share N/P


def test_basic_bound_tight_at_m_1():
    # short-dot's budget meets the bound with equality exactly when M = 1
    for P in range(2, 10):
        for K in range(1, P + 1):
            N = 3 * P
            budget = (N // P) * (P - K + 1)
            assert basic_lower_bound(N, P, K) == budget


def test_tight_bound_values():
    assert tight_lower_bound(12, 6, 5, 3) == -22.0  # 8 - (9/6)*C(6,3): vacuous
    assert tight_lower_bound(10**6, 6, 5, 3) == pytest.approx(
        (10**6 / 6) * 4 - 30, rel=1e-15
    )


def test_tight_bound_requires_m_above_one():
    with pytest.raises(ValueError, match="basic_lower_bound"):
        tight_lower_bound(12, 6, 5, 1)


def test_gap_is_exact_and_independent_of_n():
    for (P, K, M) in [(6, 5, 3), (8, 6, 2), (12, 9, 4), (24, 20, 7)]:
        gap = tight_bound_gap(P, K, M)
        assert gap == Fraction(M * M * math.comb(P, K - M + 1), P)
        for N in (10, 1000, 10**9):
            budget = Fraction(N * (P - K + M), P)
            assert budget - tight_lower_bound_exact(N, P, K, M) == gap


def test_lambda_cap_values():
    assert lambda_cap(6, 5, 3) == 3 * math.comb(6, 3)  # 60
    assert lambda_cap(6, 6, 1) == 1  # K-M+1 = P: C(P,P) = 1 times M
    # arbitrary precision: no overflow at large P
    assert lambda_cap(300, 200, 50) == 50 * math.comb(300, 151)


def test_check_achievability_random_code():
    rng = np.random.default_rng(0)
    p = validate_params(6, 5, 2, 24)
    gen = build_generator(p)
    code = encode(rng.standard_normal((2, 24)), gen, p)
    report = check_achievability(code)
    assert report.hypothesis_ok
    assert report.basic_bound == 8.0
    assert report.achieved_max_sparsity <= p.s == 12
    assert report.lambda_cap == 2 * math.comb(6, 4)
    assert report.gap_ratio == pytest.approx(4 * math.comb(6, 4) / 24)


def test_check_achievability_m1_meets_basic_bound():
    rng = np.random.default_rng(1)
    p = validate_params(4, 3, 1, 16)
    gen = build_generator(p)
    code = encode(rng.standard_normal((1, 16)), gen, p)
    report = check_achievability(code)
    # M = 1: budget equals the basic bound, and a generic row achieves it
    assert p.s == basic_lower_bound(p.N, p.P, p.K)
    assert report.achieved_max_sparsity == p.s


def test_constructed_pattern_stays_under_lambda_cap():
    # every column of a constructed code has exactly K-M enforced zeros,
    # so the count of columns exceeding K-M zeros is 0 < M*C(P, K-M+1)
    rng = np.random.default_rng(4)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    col_zeros = (code.F == 0).sum(axis=0)
    lam = int(np.sum(col_zeros > p.K - p.M))
    assert lam == 0 < lambda_cap(p.P, p.K, p.M)


def test_double_counting_identity():
    # average zeros per column == (N - avg row sparsity) * P / N
    rng = np.random.default_rng(2)
    p = validate_params(6, 4, 2, 18)
    gen = build_generator(p)
    code = encode(rng.standard_normal((2, 18)), gen, p)
    nz = code.F != 0
    col_zero_avg = (~nz).sum(axis=0).mean()
    row_sparsity_avg = nz.sum(axis=1).mean()
    assert col_zero_avg == pytest.approx((p.N - row_sparsity_avg) * p.P / p.N, rel=1e-12)


def test_column_zero_chain():
    # K >= 1 + max zeros in any column, on every constructed transform
    rng = np.random.default_rng(3)
    for (P, K, M) in [(5, 4, 2), (6, 5, 1), (7, 6, 3), (6, 6, 2)]:
        p = validate_params(P, K, M, 3 * P)
        code = encode(rng.standard_normal((M, 3 * P)), build_generator(p), p)
        col_zeros = (code.F == 0).sum(axis=0)
        assert K >= 1 + int(col_zeros.max())


def test_zero_column_hypothesis_warning():
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    code = encode(np.zeros((2, 8)), gen, p)
    with pytest.warns(UserWarning, match="all-zero"):
        report = check_achievability(code)
    assert not report.hypothesis_ok


@pytest.mark.parametrize("kind", ["vandermonde", "gaussian"])
def test_achievability_counts_small_columns_as_nonzero(kind):
    # columns of A scaled from 1e-12 to 1: F's small columns sit below
    # 1e-9 max|A| but are not zero, so no column is all-zero and the
    # measured sparsity is the same as for an unscaled A
    p = validate_params(6, 5, 3, 12)
    A = np.random.default_rng(11).standard_normal((3, 12))
    gen = build_generator(p, kind)
    report = check_achievability(encode(A * np.logspace(-12, 0, 12), gen, p))
    assert report.hypothesis_ok
    assert report == check_achievability(encode(A, gen, p))


@pytest.mark.parametrize("P, K, M, N_raw", [(20, 18, 10, 785), (6, 5, 1, 13), (6, 5, 3, 12)])
def test_check_achievability_builds_on_the_bound_report(P, K, M, N_raw):
    p = validate_params(P, K, M, N_raw)
    code = encode(np.random.default_rng(8).standard_normal((M, N_raw)), build_generator(p), p)
    report, measured = bound_report(p), check_achievability(code)
    assert report.achieved_avg_sparsity is None and measured.hypothesis_ok
    assert dataclasses.replace(measured, achieved_avg_sparsity=None,
                               achieved_max_sparsity=None, hypothesis_ok=None) == report
    # taken at N_raw, the budget at the padded N
    assert report.basic_bound == basic_lower_bound(N_raw, P, K)
    assert report.budget == p.s
    assert report.gap_ratio == M * M * math.comb(P, K - M + 1) / N_raw
