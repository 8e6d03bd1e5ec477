"""Acceptance battery: one test per numbered criterion, each printing a
pass line (run with `pytest tests/test_acceptance.py -v -s` to see them).
Tolerances are fixed here, not calibrated."""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import shortdot as sd
from shortdot.latency import uncoded_closed_form, repetition_closed_form

MU5 = sd.DelayModel(5.0)


def _ok(n, text):
    print(f"ACCEPTANCE PASS [{n:>2}] {text}")


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_exhaustive_recoverability():
    start = time.monotonic()
    rng = np.random.default_rng(2016)
    cells = decodes = 0
    for P in range(3, 9):
        N_raw = 3 * P
        for K in range(1, P + 1):
            for M in range(1, K + 1):
                params = sd.validate_params(P, K, M, N_raw)
                gen = sd.build_generator(params)
                cells += 1
                for _ in range(20):
                    A = rng.standard_normal((M, N_raw))
                    x = rng.standard_normal(N_raw)
                    truth = A @ x
                    tn = np.linalg.norm(truth)
                    outs = sd.run_workers(sd.encode(A, gen, params), x)
                    for subset in combinations(outs, K):
                        got = sd.decode(subset, gen, params)
                        assert np.linalg.norm(got - truth) <= 1e-8 * tn
                        decodes += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(1, f"{decodes} subset decodes over {cells} (P,K,M) cells, "
           f"rel err <= 1e-8, {elapsed:.1f}s")


# -- 2 ---------------------------------------------------------------------------


def test_criterion_02_sparsity_budget():
    rng = np.random.default_rng(2017)
    for P in range(3, 9):
        N_raw = 3 * P
        for K in range(1, P + 1):
            for M in range(1, K + 1):
                params = sd.validate_params(P, K, M, N_raw)
                gen = sd.build_generator(params)
                for _ in range(3):
                    code = sd.encode(rng.standard_normal((M, N_raw)), gen, params)
                    nz = code.F != 0
                    assert int(nz.sum(axis=1).max()) <= params.s
                    col_zeros = (~nz).sum(axis=0)
                    assert int(col_zeros.min()) >= K - M
    _ok(2, "per-row nonzeros <= (N/P)(P-K+M) and per-column zeros >= K-M "
           "across the full grid")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_03_bounds_consistency():
    for P in range(3, 9):
        N = 3 * P
        for K in range(1, P + 1):
            for M in range(1, K + 1):
                params = sd.validate_params(P, K, M, N)
                # integer comparison: basic bound vs budget, tight iff M=1
                basic_times_P = N * (P - K + 1)
                budget_times_P = N * (P - K + M)
                assert basic_times_P <= budget_times_P
                assert (basic_times_P == budget_times_P) == (M == 1)
                assert sd.basic_lower_bound(N, P, K) <= params.s
                if M > 1:
                    gap = Fraction(N * (P - K + M), P) - sd.tight_lower_bound_exact(
                        N, P, K, M
                    )
                    assert gap == Fraction(M * M * math.comb(P, K - M + 1), P)
    _ok(3, "basic bound <= budget (equality iff M=1); tight-bound gap bit-exact")


# -- 4 ---------------------------------------------------------------------------


def _assert_worst_case(plan, K_wc):
    """Recovery succeeds at K_wc for every placement and can fail at K_wc - 1."""
    P = plan.P
    workers = set(range(1, P + 1))
    if 1 <= K_wc and math.comb(P, K_wc - 1) <= 2000:
        assert all(sd.recoverable(plan, set(c)) for c in combinations(workers, K_wc))
        assert any(
            not sd.recoverable(plan, set(c)) for c in combinations(workers, K_wc - 1)
        )
        return
    absences = P - K_wc
    groups = plan.groups or (frozenset(workers),)
    for g in groups:  # adversary packs the stragglers into each group in turn
        victims = sorted(g)[:absences]
        spill = absences - len(victims)
        removed = set(victims) | set(sorted(workers - g)[:spill])
        assert sd.recoverable(plan, workers - removed)
    smallest = min(groups, key=len)
    removed = set(sorted(smallest)[: min(len(smallest), absences + 1)])
    removed |= set(sorted(workers - smallest)[: absences + 1 - len(removed)])
    assert not sd.recoverable(plan, workers - removed)


def test_criterion_04_table1_worst_case_thresholds():
    checked = 0
    for P in range(1, 25):
        N = 2 * P
        for M in range(1, P + 1):
            params = sd.validate_params(P, M, M, N)
            plan = sd.plan_mds(params)
            assert plan.worst_case_threshold == M
            _assert_worst_case(plan, M)
            checked += 1
            for K in range(M, P + 1):
                sd_plan = sd.plan_short_dot(sd.validate_params(P, K, M, N))
                s = sd_plan.task_lengths[0]
                assert sd_plan.worst_case_threshold == P - int(P * s) // N + M == K
            for s in range(1, N + 1):
                blocks = math.ceil(N / s)
                if M * blocks <= P:
                    plan = sd.plan_repetition_block(params, s)
                    K_wc = P - P // (M * blocks) + 1
                    assert plan.worst_case_threshold == K_wc
                    _assert_worst_case(plan, K_wc)
                    checked += 1
                if P // blocks >= M:
                    plan = sd.plan_short_mds(params, s)
                    K_wc = P - P // blocks + M
                    assert plan.worst_case_threshold == K_wc
                    _assert_worst_case(plan, K_wc)
                    checked += 1
    _ok(4, f"{checked} (strategy, P, M, s) cells match Table-1 formulas under "
           "adversarial straggler placement")


# -- 5 ---------------------------------------------------------------------------


def _ripple(deviations, divisors):
    """Within some window between consecutive divisors the integer-effect
    deviation rises then falls (it is ~0 at the divisors themselves)."""
    for d1, d2 in zip(divisors, divisors[1:]):
        window = deviations[d1 - 1 : d2]  # indices d1..d2 (1-based Ms)
        if len(window) < 3:
            continue
        peak = int(np.argmax(window))
        if 0 < peak < len(window) - 1:
            rise = window[peak] - window[0]
            fall = window[peak] - window[-1]
            if rise > 1e-9 and fall > 1e-9:
                return True
    return False


def test_criterion_05_fig3_shape_and_ordering():
    start = time.monotonic()
    P, N = 100, 10000
    uncoded_vals, repetition_vals = [], []
    for M in range(1, P + 1):
        p_base = sd.validate_params(P, M, M, N)
        _, best = sd.optimize_k(P, M, float(N), MU5)
        e_unc = sd.expected_time_uncoded(p_base, MU5)
        e_rep = sd.expected_time_repetition(p_base, MU5)
        e_mds = sd.expected_time_mds(p_base, MU5)
        assert best <= e_unc + 1e-9 * e_unc
        assert best <= e_rep + 1e-9 * e_rep
        assert best <= e_mds + 1e-9 * e_mds
        uncoded_vals.append(e_unc)
        repetition_vals.append(e_rep)
    divisors = [d for d in range(1, P + 1) if P % d == 0]
    dev_unc = np.array(
        [uncoded_vals[M - 1] - uncoded_closed_form(P, M, N, MU5) for M in range(1, P + 1)]
    )
    dev_rep = np.array(
        [repetition_vals[M - 1] - repetition_closed_form(P, M, N, MU5)
         for M in range(1, P + 1)]
    )
    for dev in (dev_unc, dev_rep):
        for d in divisors:
            assert abs(dev[d - 1]) <= 1e-6 * N  # exact closed form at divisors
    assert _ripple(dev_unc, divisors)
    assert _ripple(dev_rep, divisors)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(5, f"optimized short-dot <= every competitor at all M=1..100; "
           f"integer-effect ripples present in repetition and uncoded deviations, "
           f"{elapsed:.1f}s")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_06_monte_carlo_matches_closed_forms():
    cases = [
        (sd.validate_params(20, 18, 10, 785), 681.383007085793),
        (sd.validate_params(6, 5, 3, 12), 10.32),
    ]
    for params, frozen in cases:
        analytic = sd.expected_time_short_dot(params, MU5)
        assert analytic == pytest.approx(frozen, rel=1e-10)
        rep = sd.monte_carlo(sd.plan_short_dot(params), MU5, 10**6, 2018)
        assert abs(rep.mc_mean - analytic) <= 0.01 * analytic
    _ok(6, "10^6-trial Monte Carlo within 1% of 681.38 and 10.32")


# -- 7 ---------------------------------------------------------------------------


def test_criterion_07_theorem4_divergence():
    start = time.monotonic()
    rows = sd.theorem4_regime([10**3, 10**4, 10**5, 10**6], MU5)
    ratios = [r.ratio for r in rows]
    sds = [r.short_dot for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(b < a for a, b in zip(sds, sds[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(7, f"speed-up ratio strictly increasing {ratios[0]:.3f} -> {ratios[-1]:.3f}; "
           f"E[T]/N strictly decreasing, {elapsed:.2f}s")


# -- 8 ---------------------------------------------------------------------------


def test_criterion_08_simulated_cluster_ordering():
    params = sd.validate_params(20, 18, 10, 785)
    analytic = {
        "short-dot": sd.expected_time_short_dot(params, MU5),
        "uncoded": sd.expected_time_uncoded(params, MU5),
        "mds": sd.expected_time_mds(params, MU5),
    }
    assert analytic["short-dot"] == pytest.approx(681.383007085793, rel=1e-10)
    assert analytic["uncoded"] == pytest.approx(687.819172571495, rel=1e-10)
    assert analytic["mds"] == pytest.approx(907.003424508068, rel=1e-10)
    assert analytic["short-dot"] < analytic["uncoded"] < analytic["mds"]
    plans = {
        "short-dot": sd.plan_short_dot(params),
        "uncoded": sd.plan_uncoded(params),
        "mds": sd.plan_mds(params),
    }
    for seed in (0, 1):
        mc = {
            name: sd.monte_carlo(plan, MU5, 10**6, seed + 10 * i).mc_mean
            for i, (name, plan) in enumerate(plans.items())
        }
        assert mc["short-dot"] < mc["uncoded"] < mc["mds"]
        for name in plans:
            assert abs(mc[name] - analytic[name]) <= 0.01 * analytic[name]
    _ok(8, "analytic and simulated means order short-dot < uncoded < mds "
           "(seed-invariant)")


# -- 9 ---------------------------------------------------------------------------


def test_criterion_09_single_error_correction():
    rng = np.random.default_rng(2019)
    params = sd.validate_params(6, 4, 2, 12)
    gen = sd.build_generator(params)
    for trial in range(100):
        A = rng.standard_normal((2, 12))
        x = rng.standard_normal(12)
        truth = A @ x
        outs = sd.run_workers(sd.encode(A, gen, params), x)
        bad = int(rng.integers(1, 7))
        corrupted = [
            sd.WorkerOutput(o.index, o.value + 1000.0 if o.index == bad else o.value)
            for o in outs
        ]
        got = sd.decode_with_errors(corrupted, 1, gen, params)
        assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)
    _ok(9, "100/100 single-corruption trials recovered at rel err <= 1e-8 "
           "(radius floor((P-K)/2) = 1)")


# -- 10 --------------------------------------------------------------------------


def test_criterion_10_fast_path_equivalence():
    rng = np.random.default_rng(0)
    compared = raised = 0
    ks = list(rng.integers(2, 17, size=25)) + list(rng.integers(17, 65, size=25))
    for K in ks:
        K = int(K)
        P = K + int(rng.integers(1, 9))
        M = int(rng.integers(1, K + 1))
        N_raw = P * int(rng.integers(1, 3))
        params = sd.validate_params(P, K, M, N_raw)
        gen = sd.build_generator(params)
        A = rng.standard_normal((M, N_raw))
        x = rng.standard_normal(N_raw)
        try:
            code_solve = sd.encode(A, gen, params, method="solve")
        except sd.ConditioningError:
            # the fast path must refuse exactly when the dense path does
            with pytest.raises(sd.ConditioningError):
                sd.encode(A, gen, params, method="poly")
            raised += 1
            continue
        code_poly = sd.encode(A, gen, params, method="poly")
        scale = np.max(np.abs(code_solve.F))
        assert np.all(
            np.abs(code_solve.F - code_poly.F)
            <= 1e-6 * (np.abs(code_solve.F) + 1e-9 * scale)
        )
        outs = sd.run_workers(code_solve, x)
        chosen = [outs[i] for i in sorted(rng.choice(P, size=K, replace=False))]
        try:
            dec_solve = sd.decode(chosen, gen, params, method="solve")
        except sd.ConditioningError:
            with pytest.raises(sd.ConditioningError):
                sd.decode(chosen, gen, params, method="poly")
            raised += 1
            continue
        dec_poly = sd.decode(chosen, gen, params, method="poly")
        den = np.max(np.abs(dec_solve))
        assert np.max(np.abs(dec_solve - dec_poly)) <= 1e-6 * den
        compared += 1
    assert compared >= 20
    _ok(10, f"poly and dense paths agree <= 1e-6 on {compared} instances "
            f"(K up to 64); {raised} instances refused consistently by both paths")
