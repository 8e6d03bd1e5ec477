import math
from itertools import combinations

import numpy as np
import pytest

from shortdot import (
    finish_time,
    finish_times,
    plan_by_name,
    plan_mds,
    plan_repetition_block,
    plan_short_dot,
    plan_short_mds,
    plan_uncoded,
    recoverable,
    split_m1_m2,
    validate_params,
)
from shortdot.strategies import RecoveryRule, TaskPlan


# --- integer split -------------------------------------------------------------


def test_split_examples():
    assert (split_m1_m2(6, 4).m1, split_m1_m2(6, 4).m2) == (2, 2)
    assert (split_m1_m2(6, 3).m1, split_m1_m2(6, 3).m2) == (3, 0)
    assert (split_m1_m2(7, 3).m1, split_m1_m2(7, 3).m2) == (1, 2)


def test_split_solves_the_system():
    for P in range(1, 40):
        for M in range(1, P + 1):
            sp = split_m1_m2(P, M)
            c1, c2 = math.ceil(P / M), math.floor(P / M)
            assert sp.m1 >= 0 and sp.m2 >= 0
            assert sp.m1 + sp.m2 == M
            assert sp.m1 * c1 + sp.m2 * c2 == P


# --- plans -----------------------------------------------------------------------


def test_plan_uncoded_even_and_uneven():
    even = plan_uncoded(validate_params(6, 3, 3, 12))
    np.testing.assert_array_equal(even.task_lengths, [6.0] * 6)
    assert even.recovery_rule == RecoveryRule("all")

    uneven = plan_uncoded(validate_params(6, 4, 4, 12))
    np.testing.assert_array_equal(uneven.task_lengths, [6, 6, 6, 6, 12, 12])

    single = plan_uncoded(validate_params(1, 1, 1, 9))
    np.testing.assert_array_equal(single.task_lengths, [9.0])


def test_plan_repetition_block_examples():
    # one dot product split in two blocks, each replicated three times
    plan = plan_repetition_block(validate_params(6, 6, 1, 12), s=6)
    assert len(plan.groups) == 2
    assert sorted(len(g) for g in plan.groups) == [3, 3]
    np.testing.assert_array_equal(plan.task_lengths, [6.0] * 6)
    assert plan.recovery_rule == RecoveryRule("one_per_group")

    full = plan_repetition_block(validate_params(6, 5, 3, 12), s=12)
    assert full.worst_case_threshold == 6 - 6 // 3 + 1  # = 5

    pure = plan_repetition_block(validate_params(6, 6, 1, 12), s=12)
    assert pure.worst_case_threshold == 1


def test_plan_repetition_block_errors():
    p = validate_params(6, 5, 3, 12)
    with pytest.raises(ValueError):
        plan_repetition_block(p, s=0)
    with pytest.raises(ValueError):
        plan_repetition_block(p, s=13)
    with pytest.raises(ValueError):
        plan_repetition_block(p, s=2)  # 3 * 6 groups > 6 workers


def test_plan_mds_and_short_dot_coincide_at_k_equals_m():
    p = validate_params(6, 3, 3, 12)
    mds = plan_mds(p)
    np.testing.assert_array_equal(mds.task_lengths, [12.0] * 6)
    assert mds.recovery_rule == RecoveryRule("kth_overall", 3)
    assert plan_short_dot(p).same_plan(mds)


def test_plan_mds_at_p_equals_m_acts_like_uncoded():
    # P = M: MDS waits for its M-th (= last) worker, exactly the uncoded
    # wait-for-all on full-length rows
    p = validate_params(4, 4, 4, 8)
    mds = plan_mds(p)
    unc = plan_uncoded(p)
    np.testing.assert_array_equal(mds.task_lengths, unc.task_lengths)
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform(1, 9, size=4)
        assert finish_time(mds, t) == finish_time(unc, t)


def test_plan_short_mds_examples():
    p = validate_params(20, 13, 3, 160)
    plan = plan_short_mds(p, s=80)  # two blocks of ten workers
    assert len(plan.groups) == 2
    assert all(len(g) == 10 for g in plan.groups)
    assert plan.worst_case_threshold == 20 - 10 + 3  # = 13

    whole = plan_short_mds(p, s=160)  # single group: plain MDS semantics
    assert whole.worst_case_threshold == 3
    rng = np.random.default_rng(0)
    times = rng.uniform(1, 5, size=(20,))
    assert finish_time(whole, times) == finish_time(plan_mds(p), times)

    with pytest.raises(ValueError):
        plan_short_mds(validate_params(6, 5, 4, 12), s=4)  # groups of 2 < M


def test_plan_short_dot_lengths():
    plan = plan_short_dot(validate_params(6, 5, 3, 12))
    np.testing.assert_array_equal(plan.task_lengths, [8.0] * 6)
    assert plan.recovery_rule == RecoveryRule("kth_overall", 5)

    big = plan_short_dot(validate_params(20, 18, 10, 785))
    np.testing.assert_array_equal(big.task_lengths, [480.0] * 20)
    assert big.worst_case_threshold == 18

    limit = plan_short_dot(validate_params(4, 4, 1, 8))
    np.testing.assert_array_equal(limit.task_lengths, [2.0] * 4)
    assert limit.worst_case_threshold == 4  # wait for all


def test_plan_by_name_dispatch():
    p = validate_params(6, 5, 3, 12)
    for name in ("uncoded", "repetition", "mds", "short-mds", "short-dot"):
        # short-mds at default s needs big enough groups; use s = N
        s = 12 if name == "short-mds" else None
        assert plan_by_name(name, p, s).strategy_id == name
    with pytest.raises(ValueError):
        plan_by_name("bogus", p)


def test_plans_cover_the_computation():
    # no strategy under-covers: total assigned work >= M * N multiply-adds,
    # and no single task exceeds the full input length
    for (P, K, M, N_raw) in [(6, 5, 3, 12), (7, 5, 4, 14), (8, 8, 2, 16)]:
        params = validate_params(P, K, M, N_raw)
        plans = [
            plan_uncoded(params),
            plan_mds(params),
            plan_short_dot(params),
            plan_repetition_block(params, params.N),
        ]
        if params.P // 2 >= M:
            plans.append(plan_short_mds(params, params.N // 2))
        for plan in plans:
            assert plan.task_lengths.sum() >= M * params.N - 1e-9
            assert np.all(plan.task_lengths <= params.N)


# --- finish_time -----------------------------------------------------------------


def _plan(rule, groups=None, P=3):
    return TaskPlan("test", np.ones(P), groups, rule)


def test_finish_time_examples():
    assert finish_time(_plan(RecoveryRule("all")), [3.0, 1.0, 2.0]) == 3.0
    assert finish_time(_plan(RecoveryRule("kth_overall", 2)), [3.0, 1.0, 2.0]) == 2.0
    groups = (frozenset({1, 2}), frozenset({3}))
    assert finish_time(_plan(RecoveryRule("one_per_group"), groups), [3.0, 1.0, 2.0]) == 2.0
    g2 = (frozenset({1, 2, 3}),)
    assert finish_time(_plan(RecoveryRule("k_per_group", 2), g2), [3.0, 1.0, 2.0]) == 2.0


def test_finish_time_rejects_rule_group_mismatch():
    with pytest.raises(ValueError):
        finish_time(_plan(RecoveryRule("one_per_group"), None), [1.0, 2.0, 3.0])
    bad_groups = (frozenset({1}),)  # does not cover workers 2, 3
    with pytest.raises(ValueError):
        finish_time(_plan(RecoveryRule("one_per_group"), bad_groups), [1.0, 2.0, 3.0])


def _finish_times_per_group(plan, times):
    """Reference: one fancy index and one selection per group."""
    per_group = []
    for members in plan.groups:
        sub = times[:, np.array(sorted(members)) - 1]
        if plan.recovery_rule.kind == "one_per_group":
            per_group.append(sub.min(axis=1))
        else:
            per_group.append(np.sort(sub, axis=1)[:, plan.recovery_rule.k - 1])
    return np.max(np.stack(per_group, axis=1), axis=1)


def test_finish_times_matches_a_per_group_loop():
    rng = np.random.default_rng(5)
    for _ in range(200):
        P = int(rng.integers(1, 16))
        cuts = np.sort(rng.choice(np.arange(1, P), size=int(rng.integers(0, P)), replace=False))
        groups = tuple(frozenset(int(w) + 1 for w in part)
                       for part in np.split(rng.permutation(P), cuts))
        smallest = min(len(g) for g in groups)
        # few distinct values, so times tie within and across groups
        times = rng.integers(0, 4, size=(int(rng.integers(1, 30)), P)).astype(float)
        rules = [RecoveryRule("one_per_group"),
                 RecoveryRule("k_per_group", int(rng.integers(1, smallest + 1)))]
        for rule in rules:
            plan = TaskPlan("test", np.ones(P), groups, rule)
            got = finish_times(plan, times)
            assert np.array_equal(got, _finish_times_per_group(plan, times)), (groups, rule)


def test_finish_times_leaves_its_input_unchanged():
    groups = (frozenset({1, 2, 3}), frozenset({4, 5}))
    plan = TaskPlan("test", np.ones(5), groups, RecoveryRule("k_per_group", 2))
    times = np.arange(10.0).reshape(2, 5)
    assert np.array_equal(finish_times(plan, times), [4.0, 9.0])
    assert np.array_equal(times, np.arange(10.0).reshape(2, 5))


def test_finish_times_refuses_k_above_the_smallest_group():
    groups = (frozenset({1, 2, 3}), frozenset({4, 5}))
    plan = TaskPlan("test", np.ones(5), groups, RecoveryRule("k_per_group", 3))
    with pytest.raises(ValueError, match="size 2"):
        finish_times(plan, np.ones((1, 5)))


def test_finish_times_refuses_an_empty_group():
    groups = (frozenset({1, 2, 3}), frozenset())
    plan = TaskPlan("test", np.ones(3), groups, RecoveryRule("one_per_group"))
    with pytest.raises(ValueError, match="partition"):
        finish_times(plan, np.ones((1, 3)))


def test_finish_time_monotone_in_every_coordinate():
    rng = np.random.default_rng(1)
    p = validate_params(8, 6, 3, 16)
    plans = [
        plan_uncoded(p),
        plan_mds(p),
        plan_short_dot(p),
        plan_repetition_block(p, 16),
        plan_short_mds(p, 8),
    ]
    for plan in plans:
        for _ in range(20):
            t = rng.uniform(1.0, 10.0, size=8)
            base = finish_time(plan, t)
            i = int(rng.integers(0, 8))
            bumped = t.copy()
            bumped[i] += rng.uniform(0.0, 5.0)
            assert finish_time(plan, bumped) >= base - 1e-12


# --- worst-case thresholds: Table-1 formulas vs adversarial placement -------------


def _table1_threshold(name, P, M, N, s):
    if name == "repetition":
        return P - P // (M * math.ceil(N / s)) + 1
    if name == "mds":
        return M
    if name == "short-mds":
        return P - P // math.ceil(N / s) + M
    raise AssertionError(name)


def _adversarial_check(plan, K_wc):
    """recovery holds for every K_wc-subset and fails for some (K_wc-1)-subset."""
    P = plan.P
    workers = set(range(1, P + 1))
    if K_wc > 0 and math.comb(P, K_wc - 1) <= 3000:
        assert all(
            recoverable(plan, set(c)) for c in combinations(workers, K_wc)
        )
        assert any(
            not recoverable(plan, set(c)) for c in combinations(workers, K_wc - 1)
        )
        return
    # targeted adversary: pack all absences into each group in turn
    absences = P - K_wc
    groups = plan.groups or (frozenset(workers),)
    for g in groups:
        victims = sorted(g)[: absences] if absences <= len(g) else sorted(g)
        spill = absences - len(victims)
        others = sorted(workers - g)
        removed = set(victims) | set(others[:spill])
        assert recoverable(plan, workers - removed)
    # witness failure at K_wc - 1: remove one more from the smallest group
    smallest = min(groups, key=len)
    removed = set(sorted(smallest)[: min(len(smallest), absences + 1)])
    spill = absences + 1 - len(removed)
    removed |= set(sorted(workers - smallest)[:spill])
    assert not recoverable(plan, workers - removed)


@pytest.mark.parametrize("P", [4, 6, 7, 10])
def test_table1_small_grid(P):
    N = 2 * P
    for M in range(1, P + 1):
        params = validate_params(P, M, M, N)
        for s in range(1, N + 1):
            if M * math.ceil(N / s) <= P:
                plan = plan_repetition_block(params, s)
                K_wc = _table1_threshold("repetition", P, M, N, s)
                assert plan.worst_case_threshold == K_wc
                _adversarial_check(plan, K_wc)
            if P // math.ceil(N / s) >= M:
                plan = plan_short_mds(params, s)
                K_wc = _table1_threshold("short-mds", P, M, N, s)
                assert plan.worst_case_threshold == K_wc
                _adversarial_check(plan, K_wc)
        plan = plan_mds(params)
        assert plan.worst_case_threshold == M
        _adversarial_check(plan, M)


def test_short_mds_matches_short_dot_when_s_divides_n():
    # with s | N both Table-1 thresholds equal P - P*s/N + M
    P, N = 12, 24
    for M in (1, 2, 3):
        params = validate_params(P, M, M, N)
        for s in (2, 4, 6, 8, 12, 24):
            if P // math.ceil(N / s) < M:
                continue
            short_dot_k = P - (P * s) // N + M
            assert plan_short_mds(params, s).worst_case_threshold == short_dot_k


def test_short_mds_worse_when_s_does_not_divide_n():
    # Remark-2 regime: some s with s not dividing N forces strictly more
    # workers in the worst case than the joint sparse code needs
    found = False
    for P in range(4, 16):
        N = 2 * P
        for M in range(1, 4):
            params = validate_params(P, M, M, N)
            for s in range(1, N + 1):
                if N % s == 0 or P // math.ceil(N / s) < M:
                    continue
                short_dot_k = P - (P * s) // N + M
                if plan_short_mds(params, s).worst_case_threshold > short_dot_k:
                    found = True
    assert found
