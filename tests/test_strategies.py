import math
from itertools import combinations

import numpy as np
import pytest

from shortdot import (
    CdfFactor,
    DelayModel,
    expected_kth_order,
    expected_time,
    expected_time_numeric,
    finish_times,
    monte_carlo,
    plan_by_name,
    plan_mds,
    plan_repetition_block,
    plan_short_dot,
    plan_short_mds,
    plan_uncoded,
    recoverable,
    validate_params,
)
from shortdot.strategies import TaskPlan

MU5 = DelayModel(5.0)


# --- uncoded split -------------------------------------------------------------


def _uncoded_split(P, M):
    """(rows on ceil(P/M) workers, rows on floor(P/M) workers), counted
    from the task lengths of plan_uncoded with N = P."""
    lengths = plan_uncoded(validate_params(P, M, M, P)).task_lengths
    c1, c2 = -(-P // M), P // M
    n1 = int(np.sum(lengths == P / c1))
    assert np.all(lengths[:n1] == P / c1) and np.all(lengths[n1:] == P / c2)
    assert n1 % c1 == 0 and (P - n1) % c2 == 0
    return n1 // c1, (P - n1) // c2


def test_uncoded_split_examples():
    assert _uncoded_split(6, 4) == (2, 2)
    assert _uncoded_split(6, 3) == (3, 0)
    assert _uncoded_split(7, 3) == (1, 2)


def test_uncoded_split_solves_the_system():
    for P in range(1, 40):
        for M in range(1, P + 1):
            m1, m2 = _uncoded_split(P, M)
            c1, c2 = math.ceil(P / M), math.floor(P / M)
            assert m1 >= 0 and m2 >= 0
            assert m1 + m2 == M
            assert m1 * c1 + m2 * c2 == P


# --- plans -----------------------------------------------------------------------


def test_plan_uncoded_even_and_uneven():
    even = plan_uncoded(validate_params(6, 3, 3, 12))
    np.testing.assert_array_equal(even.task_lengths, [6.0] * 6)
    assert even.group.tolist() == list(range(6)) and even.need == 1  # wait for all

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
    assert plan.need == 1

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
    assert mds.groups == (frozenset(range(1, 7)),) and mds.need == 3
    short_dot = plan_short_dot(p)
    np.testing.assert_array_equal(short_dot.task_lengths, mds.task_lengths)
    assert np.array_equal(short_dot.group, mds.group)
    assert short_dot.need == mds.need


def test_plan_mds_at_p_equals_m_acts_like_uncoded():
    # P = M: MDS waits for its M-th (= last) worker, exactly the uncoded
    # wait-for-all on full-length rows
    p = validate_params(4, 4, 4, 8)
    mds = plan_mds(p)
    unc = plan_uncoded(p)
    np.testing.assert_array_equal(mds.task_lengths, unc.task_lengths)
    rng = np.random.default_rng(3)
    t = rng.uniform(1, 9, size=(10, 4))
    assert np.array_equal(finish_times(mds, t), finish_times(unc, t))


def test_plan_short_mds_examples():
    p = validate_params(20, 13, 3, 160)
    plan = plan_short_mds(p, s=80)  # two blocks of ten workers
    assert len(plan.groups) == 2
    assert all(len(g) == 10 for g in plan.groups)
    assert plan.worst_case_threshold == 20 - 10 + 3  # = 13

    whole = plan_short_mds(p, s=160)  # single group: plain MDS semantics
    assert whole.worst_case_threshold == 3
    rng = np.random.default_rng(0)
    times = rng.uniform(1, 5, size=(1, 20))
    assert finish_times(whole, times)[0] == finish_times(plan_mds(p), times)[0]

    with pytest.raises(ValueError):
        plan_short_mds(validate_params(6, 5, 4, 12), s=4)  # groups of 2 < M
    with pytest.raises(ValueError, match="never be computed"):
        plan_short_mds(validate_params(6, 5, 2, 12), s=1)  # 12 blocks > 6 workers


def test_plan_short_dot_lengths():
    plan = plan_short_dot(validate_params(6, 5, 3, 12))
    np.testing.assert_array_equal(plan.task_lengths, [8.0] * 6)
    assert plan.groups == (frozenset(range(1, 7)),) and plan.need == 5

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


# --- plan construction and finish_times -------------------------------------------


def _plan(group, need):
    return TaskPlan("test", np.ones(len(group)), group, need)


def test_finish_times_examples():
    t = np.array([[3.0, 1.0, 2.0]])
    assert finish_times(_plan([0, 1, 2], 1), t)[0] == 3.0
    assert finish_times(_plan([0, 0, 0], 2), t)[0] == 2.0
    assert finish_times(_plan([0, 0, 1], 1), t)[0] == 2.0
    assert finish_times(_plan([1, 0, 0], 1), t)[0] == 3.0


FOUR = [1.0] * 4  # the task lengths of a valid four-worker plan


ONE_GROUP = [0] * 4  # the group ids of a valid four-worker plan
SINGLES = [0, 1, 2]  # a valid group array for the three-worker length cases


@pytest.mark.parametrize("group,need,lengths", [
    pytest.param(ONE_GROUP, 0, FOUR, id="one-group-need=0"),
    pytest.param(ONE_GROUP, 5, FOUR, id="one-group-need=P+1"),
    pytest.param(ONE_GROUP, None, FOUR, id="one-group-need=None"),
    pytest.param(ONE_GROUP, 2.0, FOUR, id="one-group-need=2.0"),
    pytest.param(None, 1, FOUR, id="group-None"),
    pytest.param([0, 0, 0], 1, FOUR, id="worker-without-id"),
    pytest.param([0, 0, 2, 2], 1, FOUR, id="empty-group"),
    pytest.param([0, 0, 1, -1], 1, FOUR, id="negative-id"),
    pytest.param([0, 1, 2, 2**40], 1, FOUR, id="id-beyond-P"),  # refused before bincount
    pytest.param([0.0, 0.0, 1.0, 1.0], 1, FOUR, id="float-ids"),
    pytest.param([0, 0, 0, 1], 3, FOUR, id="need-above-smallest-group"),
    pytest.param([0, 0, 1, 1], 0, FOUR, id="two-groups-need=0"),
    pytest.param([0, 0, 1, 1], None, FOUR, id="two-groups-need=None"),
    pytest.param(SINGLES, 1, [1.0, -1.0, 1.0], id="negative-length"),
    pytest.param(SINGLES, 1, [1.0, 0.0, 1.0], id="zero-length"),
    pytest.param(SINGLES, 1, [1.0, np.nan, 1.0], id="nan-length"),
    pytest.param(SINGLES, 1, [1.0, np.inf, 1.0], id="inf-length"),
    pytest.param(SINGLES, 1, [1.0, 1 + 5j, 1.0], id="complex-length"),  # not cast to 1.0
    pytest.param([0, 1, 2, 3], 1, [[1.0, 1.0], [1.0, 1.0]], id="2-D-lengths"),
    pytest.param([], 1, [], id="empty-lengths"),
])
def test_bad_plans_are_refused_at_construction(group, need, lengths):
    with pytest.raises(ValueError):
        TaskPlan("test", np.array(lengths), group, need)


def test_plan_group_is_a_read_only_copy():
    group, lengths = np.array([0, 1, 0, 1]), np.array([1, 2, 1, 2])
    plan = TaskPlan("test", lengths, group, 1)
    group[0], lengths[0] = 1, 2
    assert plan.group.tolist() == [0, 1, 0, 1]
    assert plan.task_lengths.tolist() == [1.0, 2.0, 1.0, 2.0]
    assert plan.task_lengths.dtype == float
    assert not plan.group.flags.writeable and not plan.member_index.flags.writeable
    assert not plan.task_lengths.flags.writeable
    assert plan.groups == (frozenset({1, 3}), frozenset({2, 4}))


def _finish_times_per_group(plan, times):
    """Reference: one fancy index and one selection per group."""
    per_group = []
    for g in range(plan.group.max() + 1):
        sub = times[:, plan.group == g]
        per_group.append(np.sort(sub, axis=1)[:, plan.need - 1])
    return np.max(np.stack(per_group, axis=1), axis=1)


def test_finish_times_matches_a_per_group_loop():
    rng = np.random.default_rng(5)
    for _ in range(200):
        P = int(rng.integers(1, 16))
        group = _random_group(rng, P)
        smallest = int(np.bincount(group).min())
        # few distinct values, so times tie within and across groups
        times = rng.integers(0, 4, size=(int(rng.integers(1, 30)), P)).astype(float)
        for need in (1, int(rng.integers(1, smallest + 1))):
            plan = TaskPlan("test", np.ones(P), group, need)
            got = finish_times(plan, times)
            assert np.array_equal(got, _finish_times_per_group(plan, times)), (group, need)


def _random_group(rng, P):
    """Group ids of a random partition of P workers into 1..P nonempty groups."""
    n_groups = int(rng.integers(1, P + 1))
    ids = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, P - n_groups)])
    return rng.permutation(ids)


def test_finish_times_leaves_its_input_unchanged():
    plan = TaskPlan("test", np.ones(5), [0, 0, 0, 1, 1], 2)
    times = np.arange(10.0).reshape(2, 5)
    assert np.array_equal(finish_times(plan, times), [4.0, 9.0])
    assert np.array_equal(times, np.arange(10.0).reshape(2, 5))


def test_finish_times_monotone_in_every_coordinate():
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
            t = rng.uniform(1.0, 10.0, size=(1, 8))
            base = finish_times(plan, t)[0]
            i = int(rng.integers(0, 8))
            bumped = t.copy()
            bumped[0, i] += rng.uniform(0.0, 5.0)
            assert finish_times(plan, bumped)[0] >= base - 1e-12


def _frozenset_member_index(P, n_groups):
    """The member index as built from one frozenset per round-robin group."""
    groups = tuple(frozenset(range(g + 1, P + 1, n_groups)) for g in range(n_groups))
    members = [sorted(g) for g in groups]
    width = max(map(len, members))
    return np.array([m + m[:1] * (width - len(m)) for m in members]) - 1


def test_member_index_matches_the_frozenset_construction_on_the_sweep_grid():
    P, N = 100, 10_000
    for M in range(1, P + 1):
        params = validate_params(P, M, M, N)
        plans = [plan_repetition_block(params, N)]
        # s = N as the sweep builds it, and a spread of s whose groups hold >= M
        for s in [*range(-(-N // (P // M)), N, 97), N]:
            plans.append(plan_short_mds(params, s))
        for plan in plans:
            n_groups = int(plan.group.max()) + 1
            expected = _frozenset_member_index(P, n_groups)
            assert plan.member_index.shape == expected.shape, (M, plan.strategy_id)
            assert np.array_equal(plan.member_index, expected), (M, plan.strategy_id)


def _recoverable_by_sets(plan, responders):
    """Reference: intersect the responders with each group's worker set."""
    return all(len(set(np.flatnonzero(plan.group == g) + 1) & responders) >= plan.need
               for g in range(plan.group.max() + 1))


def test_recoverable_matches_a_set_based_reference():
    rng = np.random.default_rng(11)
    for P in list(range(1, 9)) * 4 + list(range(9, 31)):
        group = _random_group(rng, P)
        smallest = int(np.bincount(group).min())
        for need in (1, int(rng.integers(1, smallest + 1))):
            plan = TaskPlan("test", np.ones(P), group, need)
            if P <= 8:
                subsets = [c for r in range(P + 1) for c in combinations(range(1, P + 1), r)]
            else:
                subsets = [rng.choice(np.arange(1, P + 1), size=int(rng.integers(0, P + 1)),
                                      replace=False) for _ in range(300)]
            for c in subsets:
                assert recoverable(plan, c) == _recoverable_by_sets(plan, set(map(int, c)))


def test_recoverable_refuses_a_responder_that_is_not_a_whole_number():
    # reading 1.5 as worker 1 would count the sets below as recoverable
    plan = plan_short_dot(validate_params(6, 5, 3, 12))
    for bad in (1.5, 2.9, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="worker indices must"):
            recoverable(plan, [bad, 2, 3, 4, 5])
    assert recoverable(plan, [1.0, 2, 3, 4, 5])
    assert recoverable(plan, np.arange(1, 6, dtype=np.uint8))
    assert not recoverable(plan, set())


# --- one rule: `need` finished workers in every group ------------------------------


def _first_recovery(plan, row):
    """Smallest t at which the workers finished by t can recover."""
    return min(t for t in np.unique(row) if recoverable(plan, np.flatnonzero(row <= t) + 1))


def test_threshold_recoverable_and_finish_times_read_one_rule():
    rng = np.random.default_rng(17)
    shapes = set()
    for case in range(300):
        P = int(rng.integers(1, 9))
        group = _random_group(rng, P)
        need = int(rng.integers(1, np.bincount(group).min() + 1))
        lengths = rng.choice([1.0, 2.5, 480.0], size=P)
        plan = TaskPlan("random", lengths, group, need)
        shapes.add((plan.member_index.shape[0] == 1, plan.member_index.shape[1] == 1, need == 1))
        # the threshold is the smallest K for which every K-subset recovers
        every = [all(recoverable(plan, c) for c in combinations(range(1, P + 1), K))
                 for K in range(P + 1)]
        assert plan.worst_case_threshold == every.index(True), (group, need)
        # the finish time is the first time the finished workers recover
        if case % 2:
            times = rng.integers(0, 4, size=(12, P)).astype(float)  # ties
        else:
            times = rng.uniform(1.0, 9.0, size=(12, P))
        expected = [_first_recovery(plan, row) for row in times]
        assert np.array_equal(finish_times(plan, times), expected), (group, need)
    # every reachable (one group, one worker per group, need 1): a group of
    # one worker needs 1, and both shapes at once mean P = 1
    assert len(shapes) == 6



@pytest.mark.parametrize("P,M,N", [(12, 5, 60), (20, 18, 800), (7, 1, 28), (1, 1, 3)])
def test_one_group_short_mds_is_the_mds_order_statistic(P, M, N):
    p = validate_params(P, M, M, N)
    assert expected_time(plan_short_mds(p, p.N), MU5) == expected_kth_order(P, M, p.N, MU5)


@pytest.mark.parametrize("P,N,s,factors", [
    # block lengths 25, 25, 10 on three groups of four
    (12, 60, 25, [CdfFactor(1, 10.0, 4.0), CdfFactor(2, 25.0, 4.0)]),
    # one length 22 on groups of 4, 4 and 3
    (11, 66, 22, [CdfFactor(1, 22.0, 3.0), CdfFactor(2, 22.0, 4.0)]),
])
def test_short_mds_at_m_1_is_the_integral_of_its_group_minima(P, N, s, factors):
    plan = plan_short_mds(validate_params(P, 1, 1, N), s)
    analytic = expected_time(plan, MU5)
    assert analytic == expected_time_numeric(factors, MU5)
    rep = monte_carlo(plan, MU5, 100_000, P)
    assert abs(rep.mc_mean - analytic) <= 4 * rep.mc_stderr


def test_repetition_gets_the_number_of_the_plan_it_coincides_with():
    for P in [*range(1, 31), 100]:
        # M = P: one worker per group, as uncoded; M = 1: one group, as mds
        p = validate_params(P, P, P, 100 * P)
        assert expected_time(plan_repetition_block(p, p.N), MU5) == expected_time(
            plan_uncoded(p), MU5), P
        p = validate_params(P, 1, 1, 100 * P)
        assert expected_time(plan_repetition_block(p, p.N), MU5) == expected_time(
            plan_mds(p), MU5), P


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
    groups = plan.groups
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
