import math
from fractions import Fraction

import numpy as np
import pytest

from shortdot import (
    CdfFactor,
    DelayModel,
    expected_kth_order,
    expected_time,
    expected_time_mds,
    expected_time_numeric,
    expected_time_repetition,
    expected_time_short_dot,
    expected_time_uncoded,
    harmonic,
    monte_carlo,
    optimize_k,
    plan_by_name,
    plan_mds,
    plan_repetition_block,
    plan_short_dot,
    plan_short_mds,
    plan_uncoded,
    repetition_closed_form,
    sample_time,
    theorem4_regime,
    uncoded_closed_form,
    validate_params,
)
from shortdot.latency import (
    _block_recovery,
    _harmonic_table,
    _inverse_cdf,
    _uniform_stream,
    simulation_threads,
)
from shortdot.strategies import TaskPlan, finish_times

MU5 = DelayModel(5.0)


def test_harmonic_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(11 / 6, rel=1e-15)
    assert harmonic(6) == pytest.approx(2.45, rel=1e-15)


def test_delay_model_validates_mu():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            DelayModel(bad)


# --- sampling ------------------------------------------------------------------


def test_sample_time_support_minimum():
    assert sample_time(3.0, MU5, 0.0) == 3.0


def test_sample_time_hand_value():
    # u = 1 - e^{-1}: the log term equals -1, so t = s(1 + 1/mu) = 4
    t = sample_time(2.0, DelayModel(1.0), 1.0 - math.exp(-1.0))
    assert t == pytest.approx(4.0, rel=1e-14)


def test_sample_time_empirical_mean():
    u = _uniform_stream(123, 0, 10**6)
    t = sample_time(3.0, DelayModel(2.0), u)
    expected = 3.0 * (1 + 1 / 2.0)
    assert abs(t.mean() - expected) <= 0.005 * expected


def test_sample_time_kolmogorov_smirnov():
    n = 10**5
    s, mu = 2.0, 5.0
    t = np.sort(sample_time(s, DelayModel(mu), _uniform_stream(7, 0, n)))
    cdf = 1.0 - np.exp(-mu * (t / s - 1.0))
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(cdf - lo)))
    assert ks <= 0.01


# --- closed forms ----------------------------------------------------------------


def test_expected_kth_order_examples():
    assert expected_kth_order(1, 1, 5.0, MU5) == pytest.approx(5.0 * (1 + 1 / 5.0))
    assert expected_kth_order(6, 5, 8.0, MU5) == pytest.approx(10.32, rel=1e-12)


@pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
def test_expected_kth_order_refuses_a_length_that_is_not_positive_and_finite(s):
    with pytest.raises(ValueError, match="task length s must be positive and finite"):
        expected_kth_order(5, 3, s, MU5)


@pytest.mark.parametrize("P,K", [(10, 7), (20, 18)])
def test_expected_kth_order_matches_monte_carlo(P, K):
    s = 4.0
    analytic = expected_kth_order(P, K, s, MU5)
    plan = TaskPlan("kth", np.full(P, s), np.zeros(P, dtype=int), K)
    rep = monte_carlo(plan, MU5, 400_000, 11)
    assert abs(rep.mc_mean - analytic) <= 3 * rep.mc_stderr


def test_expected_time_short_dot_values():
    assert expected_time_short_dot(validate_params(6, 5, 3, 12), MU5) == pytest.approx(
        10.32, rel=1e-12
    )
    # padded flagship parameters: 480 * (1 + (H_20 - H_2)/5)
    assert expected_time_short_dot(validate_params(20, 18, 10, 785), MU5) == pytest.approx(
        681.383007085793, rel=1e-12
    )
    # K = M degenerates to the MDS expectation
    p = validate_params(6, 3, 3, 12)
    assert expected_time_short_dot(p, MU5) == expected_time_mds(p, MU5)


def test_expected_time_mds_values():
    assert expected_time_mds(validate_params(6, 3, 3, 12), MU5) == pytest.approx(
        13.48, rel=1e-12
    )
    assert expected_time_mds(validate_params(20, 10, 10, 785), MU5) == pytest.approx(
        907.003424508068, rel=1e-12
    )
    p = validate_params(4, 4, 4, 8)  # M = P: wait for all
    assert expected_time_mds(p, MU5) == pytest.approx(8 * (1 + harmonic(4) / 5.0))


def test_expected_time_uncoded_values():
    assert expected_time_uncoded(validate_params(20, 18, 10, 785), MU5) == pytest.approx(
        687.819172571495, rel=1e-12
    )
    single = validate_params(1, 1, 1, 7)
    assert expected_time_uncoded(single, MU5) == pytest.approx(7 * (1 + 1 / 5.0))


def test_expected_time_uncoded_integer_effects_vs_monte_carlo():
    p = validate_params(6, 4, 4, 12)  # M does not divide P
    analytic = expected_time_uncoded(p, MU5)
    rep = monte_carlo(plan_by_name("uncoded", p), MU5, 400_000, 5)
    assert abs(rep.mc_mean - analytic) <= 0.01 * analytic


def test_expected_time_repetition_values():
    assert expected_time_repetition(validate_params(6, 5, 3, 12), MU5) == pytest.approx(
        14.2, rel=1e-12
    )
    # M = 1: the minimum of P replicas
    p1 = validate_params(8, 8, 1, 16)
    assert expected_time_repetition(p1, MU5) == pytest.approx(16 * (1 + 1 / (8 * 5.0)))


def test_expected_time_repetition_integer_effects_vs_monte_carlo():
    p = validate_params(7, 3, 3, 14)
    analytic = expected_time_repetition(p, MU5)
    rep = monte_carlo(plan_by_name("repetition", p), MU5, 400_000, 6)
    assert abs(rep.mc_mean - analytic) <= 0.01 * analytic


# --- numeric integration -----------------------------------------------------------


def test_numeric_single_factor_known_mean():
    got = expected_time_numeric([CdfFactor(1, 2.0, 1.0)], DelayModel(1.0))
    assert got == pytest.approx(4.0, rel=1e-6)


def test_numeric_matches_closed_form_when_m_divides_p():
    P, M, N = 12, 4, 24.0
    factors = [CdfFactor(M, N, P / M)]
    got = expected_time_numeric(factors, MU5)
    assert got == pytest.approx(repetition_closed_form(P, M, N, MU5), rel=1e-6)


def test_numeric_matches_monte_carlo():
    p = validate_params(7, 3, 3, 14)
    analytic = expected_time_uncoded(p, MU5)
    rep = monte_carlo(plan_by_name("uncoded", p), MU5, 400_000, 8)
    assert abs(rep.mc_mean - analytic) <= 4 * rep.mc_stderr


def test_numeric_rejects_bad_factors():
    with pytest.raises(ValueError):
        expected_time_numeric([], MU5)
    with pytest.raises(ValueError):
        expected_time_numeric([CdfFactor(1, -2.0, 1.0)], MU5)
    for bad in [(1, math.nan), (1, 2.0, math.nan), (1, math.inf), (1, 2.0, math.inf),
                (2.5, 2.0), (-1, 2.0), (1, 2.0, 0.0)]:
        with pytest.raises(ValueError):
            expected_time_numeric([CdfFactor(*bad)], MU5)
    with pytest.raises(ValueError):
        expected_time_numeric([CdfFactor(0, 2.0), CdfFactor(0, 3.0, 2.0)], MU5)


def test_expectations_scale_linearly_in_n():
    for build, strategy in [
        (lambda n: expected_time_short_dot(validate_params(6, 5, 3, n), MU5), "sd"),
        (lambda n: expected_time_mds(validate_params(6, 4, 4, n), MU5), "mds"),
        (lambda n: expected_time_uncoded(validate_params(6, 4, 4, n), MU5), "unc"),
        (lambda n: expected_time_repetition(validate_params(6, 4, 4, n), MU5), "rep"),
    ]:
        one, two = build(12), build(24)
        assert two == pytest.approx(2 * one, rel=1e-6), strategy


# --- optimize_k ---------------------------------------------------------------------


def test_optimize_k_tiny_search_space():
    P, M, N = 5, 4, 10.0
    k_star, best = optimize_k(P, M, N, MU5)
    candidates = {
        k: expected_time_short_dot(validate_params(P, k, M, int(N)), MU5)
        for k in (4, 5)
    }
    assert best == pytest.approx(min(candidates.values()))
    assert k_star == min(k for k, v in candidates.items() if v == min(candidates.values()))


def test_optimize_k_never_worse_than_mds():
    for M in range(1, 21):
        p = validate_params(20, M, M, 40)
        _, best = optimize_k(20, M, 40.0, MU5)
        assert best <= expected_time_mds(p, MU5) + 1e-12


def test_optimize_k_theta_m_regime():
    # exhaustive search at P=1000, M=145 gives P-K* = 18; the Theta(M)
    # claim holds with a mu-dependent constant (not the [M/4, 4M] window)
    k_star, _ = optimize_k(1000, 145, 1000.0, MU5)
    assert 145 / 16 <= 1000 - k_star <= 4 * 145


@pytest.mark.parametrize("N", [0.0, -5.0, math.inf, math.nan])
def test_optimize_k_refuses_an_n_that_is_not_positive_and_finite(N):
    # unchecked, N = nan gives (3, nan) and N = -5 gives (3, -5.34)
    with pytest.raises(ValueError, match="N must be positive and finite"):
        optimize_k(10, 3, N, MU5)


@pytest.mark.parametrize("mu", [0.5, 5.0])
def test_optimize_k_is_the_per_k_harmonic_loop(mu):
    model = DelayModel(mu)
    for P in (1, 2, 7, 20, 100, 1000):
        assert not _harmonic_table(P).flags.writeable
        for M in sorted({1, max(P // 3, 1), max(P // 2, 1), P}):
            N = 10.0 * P
            ks = np.arange(M, P + 1)
            h = np.array([harmonic(P) - harmonic(P - k) for k in ks])
            expect = (N / P) * (P - ks + M) * (1.0 + h / mu)
            i = int(np.argmin(expect))
            assert optimize_k(P, M, N, model) == (int(ks[i]), float(expect[i]))


def test_optimize_k_single_choice_when_m_equals_p():
    k_star, best = optimize_k(6, 6, 12.0, MU5)
    assert k_star == 6
    assert best == pytest.approx(expected_time_short_dot(validate_params(6, 6, 6, 12), MU5))


# --- monte carlo ----------------------------------------------------------------------


def test_monte_carlo_single_worker_mean():
    plan = TaskPlan("one", np.array([5.0]), [0], 1)
    rep = monte_carlo(plan, MU5, 300_000, 2)
    expected = 5.0 * (1 + 1 / 5.0)
    assert abs(rep.mc_mean - expected) <= 4 * rep.mc_stderr
    assert rep.mc_stderr > 0
    assert rep.trials == 300_000


def test_monte_carlo_trials_one():
    plan = TaskPlan("one", np.array([5.0]), [0], 1)
    rep = monte_carlo(plan, MU5, 1, 2)
    assert rep.mc_stderr == 0.0


def test_monte_carlo_deterministic_across_thread_counts(monkeypatch):
    plan = plan_short_dot(validate_params(8, 6, 3, 16))
    monkeypatch.setenv("SHORTDOT_THREADS", "1")
    one = monte_carlo(plan, MU5, 200_000, 42)
    monkeypatch.setenv("SHORTDOT_THREADS", "8")
    eight = monte_carlo(plan, MU5, 200_000, 42)
    assert one.mc_mean == eight.mc_mean  # bitwise
    assert one.mc_stderr == eight.mc_stderr


def test_monte_carlo_seed_sensitivity():
    plan = plan_short_dot(validate_params(8, 6, 3, 16))
    a = monte_carlo(plan, MU5, 10_000, 0)
    b = monte_carlo(plan, MU5, 10_000, 0)
    c = monte_carlo(plan, MU5, 10_000, 1)
    assert a.mc_mean == b.mc_mean
    assert a.mc_mean != c.mc_mean


def test_monte_carlo_validates_arguments():
    plan = plan_short_dot(validate_params(8, 6, 3, 16))
    with pytest.raises(ValueError):
        monte_carlo(plan, MU5, 0, 0)
    with pytest.raises(ValueError):
        monte_carlo(plan, MU5, 10, -3)


def test_monte_carlo_refuses_seeds_past_64_bits():
    # seed and seed + 2**64 would name the same stream
    plan = plan_short_dot(validate_params(8, 6, 3, 16))
    monte_carlo(plan, MU5, 10, 2**64 - 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        monte_carlo(plan, MU5, 10, 2**64 + 3)


@pytest.mark.parametrize("text", ["two", "-3", "0", "", "1.5"])
def test_malformed_thread_count_is_refused(monkeypatch, text):
    monkeypatch.setenv("SHORTDOT_THREADS", text)
    with pytest.raises(ValueError, match="SHORTDOT_THREADS"):
        simulation_threads()
    with pytest.raises(ValueError, match="SHORTDOT_THREADS"):
        monte_carlo(plan_short_dot(validate_params(8, 6, 3, 16)), MU5, 10, 0)


def test_thread_count_defaults_to_one(monkeypatch):
    monkeypatch.delenv("SHORTDOT_THREADS", raising=False)
    assert simulation_threads() == 1
    monkeypatch.setenv("SHORTDOT_THREADS", "3")
    assert simulation_threads() == 3


def _old_uniform_stream(seed, start, count):
    """The one-expression SplitMix64 stream the block kernel replaced."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@pytest.mark.parametrize("seed, start, count", [
    (0, 0, 1), (7, 0, 1000), (123, 37, 4099), (2**64 - 1, 0, 500),
    (2**64 - 1, 12 * 6543 + 5, 333), (2**63 + 9, 2**40 + 1, 100),
])
def test_uniform_stream_matches_the_one_expression_form(seed, start, count):
    assert np.array_equal(_uniform_stream(seed, start, count),
                          _old_uniform_stream(seed, start, count))


# float.hex of (mc_mean, mc_stderr) as computed by the one-expression
# Monte Carlo that the block kernel replaced: P = 12, mu = 5.
_P12 = validate_params(12, 9, 5, 60)
GOLDEN_PLANS = {
    "uncoded, two lengths": plan_uncoded(_P12),
    "one group": plan_short_dot(_P12),
    "need 1, sizes 3,3,2,2,2": plan_repetition_block(_P12, 60),
    "need 2, sizes 3,3,2,2,2": plan_short_mds(validate_params(12, 9, 2, 60), 12),
    "need 3, short-mds": plan_short_mds(validate_params(12, 9, 3, 60), 20),
}
GOLDEN = [
    ("uncoded, two lengths", 1, 7, "0x1.8a5aec583eaa7p+5", "0x0.0p+0"),
    ("uncoded, two lengths", 5000, 11, "0x1.65fbfb78c1b54p+5", "0x1.ab4a7b24ab17cp-4"),
    ("uncoded, two lengths", 135168, 3, "0x1.669eacbd7de3ap+5", "0x1.431c255cdf6b4p-6"),
    ("one group", 1, 7, "0x1.6862b034380e8p+5", "0x0.0p+0"),
    ("one group", 5000, 11, "0x1.904300bf0019bp+5", "0x1.99d07fd6d6276p-5"),
    ("one group", 135168, 3, "0x1.91295cf2a220ap+5", "0x1.41d79e5a75656p-7"),
    ("one group", 3000, 2**64 - 1, "0x1.8f7b68c19e53dp+5", "0x1.02f620407658ep-4"),
    ("need 1, sizes 3,3,2,2,2", 1, 7, "0x1.099526f5ed208p+6", "0x0.0p+0"),
    ("need 1, sizes 3,3,2,2,2", 5000, 11, "0x1.1f6394f4c0d0dp+6",
     "0x1.78104940e6149p-4"),
    ("need 1, sizes 3,3,2,2,2", 135168, 3, "0x1.206bcba103817p+6",
     "0x1.2a74eb3fd00ddp-6"),
    ("need 2, sizes 3,3,2,2,2", 1, 7, "0x1.18b665744bff5p+4", "0x0.0p+0"),
    ("need 2, sizes 3,3,2,2,2", 5000, 11, "0x1.20ef5d8de0156p+4",
     "0x1.424301a64b023p-5"),
    ("need 2, sizes 3,3,2,2,2", 135168, 3, "0x1.2126f6e483f7bp+4",
     "0x1.f4ae14e3fe1e7p-8"),
    ("need 3, short-mds", 1, 7, "0x1.d3daa91729543p+4", "0x0.0p+0"),
    ("need 3, short-mds", 5000, 11, "0x1.a899f90ef9d2cp+4", "0x1.3a82789fcfe61p-5"),
    ("need 3, short-mds", 135168, 3, "0x1.a8f9f69fe545cp+4", "0x1.dcc00c8bcef2cp-8"),
]


# The Theorem-4 size P = 100 (N = 10000, K = optimize_k), as computed when
# every draw went through the inverse CDF before the recovery rule; at
# M = 7 uncoded has two task lengths, and short-dot waits for all (K = 100).
# numpy's AVX-512 log1p and the C library's log1p (numpy's path without
# AVX-512) differ by an ulp on about 7 % of uniforms; in the M = 50
# short-dot pin that reaches the sums, so it has one value per path.
_AVX512_LOG1P = bool(np._core._multiarray_umath.__cpu_features__.get("AVX512_SKX"))


def _p100(name, M):
    K, _ = optimize_k(100, M, 10000, MU5)
    return plan_by_name(name, validate_params(100, K, M, 10000))


GOLDEN_PLANS.update({f"P=100, M={M}, {name}": _p100(name, M)
                     for M in (7, 50) for name in ("uncoded", "repetition", "mds", "short-dot")})
GOLDEN += [
    ("P=100, M=7, uncoded", 2000, 3, "0x1.648e85f4fe544p+10", "0x1.e4b594962afdcp+1"),
    ("P=100, M=7, repetition", 2000, 3, "0x1.43f2c354ac12bp+13", "0x1.e7d1bf9f7e02ep+1"),
    ("P=100, M=7, mds", 2000, 3, "0x1.3d04b8bcf4fc7p+13", "0x1.3c407ccb2ef60p+0"),
    ("P=100, M=7, short-dot", 2000, 3, "0x1.63c8eea5cb21dp+10", "0x1.e3af43ffc7e49p+1"),
    ("P=100, M=50, uncoded", 2000, 3, "0x1.3daa42cae3151p+13", "0x1.afdc7cb6a9510p+4"),
    ("P=100, M=50, repetition", 2000, 3, "0x1.c42cd020748c1p+13", "0x1.cb358a31f3800p+4"),
    ("P=100, M=50, mds", 2000, 3, "0x1.637ff2fc169c3p+13", "0x1.1d9723d4e38a2p+2"),
    ("P=100, M=50, short-dot", 2000, 3,
     *(("0x1.0ec7b93832a26p+13", "0x1.24077f4f7c986p+3") if _AVX512_LOG1P
       else ("0x1.0ec7b93832a27p+13", "0x1.24077f4f7c7afp+3"))),
]


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("name, trials, seed, mean, stderr", GOLDEN)
def test_monte_carlo_golden_bits(monkeypatch, threads, name, trials, seed, mean, stderr):
    # 5000 trials end in a partial block; 2 * 65536 + 4096 take three chunks
    if threads is None:
        monkeypatch.delenv("SHORTDOT_THREADS", raising=False)
    else:
        monkeypatch.setenv("SHORTDOT_THREADS", threads)
    rep = monte_carlo(GOLDEN_PLANS[name], MU5, trials, seed)
    assert (rep.mc_mean.hex(), rep.mc_stderr.hex()) == (mean, stderr)


@pytest.mark.parametrize("mu", [0.1, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("length", [1.0, 480.0, 10000 / 3])
def test_inverse_cdf_is_non_decreasing_on_the_uniform_grid(mu, length):
    # the Monte Carlo selects on the uniforms k 2**-53 before the inverse
    # CDF, which is exact only if neighbouring grid points never decrease
    rng = np.random.default_rng(53)
    last = 2**53 - 1  # the largest uniform is last * 2**-53
    k = np.concatenate([rng.integers(0, last, size=10**6, dtype=np.int64),
                        np.arange(1000), np.arange(last - 1000, last)])
    u = k.astype(float) * 2.0**-53
    t = _inverse_cdf(u, mu, length, np.empty_like(u))
    t_next = _inverse_cdf(u + 2.0**-53, mu, length, np.empty_like(u))
    assert np.all(t_next >= t)


def _random_plan(rng, shape, n_lengths):
    P = int(rng.integers(1 if shape in ("singles", "one group") else 2, 13))
    lengths = rng.choice([1.0, 2.5, 480.0, 10000 / 3][:n_lengths], size=P)
    if shape == "singles":
        return TaskPlan("random", lengths, np.arange(P), 1)
    if shape == "one group":
        return TaskPlan("random", lengths, np.zeros(P, dtype=int), int(rng.integers(1, P + 1)))
    G = int(rng.integers(1, P // 2 + 1))
    group = rng.permutation(np.arange(P) % G)
    need = int(rng.integers(1, np.bincount(group).min() + 1)) if shape == "need k" else 1
    if shape == "need 1" and n_lengths > 1:  # one length per group
        lengths = lengths[group]
    return TaskPlan("random", lengths, group, need)


_FIXED_PLANS = [
    TaskPlan("two runs twice", [1.0, 2.0, 1.0, 2.0], np.arange(4), 1),
    TaskPlan("three runs", [3.0, 3.0, 1.0, 2.0, 2.0], np.arange(5), 1),
    TaskPlan("one group, two lengths", [1.0, 2.0, 1.0, 2.0], [0, 0, 0, 0], 3),
    plan_uncoded(validate_params(100, 100, 7, 10000)),
    plan_mds(validate_params(8, 2, 2, 48)),  # a selected column 64 bytes apart
    plan_short_mds(validate_params(12, 9, 2, 60), 12),
]


@pytest.mark.parametrize("case", range(60))
def test_block_recovery_equals_finish_times_of_every_sample(case):
    # selection on the uniforms == selection on the inverse-CDF times,
    # bit for bit; the grids of 8 levels give ties and u = 0
    rng = np.random.default_rng(case)
    shapes = ("singles", "one group", "need 1", "need k")
    if case < len(_FIXED_PLANS):
        plan = _FIXED_PLANS[case]
    else:
        plan = _random_plan(rng, shapes[case % 4], 1 + case // 4 % 3)
    model = DelayModel(float(rng.choice([0.1, 1.0, 5.0, 50.0])))
    rows = 64
    if rng.integers(2):
        u = rng.integers(0, 8, size=(rows, plan.P)) / 8.0
    else:
        u = rng.random((rows, plan.P))
        u[::3, ::2] = 0.0
    expected = finish_times(plan, sample_time(plan.task_lengths, model, u))
    got = _block_recovery(plan, model.mu)(u.copy())
    assert got.shape == (rows,)
    assert np.array_equal(got, expected)


def _split_factors(P, M, N, per_worker):
    """CDF factors of the integer split, written out apart from the plans:
    m1 rows on ceil(P/M) workers, m2 rows on floor(P/M)."""
    c1, c2 = -(-P // M), P // M
    m1 = P - M * c2
    m2 = M - m1
    if per_worker:  # uncoded: every worker is its own exponential
        return [CdfFactor(m1 * c1, N / c1), CdfFactor(m2 * c2, N / c2)]
    # repetition: the minimum over a row's replicas scales the rate
    return [CdfFactor(m1, N, float(c1)), CdfFactor(m2, N, float(c2))]


def test_exactness_ladder_across_strategy_grid():
    # closed form == numeric integration (1e-6 rel) and both match Monte
    # Carlo (4 stderr), on a grid covering even and uneven splits
    for (P, M) in [(6, 3), (6, 4), (7, 3), (8, 2), (9, 5)]:
        params = validate_params(P, max(M, 1), M, 6 * P)
        N = float(params.N)
        for name, analytic in (
            ("uncoded", expected_time_uncoded(params, MU5)),
            ("repetition", expected_time_repetition(params, MU5)),
            ("mds", expected_time_mds(params, MU5)),
        ):
            if name == "uncoded":
                numeric = expected_time_numeric(_split_factors(P, M, N, True), MU5)
            elif name == "repetition":
                numeric = expected_time_numeric(_split_factors(P, M, N, False), MU5)
            else:
                numeric = None
            if numeric is not None:
                assert numeric == pytest.approx(analytic, rel=1e-6), (name, P, M)
            rep = monte_carlo(plan_by_name(name, params), MU5, 150_000, P * 100 + M)
            assert abs(rep.mc_mean - analytic) <= max(
                4 * rep.mc_stderr, 1e-3 * analytic
            ), (name, P, M)


def test_expected_time_of_plan_equals_closed_forms_exactly():
    # the plan-derived expectation reproduces each strategy's own closed
    # form (or two-group integral) bit for bit; where two strategies build
    # the same plan they get the same number: repetition at M = 1 is one
    # group of P workers needing one (mds), at M = P one worker per group
    # (uncoded)
    for P in range(1, 31):
        for M in range(1, P + 1):
            p = validate_params(P, (M + P) // 2, M, 100 * P)
            N = float(p.N)
            if P % M == 0:
                uncoded = uncoded_closed_form(P, M, N, MU5)
                repetition = repetition_closed_form(P, M, N, MU5)
            else:
                uncoded = expected_time_numeric(_split_factors(P, M, N, True), MU5)
                repetition = expected_time_numeric(_split_factors(P, M, N, False), MU5)
            if M == 1:
                repetition = expected_kth_order(P, 1, N, MU5)
            elif M == P:
                repetition = uncoded
            assert expected_time(plan_uncoded(p), MU5) == uncoded, (P, M)
            assert expected_time(plan_repetition_block(p, p.N), MU5) == repetition, (P, M)
            assert expected_time(plan_mds(p), MU5) == expected_kth_order(P, M, N, MU5)
            assert expected_time(plan_short_dot(p), MU5) == expected_kth_order(
                P, p.K, p.s, MU5)


def _repetition_mean_exactly(P, M, N, mu):
    """Row repetition's mean as a Fraction.  With u = e^{-mu(t/N - 1)} the
    CDF is prod_g (1 - u^c_g)^m_g = sum_j a_j u^j, and integrating its
    complement over t >= N gives E = N + (N/mu) sum_{j>=1} (-a_j)/j."""
    c1, c2 = -(-P // M), P // M
    m1 = P - M * c2
    poly = [1]
    for c, m in ((c1, m1), (c2, M - m1)):
        for _ in range(m):  # multiply by 1 - u^c
            poly = [a - (poly[j - c] if j >= c else 0)
                    for j, a in enumerate(poly + [0] * c)]
    tail = sum(Fraction(-a, j) for j, a in enumerate(poly) if j)
    return Fraction(N) + Fraction(N) / Fraction(mu) * tail


@pytest.mark.parametrize("mu", [0.5, 5.0])
def test_repetition_integral_matches_exact_polynomial_form(mu):
    for P in range(3, 31):
        for M in range(2, P):
            if P % M == 0:
                continue
            p = validate_params(P, M, M, 100 * P)
            exact = _repetition_mean_exactly(P, M, p.N, mu)
            got = expected_time_repetition(p, DelayModel(mu))
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * exact, (P, M)


@pytest.mark.parametrize("P,M,N,s", [(8, 2, 16, 4), (10, 1, 23, 10), (12, 2, 36, 10)])
def test_expected_time_of_block_repetition_matches_monte_carlo(P, M, N, s):
    plan = plan_repetition_block(validate_params(P, M, M, N), s)
    analytic = expected_time(plan, MU5)
    rep = monte_carlo(plan, MU5, 200_000, P + M)
    assert abs(rep.mc_mean - analytic) <= 4 * rep.mc_stderr


def test_expected_time_without_closed_form():
    p = validate_params(12, 6, 2, 12)
    assert math.isnan(expected_time(plan_short_mds(p, 6), MU5))
    mixed = TaskPlan("x", np.array([1.0, 2.0]), [0, 0], 1)
    with pytest.raises(ValueError):
        expected_time(mixed, MU5)
    split = TaskPlan("x", np.array([1.0, 2.0, 1.0]), [0, 0, 1], 1)
    with pytest.raises(ValueError, match="one task length per group"):
        expected_time(split, MU5)


def test_expected_time_reads_group_ids_in_any_order():
    # groups {3, 4} and {5} of length 2, {1, 2, 6} of length 4
    plan = TaskPlan("x", np.array([4.0, 4.0, 2.0, 2.0, 2.0, 4.0]), [1, 1, 0, 0, 2, 1], 1)
    factors = [CdfFactor(1, 2.0, 1.0), CdfFactor(1, 2.0, 2.0), CdfFactor(1, 4.0, 3.0)]
    assert expected_time(plan, MU5) == expected_time_numeric(factors, MU5)


# --- dominance at larger processor counts -------------------------------------------


@pytest.mark.parametrize("P", [50, 1000])
def test_optimized_short_dot_dominates_every_strategy(P):
    N = 10 * P
    for M in range(1, P + 1):
        p = validate_params(P, M, M, N)
        _, best = optimize_k(P, M, float(N), MU5)
        for competitor in (
            expected_time_uncoded(p, MU5),
            expected_time_repetition(p, MU5),
            expected_time_mds(p, MU5),
        ):
            assert best <= competitor * (1 + 1e-9)


# --- theorem-4 regime --------------------------------------------------------------


def test_theorem4_regime_monotonicity():
    rows = theorem4_regime([10**3, 10**4, 10**5, 10**6], MU5)
    ratios = [r.ratio for r in rows]
    sds = [r.short_dot for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(b < a for a, b in zip(sds, sds[1:]))
    assert all(r.mds >= 1.0 for r in rows)
    assert all(r.repetition >= 1.0 for r in rows)


def test_theorem4_regime_parameter_choice():
    (row,) = theorem4_regime([1000], MU5)
    assert row.M == 145  # round(1000 / ln 1000), half-up
    assert row.K == 1000 - 73  # 1000 - round(72.5), half-up


@pytest.mark.parametrize("P", [-3, 0, 1, 2, 3, 4])
def test_theorem4_regime_refuses_p_whose_rounding_is_no_code(P):
    # at P = 3 and 4 the rounded (M, K) are (3, 1) and (3, 2): K < M
    with pytest.raises(ValueError, match=f"P={P} "):
        theorem4_regime([1000, P], MU5)


def test_theorem4_regime_rows_are_codes_from_p_5():
    for row in theorem4_regime(range(5, 400), MU5):
        validate_params(row.P, row.K, row.M, row.P)
