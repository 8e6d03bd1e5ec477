"""Shifted-exponential straggler model and expected finish times.

A worker with task length s finishes at time T with
Pr(T <= t) = 1 - exp(-mu (t/s - 1)) for t >= s: a deterministic offset
proportional to the task length plus an exponential tail with straggling
parameter mu (smaller mu = heavier straggling).

Expected recovery times are computed three ways, which must agree:
exact closed forms using harmonic numbers (the k-th order statistic of P
unit exponentials has mean H_P - H_{P-K}; the commonly quoted
log(P/(P-K)) is its large-P approximation), numeric integration of
E[T] = int (1 - F(t)) dt for the mixed-group cases (a fixed composite
Gauss-Legendre rule, cut off where the survival falls below 1e-20), and
Monte Carlo.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import CodeParams
from .strategies import (
    TaskPlan,
    finish_times,
    plan_mds,
    plan_repetition_block,
    plan_short_dot,
    plan_uncoded,
)

DEFAULT_MU = 5.0
_MC_CHUNK = 1 << 16  # fixed chunk size keeps reductions thread-count independent
_MC_BLOCK = 1 << 15  # draws per block of a chunk: its three buffers stay in L2


@dataclass(frozen=True)
class DelayModel:
    """Straggling parameter of the shifted-exponential service law."""

    mu: float = DEFAULT_MU

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")


@dataclass(frozen=True)
class SimulationReport:
    strategy_id: str
    analytic_expected: float | None
    mc_mean: float
    mc_stderr: float
    trials: int
    seed: int


@lru_cache(maxsize=None)
def harmonic(n: int) -> float:
    """Exact harmonic number H_n = sum_{i<=n} 1/i, H_0 = 0."""
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    return float(np.sum(1.0 / np.arange(1, n + 1))) if n else 0.0


@lru_cache(maxsize=128)
def _harmonic_table(P: int) -> np.ndarray:
    """Read-only [H_0, ..., H_P]."""
    table = np.array([harmonic(n) for n in range(P + 1)])
    table.flags.writeable = False
    return table


def sample_time(s: float, model: DelayModel, u) -> np.ndarray | float:
    """Inverse-CDF sample(s): t = s (1 - ln(1-u)/mu) for uniform u."""
    u = np.asarray(u, dtype=float)
    out = np.empty(np.broadcast_shapes(u.shape, np.shape(s)))
    return _inverse_cdf(u, model.mu, s, out)[()]  # [()]: a 0-d result as a scalar


def _inverse_cdf(u: np.ndarray, mu: float, s, out: np.ndarray) -> np.ndarray:
    """out = s (1 - log1p(-u)/mu), step by step in place; out may be u."""
    np.negative(u, out=out)
    np.log1p(out, out=out)
    out /= mu
    np.subtract(1.0, out, out=out)
    out *= s
    return out


def expected_kth_order(P: int, K: int, s: float, model: DelayModel) -> float:
    """Mean of the K-th order statistic of P iid length-s task times."""
    if not 1 <= K <= P:
        raise ValueError(f"need 1 <= K <= P, got K={K}, P={P}")
    if not 0 < s < math.inf:  # NaN fails too
        raise ValueError(f"task length s must be positive and finite, got {s}")
    return s * (1.0 + (harmonic(P) - harmonic(P - K)) / model.mu)


def expected_time(plan: TaskPlan, model: DelayModel) -> float:
    """Expected recovery time of a plan, read from its groups, need and
    task lengths; every group must have one task length.

    One length, and one group or one worker per group: the order-statistic
    closed form at the plan's worst-case threshold.  Otherwise, with need
    1: L(1 + n H_n/(P mu)) when all n groups share one length L and one
    size, else one CDF factor per (length, size), the size scaling the
    rate of the group's minimum.  Several groups that each need several
    workers have no closed form here: nan (Monte Carlo only).
    """
    task, sizes, n = plan.task_lengths, plan.sizes, plan.sizes.size
    if np.all(task == task[0]) and n in (1, plan.P):  # one group, or one worker each
        return expected_kth_order(plan.P, plan.worst_case_threshold, float(task[0]), model)
    lengths = np.empty(n)
    lengths[plan.group] = task  # some member's length, per group
    if np.any(task != lengths[plan.group]):
        raise ValueError("expected_time needs one task length per group")
    if plan.need > 1:
        return float("nan")
    if np.all(lengths == lengths[0]) and np.all(sizes == sizes[0]):
        return repetition_closed_form(plan.P, n, float(lengths[0]), model)
    # one factor per distinct (length, size), counting the groups with it;
    # complex keys sort by length, then size
    keys, counts = np.unique(lengths + 1j * sizes, return_counts=True)
    factors = [CdfFactor(c, key.real, key.imag)
               for key, c in zip(keys.tolist(), counts.tolist())]
    return expected_time_numeric(factors, model)


def expected_time_short_dot(params: CodeParams, model: DelayModel) -> float:
    """Closed form: K-th order statistic of P tasks of length s."""
    return expected_time(plan_short_dot(params), model)


def expected_time_mds(params: CodeParams, model: DelayModel) -> float:
    """Closed form: M-th order statistic of P full-length tasks."""
    return expected_time(plan_mds(params), model)


def expected_time_uncoded(params: CodeParams, model: DelayModel) -> float:
    """Wait-for-all expectation; closed form when M | P, else the
    two-group integral with integer effects."""
    return expected_time(plan_uncoded(params), model)


def expected_time_repetition(params: CodeParams, model: DelayModel) -> float:
    """Row-repetition expectation; closed form when M | P, else the
    two-group integral with integer effects."""
    return expected_time(plan_repetition_block(params, params.N), model)


def uncoded_closed_form(P: int, M: int, N: float, model: DelayModel) -> float:
    """(MN/P)(1 + H_P/mu); exact when M divides P, else the smooth
    continuation used as the integer-effect baseline."""
    return expected_kth_order(P, P, M * N / P, model)


def repetition_closed_form(P: int, M: int, N: float, model: DelayModel) -> float:
    """N(1 + M H_M/(P mu)): max of M minima, exact when M divides P."""
    return N * (1.0 + M * harmonic(M) / (P * model.mu))


@dataclass(frozen=True)
class CdfFactor:
    """One group factor (1 - exp(-mu*rate*(t/shift - 1)))^count, t >= shift."""

    count: int
    shift: float
    rate: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.count, numbers.Integral) and self.count >= 0
                and 0 < self.shift < math.inf and 0 < self.rate < math.inf):
            raise ValueError(f"a CDF factor needs an integer count >= 0 and a finite "
                             f"positive shift and rate, got {self}")


# Composite Gauss-Legendre rule on [0, 1]: _GL_PANELS equal panels of 32 nodes.
# 16 panels agree with 512 to 7e-16 relative for P <= 1000, mu = 0.1..50.
_GL_PANELS = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES = ((np.arange(_GL_PANELS)[:, None] + (_GL_NODES + 1.0) / 2.0) / _GL_PANELS).ravel()
_GL_WEIGHTS = np.tile(_GL_WEIGHTS / (2.0 * _GL_PANELS), _GL_PANELS)


def expected_time_numeric(factors, model: DelayModel) -> float:
    """E[T] = t0 + integral over [t0, inf) of 1 - prod of group CDFs.

    t0 is the largest shift, below which the survival is 1.  The fixed
    Gauss-Legendre rule above integrates up to the time where the union
    bound sum_g count_g q_g(t) puts the survival below 1e-20; the product
    of CDFs is summed in log space, factor by factor.
    """
    factors = [f for f in factors if f.count > 0]
    if not factors:
        raise ValueError("need at least one CDF factor with a positive count")
    count, shift, rate = np.array([(f.count, f.shift, f.rate) for f in factors]).T[..., None]
    mu_rate = model.mu * rate
    t0 = float(shift.max())
    # each factor's union-bound term count_g q_g(t) falls to 1e-20 / len(factors)
    t_end = float(np.max(shift * (1.0 + np.log(count * len(factors) * 1e20) / mu_rate)))
    t = t0 + (t_end - t0) * _GL_NODES
    log_cdf = np.sum(count * np.log1p(-np.exp(-mu_rate * (t / shift - 1.0))), axis=0)
    return t0 + (t_end - t0) * float(_GL_WEIGHTS @ -np.expm1(log_cdf))


def optimize_k(P: int, M: int, N: float, model: DelayModel) -> tuple[int, float]:
    """Exhaustive minimizer of the short-dot expectation over K in M..P.

    K = P is the wait-for-all case (H_{P-K} = H_0 = 0 handles it without
    the log-form singularity).  Ties resolve to the smallest K.
    """
    if not 1 <= M <= P:
        raise ValueError(f"need 1 <= M <= P, got M={M}, P={P}")
    if not 0 < N < math.inf:  # NaN fails too
        raise ValueError(f"N must be positive and finite, got {N}")
    ks = np.arange(M, P + 1)
    H = _harmonic_table(P)
    h = H[P] - H[P - ks]
    s = (N / P) * (P - ks + M)
    expect = s * (1.0 + h / model.mu)
    i = int(np.argmin(expect))  # argmin returns the first (smallest K) tie
    return int(ks[i]), float(expect[i])


# --- Monte Carlo -----------------------------------------------------------
#
# Uniform draws come from a counter-based SplitMix64 stream: draw number
# d of the run is fmix64(key + (d+1)*GOLDEN).  Trial t consumes draws
# t*P..(t+1)*P-1, so the sample for (trial, worker) is a pure function of
# (seed, trial, worker) and results cannot depend on chunking or thread
# count.
#
# A chunk is walked in blocks of about _MC_BLOCK draws, so that its
# working set stays in cache: each block reuses two uint64 buffers and one
# float64 buffer, SplitMix64 fills the float64 one with uniforms in place,
# and only the block's recovery times go to the chunk's array.  No array
# of the chunk's draws is ever made (at 65536 x 100 one such array is
# 52 MB).
#
# The recovery rule selects on the uniforms, and the inverse CDF runs only
# on what it picks (_block_recovery): with one task length, on the one
# selected draw of each trial; with one worker per group and several
# lengths, on the largest draw of each run of equal consecutive lengths,
# then the largest time is taken.  Only the other plans (several lengths
# and a group of several workers) transform every draw first.  This is
# bitwise the same as transforming every draw: t = s (1 - log1p(-u)/mu)
# is non-decreasing in u (negation is exact, log1p is monotone on the
# 2**-53 grid, and /mu, 1 - x and x s with s > 0 are correctly rounded),
# so max, min, sort and partition pick the same draw either way.  The two sums run once over
# the chunk's recovery times, so the results depend neither on _MC_BLOCK
# nor on the thread count.  They do depend on numpy's log1p: its AVX-512
# version and the C library's differ by an ulp on some draws.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(np.uint64(n) for n in (30, 27, 31, 11))


def _golden_steps(count: int) -> np.ndarray:
    """(d+1)*GOLDEN mod 2**64 for d = 0..count-1."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    steps *= _GOLDEN
    return steps


def _stream_key(seed: int, start: int) -> np.uint64:
    """seed + start*GOLDEN mod 2**64: adding it to _golden_steps gives the
    counters of draws start, start+1, ..."""
    return np.uint64((seed + start * int(_GOLDEN)) & 0xFFFFFFFFFFFFFFFF)


def _splitmix_uniform(z: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Finish SplitMix64 on the counters in z (overwritten, tmp is scratch)
    and write the uniforms (z >> 11) * 2**-53 in [0, 1) to out."""
    s30, s27, s31, s11 = _SHIFTS
    np.right_shift(z, s30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, s27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, s31, out=tmp)
    z ^= tmp
    z >>= s11
    return np.multiply(z, 2.0**-53, out=out)


def _uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    z = _golden_steps(count)
    z += _stream_key(seed, start)
    return _splitmix_uniform(z, np.empty_like(z), np.empty(count))


def _block_recovery(plan: TaskPlan, mu: float):
    """Function from a (rows, P) block of uniforms (possibly overwritten)
    to the rows' recovery times, equal bit for bit to
    finish_times(plan, sample_time(plan.task_lengths, DelayModel(mu), u))."""
    lengths = plan.task_lengths
    starts = np.flatnonzero(np.r_[True, lengths[1:] != lengths[:-1]])  # runs of one length
    if starts.size == 1:
        def recover(u):
            # not in place: for one group t is a strided view of the sorted
            # block, and numpy 2.4.6's in-place negative misreads a view
            # with a 64-byte stride (P = 8)
            t = finish_times(plan, u)
            return _inverse_cdf(t, mu, lengths[0], out=np.empty(t.size))
    elif plan.member_index.shape[1] == 1:  # every group is one worker
        run_lengths = lengths[starts]

        def recover(u):
            t = np.maximum.reduceat(u, starts, axis=1)
            return _inverse_cdf(t, mu, run_lengths, out=t).max(axis=1)
    else:
        def recover(u):
            return finish_times(plan, _inverse_cdf(u, mu, lengths, out=u))
    return recover


def simulation_threads() -> int:
    """Thread cap for Monte Carlo, from SHORTDOT_THREADS (default 1 when unset)."""
    text = os.environ.get("SHORTDOT_THREADS")
    if text is None:
        return 1
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"SHORTDOT_THREADS must be a positive integer, got {text!r}")
    return threads


def monte_carlo(
    plan: TaskPlan,
    model: DelayModel,
    trials: int,
    seed: int,
    analytic_expected: float | None = None,
) -> SimulationReport:
    """Mean and standard error of the plan's finish time over trials.

    Bitwise deterministic for a fixed seed regardless of thread count:
    chunk boundaries are fixed, each chunk's partial sums are computed
    independently, and chunks are reduced in index order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in 0..2**64-1, got {seed}")
    n_threads = simulation_threads()
    P = plan.P
    recover = _block_recovery(plan, model.mu)

    bounds = [(a, min(a + _MC_CHUNK, trials)) for a in range(0, trials, _MC_CHUNK)]
    rows = max(1, _MC_BLOCK // P)
    steps = _golden_steps(min(rows, trials) * P)  # read-only, shared by the chunks

    def run_chunk(bound: tuple[int, int]) -> tuple[float, float]:
        a, b = bound
        ft = np.empty(b - a)
        z, tmp = np.empty_like(steps), np.empty_like(steps)
        t = np.empty(steps.size)
        for lo in range(a, b, rows):
            hi = min(lo + rows, b)
            n = (hi - lo) * P
            np.add(steps[:n], _stream_key(seed, lo * P), out=z[:n])
            u = _splitmix_uniform(z[:n], tmp[:n], t[:n]).reshape(hi - lo, P)
            ft[lo - a:hi - a] = recover(u)
        return float(np.sum(ft)), float(np.sum(ft * ft))

    if n_threads > 1 and len(bounds) > 1:
        # imported here, so a single-threaded process (the default) never
        # loads concurrent.futures and the logging it pulls in (about
        # 0.6 MB of RSS on CPython 3.11)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            partials = list(pool.map(run_chunk, bounds))
    else:
        partials = [run_chunk(b) for b in bounds]

    total = 0.0
    total_sq = 0.0
    for psum, psq in partials:  # fixed reduction order
        total += psum
        total_sq += psq
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return SimulationReport(
        strategy_id=plan.strategy_id,
        analytic_expected=analytic_expected,
        mc_mean=mean,
        mc_stderr=stderr,
        trials=trials,
        seed=seed,
    )


# --- Theorem-4 scaling regime ----------------------------------------------


@dataclass(frozen=True)
class RegimeRow:
    """Scaled expected times (E[T]/N) at M ~ P/ln P, K = P - M/2."""

    P: int
    M: int
    K: int
    short_dot: float
    mds: float
    uncoded: float
    repetition: float

    @property
    def ratio(self) -> float:
        """min(competitors) / short-dot: the speed-up factor."""
        return min(self.mds, self.uncoded, self.repetition) / self.short_dot


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def theorem4_regime(P_values, model: DelayModel) -> list[RegimeRow]:
    """Closed-form scaled times at M = round(P/ln P), K = P - round(M/2).

    Rounding is half-up (recorded per row via the M and K fields).  The
    competitors' scaled times stay bounded away from 0 while short-dot's
    decays, so the ratio diverges with P.  A P whose rounded M and K are
    no code (1 <= M <= K fails, which means P <= 4) raises ValueError.
    """
    rows = []
    for P in P_values:
        P = int(P)
        M = max(1, _round_half_up(P / math.log(P))) if P >= 2 else 0
        K = P - _round_half_up(M / 2)
        if not 1 <= M <= K:  # P <= 4
            raise ValueError(f"theorem-4 regime needs the rounded 1 <= M <= K, which "
                             f"fails at P={P} (it holds for P >= 5)")
        sd = expected_kth_order(P, K, (P - K + M) / P, model)
        mds = expected_kth_order(P, M, 1.0, model)
        unc = uncoded_closed_form(P, M, 1.0, model)
        rep = repetition_closed_form(P, M, 1.0, model)
        rows.append(
            RegimeRow(P=P, M=M, K=K, short_dot=sd, mds=mds, uncoded=unc, repetition=rep)
        )
    return rows
