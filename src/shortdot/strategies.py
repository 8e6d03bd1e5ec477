"""Task plans for the competing parallelization strategies.

Every strategy is reduced to the same latency-relevant description: how
long each worker's dot product is, and which subsets of finished workers
allow recovery.  That is all the straggler model needs; no actual
encode/decode is performed here for the baselines.

Recovery rules:
    all            wait for every worker
    kth_overall(k) any k workers suffice
    one_per_group  one worker per recovery group (repetition)
    k_per_group(k) k workers per group (per-group MDS blocks)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import CodeParams

@dataclass(frozen=True)
class RecoveryRule:
    kind: str  # "all" | "kth_overall" | "one_per_group" | "k_per_group"
    k: int | None = None


@dataclass(frozen=True)
class IntegerSplit:
    """m1 rows get ceil(P/M) workers each, m2 rows get floor(P/M)."""

    m1: int
    m2: int


@dataclass(frozen=True)
class TaskPlan:
    """Per-worker task lengths plus the recovery rule.

    task_lengths[i] is the dot-product length of worker i+1 (float: the
    latency model is continuous in length).  groups partitions workers
    1..P into recovery groups for the group-based rules, None otherwise.
    """

    strategy_id: str
    task_lengths: np.ndarray
    groups: tuple[frozenset[int], ...] | None
    recovery_rule: RecoveryRule

    @property
    def P(self) -> int:
        return self.task_lengths.size

    @property
    def worst_case_threshold(self) -> int:
        """Smallest K such that every K-subset of workers can recover."""
        rule = self.recovery_rule
        if rule.kind == "all":
            return self.P
        if rule.kind == "kth_overall":
            return rule.k
        sizes = [len(g) for g in self.groups]
        if rule.kind == "one_per_group":
            return self.P - min(sizes) + 1
        if rule.kind == "k_per_group":
            return self.P - min(sizes) + rule.k
        raise ValueError(f"unknown rule {rule.kind!r}")

    @cached_property
    def member_index(self) -> np.ndarray:
        """(groups, largest group size) array of 0-based member columns.

        Built on first use and checked once: the groups must partition
        workers 1..P.  A group shorter than the largest repeats its first
        member, which leaves the group's minimum unchanged.
        """
        if self.groups is None:
            raise ValueError(f"rule {self.recovery_rule.kind!r} requires groups")
        members = [sorted(g) for g in self.groups]
        seen = sorted(w for m in members for w in m)
        if seen != list(range(1, self.P + 1)) or not all(members):
            raise ValueError("groups must partition workers 1..P")
        width = max(map(len, members))
        index = np.array([m + m[:1] * (width - len(m)) for m in members]) - 1
        index.flags.writeable = False
        return index

    def same_plan(self, other: "TaskPlan") -> bool:
        """Field-by-field equality ignoring the strategy label."""
        return (
            np.array_equal(self.task_lengths, other.task_lengths)
            and self.groups == other.groups
            and self.recovery_rule == other.recovery_rule
        )


def split_m1_m2(P: int, M: int) -> IntegerSplit:
    """Unique nonnegative solution of m1+m2 = M, m1*ceil(P/M)+m2*floor(P/M) = P.

    When M divides P both column counts coincide; by convention all M
    rows are counted in m1 so one code path covers both cases.
    """
    if not 1 <= M <= P:
        raise ValueError(f"need 1 <= M <= P, got M={M}, P={P}")
    if P % M == 0:
        return IntegerSplit(m1=M, m2=0)
    m1 = P - M * (P // M)
    return IntegerSplit(m1=m1, m2=M - m1)


def _block_groups(P: int, N: int, s: int, n_groups: int) -> tuple[tuple, np.ndarray]:
    """Column blocks of length s (the last one shorter) on n_groups groups
    of workers dealt round-robin (sizes floor/ceil(P/n_groups)); group g
    computes block g mod ceil(N/s).  Returns (groups, task lengths)."""
    blocks = -(-N // s)
    block_len = np.array([s] * (blocks - 1) + [N - s * (blocks - 1)], dtype=float)
    groups = tuple(frozenset(range(g + 1, P + 1, n_groups)) for g in range(n_groups))
    return groups, block_len[np.arange(P) % n_groups % blocks]


def plan_uncoded(params: CodeParams) -> TaskPlan:
    """Divide each row among its workers, wait for all P.

    With the integer split, m1 rows span ceil(P/M) workers (task length
    N/ceil(P/M)) and m2 rows span floor(P/M) workers.
    """
    P, M, N = params.P, params.M, params.N
    split = split_m1_m2(P, M)
    c1, c2 = -(-P // M), P // M
    lengths = np.empty(P)
    n1 = split.m1 * c1
    lengths[:n1] = N / c1
    lengths[n1:] = N / c2
    groups = []
    w = 1
    for count, c in ((split.m1, c1), (split.m2, c2)):
        for _ in range(count):
            groups.append(frozenset(range(w, w + c)))
            w += c
    return TaskPlan(
        strategy_id="uncoded",
        task_lengths=lengths,
        groups=tuple(groups),
        recovery_rule=RecoveryRule("all"),
    )


def plan_repetition_block(params: CodeParams, s: int) -> TaskPlan:
    """Split each row into ceil(N/s) blocks and replicate over P workers.

    One finished worker per (row, block) group suffices.  With s = N this
    is plain row repetition (each full row repeated ~P/M times).
    """
    P, M, N = params.P, params.M, params.N
    if not 1 <= s <= N:
        raise ValueError(f"target length s={s} outside 1..{N}")
    blocks = -(-N // s)
    n_groups = M * blocks
    if n_groups > P:
        raise ValueError(
            f"{n_groups} (row, block) groups exceed P={P} workers; some block "
            "would never be computed"
        )
    groups, lengths = _block_groups(P, N, s, n_groups)
    return TaskPlan(
        strategy_id="repetition",
        task_lengths=lengths,
        groups=groups,
        recovery_rule=RecoveryRule("one_per_group"),
    )


def plan_mds(params: CodeParams) -> TaskPlan:
    """(P, M) MDS code over full-length rows: any M workers suffice."""
    return TaskPlan(
        strategy_id="mds",
        task_lengths=np.full(params.P, float(params.N)),
        groups=None,
        recovery_rule=RecoveryRule("kth_overall", params.M),
    )


def plan_short_mds(params: CodeParams, s: int) -> TaskPlan:
    """Block-partitioned MDS: ceil(N/s) column blocks, each coded with a
    (group size, M) MDS code over its own worker group.

    Every group needs at least M finished workers, so the group size
    floor(P/ceil(N/s)) must be >= M.
    """
    P, M, N = params.P, params.M, params.N
    if not 1 <= s <= N:
        raise ValueError(f"target length s={s} outside 1..{N}")
    n_groups = -(-N // s)
    if P // n_groups < M:
        raise ValueError(
            f"group size {P // n_groups} < M={M}: not enough workers per block"
        )
    groups, lengths = _block_groups(P, N, s, n_groups)
    return TaskPlan(
        strategy_id="short-mds",
        task_lengths=lengths,
        groups=groups,
        recovery_rule=RecoveryRule("k_per_group", M),
    )


def plan_short_dot(params: CodeParams) -> TaskPlan:
    """Sparse joint code: P tasks of length s, any K workers suffice."""
    return TaskPlan(
        strategy_id="short-dot",
        task_lengths=np.full(params.P, float(params.s)),
        groups=None,
        recovery_rule=RecoveryRule("kth_overall", params.K),
    )


# name -> plan builder(params, s); s is the target task length of the
# block strategies (None: their default) and is ignored by the others.
PLAN_BUILDERS = {
    "uncoded": lambda params, s: plan_uncoded(params),
    "repetition": lambda params, s: plan_repetition_block(
        params, params.N if s is None else s),
    "mds": lambda params, s: plan_mds(params),
    "short-mds": lambda params, s: plan_short_mds(params, params.s if s is None else s),
    "short-dot": lambda params, s: plan_short_dot(params),
}
STRATEGY_NAMES = tuple(PLAN_BUILDERS)


def plan_by_name(name: str, params: CodeParams, s: int | None = None) -> TaskPlan:
    """Build a plan from its strategy name string."""
    if name not in PLAN_BUILDERS:
        raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
    return PLAN_BUILDERS[name](params, s)


def finish_times(plan: TaskPlan, times: np.ndarray) -> np.ndarray:
    """Recovery time for each row of a (trials, P) matrix of worker times."""
    times = np.atleast_2d(np.asarray(times, dtype=float))
    if times.shape[1] != plan.P:
        raise ValueError(f"times must have {plan.P} columns")
    rule = plan.recovery_rule
    if rule.kind == "all":
        return times.max(axis=1)
    if rule.kind == "kth_overall":
        return np.sort(times, axis=1)[:, rule.k - 1]
    if rule.kind not in ("one_per_group", "k_per_group"):
        raise ValueError(f"unknown rule {rule.kind!r}")
    index = plan.member_index
    by_group = times[:, index]  # (trials, groups, largest group size)
    if rule.kind == "one_per_group":
        return by_group.min(axis=2).max(axis=1)
    padded = index[:, 1:] == index[:, :1]  # the repeats of short groups
    smallest = index.shape[1] - int(padded.sum(axis=1).max())
    if rule.k > smallest:
        raise ValueError(f"group of size {smallest} cannot supply k={rule.k}")
    by_group[:, :, 1:][:, padded] = np.inf  # the k-th smallest never picks a repeat
    return np.partition(by_group, rule.k - 1, axis=2)[:, :, rule.k - 1].max(axis=1)


def finish_time(plan: TaskPlan, times) -> float:
    """Completion time of the whole computation given per-worker times."""
    return float(finish_times(plan, np.asarray(times, dtype=float)[None, :])[0])


def recoverable(plan: TaskPlan, responders) -> bool:
    """Whether the given set of finished workers permits recovery."""
    resp = set(int(r) for r in responders)
    if not resp <= set(range(1, plan.P + 1)):
        raise ValueError("responders must be worker indices in 1..P")
    rule = plan.recovery_rule
    if rule.kind == "all":
        return len(resp) == plan.P
    if rule.kind == "kth_overall":
        return len(resp) >= rule.k
    plan.member_index  # refuses groups that do not partition 1..P
    if rule.kind == "one_per_group":
        return all(g & resp for g in plan.groups)
    if rule.kind == "k_per_group":
        return all(len(g & resp) >= rule.k for g in plan.groups)
    raise ValueError(f"unknown rule {rule.kind!r}")
