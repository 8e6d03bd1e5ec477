"""Task plans for the competing parallelization strategies.

Every strategy is reduced to the same latency-relevant description: how
long each worker's dot product is, which recovery group each worker is
in, and how many finished workers every group needs.  That is all the
straggler model needs; no actual encode/decode is performed here for the
baselines.

The paper's recovery rules as (groups, need):
    uncoded           every worker its own group, need 1
    mds, short-dot    one group of all P workers, need M or K
    repetition        one group per (row, block), need 1
    short-mds         one group per column block, need M
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import CodeParams, worker_indices


@dataclass(frozen=True)
class TaskPlan:
    """Per-worker task lengths and group ids, and what every group needs.

    task_lengths[i] is the positive dot-product length of worker i+1
    (float: the latency model is continuous in length).  group[i] is the
    0-based recovery group of worker i+1, and recovery needs `need`
    finished workers in every group.  The plan is checked once, at
    construction, which keeps read-only copies of `task_lengths` and
    `group`; `sizes`, `groups` and `member_index` are views derived from
    `group`.
    """

    strategy_id: str
    task_lengths: np.ndarray
    group: np.ndarray
    need: int

    def __post_init__(self):
        lengths = np.array(self.task_lengths)
        if lengths.dtype.kind == "c":  # a float cast would drop the imaginary part
            raise ValueError("task_lengths must be real numbers, not complex")
        lengths = lengths.astype(float, copy=False)
        if lengths.ndim != 1 or not lengths.size or not (
                0 < lengths.min() and lengths.max() < np.inf):  # NaN fails too
            raise ValueError("task_lengths must be a non-empty 1-D array of finite "
                             "positive lengths")
        lengths.flags.writeable = False
        object.__setattr__(self, "task_lengths", lengths)
        group = np.array(self.group)
        group.flags.writeable = False
        object.__setattr__(self, "group", group)
        ids = (group.shape == (self.P,) and group.dtype.kind == "i"
               and 0 <= group.min() and group.max() < self.P)  # bincount stays small
        smallest = int(self.sizes.min()) if ids else 0
        if smallest == 0:
            raise ValueError("group must give each worker an integer id in 0..G-1 "
                             "and use every id")
        if not (isinstance(self.need, numbers.Integral) and 1 <= self.need <= smallest):
            raise ValueError(f"need must be an integer in 1..{smallest} (the smallest "
                             f"group), got {self.need!r}")

    @property
    def P(self) -> int:
        return self.task_lengths.size

    @property
    def worst_case_threshold(self) -> int:
        """Smallest K such that every K-subset of workers can recover."""
        return self.P - int(self.sizes.min()) + self.need

    @cached_property
    def sizes(self) -> np.ndarray:
        """Read-only number of workers in each group."""
        sizes = np.bincount(self.group)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def member_index(self) -> np.ndarray:
        """(groups, largest group size) array of 0-based member columns.

        Row g lists the workers of group g in ascending order; a group
        shorter than the largest repeats its first member, which leaves
        the group's minimum unchanged.
        """
        sizes = self.sizes
        starts = np.cumsum(sizes) - sizes
        col = np.arange(sizes.max())
        pos = starts[:, None] + np.where(col < sizes[:, None], col, 0)
        index = np.argsort(self.group, kind="stable")[pos]
        index.flags.writeable = False
        return index

    @property
    def groups(self) -> tuple[frozenset[int], ...]:
        """One frozenset of 1-based workers per group, derived from `group`."""
        return tuple(frozenset(row) for row in (self.member_index + 1).tolist())


def check_target_length(s: int, N: int) -> None:
    """Refuse a block strategy's target task length s outside 1..N."""
    if not 1 <= s <= N:
        raise ValueError(f"target length s={s} outside 1..{N}")


def _block_groups(P: int, N: int, s: int, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Column blocks of length s (the last one shorter) on n_groups groups
    of workers dealt round-robin (sizes floor/ceil(P/n_groups)); group g
    computes block g mod ceil(N/s).  Returns (group ids, task lengths)."""
    if n_groups > P:
        raise ValueError(f"{n_groups} worker groups exceed P={P} workers; some block "
                         "would never be computed")
    blocks = -(-N // s)
    block_len = np.array([s] * (blocks - 1) + [N - s * (blocks - 1)], dtype=float)
    group = np.arange(P) % n_groups
    return group, block_len[group % blocks]


def plan_uncoded(params: CodeParams) -> TaskPlan:
    """Divide each row among its workers, wait for all P.

    Workers are dealt to rows round-robin, so P mod M rows span
    ceil(P/M) workers (task length N/ceil(P/M)) and the other rows span
    floor(P/M); lengths are listed by row.
    """
    P, M, N = params.P, params.M, params.N
    sizes = np.bincount(np.arange(P) % M)
    lengths = np.repeat(N / sizes, sizes)
    return TaskPlan(
        strategy_id="uncoded",
        task_lengths=lengths,
        group=np.arange(P),
        need=1,
    )


def plan_repetition_block(params: CodeParams, s: int) -> TaskPlan:
    """Split each row into ceil(N/s) blocks and replicate over P workers.

    One finished worker per (row, block) group suffices.  With s = N this
    is plain row repetition (each full row repeated ~P/M times).
    """
    P, M, N = params.P, params.M, params.N
    check_target_length(s, N)
    n_groups = M * -(-N // s)  # one per (row, block)
    group, lengths = _block_groups(P, N, s, n_groups)
    return TaskPlan(
        strategy_id="repetition",
        task_lengths=lengths,
        group=group,
        need=1,
    )


def plan_mds(params: CodeParams) -> TaskPlan:
    """(P, M) MDS code over full-length rows: any M workers suffice."""
    return TaskPlan(
        strategy_id="mds",
        task_lengths=np.full(params.P, float(params.N)),
        group=np.zeros(params.P, dtype=int),
        need=params.M,
    )


def plan_short_mds(params: CodeParams, s: int) -> TaskPlan:
    """Block-partitioned MDS: ceil(N/s) column blocks, each coded with a
    (group size, M) MDS code over its own worker group.

    Every group needs at least M finished workers, so the plan refuses
    a group size floor(P/ceil(N/s)) below M.
    """
    P, M, N = params.P, params.M, params.N
    check_target_length(s, N)
    n_groups = -(-N // s)  # one per block
    group, lengths = _block_groups(P, N, s, n_groups)
    return TaskPlan(
        strategy_id="short-mds",
        task_lengths=lengths,
        group=group,
        need=M,
    )


def plan_short_dot(params: CodeParams) -> TaskPlan:
    """Sparse joint code: P tasks of length s, any K workers suffice."""
    return TaskPlan(
        strategy_id="short-dot",
        task_lengths=np.full(params.P, float(params.s)),
        group=np.zeros(params.P, dtype=int),
        need=params.K,
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


def check_strategy(name: str) -> None:
    """Refuse a strategy name that PLAN_BUILDERS does not hold."""
    if name not in PLAN_BUILDERS:
        raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")


def plan_by_name(name: str, params: CodeParams, s: int | None = None) -> TaskPlan:
    """Build a plan from its strategy name string."""
    check_strategy(name)
    return PLAN_BUILDERS[name](params, s)


def finish_times(plan: TaskPlan, times: np.ndarray) -> np.ndarray:
    """Recovery time for each row of a (trials, P) matrix of worker times.

    Integer times keep their dtype (the Monte Carlo selects on raw 64-bit
    outputs); anything else is read as float64.  Only comparisons are
    made, so for every non-decreasing f, finish_times(plan, f(times)) ==
    f(finish_times(plan, times)).
    """
    times = np.atleast_2d(np.asarray(times))
    if times.dtype.kind not in "iu":
        times = times.astype(float, copy=False)
    if times.shape[1] != plan.P:
        raise ValueError(f"times must have {plan.P} columns")
    index, need = plan.member_index, plan.need
    if index.shape[1] == 1:  # every group is one worker
        return times.max(axis=1)
    if index.shape[0] == 1:  # one group
        return np.sort(times, axis=1)[:, need - 1]
    by_group = times[:, index]  # (trials, groups, largest group size)
    if need == 1:
        return by_group.min(axis=2).max(axis=1)
    padded = index[:, 1:] == index[:, :1]  # the repeats of short groups
    # the need-th smallest never picks a repeat: it is set to the dtype's largest value
    top = np.iinfo(times.dtype).max if times.dtype.kind in "iu" else np.inf
    by_group[:, :, 1:][:, padded] = top
    return np.partition(by_group, need - 1, axis=2)[:, :, need - 1].max(axis=1)


def recoverable(plan: TaskPlan, responders) -> bool:
    """Whether the given set of finished workers permits recovery; each
    responder must be a whole number in 1..P (see worker_indices)."""
    resp = set(worker_indices(list(responders), plan.P).tolist())
    group = plan.group.tolist()  # a Python count: faster than numpy at small P
    counts = [0] * (max(group) + 1)
    for r in resp:
        counts[group[r - 1]] += 1
    return min(counts) >= plan.need
