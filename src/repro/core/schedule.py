"""Shard planning for the parallel stages.

The paper's central measurement — scanner traffic is extremely
heavy-tailed — is also the parallel pipeline's load-balance problem.
Each parallel stage has one fixed layout, chosen by what its merge
allows and by what was measured:

* :func:`plan_contiguous` — flow synthesis, whose merge is a
  concatenation in population order, so tasks must be contiguous index
  ranges.  The population is over-decomposed into cost-capped slices
  (about ``workers * DEFAULT_STEAL_FACTOR`` of them) that idle workers
  steal from stragglers; any single item heavier than the cap is
  isolated in its own task.
* :func:`plan_grouped` — sharded detection, whose merge is
  partition-independent (all state is keyed per source).  Indivisible
  groups (source-hash shards) are LPT bin-packed into exactly one task
  per worker.

Planning never touches results.  Tasks carry their *logical* index,
results merge in logical order regardless of execution order, and
:meth:`SchedulePlan.submit_order` only reorders the executor queue
(descending cost — longest-processing-time first).  With more tasks
than workers the process pool's shared pending queue is the
work-stealing queue: an idle worker takes the next queued task the
moment it finishes its own (:func:`repro.core.faults.run_sharded` with
``submit_order``).

Plans are pure functions of the cost vector and the worker count, with
explicit tie-breaking — a resumed or retried run re-derives the
identical plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Target flow-synthesis tasks per worker.  More tasks = finer stealing
#: granularity but more per-task overhead (pickling, pool dispatch,
#: checkpoint files); 4 keeps the straggler tail under a quarter-worker
#: of work without measurable dispatch cost.
DEFAULT_STEAL_FACTOR = 4


@dataclass(frozen=True)
class TaskPlan:
    """One schedulable unit of work.

    Attributes:
        index: logical task index — the merge position.  Results are
            always folded in ascending ``index`` order, whatever order
            tasks executed in.
        shard: logical shard (0..workers-1) this task belongs to; the
            telemetry/checkpoint grouping, and the "home" worker a
            stolen task is accounted against.
        items: indices into the planner's input (scanner positions,
            hash shards...), ascending.
        cost: predicted work, in the caller's cost unit.
    """

    index: int
    shard: int
    items: Tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class SchedulePlan:
    """A complete task decomposition for one parallel stage."""

    workers: int
    tasks: Tuple[TaskPlan, ...]

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def submit_order(self) -> List[int]:
        """Task indices in descending cost (ties broken by index).

        Submitting in this order makes the pool's shared queue a
        longest-processing-time scheduler: the heavy tasks start first
        and the cheap tail back-fills idle workers.
        """
        return sorted(
            range(len(self.tasks)),
            key=lambda i: (-self.tasks[i].cost, i),
        )

    def shard_tasks(self, shard: int) -> List[TaskPlan]:
        """This shard's tasks, in logical (merge) order."""
        return [task for task in self.tasks if task.shard == shard]

    def planned_cost(self, shard: int) -> float:
        """Total predicted work assigned to one logical shard."""
        return float(
            sum(task.cost for task in self.tasks if task.shard == shard)
        )

    def planned_spread(self) -> float:
        """max/min planned shard cost — the planner's own balance gauge.

        ``inf`` when some shard got (predicted) nothing; 1.0 is perfect.
        """
        loads = [self.planned_cost(shard) for shard in range(self.workers)]
        low = min(loads)
        if low <= 0.0:
            return float("inf")
        return max(loads) / low


def lpt_assign(costs: Sequence[float], bins: int) -> List[int]:
    """Longest-processing-time greedy assignment of items to bins.

    Items are visited in descending cost (ties: ascending item index)
    and each lands in the currently lightest bin (ties: lowest bin
    index) — the classic 4/3-approximation to makespan, fully
    deterministic.  Returns the bin index per item.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    loads = [0.0] * bins
    assignment = [0] * len(costs)
    for item in order:
        target = min(range(bins), key=lambda b: (loads[b], b))
        assignment[item] = target
        loads[target] += float(costs[item])
    return assignment


def _even_bounds(n: int, parts: int) -> List[int]:
    """Cut points of ``np.array_split(range(n), parts)``."""
    sizes = [len(part) for part in np.array_split(np.arange(n), parts)]
    bounds = [0]
    for size in sizes:
        bounds.append(bounds[-1] + size)
    return bounds


def _cap_bounds(costs: Sequence[float], cap: float) -> List[int]:
    """Greedy contiguous cuts so each slice's cost stays under ``cap``.

    An item heavier than the cap becomes its own singleton slice — the
    planner cannot split below one item (per-scanner RNG streams are
    the atomic unit), so it isolates instead.
    """
    bounds = [0]
    acc = 0.0
    for i, cost in enumerate(costs):
        if i > bounds[-1] and acc + float(cost) > cap:
            bounds.append(i)
            acc = 0.0
        acc += float(cost)
    bounds.append(len(costs))
    return bounds


def _empty_plan(workers: int) -> SchedulePlan:
    """One empty task per shard, so downstream merge/telemetry code
    sees ``workers`` tasks even for an empty input."""
    tasks = tuple(
        TaskPlan(index=shard, shard=shard, items=(), cost=0.0)
        for shard in range(workers)
    )
    return SchedulePlan(workers=workers, tasks=tasks)


def plan_contiguous(
    costs: Sequence[float],
    workers: int,
    *,
    steal_factor: int = DEFAULT_STEAL_FACTOR,
) -> SchedulePlan:
    """Plan a stage whose merge concatenates results in item order.

    Tasks are contiguous index ranges — the only decomposition whose
    in-order concat reproduces the serial output.  The population is
    cut into cost-capped slices (≈ ``workers * steal_factor`` of them),
    LPT-assigned to logical shards and submitted heaviest first; a
    single item heavier than the cap is isolated in its own task.  An
    all-zero cost vector falls back to even count slices, one per
    shard.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if steal_factor < 1:
        raise ValueError("steal_factor must be >= 1")
    costs = np.asarray(
        [max(float(c), 0.0) for c in costs], dtype=np.float64
    )
    n = len(costs)
    if n == 0:
        return _empty_plan(workers)
    total = float(costs.sum())
    if total <= 0.0:
        bounds = _even_bounds(n, workers)
    else:
        bounds = _cap_bounds(costs, total / (workers * steal_factor))
    slices = list(zip(bounds[:-1], bounds[1:]))
    slice_costs = [float(costs[lo:hi].sum()) for lo, hi in slices]
    if total > 0.0:
        shards = lpt_assign(slice_costs, workers)
    else:
        shards = list(range(len(slices)))
    tasks = tuple(
        TaskPlan(
            index=index,
            shard=shards[index],
            items=tuple(range(lo, hi)),
            cost=slice_costs[index],
        )
        for index, (lo, hi) in enumerate(slices)
    )
    return SchedulePlan(workers=workers, tasks=tasks)


def plan_grouped(
    costs: Sequence[float],
    groups: Sequence[Sequence[int]],
    workers: int,
) -> SchedulePlan:
    """Plan a stage whose merge is partition-independent.

    ``groups`` are the indivisible units (one source-hash shard...) with
    one predicted cost each; results may be partitioned any way that
    keeps a group whole.  The groups are LPT bin-packed into exactly
    ``workers`` tasks, task ``i`` on shard ``i``; a shard that packs
    empty still gets an empty task, so task arity always equals
    ``workers``.

    Within a task, item indices stay ascending (population order) — the
    tie-breaking contract shared with :func:`repro.parallel.shard_scanners`.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if len(costs) != len(groups):
        raise ValueError("costs must align with groups")
    if not groups:
        return _empty_plan(workers)
    costs = [max(float(c), 0.0) for c in costs]
    assignment = lpt_assign(costs, workers)
    tasks = []
    for shard in range(workers):
        members = [g for g in range(len(groups)) if assignment[g] == shard]
        tasks.append(
            TaskPlan(
                index=shard,
                shard=shard,
                items=tuple(sorted(int(i) for g in members for i in groups[g])),
                cost=float(sum(costs[g] for g in members)),
            )
        )
    return SchedulePlan(workers=workers, tasks=tuple(tasks))
