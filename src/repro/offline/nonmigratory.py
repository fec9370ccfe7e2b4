"""Offline non-migratory scheduling: oracles, heuristics, exact optimum.

A non-migratory schedule partitions the jobs over machines; a partition is
feasible iff every part is feasible on a *single* machine, and preemptive
EDF is an optimal single-machine policy.  This module provides:

* :func:`single_machine_feasible` — exact preemptive-EDF oracle (supports a
  machine speed, used by the speed-augmented black box of Section 4),
* :func:`edf_single_machine_schedule` — an explicit single-machine schedule,
* :func:`first_fit_assignment` — the classical first-fit upper bound,
* :func:`exact_nonmigratory_optimum` — branch-and-bound exact optimum for
  small instances (the problem is NP-hard; used to validate the *statement*
  of Theorem 2: non-migratory OPT ≤ 6m − 5).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, positive_speed
from ..model.job import Job
from ..model.schedule import Schedule, Segment
from .optimum import migratory_optimum, window_concurrency


def _edf_sweep(
    jobs: Sequence[Job], speed: Fraction, machine: int
) -> Optional[List[Segment]]:
    """Simulate preemptive EDF on one speed-``speed`` machine.

    Returns the segments if every deadline is met, otherwise ``None``.
    EDF is optimal for single-machine preemptive feasibility, so ``None``
    means the job set is infeasible on one machine at this speed.
    """
    if not jobs:
        return []
    order = sorted(jobs, key=lambda j: (j.release, j.deadline, j.id))
    n = len(order)
    remaining = {j.id: j.processing for j in order}  # work units
    ready: List[Tuple[Fraction, int, Job]] = []  # (deadline, id, job)
    segments: List[Segment] = []
    t = order[0].release
    idx = 0
    while idx < n or ready:
        while idx < n and order[idx].release <= t:
            j = order[idx]
            heapq.heappush(ready, (j.deadline, j.id, j))
            idx += 1
        if not ready:
            t = order[idx].release
            continue
        _, _, job = ready[0]
        finish = t + remaining[job.id] / speed
        end = min(finish, order[idx].release) if idx < n else finish
        if end > job.deadline:
            # The running job has the earliest deadline and no release
            # intervenes before `end`, so it misses its deadline.
            return None
        segments.append(Segment(job.id, machine, t, end))
        remaining[job.id] -= (end - t) * speed
        t = end
        if remaining[job.id] == 0:
            heapq.heappop(ready)
    return segments


def single_machine_feasible(jobs: Sequence[Job], speed: Numeric = 1) -> bool:
    """Exact single-machine preemptive feasibility at the given speed."""
    return _edf_sweep(list(jobs), positive_speed(speed), 0) is not None


def edf_single_machine_schedule(
    jobs: Sequence[Job], speed: Numeric = 1, machine: int = 0
) -> Optional[Schedule]:
    """Single-machine preemptive EDF schedule, or ``None`` if infeasible."""
    segs = _edf_sweep(list(jobs), positive_speed(speed), machine)
    if segs is None:
        return None
    return Schedule(segs)


def first_fit_assignment(
    instance: Instance,
    speed: Numeric = 1,
    order_key=None,
) -> Dict[int, int]:
    """First-fit partition: job → machine index.

    Jobs are considered in release order (or by ``order_key``); each goes to
    the lowest-index machine whose job set stays single-machine feasible.
    Always succeeds by opening new machines.
    """
    speed = positive_speed(speed)
    if order_key is None:
        order_key = lambda j: (j.release, j.deadline, j.id)
    machines: List[List[Job]] = []
    assignment: Dict[int, int] = {}
    for job in sorted(instance, key=order_key):
        placed = False
        for idx, bucket in enumerate(machines):
            if single_machine_feasible(bucket + [job], speed):
                bucket.append(job)
                assignment[job.id] = idx
                placed = True
                break
        if not placed:
            machines.append([job])
            assignment[job.id] = len(machines) - 1
    return assignment


def schedule_from_assignment(
    instance: Instance, assignment: Dict[int, int], speed: Numeric = 1
) -> Schedule:
    """Run per-machine EDF under a fixed partition; raises if infeasible."""
    speed = positive_speed(speed)
    buckets: Dict[int, List[Job]] = {}
    for job in instance:
        buckets.setdefault(assignment[job.id], []).append(job)
    segments: List[Segment] = []
    for machine, jobs in buckets.items():
        segs = _edf_sweep(jobs, speed, machine)
        if segs is None:
            raise ValueError(f"assignment infeasible on machine {machine}")
        segments.extend(segs)
    return Schedule(segments)


def first_fit_nonmigratory(
    instance: Instance, speed: Numeric = 1
) -> Tuple[int, Schedule]:
    """Machine count and schedule produced by offline first-fit."""
    assignment = first_fit_assignment(instance, speed)
    machines = 1 + max(assignment.values()) if assignment else 0
    return machines, schedule_from_assignment(instance, assignment, speed)


def exact_nonmigratory_optimum(
    instance: Instance, node_limit: int = 2_000_000
) -> int:
    """Exact non-migratory optimum by branch and bound.

    Branches on jobs in release order; a job may join any currently open
    machine whose set stays single-machine feasible, or open machine
    ``k + 1`` (symmetry breaking: machines are interchangeable).  Pruned by
    the best solution found so far (seeded with first-fit) and the migratory
    optimum as a lower bound.  Exponential — intended for ``n ≲ 16``.
    """
    jobs = sorted(instance, key=lambda j: (j.release, j.deadline, j.id))
    n = len(jobs)
    if n == 0:
        return 0
    best = first_fit_nonmigratory(instance)[0]
    lower = migratory_optimum(instance)
    if best == lower:
        return best
    nodes = 0

    def recurse(i: int, machines: List[List[Job]]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError("node limit exceeded in exact search")
        if len(machines) >= best:
            return
        if i == n:
            best = min(best, len(machines))
            return
        if best == lower:
            return
        job = jobs[i]
        for bucket in machines:
            if single_machine_feasible(bucket + [job]):
                bucket.append(job)
                recurse(i + 1, machines)
                bucket.pop()
        machines.append([job])
        recurse(i + 1, machines)
        machines.pop()

    recurse(0, [])
    return best


def nonmigratory_optimum_bounds(
    instance: Instance, exact_threshold: int = 14
) -> Tuple[int, int]:
    """``(lower, upper)`` bounds on the non-migratory optimum.

    Exact when ``n`` is at most ``exact_threshold``; otherwise the migratory
    optimum lower-bounds and first-fit upper-bounds it.
    """
    if len(instance) <= exact_threshold:
        opt = exact_nonmigratory_optimum(instance)
        return opt, opt
    lower = migratory_optimum(instance)
    upper = first_fit_nonmigratory(instance)[0]
    return lower, upper
