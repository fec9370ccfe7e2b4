"""Event-driven continuous-time simulator for online machine minimization.

The engine advances the clock from event to event; between events every
machine processes one fixed job at the machine speed.  Events are:

* job releases (known in advance only to the engine, not the policy),
* job completions,
* deadlines of unfinished jobs (so misses are detected at the exact time),
* policy wake-ups (:meth:`~repro.online.base.Policy.next_wakeup`),
* explicit ``run_until`` horizons requested by a driver.

The engine supports **incremental driving**: adaptive adversaries (Lemma 2,
Lemma 9) interleave ``release()`` / ``run_until()`` calls with inspection of
policy commitments and remaining processing times.  ``simulate()`` is the
batch convenience wrapper used by everything else.

All time arithmetic is exact (:class:`fractions.Fraction`).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, positive_speed, to_fraction
from ..model.job import Job
from ..model.schedule import Schedule, Segment
from ..obs import core as _obs
from .base import EngineError, InfeasibleOnline, JobState, Policy

_MAX_EVENTS_FACTOR = 2000  # safety valve against pathological policies


class OnlineEngine:
    """Simulates a :class:`Policy` on ``machines`` speed-``speed`` machines."""

    def __init__(
        self,
        policy: Policy,
        machines: int,
        speed: Numeric = 1,
        on_miss: str = "record",
        migration_cost: Numeric = 0,
    ) -> None:
        if machines < 0:
            raise ValueError("machine count must be non-negative")
        if on_miss not in ("record", "raise"):
            raise ValueError("on_miss must be 'record' or 'raise'")
        self.policy = policy
        self.machines = machines
        self.speed = positive_speed(speed)
        self.on_miss = on_miss
        #: extra work a job incurs each time it resumes on a new machine
        #: (the practical overhead the paper's non-migratory model avoids)
        self.migration_cost = to_fraction(migration_cost)
        if self.migration_cost < 0:
            raise ValueError("migration cost must be non-negative")
        self.time: Fraction = Fraction(0)
        self._started = False
        self.jobs: Dict[int, JobState] = {}
        self._pending: List[Tuple[Fraction, int]] = []  # (release, job_id) heap
        #: released, unfinished, unmissed jobs (the hot set; see active_jobs)
        self._active: Dict[int, JobState] = {}
        #: (deadline, job_id) heap over active jobs, with lazy deletion
        self._deadlines: List[Tuple[Fraction, int]] = []
        self.segments: List[Segment] = []
        self.missed_jobs: List[int] = []
        self._event_budget = 10_000
        #: running map chosen at the current decision point
        self._running: Dict[int, int] = {}
        #: machine → ids of jobs committed to it (kept by commit/binding);
        #: with _job_seq this answers machine_jobs in O(jobs on machine)
        #: instead of the O(all jobs) scan it replaced
        self._machine_index: Dict[int, Set[int]] = {}
        #: job id → insertion rank, so index-backed listings keep the exact
        #: enumeration order of the old full scans (self.jobs is ordered)
        self._job_seq: Dict[int, int] = {}
        #: machines that ever got a commitment or processed work
        self._ever_used: Set[int] = set()
        #: ids released at the latest admission (the ``engine.decision``
        #: event's ``admitted`` count)
        self._last_admitted: Tuple[int, ...] = ()

    # -- driver API ----------------------------------------------------------

    def release(self, jobs: Iterable[Job]) -> None:
        """Add jobs to the simulation (releases must not lie in the past)."""
        for job in jobs:
            if job.id in self.jobs:
                raise EngineError(f"job id {job.id} released twice")
            if self._started and job.release < self.time:
                raise EngineError(
                    f"job {job.id} released at {job.release} < current time {self.time}"
                )
            self._job_seq[job.id] = len(self.jobs)
            self.jobs[job.id] = JobState(job=job, remaining=job.processing)
            heapq.heappush(self._pending, (job.release, job.id))
            self._event_budget += _MAX_EVENTS_FACTOR
        if not self._started and self._pending:
            self.time = min(self.time, self._pending[0][0])
        # jobs released at or before the current time become visible (and
        # are offered to the policy for commitment) immediately
        if self._pending and self._pending[0][0] <= self.time:
            self._admit_releases()

    def run_until(self, horizon: Numeric) -> None:
        """Advance the simulation to exactly ``horizon``."""
        horizon = to_fraction(horizon)
        if horizon < self.time:
            raise EngineError(f"cannot run backwards to {horizon}")
        while self.time < horizon:
            self._step(limit=horizon)
        self._started = True
        # settle: admit releases due exactly at the horizon and check misses,
        # so drivers (adversaries) observe commitments made at this instant
        self._admit_releases()
        self._check_misses()

    def run_to_completion(self) -> None:
        """Advance until no active jobs or pending releases remain."""
        while self._pending or self._active:
            self._step(limit=None)

    # -- inspection API (used by policies and adversaries) ---------------------

    def active_jobs(self) -> List[JobState]:
        """Released, unfinished, unmissed jobs at the current time."""
        return list(self._active.values())

    def state_of(self, job_id: int) -> JobState:
        return self.jobs[job_id]

    def remaining(self, job_id: int) -> Fraction:
        return self.jobs[job_id].remaining

    def committed_machine(self, job_id: int) -> Optional[int]:
        return self.jobs[job_id].committed

    def _bind(self, job_id: int, machine: int) -> None:
        """Record a commitment in the machine index (idempotent)."""
        bucket = self._machine_index.get(machine)
        if bucket is None:
            bucket = self._machine_index[machine] = set()
        bucket.add(job_id)
        self._ever_used.add(machine)

    def machine_jobs(self, machine: int) -> List[JobState]:
        """Jobs committed to ``machine`` (finished ones included).

        Served from the commitment index in O(jobs on the machine); the
        enumeration order matches the old full scan (release order).
        """
        if _obs.enabled():
            _obs.incr("engine.machine_queries")
        ids = self._machine_index.get(machine)
        if not ids:
            return []
        return [self.jobs[i] for i in sorted(ids, key=self._job_seq.__getitem__)]

    def machine_active_jobs(self, machine: int) -> List[JobState]:
        if _obs.enabled():
            _obs.incr("engine.machine_queries")
        ids = self._machine_index.get(machine)
        if not ids:
            return []
        return [
            self.jobs[i]
            for i in sorted(ids, key=self._job_seq.__getitem__)
            if i in self._active
        ]

    @property
    def used_machines(self) -> Set[int]:
        """Machines that have a commitment or ever processed a job."""
        if _obs.enabled():
            _obs.incr("engine.machine_queries")
        return set(self._ever_used)

    def schedule(self) -> Schedule:
        return Schedule(self.segments)

    def poll_selection(self) -> Dict[int, int]:
        """Evaluate the policy's selection at the current instant.

        Advances no time but applies the selection's side effects — in
        particular, first-processing machine *bindings* of non-migratory
        policies.  Drivers use this to observe commitments that would
        otherwise only materialize in the next step (e.g. a procrastinating
        policy binding exactly at ``a_j``).
        """
        self._admit_releases()
        self._check_misses()
        return self._validated_selection()

    # -- policy API ------------------------------------------------------------

    def commit(self, job_id: int, machine: int) -> None:
        """Bind a job to a machine (how non-migratory policies choose)."""
        if not (0 <= machine < self.machines):
            raise EngineError(f"machine {machine} out of range 0..{self.machines - 1}")
        state = self.jobs[job_id]
        if state.committed is not None and state.committed != machine:
            raise EngineError(
                f"job {job_id} already committed to machine {state.committed}"
            )
        state.committed = machine
        self._bind(job_id, machine)

    def add_machines(self, count: int = 1) -> int:
        """Open additional machines; returns the new machine count."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.machines += count
        if count:
            _obs.incr("engine.machines_opened", count)
        return self.machines

    # -- core loop ---------------------------------------------------------------

    def _admit_releases(self) -> None:
        """Move pending jobs whose release time has come; fire on_release."""
        batch: List[JobState] = []
        while self._pending and self._pending[0][0] <= self.time:
            _, job_id = heapq.heappop(self._pending)
            state = self.jobs[job_id]
            self._active[job_id] = state
            heapq.heappush(self._deadlines, (state.job.deadline, job_id))
            batch.append(state)
        if batch:
            self.policy.on_release(self, batch)
            _obs.incr("engine.releases", len(batch))
        self._last_admitted = tuple(s.job.id for s in batch)

    def _check_misses(self) -> None:
        while self._deadlines and self._deadlines[0][0] <= self.time:
            _, job_id = heapq.heappop(self._deadlines)
            state = self.jobs[job_id]
            if state.finished or state.missed:
                continue  # stale heap entry
            if state.remaining > 0:
                state.missed = True
                self._active.pop(job_id, None)
                self.missed_jobs.append(job_id)
                if self.on_miss == "raise":
                    raise InfeasibleOnline(
                        f"job {job_id} missed deadline {state.job.deadline} "
                        f"with {state.remaining} work left"
                    )

    def _validated_selection(self) -> Dict[int, int]:
        selection = self.policy.select(self)
        seen_jobs: Set[int] = set()
        for machine, job_id in selection.items():
            if not (0 <= machine < self.machines):
                raise EngineError(f"selection uses machine {machine} out of range")
            if job_id in seen_jobs:
                raise EngineError(f"job {job_id} selected on two machines")
            seen_jobs.add(job_id)
            state = self.jobs.get(job_id)
            if state is None:
                raise EngineError(f"selection references unknown job {job_id}")
            if state.job.release > self.time:
                raise EngineError(f"job {job_id} selected before its release")
            if not state.active or state.remaining <= 0:
                raise EngineError(f"job {job_id} selected but not runnable")
            if state.committed is not None and state.committed != machine:
                raise EngineError(
                    f"job {job_id} committed to machine {state.committed}, "
                    f"selected on {machine}"
                )
            if not self.policy.migratory and state.committed is None:
                # first processing binds the job for non-migratory policies
                state.committed = machine
                self._bind(job_id, machine)
        return selection

    def _next_event(self, selection: Dict[int, int], limit: Optional[Fraction]) -> Fraction:
        candidates: List[Fraction] = []
        if self._pending:
            candidates.append(self._pending[0][0])
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            candidates.append(self.time + state.remaining / self.speed)
        while self._deadlines and (
            self.jobs[self._deadlines[0][1]].finished
            or self.jobs[self._deadlines[0][1]].missed
        ):
            heapq.heappop(self._deadlines)  # drop stale entries
        if self._deadlines and self._deadlines[0][0] > self.time:
            candidates.append(self._deadlines[0][0])
        wake = self.policy.next_wakeup(self)
        if wake is not None:
            wake = to_fraction(wake)
            if wake > self.time:
                candidates.append(wake)
        if limit is not None:
            candidates.append(limit)
        future = [c for c in candidates if c > self.time]
        if not future:
            raise EngineError("engine stalled: no future events")
        return min(future)

    def _step(self, limit: Optional[Fraction]) -> None:
        """Process one inter-event slice of time."""
        self._started = True
        self._event_budget -= 1
        if self._event_budget <= 0:
            raise EngineError("event budget exhausted; policy may be thrashing")
        if not self._pending and not self.jobs:
            if limit is not None:
                self.time = limit
            return
        if self._pending and not self.active_jobs() and self._pending[0][0] > self.time:
            # nothing runnable: jump to the next release (bounded by limit)
            target = self._pending[0][0]
            self.time = min(target, limit) if limit is not None else target
        self._admit_releases()
        self._check_misses()
        selection = self._validated_selection()
        prev_running = self._running
        self._running = dict(selection)
        # migration penalties land when a job resumes on a different machine
        migrations = 0
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            if state.last_machine is not None and state.last_machine != machine:
                state.migration_count += 1
                migrations += 1
                if self.migration_cost > 0:
                    state.remaining += self.migration_cost
                    state.overhead += self.migration_cost
            state.last_machine = machine
        if _obs.enabled():
            _obs.incr("engine.steps")
            if migrations:
                _obs.incr("engine.migrations", migrations)
            # Preempted: ran at the previous decision point, still has work
            # and a live deadline, but lost its machine at this one.
            selected = set(selection.values())
            preempted = sum(
                1 for jid in prev_running.values()
                if jid not in selected and jid in self._active
            )
            if preempted:
                _obs.incr("engine.preemptions", preempted)
        if not selection and not self._pending and not self.active_jobs():
            # nothing left to do in this slice
            if limit is not None:
                self.time = limit
            return
        if limit is not None and self.time >= limit:
            return
        nxt = self._next_event(selection, limit)
        if limit is not None and nxt > limit:
            nxt = limit  # never process past an explicit horizon
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            self.segments.append(Segment(job_id, machine, self.time, nxt))
            if state.started_at is None:
                state.started_at = self.time
            state.machines.add(machine)
            self._ever_used.add(machine)
            state.remaining -= (nxt - self.time) * self.speed
            if state.remaining < 0:
                # completion strictly inside the slice is impossible: the
                # completion time was an event candidate, so nxt ≤ finish.
                raise EngineError("negative remaining work")  # pragma: no cover
        start_time = self.time
        self.time = nxt
        completed = []
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            if state.remaining == 0 and not state.finished:
                state.finished_at = self.time
                self._active.pop(job_id, None)
                completed.append(job_id)
        missed_before = len(self.missed_jobs)
        self._check_misses()
        newly_missed = tuple(self.missed_jobs[missed_before:])
        if _obs.enabled():
            if completed:
                _obs.incr("engine.completions", len(completed))
            if newly_missed:
                _obs.incr("engine.misses", len(newly_missed))
            _obs.event(
                "engine.decision",
                t=str(start_time),
                machines=len(selection),
                admitted=len(self._last_admitted),
                completed=len(completed),
                missed=len(newly_missed),
            )


def simulate(
    policy: Policy,
    instance: Instance,
    machines: int,
    speed: Numeric = 1,
    on_miss: str = "record",
) -> OnlineEngine:
    """Run ``policy`` on a static instance to completion; returns the engine."""
    engine = OnlineEngine(policy, machines=machines, speed=speed, on_miss=on_miss)
    with _obs.span("engine.simulate", policy=type(policy).__name__,
                   machines=machines, n=len(instance)):
        engine.release(instance)
        engine.run_to_completion()
    return engine


def succeeds(policy: Policy, instance: Instance, machines: int, speed: Numeric = 1) -> bool:
    """True iff the policy schedules the instance with no deadline miss."""
    try:
        engine = simulate(policy, instance, machines, speed, on_miss="raise")
    except InfeasibleOnline:
        return False
    except EngineError:
        return False
    return not engine.missed_jobs


def min_machines(
    policy_factory,
    instance: Instance,
    lo: int = 1,
    hi: Optional[int] = None,
    speed: Numeric = 1,
) -> int:
    """Least machine count at which ``policy_factory(k)`` succeeds.

    Assumes success is monotone in the machine count (true for every policy
    in this repo); performs binary search with a geometric upper-bound scan.
    A fresh policy instance is created per trial via ``policy_factory(k)``.
    """
    speed = positive_speed(speed)
    if len(instance) == 0:
        return 0
    if hi is None:
        hi = max(lo, 1)
        while not succeeds(policy_factory(hi), instance, hi, speed):
            hi *= 2
            if hi > 4 * len(instance) + 64:
                raise RuntimeError("policy does not succeed at any sane machine count")
    lo = max(1, lo)
    while lo < hi:
        mid = (lo + hi) // 2
        if succeeds(policy_factory(mid), instance, mid, speed):
            hi = mid
        else:
            lo = mid + 1
    return lo
