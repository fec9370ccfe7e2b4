"""Schedule representation and exact feasibility verification.

A :class:`Schedule` is a set of segments ``(job, machine, [start, end))``.
Feasibility (Section 2 of the paper) requires that

1. every segment lies inside its job's window ``[r_j, d_j)``,
2. each machine processes at most one job at any time,
3. no job runs on two machines simultaneously,
4. every job receives exactly ``p_j`` units of processing
   (``p_j / speed`` units of machine time on speed-``s`` machines).

The checker also reports *migrations* (a job processed on more than one
machine — the paper's central dichotomy), *preemptions*, and the number of
machines actually used, so a single verified artifact backs all experiment
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .intervals import Interval, Numeric, to_fraction
from .instance import Instance
from .job import Job


@dataclass(frozen=True)
class Segment:
    """Processing of ``job_id`` on ``machine`` during ``[start, end)``."""

    job_id: int
    machine: int
    start: Fraction
    end: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", to_fraction(self.start))
        object.__setattr__(self, "end", to_fraction(self.end))
        if self.end <= self.start:
            raise ValueError(f"segment for job {self.job_id} has non-positive length")
        if self.machine < 0:
            raise ValueError("machine index must be non-negative")

    @property
    def length(self) -> Fraction:
        return self.end - self.start

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.end)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of verifying a schedule against an instance."""

    feasible: bool
    violations: Tuple[str, ...]
    machines_used: int
    migratory_jobs: Tuple[int, ...]
    preemptions: int
    #: job_id -> shortfall p_j − (work received); zero entries omitted
    unfinished: Dict[int, Fraction] = field(default_factory=dict)

    @property
    def migrations(self) -> int:
        return len(self.migratory_jobs)

    @property
    def is_non_migratory(self) -> bool:
        return not self.migratory_jobs

    def require_feasible(self) -> "FeasibilityReport":
        if not self.feasible:
            raise AssertionError("infeasible schedule: " + "; ".join(self.violations[:5]))
        return self


class Schedule:
    """An immutable collection of segments with normalization.

    Adjacent segments of the same job on the same machine are merged so that
    preemption counts are not inflated by representation artifacts.

    A schedule holds its normalized runs in integer ticks of ``1/base``:
    ``runs`` is four columns ``(starts, machines, jobs, ends)``, sorted by
    ``(start, machine, job)``.  :attr:`segments` builds the
    :class:`Segment` objects from them on first use, one shared
    ``Fraction`` per distinct tick; ``len``, :attr:`machines_used`,
    :meth:`verify` and the encoders read the runs alone.
    """

    __slots__ = ("runs", "base", "_segments")

    runs: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    base: int

    def __init__(self, segments: Iterable[Segment]) -> None:
        runs, base, merged = _merge_adjacent(segments)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_segments", merged)

    @classmethod
    def _of_runs(cls, runs, base: int) -> "Schedule":
        """The schedule of normalized ``runs`` over ``base`` (segments lazy)."""
        schedule = cls.__new__(cls)
        object.__setattr__(schedule, "runs", runs)
        object.__setattr__(schedule, "base", base)
        object.__setattr__(schedule, "_segments", None)
        return schedule

    @classmethod
    def from_ticks(
        cls, pieces: Iterable[Tuple[int, int, int, int]], base: int
    ) -> "Schedule":
        """The schedule of integer ``(job, machine, start, end)`` pieces,
        times in ticks of ``1/base`` (``base`` positive).

        Equal to ``Schedule(Segment(job, machine, Fraction(start, base),
        Fraction(end, base)) for ...)``, errors included, but checked,
        merged and sorted on the ints: no segment is built until
        :attr:`segments` is read.
        """
        jobs, machines, starts, ends = tuple(zip(*pieces)) or ((),) * 4
        for job_id, machine, start, end in zip(jobs, machines, starts, ends):
            if end <= start:
                raise ValueError(f"segment for job {job_id} has non-positive length")
            if machine < 0:
                raise ValueError("machine index must be non-negative")
        starts, machines, jobs, _, _, ends = _normalize(
            list(zip(machines, jobs, starts, range(len(starts)), ends))
        )
        return cls._of_runs((starts, machines, jobs, ends), base)

    def __reduce__(self):
        return (type(self)._of_runs, (self.runs, self.base))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Schedule is immutable")

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The runs as :class:`Segment` objects (built on first use)."""
        segments = self._segments
        if segments is None:
            starts, machines, jobs, ends = self.runs
            base = self.base
            times = {t: Fraction(t, base) for t in {*starts, *ends}}
            at = times.__getitem__
            segments = tuple(
                map(_segment, jobs, machines, map(at, starts), map(at, ends))
            )
            object.__setattr__(self, "_segments", segments)
        return segments

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.runs[0])

    # -- accessors ----------------------------------------------------------

    def machines(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.runs[1])))

    @property
    def machines_used(self) -> int:
        return len(set(self.runs[1]))

    def job_segments(self, job_id: int) -> List[Segment]:
        return [s for s in self.segments if s.job_id == job_id]

    def machine_segments(self, machine: int) -> List[Segment]:
        return sorted(
            (s for s in self.segments if s.machine == machine),
            key=lambda s: s.start,
        )

    def work_of(self, job_id: int, speed: Numeric = 1) -> Fraction:
        speed = to_fraction(speed)
        return sum((s.length * speed for s in self.segments if s.job_id == job_id), Fraction(0))

    def makespan(self) -> Fraction:
        if not self.segments:
            return Fraction(0)
        return max(s.end for s in self.segments)

    def busy_time(self, machine: Optional[int] = None) -> Fraction:
        """Total processing time (of one machine, or all machines)."""
        return sum(
            (s.length for s in self.segments
             if machine is None or s.machine == machine),
            Fraction(0),
        )

    def machine_utilization(self) -> Dict[int, Fraction]:
        """Per-machine busy fraction over the schedule's overall span."""
        if not self.segments:
            return {}
        t0 = min(s.start for s in self.segments)
        t1 = max(s.end for s in self.segments)
        span = t1 - t0
        if span == 0:
            return {m: Fraction(0) for m in self.machines()}
        return {m: self.busy_time(m) / span for m in self.machines()}

    # -- transforms ----------------------------------------------------------

    def shifted_machines(self, offset: int) -> "Schedule":
        return Schedule(
            Segment(s.job_id, s.machine + offset, s.start, s.end) for s in self.segments
        )

    def merged(self, other: "Schedule") -> "Schedule":
        return Schedule(list(self.segments) + list(other.segments))

    def restricted_to_jobs(self, job_ids: Iterable[int]) -> "Schedule":
        keep = set(job_ids)
        return Schedule(s for s in self.segments if s.job_id in keep)

    # -- verification --------------------------------------------------------

    def verify(
        self,
        instance: Instance,
        speed: Numeric = 1,
        machines: Optional[int] = None,
    ) -> FeasibilityReport:
        """Check the schedule against ``instance`` on speed-``speed`` machines.

        When ``machines`` is given the schedule must also fit on that many
        machines — the extra condition that turns a verified schedule into a
        *feasibility certificate at* ``m`` (see :mod:`repro.verify`).

        Exact and integer: the runs and every job's ``r``, ``p``, ``d`` are
        mapped to ticks of ``1/L``, ``L`` the LCM of the runs' base and the
        jobs' denominators, and one pass over the (start-sorted) runs
        checks windows and machine exclusivity while it collects each
        job's runs for the overlap, preemption, migration and work checks.
        Fractions appear only in violation text and ``unfinished``.  Only
        the runs are read: the checker shares nothing with the solver that
        produced them.
        """
        speed = to_fraction(speed)
        starts, machine_of, jobs_of, ends = self.runs
        jobs = instance.jobs
        denominators = {job.release.denominator for job in jobs}
        denominators.update(job.processing.denominator for job in jobs)
        denominators.update(job.deadline.denominator for job in jobs)
        base = math.lcm(self.base, *denominators)
        scale = base // self.base
        if scale != 1:
            starts = [t * scale for t in starts]
            ends = [t * scale for t in ends]
        windows = {
            job.id: (_ticks(job.release, base), _ticks(job.deadline, base))
            for job in jobs
        }

        def at(tick: int) -> Fraction:
            return Fraction(tick, base)

        unknown: List[str] = []
        outside: List[str] = []
        # machine -> (rank of first appearance, its last run's job, start, end)
        last_on: Dict[int, Tuple[int, int, int, int]] = {}
        overlaps: List[Tuple[int, str]] = []
        # job -> [(start, end, machine)] in start order; ``tied`` marks jobs
        # with two runs at one start, which need the (start, end) order
        by_job: Dict[int, List[Tuple[int, int, int]]] = {}
        tied = set()
        for start, machine, job_id, end in zip(starts, machine_of, jobs_of, ends):
            # (1) window containment
            window = windows.get(job_id)
            if window is None:
                unknown.append(f"segment references unknown job {job_id}")
            elif start < window[0] or end > window[1]:
                job = instance.job(job_id)
                outside.append(
                    f"job {job_id} runs [{at(start)},{at(end)}) outside "
                    f"window [{job.release},{job.deadline})"
                )
            # (2) machine exclusivity: runs are sorted by start, so each
            # machine's runs arrive in start order
            prev = last_on.get(machine)
            if prev is None:
                rank = len(last_on)
            else:
                rank, a_job, a_start, a_end = prev
                if start < a_end:
                    overlaps.append((
                        rank,
                        f"machine {machine} overlap: job {a_job} "
                        f"[{at(a_start)},{at(a_end)}) vs job {job_id} "
                        f"[{at(start)},{at(end)})",
                    ))
            last_on[machine] = (rank, job_id, start, end)
            chain = by_job.get(job_id)
            if chain is None:
                by_job[job_id] = [(start, end, machine)]
            else:
                if chain[-1][0] == start:
                    tied.add(job_id)
                chain.append((start, end, machine))

        violations: List[str] = []
        if machines is not None and len(last_on) > machines:
            violations.append(
                f"schedule uses {len(last_on)} machines > allowed {machines}"
            )
        violations += unknown
        violations += outside
        overlaps.sort(key=lambda item: item[0])
        violations.extend(text for _, text in overlaps)

        # (3) no intra-job parallelism, plus migration/preemption counting
        migratory: List[int] = []
        preemptions = 0
        received: Dict[int, int] = {}
        for job_id, chain in by_job.items():
            if job_id in tied:
                chain.sort(key=lambda item: item[:2])
            a_start, a_end, a_machine = chain[0]
            first_machine = a_machine
            total = a_end - a_start
            migrated = False
            for b_start, b_end, b_machine in chain[1:]:
                if b_start < a_end:
                    violations.append(
                        f"job {job_id} runs on machines {a_machine} and "
                        f"{b_machine} simultaneously at {at(b_start)}"
                    )
                elif b_start > a_end or b_machine != a_machine:
                    preemptions += 1
                if b_machine != first_machine:
                    migrated = True
                total += b_end - b_start
                a_end, a_machine = b_end, b_machine
            if migrated:
                migratory.append(job_id)
            received[job_id] = total

        # (4) work completion: Σ ticks · s == p · L, cross-multiplied
        unfinished: Dict[int, Fraction] = {}
        s_num, s_den = speed.numerator, speed.denominator
        for job in jobs:
            p = job.processing
            got_scaled = received.get(job.id, 0) * s_num
            need_scaled = _ticks(p, base) * s_den
            if got_scaled != need_scaled:
                got = Fraction(got_scaled, base * s_den)
                if got_scaled < need_scaled:
                    unfinished[job.id] = p - got
                    violations.append(f"job {job.id} received {got} < p_j = {p}")
                else:
                    violations.append(f"job {job.id} received {got} > p_j = {p}")

        return FeasibilityReport(
            feasible=not violations,
            violations=tuple(violations),
            machines_used=len(last_on),
            migratory_jobs=tuple(sorted(migratory)),
            preemptions=preemptions,
            unfinished=unfinished,
        )


def _ticks(x: Fraction, base: int) -> int:
    """``x`` in ticks of ``1/base`` (exact: ``base`` is a multiple of its
    denominator)."""
    return x.numerator * (base // x.denominator)


def _segment(job_id: int, machine: int, start: Fraction, end: Fraction) -> Segment:
    """A :class:`Segment` of already checked Fraction endpoints, without a
    second ``__post_init__``.  Set field by field, as the dataclass
    ``__init__`` does: writing ``__dict__`` directly would materialize a
    per-segment dict and slow every later attribute read."""
    seg = object.__new__(Segment)
    object.__setattr__(seg, "job_id", job_id)
    object.__setattr__(seg, "machine", machine)
    object.__setattr__(seg, "start", start)
    object.__setattr__(seg, "end", end)
    return seg


def _normalize(
    rows: List[Tuple[int, int, int, int, int]],
) -> Tuple[Tuple[int, ...], ...]:
    """The one schedule normalization, on integer ticks.

    ``rows`` are pieces ``(machine, job, start, index, end)``; ``index`` is
    the piece's input position, so ties on ``(machine, job, start)`` keep
    input order.  A piece that starts where the previous run of its job on
    its machine ends extends that run.  Returns the runs as six columns
    ``(starts, machines, jobs, first indices, last indices, ends)``, sorted
    by ``(start, machine, job)`` (ties in input order: the indices are
    unique).
    """
    rows.sort()
    runs: List[List[int]] = []
    run: List[int] = []
    for machine, job_id, start, i, end in rows:
        if run and run[5] == start and run[2] == job_id and run[1] == machine:
            run[4] = i
            run[5] = end
        else:
            run = [start, machine, job_id, i, i, end]
            runs.append(run)
    runs.sort()
    return tuple(zip(*runs)) or ((),) * 6


def _merge_adjacent(
    segments: Iterable[Segment],
) -> Tuple[tuple, int, Tuple[Segment, ...]]:
    """Merge back-to-back segments of the same job on the same machine.

    Runs :func:`_normalize` on integer ticks of ``1/L``, ``L`` the LCM of
    the endpoint denominators — an exact, order-preserving image of the
    Fraction endpoints.  Returns ``(runs, L, segments)``: the runs' four
    columns and the merged segments, sorted by ``(start, machine, job)``;
    a segment that merges with nothing is the caller's own object.
    """
    segs = list(segments)
    base = math.lcm(*{s.start.denominator for s in segs},
                    *{s.end.denominator for s in segs})
    rows = [
        (s.machine, s.job_id, _ticks(s.start, base), i, _ticks(s.end, base))
        for i, s in enumerate(segs)
    ]
    starts, machines, jobs, firsts, lasts, ends = _normalize(rows)
    merged = tuple(
        segs[first] if first == last else
        _segment(job_id, machine, segs[first].start, segs[last].end)
        for machine, job_id, first, last in zip(machines, jobs, firsts, lasts)
    )
    return (starts, machines, jobs, ends), base, merged
