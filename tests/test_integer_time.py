"""Integer-time certificates against their ``Fraction`` references.

Feasible-certificate extraction (``schedule_from_work`` over the raw
integer flow) and the schedule checker (``Schedule.verify``) run on
integer ticks.  The ``Fraction`` bodies they replaced live on in
``tests/oracles.py``; this module pins the two to each other:

* ``certify(...).to_dict()`` equals the reference extraction of the same
  flow, on the golden corpus and on hypothesis instances with mixed
  denominators at speeds ``p/q`` (``p, q > 1``);
* ``repr(Schedule.verify(...))`` equals the reference verifier's, on the
  certified schedule and on tampered copies of it (a segment shifted out of
  its window, dropped, duplicated on another machine, moved onto a busy
  machine, stretched past ``p_j``, or relabelled to an unknown job), and
  under the machine bound ``m − 1``.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Instance, Job, Schedule, Segment
from repro.model.io import load, schedule_to_dict
from repro.offline import kernel
from repro.offline.feascache import cache_for
from repro.offline.flow import (
    _DINIC_KERNELS,
    available_backends,
    max_flow_assignment,
    mcnaughton,
    migratory_schedule,
    resolve_backend,
    schedule_from_work,
)
from repro.offline.optimum import migratory_optimum
from repro.verify import certify, unsat_certificate

from tests import oracles

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), encoding="utf-8") as fh:
    CASES = [case for case in json.load(fh)["cases"] if not case.get("unsat")]


def _reference_work(instance: Instance, m: int, speed: Fraction, backend: str):
    """The Fraction work map of the flow ``certify`` just extracted from."""
    cache = cache_for(instance)
    network = cache.solved_network(m, speed, _DINIC_KERNELS[backend])
    assert network.machines == m and network.feasible
    ticks = cache.scale_for(speed) * speed
    assert ticks.denominator == 1
    work = {
        job_id: {k: Fraction(amount, ticks) for k, amount in row.items()}
        for job_id, row in oracles.work_map(network.work_by_job()).items()
    }
    return work, list(cache.tables.intervals)


def _assert_certificate_matches_reference(
    instance: Instance, m: int, speed: Fraction, backend: str
) -> Schedule:
    cert = certify(instance, m, speed, backend=backend)
    assert cert.kind == "feasible"
    work, intervals = _reference_work(instance, m, speed, backend)
    reference = oracles.reference_schedule_from_work(work, intervals, m)
    got = cert.to_dict()
    got.pop("cache_stats", None)
    assert got == {
        "kind": "feasible",
        "machines": m,
        "speed": str(speed),
        "schedule": schedule_to_dict(reference),
    }
    assert cert.schedule.segments == reference
    return cert.schedule


def _assert_reports_match(
    schedule: Schedule, instance: Instance, speed: Fraction,
    machines: Optional[int],
) -> None:
    assert repr(schedule.verify(instance, speed, machines=machines)) == repr(
        oracles.reference_verify(schedule, instance, speed, machines)
    )


def _tampered(
    instance: Instance, schedule: Schedule, pick: int
) -> Iterator[Tuple[str, Schedule]]:
    """Corrupted copies of a valid schedule, each around segment ``pick``."""
    segs = list(schedule)
    i = pick % len(segs)
    victim = segs[i]
    job = instance.job(victim.job_id)
    rest = segs[:i] + segs[i + 1:]
    spare = max(s.machine for s in segs) + 1

    shift = job.deadline - victim.end + 1
    yield "shifted", Schedule(
        rest + [Segment(victim.job_id, victim.machine,
                        victim.start + shift, victim.end + shift)]
    )
    yield "dropped", Schedule(rest)
    yield "duplicated", Schedule(
        segs + [Segment(victim.job_id, spare, victim.start, victim.end)]
    )
    # a shorter copy on a higher machine: equal starts, so the per-job
    # order is (start, end), not the machine order the segments arrive in
    yield "duplicated-shorter", Schedule(
        segs + [Segment(victim.job_id, spare, victim.start,
                        victim.start + victim.length / 2)]
    )
    busy = [s.machine for s in segs if s.machine != victim.machine
            and s.start < victim.end and victim.start < s.end]
    if busy:
        yield "moved", Schedule(
            rest + [Segment(victim.job_id, busy[pick % len(busy)],
                            victim.start, victim.end)]
        )
    yield "stretched", Schedule(
        rest + [Segment(victim.job_id, victim.machine, victim.start,
                        victim.end + job.processing)]
    )
    unknown = max(j.id for j in instance) + 1
    yield "unknown-job", Schedule(
        rest + [Segment(unknown, victim.machine, victim.start, victim.end)]
    )


def _assert_checker_matches_reference(
    instance: Instance, schedule: Schedule, m: int, speed: Fraction, pick: int
) -> None:
    for machines in (None, m, m - 1):
        _assert_reports_match(schedule, instance, speed, machines)
    for name, tampered in _tampered(instance, schedule, pick):
        for machines in (None, m):
            _assert_reports_match(tampered, instance, speed, machines)
        assert not tampered.verify(instance, speed).feasible, name


# -- golden corpus -------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['file']}@s={c['speed']}")
@pytest.mark.parametrize("backend", available_backends())
def test_corpus_certificates_and_reports_match_reference(case, backend):
    instance = load(os.path.join(CORPUS_DIR, case["file"]))
    speed = Fraction(case["speed"])
    opt = migratory_optimum(instance, speed, backend=backend)
    for m in (opt, opt + 1):
        schedule = _assert_certificate_matches_reference(
            instance, m, speed, backend
        )
        for pick in (0, len(schedule) // 2, len(schedule) - 1):
            _assert_checker_matches_reference(instance, schedule, m, speed, pick)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['file']}@s={c['speed']}")
def test_oracle_flow_extracts_like_the_reference(case):
    """The networkx flow, fed to the integer extraction, gives the reference
    schedule of its own (Fraction) work map."""
    instance = load(os.path.join(CORPUS_DIR, case["file"]))
    speed = Fraction(case["speed"])
    m = oracles.migratory_optimum(instance, speed)
    cert = oracles.certify(instance, m, speed)
    feasible, work, intervals = oracles.max_flow_assignment(instance, m, speed)
    assert feasible
    reference = oracles.reference_schedule_from_work(work, intervals, m)
    assert cert.schedule.segments == reference
    assert cert.schedule.verify(instance, speed, machines=m).feasible


# -- mixed denominators at speeds p/q ------------------------------------------


@st.composite
def fractional_cases(draw):
    """An instance with mixed denominators, feasible at speed ``p/q``."""
    p, q = draw(
        st.tuples(st.integers(2, 9), st.integers(2, 9)).filter(
            lambda t: t[0] != t[1] and math.gcd(*t) == 1
        )
    )
    speed = Fraction(p, q)
    denominators = st.sampled_from([1, 2, 3, 4, 5, 6, 7])
    jobs = []
    for i in range(draw(st.integers(1, 7))):
        dr, dp = draw(denominators), draw(denominators)
        release = Fraction(draw(st.integers(0, 10 * dr)), dr)
        processing = Fraction(draw(st.integers(1, 5 * dp)), dp)
        slack = Fraction(draw(st.integers(0, 6)), draw(denominators))
        deadline = release + max(processing, processing / speed) + slack
        jobs.append(Job(release, processing, deadline, id=i))
    return Instance(jobs), speed, draw(st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(fractional_cases())
def test_fractional_speeds_match_reference(case):
    instance, speed, pick = case
    assert unsat_certificate(instance, speed) is None
    backend = resolve_backend()
    m = migratory_optimum(instance, speed, backend=backend)
    schedule = _assert_certificate_matches_reference(instance, m, speed, backend)
    _assert_checker_matches_reference(instance, schedule, m, speed, pick)
    # the public extraction entry points agree with certify's schedule
    assert migratory_schedule(instance, m, speed).segments == schedule.segments
    feasible, work, intervals = max_flow_assignment(instance, m, speed)
    assert feasible
    assert (work, intervals) == _reference_work(instance, m, speed, backend)


# -- edge cases of the wrap loop, the merge and the checker -------------------


def _job(r, p, d, i):
    return Job(Fraction(r), Fraction(p), Fraction(d), id=i)


class TestWrapLoop:
    def test_ints_and_fractions_agree(self):
        pieces = [(4, 3), (1, 3), (2, 2), (3, 1)]
        on_ints = mcnaughton(pieces, 6, 9, 3)
        as_fractions = [(j, Fraction(t, 3)) for j, t in pieces]
        reference = oracles.reference_mcnaughton(
            as_fractions, Fraction(2), Fraction(3), 3, machine_offset=1
        )
        assert mcnaughton(
            as_fractions, Fraction(2), Fraction(3), 3, machine_offset=1
        ) == reference
        assert [(s.job_id, s.machine, s.start / 3, s.end / 3) for s in on_ints] == [
            (s.job_id, s.machine - 1, s.start, s.end) for s in reference
        ]

    def test_zero_pieces_are_skipped(self):
        assert mcnaughton([(0, 0), (1, 2)], 5, 7, 1) == [Segment(1, 0, 5, 7)]

    @pytest.mark.parametrize("pieces, m, message", [
        ([(0, 3)], 2, "exceeds interval length"),
        ([(0, 2), (1, 2), (2, 1)], 2, "exceed machine capacity"),
    ])
    def test_errors_away_from_zero(self, pieces, m, message):
        # an interval that does not start at 0: its length is end − start
        with pytest.raises(ValueError, match=message):
            mcnaughton(pieces, 10, 12, m)
        with pytest.raises(ValueError, match=message):
            oracles.reference_mcnaughton(pieces, 10, 12, m)

    @pytest.mark.parametrize("start, end", [(3, 3), (4, 3)])
    def test_empty_interval_rejected(self, start, end):
        with pytest.raises(ValueError, match="empty elementary interval"):
            mcnaughton([(0, 1)], start, end, 1)


def _extract(work, intervals, m: int, ticks: int) -> Schedule:
    """``schedule_from_work`` of a work map over Fraction intervals, as the
    ``py`` kernel gathers it."""
    return schedule_from_work(
        oracles.flow_pieces(work, len(intervals), kernel.py),
        oracles.tick_bounds(intervals), m, ticks,
    )


class TestScheduleFromWork:
    def test_back_to_back_runs_merge_across_intervals(self):
        # job 0 fills machine 0 over three adjacent intervals; job 1 wraps
        intervals = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)),
                     (Fraction(2), Fraction(3))]
        work = {0: {0: 2, 1: 2, 2: 2}, 1: {1: 1}, 2: {1: 1}}
        sched = _extract(work, intervals, 2, 2)
        fractional = {
            j: {k: Fraction(t, 2) for k, t in row.items()} for j, row in work.items()
        }
        assert sched.segments == oracles.reference_schedule_from_work(
            fractional, intervals, 2
        )
        assert Segment(0, 0, 0, 3) in sched.segments

    def test_intervals_in_any_key_order(self):
        intervals = [(Fraction(2), Fraction(3)), (Fraction(0), Fraction(2))]
        work = {5: {0: 1, 1: 2}}
        assert _extract(work, intervals, 1, 1).segments == (
            Segment(5, 0, 0, 3),
        )

    def test_off_grid_interval_rejected(self):
        with pytest.raises(ValueError, match="time 1/3 is not a multiple of 1/2"):
            _extract({0: {0: 1}}, [(Fraction(1, 3), Fraction(1))], 1, 2)

    @pytest.mark.parametrize("backend", available_backends())
    def test_ticks_past_int64_wrap_on_python_ints(self, backend):
        """Every capacity fits int64 but the ticks (6·2⁶²) do not: the
        wrap runs on Python ints and the certificate is exact."""
        h = 2**62
        inst = Instance([Job(h, 1, h + 2, id=0), Job(h + 1, 1, h + 3, id=1)])
        cert = certify(inst, 2, Fraction(3, 2), backend=backend)
        assert cert.kind == "feasible"
        assert cert.schedule.segments == (
            Segment(0, 0, h, h + Fraction(2, 3)),
            Segment(1, 0, h + 1, h + 1 + Fraction(2, 3)),
        )

    def test_entry_points_on_trivial_inputs(self):
        inst = Instance([_job(0, 2, 2, 0), _job(0, 2, 2, 1)])
        assert len(migratory_schedule(Instance([]), 0)) == 0
        assert migratory_schedule(inst, 0) is None
        assert migratory_schedule(inst, 1) is None
        assert len(migratory_schedule(inst, 2)) == 2
        assert max_flow_assignment(Instance([]), 0) == (True, {}, [])
        assert max_flow_assignment(inst, 0) == (False, {}, [])
        feasible, work, _ = max_flow_assignment(inst, 1)
        assert not feasible and sum(sum(row.values()) for row in work.values()) == 2


class TestMergeAdjacent:
    def test_ties_keep_input_order(self):
        segs = [Segment(1, 0, 0, 2), Segment(1, 0, 0, 1), Segment(1, 0, 1, 3)]
        assert Schedule(segs).segments == oracles.reference_merge_adjacent(segs)

    def test_chain_merges_and_sorts(self):
        segs = [Segment(2, 1, Fraction(2, 3), 1), Segment(2, 1, 0, Fraction(1, 3)),
                Segment(2, 1, Fraction(1, 3), Fraction(2, 3)),
                Segment(0, 0, Fraction(1, 2), 2), Segment(3, 1, 1, 2)]
        merged = Schedule(segs).segments
        assert merged == oracles.reference_merge_adjacent(segs)
        assert merged == (Segment(2, 1, 0, 1), Segment(0, 0, Fraction(1, 2), 2),
                          Segment(3, 1, 1, 2))

    def test_different_machines_and_jobs_stay_apart(self):
        segs = [Segment(0, 0, 0, 1), Segment(0, 1, 1, 2), Segment(1, 1, 2, 3),
                Segment(2, 1, 3, 4)]
        assert Schedule(segs).segments == oracles.reference_merge_adjacent(segs)
        assert len(Schedule(segs)) == 4


class TestVerifyEdges:
    INSTANCE = Instance([_job(0, 2, 4, 0), _job(1, 1, 3, 1), _job(0, 3, 6, 2)])

    @pytest.mark.parametrize("segments", [
        [],
        # equal starts on one job: the per-job order is (start, end)
        [Segment(0, 0, 0, 2), Segment(0, 1, 0, 1)],
        [Segment(0, 1, 0, 2), Segment(0, 0, 0, 1)],
        # equal starts on one machine: the machine order is segment order
        [Segment(0, 0, 1, 3), Segment(1, 0, 1, 2), Segment(2, 1, 0, 3)],
        # overlaps on two machines, the later machine seen first
        [Segment(2, 3, 0, 2), Segment(1, 3, 1, 2), Segment(0, 0, 2, 4),
         Segment(2, 0, 3, 4)],
        # a gap on one machine is a preemption; a machine switch migrates
        [Segment(0, 0, 0, 1), Segment(0, 0, 2, 3), Segment(2, 0, 3, 6),
         Segment(1, 1, 1, 2)],
        [Segment(0, 0, 0, 1), Segment(0, 1, 1, 2), Segment(1, 0, 1, 2),
         Segment(2, 1, 2, 5)],
        # over- and under-work with fractional tick bases
        [Segment(0, 0, Fraction(1, 3), Fraction(7, 3)), Segment(1, 1, 1, 3),
         Segment(2, 2, 0, Fraction(5, 2))],
        [Segment(7, 0, 0, 1), Segment(7, 1, 0, 1)],
    ])
    @pytest.mark.parametrize("speed", [1, Fraction(1, 2), Fraction(3, 2), 0])
    @pytest.mark.parametrize("machines", [None, 0, 1, 2])
    def test_matches_reference(self, segments, speed, machines):
        _assert_reports_match(Schedule(segments), self.INSTANCE, speed, machines)
