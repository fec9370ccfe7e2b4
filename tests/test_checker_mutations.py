"""Failure injection: the checker must catch every corruption of a valid
schedule.

These tests take verified-feasible schedules and apply systematic mutations
(shift a segment outside the window, duplicate it onto another machine,
shrink it, move it over a neighbour, drop it) and assert the independent
checker flags each one.  This is the trust anchor for every experiment:
"the benchmark asserts the checker passed" is only meaningful if the checker
catches corruption.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import uniform_random_instance
from repro.model import Instance, Job, Schedule, Segment
from repro.model.intervals import IntervalUnion
from repro.offline.optimum import optimal_migratory_schedule
from repro.verify import (
    CertificationError,
    FeasibleCertificate,
    InfeasibleCertificate,
    check_certificate,
)

from tests.strategies import instances_st


def _valid_pair(seed: int):
    inst = uniform_random_instance(10, seed=seed)
    m, sched = optimal_migratory_schedule(inst)
    assert sched.verify(inst).feasible
    return inst, sched


class TestSegmentMutations:
    @pytest.mark.parametrize("seed", range(4))
    def test_drop_segment_detected(self, seed):
        inst, sched = _valid_pair(seed)
        mutated = Schedule(list(sched)[1:])
        assert not mutated.verify(inst).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_shift_past_deadline_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = max(segs, key=lambda s: s.end)
        job = inst.job(victim.job_id)
        shift = (job.deadline - victim.end) + 1
        segs[segs.index(victim)] = Segment(
            victim.job_id, victim.machine, victim.start + shift, victim.end + shift
        )
        assert not Schedule(segs).verify(inst).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_on_other_machine_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = segs[0]
        free_machine = max(s.machine for s in segs) + 1
        segs.append(Segment(victim.job_id, free_machine, victim.start, victim.end))
        rep = Schedule(segs).verify(inst)
        assert not rep.feasible  # intra-job parallelism and/or overwork

    @pytest.mark.parametrize("seed", range(4))
    def test_shrink_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = max(segs, key=lambda s: s.length)
        half = Segment(victim.job_id, victim.machine, victim.start,
                       victim.start + victim.length / 2)
        segs[segs.index(victim)] = half
        rep = Schedule(segs).verify(inst)
        assert not rep.feasible
        assert victim.job_id in rep.unfinished

    @pytest.mark.parametrize("seed", range(4))
    def test_relabel_job_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        a = segs[0]
        other = next(j for j in inst if j.id != a.job_id)
        segs[0] = Segment(other.id, a.machine, a.start, a.end)
        assert not Schedule(segs).verify(inst).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_two_jobs_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        by_machine = {}
        for s in segs:
            by_machine.setdefault(s.machine, []).append(s)
        machine, msegs = next(
            ((m, s) for m, s in by_machine.items() if len(s) >= 2), (None, None)
        )
        if machine is None:
            pytest.skip("single-segment machines only")
        msegs.sort(key=lambda s: s.start)
        a, b = msegs[0], msegs[1]
        # slide b backwards onto a
        overlap_start = a.end - min(a.length, b.length) / 2
        moved = Segment(b.job_id, b.machine, overlap_start,
                        overlap_start + b.length)
        segs[segs.index(b)] = moved
        assert not Schedule(segs).verify(inst).feasible


class TestSpeedMutations:
    def test_wrong_speed_detected(self):
        inst = Instance([Job(0, 3, 4, id=0)])
        sched = Schedule([Segment(0, 0, 0, 2)])
        assert sched.verify(inst, speed=Fraction(3, 2)).feasible
        assert not sched.verify(inst, speed=1).feasible
        assert not sched.verify(inst, speed=2).feasible  # overwork


class TestRandomizedMutations:
    @given(instances_st(min_size=2, max_size=6), st.integers(0, 3),
           st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_random_shift_never_passes_silently(self, inst, idx, shift_num):
        """Shifting any segment right by a positive amount either remains
        feasible (landed in a legal gap) or is flagged — but work totals
        must always reconcile."""
        m, sched = optimal_migratory_schedule(inst)
        segs = list(sched)
        victim = segs[idx % len(segs)]
        shift = Fraction(shift_num, 4)
        segs[segs.index(victim)] = Segment(
            victim.job_id, victim.machine, victim.start + shift,
            victim.end + shift,
        )
        mutated = Schedule(segs)
        rep = mutated.verify(inst)
        # work is preserved by a shift, so any infeasibility must come from
        # structure, never from the work-totals check
        assert mutated.work_of(victim.job_id) == sched.work_of(victim.job_id)
        if rep.feasible:
            # accepted ⇒ genuinely still a valid schedule: re-verify stands
            assert not rep.violations


class TestCertificateChecks:
    """The certificate layer over the checker: every defect is a reason."""

    def test_corrupted_witness_fails_require(self):
        inst, sched = _valid_pair(0)
        cert = FeasibleCertificate(
            sched.machines_used, Fraction(1), Schedule(list(sched)[1:])
        )
        result = check_certificate(inst, cert)
        assert not result
        with pytest.raises(CertificationError,
                           match="^certificate check failed: job "):
            result.require()

    @pytest.mark.parametrize("machines, speed, reason", [
        (-1, Fraction(1), "negative machine count -1"),
        (2, Fraction(0), "non-positive speed 0"),
    ])
    def test_bad_parameters_are_reasons(self, machines, speed, reason):
        inst = Instance([Job(0, 2, 3, id=i) for i in range(3)])
        schedule = Schedule([])
        feasible = check_certificate(
            inst, FeasibleCertificate(machines, speed, schedule)
        )
        infeasible = check_certificate(
            inst,
            InfeasibleCertificate(machines, speed, (0, 1, 2),
                                  IntervalUnion.from_pairs([(0, 3)])),
        )
        assert feasible.reasons[:1] == infeasible.reasons[:1] == (reason,)
