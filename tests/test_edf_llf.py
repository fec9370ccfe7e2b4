"""Tests for the migratory baselines EDF, LLF and the trap separation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from repro.generators import agreeable_instance, edf_trap_instance, loose_instance
from repro.model import Instance, Job
from repro.offline.optimum import migratory_optimum
from repro.online.edf import EDF, NonPreemptiveEDF
from repro.online.engine import min_machines, simulate, succeeds
from repro.online.llf import LLF

from tests.strategies import instances_st

#: At t = 4 all three jobs have laxity 2.  Running the deadline-8 job from
#: there leaves both deadline-7 jobs at zero laxity together at t = 6, a
#: miss on the one machine that suffices.
LAXITY_TIE = Instance([Job(0, 2, 8, id=0), Job(0, 1, 7, id=1), Job(0, 5, 7, id=2)])


class TestEDF:
    def test_runs_earliest_deadlines(self):
        inst = Instance([Job(0, 2, 10, id=0), Job(0, 2, 3, id=1)])
        eng = simulate(EDF(), inst, machines=1)
        assert eng.state_of(1).started_at == 0  # earlier deadline first
        assert not eng.missed_jobs

    def test_mcnaughton_needs_three(self, mcnaughton_instance):
        assert min_machines(lambda k: EDF(), mcnaughton_instance) == 3

    def test_feasible_schedule_verifies(self):
        inst = agreeable_instance(25, seed=1)
        k = min_machines(lambda k: EDF(), inst)
        eng = simulate(EDF(), inst, machines=k)
        assert eng.schedule().verify(inst).feasible

    def test_nonpreemptive_on_agreeable(self):
        """Corollary 1: EDF never preempts started jobs on agreeable input."""
        inst = agreeable_instance(30, seed=3)
        k = min_machines(lambda k: EDF(), inst)
        eng = simulate(EDF(), inst, machines=k)
        rep = eng.schedule().verify(inst)
        assert rep.feasible
        assert rep.preemptions == 0
        assert rep.is_non_migratory

    @given(instances_st(max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_edf_succeeds_with_enough_machines(self, inst):
        assert succeeds(EDF(), inst, len(inst))


class TestLLF:
    def test_prefers_least_laxity(self):
        # zero-laxity long job vs earlier-deadline loose job
        inst = Instance([Job(0, 4, 4, id=0), Job(0, 1, 3, id=1)])
        eng = simulate(LLF(), inst, machines=1)
        assert eng.state_of(0).started_at == 0

    def test_laxity_crossover_preempts(self):
        # job 1 has larger laxity initially but becomes critical while waiting
        inst = Instance([Job(0, 4, 5, id=0), Job(0, 2, 4, id=1)])
        eng = simulate(LLF(), inst, machines=1)
        # laxities at 0: j0 → 1, j1 → 2; j1 must preempt at the crossover
        sched = eng.schedule()
        assert len(sched.job_segments(1)) >= 1

    def test_mcnaughton_optimal(self, mcnaughton_instance):
        assert min_machines(lambda k: LLF(), mcnaughton_instance) == 2

    @given(instances_st(max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_llf_succeeds_with_enough_machines(self, inst):
        assert succeeds(LLF(), inst, len(inst))

    def test_llf_schedule_verifies(self):
        inst = agreeable_instance(20, seed=5)
        k = min_machines(lambda k: LLF(), inst)
        eng = simulate(LLF(), inst, machines=k)
        assert eng.schedule().verify(inst).feasible

    def test_laxity_tie_goes_to_earlier_deadline(self):
        inst = LAXITY_TIE
        assert migratory_optimum(inst) == 1
        eng = simulate(LLF(), inst, machines=1)
        assert not eng.missed_jobs
        assert eng.schedule().verify(inst).feasible

    @given(instances_st(max_size=6))
    @example(LAXITY_TIE)
    @settings(max_examples=50, deadline=None)
    def test_optimal_on_one_machine(self, inst):
        """LLF, like EDF, is optimal on a single machine."""
        assert succeeds(LLF(), inst, 1) == succeeds(EDF(), inst, 1)


class TestSeparationFamily:
    """The Ω(Δ) EDF vs O(log Δ) LLF separation (related work, E-BL)."""

    def test_opt_is_two(self):
        inst = edf_trap_instance(8)
        assert migratory_optimum(inst) == 2

    def test_llf_matches_opt(self):
        inst = edf_trap_instance(8)
        assert min_machines(lambda k: LLF(), inst) == 2

    def test_edf_needs_delta_machines(self):
        inst = edf_trap_instance(8)
        assert min_machines(lambda k: EDF(), inst) == 8

    @pytest.mark.parametrize("delta", [4, 6, 10])
    def test_separation_grows_with_delta(self, delta):
        inst = edf_trap_instance(delta)
        assert min_machines(lambda k: EDF(), inst) == delta
        assert min_machines(lambda k: LLF(), inst) == 2

    def test_groups_scale(self):
        inst = edf_trap_instance(5, groups=2)
        assert migratory_optimum(inst) == 4
        assert min_machines(lambda k: LLF(), inst) == 4

    def test_delta_minimum_validated(self):
        with pytest.raises(ValueError):
            edf_trap_instance(2)


class TestNonPreemptiveEDF:
    def test_never_preempts(self):
        inst = loose_instance(20, Fraction(1, 3), seed=2)
        k = min_machines(lambda k: NonPreemptiveEDF(), inst)
        eng = simulate(NonPreemptiveEDF(), inst, machines=k)
        rep = eng.schedule().verify(inst)
        assert rep.feasible
        assert rep.preemptions == 0

    def test_nonmigratory(self):
        inst = agreeable_instance(15, seed=7)
        k = min_machines(lambda k: NonPreemptiveEDF(), inst)
        eng = simulate(NonPreemptiveEDF(), inst, machines=k)
        assert eng.schedule().verify(inst).is_non_migratory

    def test_started_job_keeps_machine(self):
        inst = Instance([Job(0, 3, 6, id=0), Job(1, 1, 2, id=1)])
        eng = simulate(NonPreemptiveEDF(), inst, machines=2)
        segs = eng.schedule().job_segments(0)
        assert len({s.machine for s in segs}) == 1
        assert len(segs) == 1  # contiguous


class TestLLFCrossoverDifferential:
    """The closed-form laxity-crossover wake-ups must match a fine-grained
    time-quantized LLF on feasibility outcomes."""

    class QuantizedLLF(LLF):
        def next_wakeup(self, engine):
            return engine.time + Fraction(1, 8)

    @given(instances_st(max_size=6))
    @example(LAXITY_TIE)
    @settings(max_examples=20, deadline=None)
    def test_same_min_machines(self, inst):
        event_driven = min_machines(lambda k: LLF(), inst)
        quantized = min_machines(lambda k: self.QuantizedLLF(), inst)
        assert event_driven == quantized

    def test_same_on_trap(self):
        inst = edf_trap_instance(6)
        assert min_machines(lambda k: LLF(), inst) == min_machines(
            lambda k: self.QuantizedLLF(), inst
        )
