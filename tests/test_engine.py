"""Tests for the event-driven online engine."""

from fractions import Fraction
from typing import Dict

import pytest
from hypothesis import given, settings

from repro import obs
from repro.model import Instance, Job
from repro.obs.sinks import Sink
from repro.online.base import EngineError, InfeasibleOnline, Policy
from repro.online.edf import EDF
from repro.online.engine import OnlineEngine, min_machines, simulate, succeeds

from tests.strategies import instances_st


class IdlePolicy(Policy):
    """Never runs anything (for miss-detection tests)."""

    migratory = True

    def select(self, engine):
        return {}


class GreedyFirst(Policy):
    """Runs the lowest-id active job on machine 0."""

    migratory = True

    def select(self, engine):
        active = sorted(engine.active_jobs(), key=lambda s: s.job.id)
        return {0: active[0].job.id} if active else {}


class TestMechanics:
    def test_single_job_completes(self):
        eng = simulate(GreedyFirst(), Instance([Job(0, 2, 4, id=0)]), machines=1)
        state = eng.state_of(0)
        assert state.finished_at == 2
        assert eng.schedule().verify(Instance([Job(0, 2, 4, id=0)])).feasible

    def test_release_gap_jumps(self):
        inst = Instance([Job(0, 1, 2, id=0), Job(10, 1, 12, id=1)])
        eng = simulate(GreedyFirst(), inst, machines=1)
        assert eng.state_of(1).started_at == 10

    def test_negative_release_allowed_before_start(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(-5, 1, 0, id=0)])
        eng.run_to_completion()
        assert eng.state_of(0).finished

    def test_double_release_rejected(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(0, 1, 2, id=0)])
        with pytest.raises(EngineError):
            eng.release([Job(0, 1, 2, id=0)])

    def test_past_release_rejected(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(0, 1, 5, id=0)])
        eng.run_until(3)
        with pytest.raises(EngineError):
            eng.release([Job(1, 1, 5, id=1)])

    def test_run_until_exact_time(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(0, 4, 8, id=0)])
        eng.run_until(Fraction(5, 2))
        assert eng.time == Fraction(5, 2)
        assert eng.remaining(0) == Fraction(3, 2)

    def test_run_backwards_rejected(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(0, 1, 2, id=0)])
        eng.run_until(1)
        with pytest.raises(EngineError):
            eng.run_until(Fraction(1, 2))

    def test_settle_admits_at_horizon(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(2, 1, 4, id=0)])
        eng.run_until(2)
        # the release at exactly t=2 must be admitted by the settle step
        assert eng.active_jobs()


class TestMisses:
    def test_idle_policy_misses(self):
        inst = Instance([Job(0, 1, 1, id=0)])
        eng = simulate(IdlePolicy(), inst, machines=1)
        assert eng.missed_jobs == [0]
        assert eng.state_of(0).missed

    def test_on_miss_raise(self):
        inst = Instance([Job(0, 1, 1, id=0)])
        with pytest.raises(InfeasibleOnline):
            simulate(IdlePolicy(), inst, machines=1, on_miss="raise")

    def test_miss_detected_at_exact_deadline(self):
        inst = Instance([Job(0, 2, 2, id=0), Job(0, 2, 2, id=1)])
        eng = simulate(GreedyFirst(), inst, machines=1)
        missed = eng.state_of(1)
        assert missed.missed
        # remaining work at the deadline is the full 2 (never ran)
        assert missed.remaining == 2

    def test_invalid_on_miss_value(self):
        with pytest.raises(ValueError):
            OnlineEngine(GreedyFirst(), machines=1, on_miss="explode")


class TestValidation:
    def test_selecting_unknown_job(self):
        class Bad(Policy):
            def select(self, engine):
                return {0: 999}

        eng = OnlineEngine(Bad(), machines=1)
        eng.release([Job(0, 1, 2, id=0)])
        with pytest.raises(EngineError):
            eng.run_to_completion()

    def test_selecting_same_job_twice(self):
        class Bad(Policy):
            def select(self, engine):
                active = engine.active_jobs()
                return {0: active[0].job.id, 1: active[0].job.id} if active else {}

        eng = OnlineEngine(Bad(), machines=2)
        eng.release([Job(0, 1, 2, id=0)])
        with pytest.raises(EngineError):
            eng.run_to_completion()

    def test_machine_out_of_range(self):
        class Bad(Policy):
            def select(self, engine):
                active = engine.active_jobs()
                return {5: active[0].job.id} if active else {}

        eng = OnlineEngine(Bad(), machines=1)
        eng.release([Job(0, 1, 2, id=0)])
        with pytest.raises(EngineError):
            eng.run_to_completion()

    def test_nonmigratory_binding_enforced(self):
        class Migrator(Policy):
            migratory = False

            def __init__(self):
                self.flip = 0

            def select(self, engine):
                active = engine.active_jobs()
                if not active:
                    return {}
                self.flip = 1 - self.flip
                return {self.flip: active[0].job.id}

            def next_wakeup(self, engine):
                return engine.time + Fraction(1, 4)

        eng = OnlineEngine(Migrator(), machines=2)
        eng.release([Job(0, 2, 4, id=0)])
        with pytest.raises(EngineError):
            eng.run_to_completion()

    def test_commit_conflict_rejected(self):
        eng = OnlineEngine(GreedyFirst(), machines=2)
        eng.release([Job(0, 1, 2, id=0)])
        eng.commit(0, 1)
        with pytest.raises(EngineError):
            eng.commit(0, 0)

    def test_commit_out_of_range(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        eng.release([Job(0, 1, 2, id=0)])
        with pytest.raises(EngineError):
            eng.commit(0, 3)


class TestSpeed:
    def test_fast_machines_finish_early(self):
        eng = OnlineEngine(GreedyFirst(), machines=1, speed=2)
        eng.release([Job(0, 4, 4, id=0)])
        eng.run_to_completion()
        assert eng.state_of(0).finished_at == 2

    def test_work_accounting_with_speed(self):
        eng = OnlineEngine(GreedyFirst(), machines=1, speed=Fraction(3, 2))
        eng.release([Job(0, 3, 4, id=0)])
        eng.run_until(1)
        assert eng.remaining(0) == Fraction(3, 2)


class TestHelpers:
    def test_succeeds_wrapper(self, parallel_units):
        assert succeeds(EDF(), parallel_units, 3)
        assert not succeeds(EDF(), parallel_units, 2)

    def test_min_machines(self, parallel_units):
        assert min_machines(lambda k: EDF(), parallel_units) == 3

    def test_min_machines_empty(self):
        assert min_machines(lambda k: EDF(), Instance([])) == 0

    def test_add_machines(self):
        eng = OnlineEngine(GreedyFirst(), machines=1)
        assert eng.add_machines(2) == 3

    def test_used_machines_tracking(self):
        eng = simulate(GreedyFirst(), Instance([Job(0, 1, 2, id=0)]), machines=3)
        assert eng.used_machines == {0}

    @given(instances_st(max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_schedule_consistent_with_engine(self, inst):
        eng = simulate(EDF(), inst, machines=len(inst))
        # with one machine per job EDF never misses
        assert not eng.missed_jobs
        rep = eng.schedule().verify(inst)
        assert rep.feasible


class _Decisions(Sink):
    """Collects the attributes of every ``engine.decision`` event."""

    def __init__(self):
        self.events = []

    def on_event(self, name, attrs, span_path):
        if name == "engine.decision":
            self.events.append(attrs)


def _run_observed(policy, inst, machines=1):
    decisions = _Decisions()
    with obs.capture(decisions):
        eng = OnlineEngine(policy, machines=machines)
        eng.release(inst)
        eng.run_to_completion()
    return eng, decisions.events


class TestTrace:
    def test_disabled_by_default(self):
        inst = Instance([Job(0, 1, 2, id=0)])
        plain = simulate(GreedyFirst(), inst, machines=1)
        observed, events = _run_observed(GreedyFirst(), inst)
        assert not obs.enabled()
        assert events  # decisions are emitted only to a listening sink ...
        assert plain.segments == observed.segments  # ... and change nothing

    def test_records_lifecycle(self):
        inst = Instance([Job(0, 1, 2, id=0), Job(3, 1, 4, id=1)])
        eng, events = _run_observed(GreedyFirst(), inst)
        # Job 0 is admitted by release() itself, before the first decision;
        # job 1 by the step that jumps the clock to its release.
        assert [ev["t"] for ev in events] == ["0", "3"]
        assert [ev["admitted"] for ev in events] == [0, 1]
        assert [ev["completed"] for ev in events] == [1, 1]
        assert [eng.state_of(j).finished_at for j in (0, 1)] == [1, 4]

    def test_records_misses(self):
        inst = Instance([Job(0, 1, 1, id=0)])
        eng, events = _run_observed(IdlePolicy(), inst)
        assert sum(ev["missed"] for ev in events) == 1
        assert eng.missed_jobs == [0]
        assert eng.state_of(0).finished_at is None

    def test_running_snapshots(self):
        inst = Instance([Job(0, 2, 4, id=0)])
        eng, events = _run_observed(GreedyFirst(), inst)
        assert any(ev["machines"] == 1 for ev in events)
        assert [(s.job_id, s.machine) for s in eng.segments] == [(0, 0)]
