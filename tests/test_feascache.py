"""Regression tests for the feasibility cache and incremental binary search.

Pins the performance *contract* of the feasibility core (probe counts and
cache behaviour are deterministic, so they are testable without timers):

* ``migratory_optimum`` issues at most ``O(log(hi − lo))`` flow probes,
* repeated calls with the same instance are answered from the verdict memo,
* the memoized structure (intervals, scale) is computed once and can never
  be invalidated because :class:`Instance` is immutable,
* the speed-scaled lower-bound start is valid (never exceeds the optimum).
"""

from fractions import Fraction
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import uniform_random_instance
from repro.model import Instance, Job
from repro.offline.feascache import cache_for
from repro.offline.flow import max_flow_assignment
from repro.offline.kernel import available
from repro.offline.optimum import migratory_optimum, window_concurrency
from repro.offline.workload import scaled_lower_bound, trivial_lower_bounds

from tests.strategies import instances_st


def probe_budget(instance: Instance) -> int:
    """The O(log) probe allowance for one unit-speed optimum computation."""
    lo = max(1, scaled_lower_bound(instance))
    hi = max(lo, window_concurrency(instance))
    return ceil(log2(hi - lo + 1)) + 2


class TestProbeComplexity:
    @pytest.mark.parametrize("n", [30, 100, 300])
    def test_logarithmic_probes(self, n):
        inst = uniform_random_instance(n, horizon=2 * n, seed=n)
        m = migratory_optimum(inst)
        stats = cache_for(inst).stats
        assert m >= 1
        assert stats.probes <= probe_budget(inst)
        assert stats.network_builds == 1

    @given(instances_st(max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_logarithmic_probes_random(self, inst):
        migratory_optimum(inst)
        assert cache_for(inst).stats.probes <= probe_budget(inst)


class TestVerdictCache:
    def test_repeated_optimum_hits_cache(self):
        inst = uniform_random_instance(60, horizon=120, seed=7)
        first = migratory_optimum(inst)
        stats = cache_for(inst).stats
        probes_after_first = stats.probes
        assert stats.verdict_hits == 0
        second = migratory_optimum(inst)
        assert second == first
        # Every probe of the second search is a memo hit: no new flows.
        assert stats.probes == probes_after_first
        assert stats.verdict_hits > 0

    def test_cache_shared_across_entry_points(self):
        inst = uniform_random_instance(40, horizon=80, seed=3)
        m = migratory_optimum(inst)
        stats = cache_for(inst).stats
        probes = stats.probes
        # max_flow_assignment reuses the same warm solver: no new build, and
        # the verdict at m was already resolved by the search.
        feasible, work, _ = max_flow_assignment(inst, m)
        assert feasible
        assert stats.network_builds == 1
        assert stats.probes == probes  # solver already held the flow at m
        for job in inst:
            assert sum(work[job.id].values(), Fraction(0)) == job.processing

    def test_speeds_keep_separate_solvers(self):
        inst = uniform_random_instance(20, horizon=40, seed=1)
        migratory_optimum(inst)
        migratory_optimum(inst, speed=2)
        assert cache_for(inst).stats.network_builds == 2


class TestMemoizedStructure:
    def test_intervals_computed_once(self):
        inst = uniform_random_instance(25, horizon=50, seed=5)
        cache = cache_for(inst)
        assert cache.intervals is cache.intervals
        points = sorted({j.release for j in inst} | {j.deadline for j in inst})
        assert cache.intervals == [
            (a, b) for a, b in zip(points, points[1:]) if b > a
        ]

    def test_scale_matches_direct_computation(self):
        inst = Instance(
            [
                Job(Fraction(1, 3), Fraction(1, 2), Fraction(7, 6), id=0),
                Job(Fraction(1, 4), Fraction(3, 4), Fraction(2), id=1),
            ]
        )
        cache = cache_for(inst)
        assert cache.base_scale == 12
        # lcm(12, 5) · 5: p_j and (b − a)·2/5 both become integral
        assert cache.scale_for(Fraction(2, 5)) == 300

    def test_memo_cannot_be_invalidated(self):
        """The cache hangs off the instance; the instance cannot change."""
        inst = uniform_random_instance(5, horizon=10, seed=0)
        cache_for(inst)
        with pytest.raises(AttributeError):
            inst.jobs = ()
        with pytest.raises(AttributeError):
            inst.anything = 1

    def test_equal_instances_are_hashable_and_equal(self):
        a = Instance([Job(0, 2, 4, id=0)])
        b = Instance([Job(0, 2, 4, id=0)])
        assert a == b and hash(a) == hash(b)
        # ... but keep independent caches (cache lifetime == object lifetime).
        assert cache_for(a) is not cache_for(b)


class TestScaledLowerBound:
    def test_matches_trivial_bound_at_unit_speed(self):
        for seed in range(10):
            inst = uniform_random_instance(15, horizon=30, seed=seed)
            assert scaled_lower_bound(inst, 1) == trivial_lower_bounds(inst)

    @given(
        instances_st(max_size=7),
        st.sampled_from(
            [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(1, 2)]
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_optimum(self, inst, speed):
        try:
            opt = migratory_optimum(inst, speed)
        except ValueError:
            return  # infeasible at every m (speed < 1): any bound is vacuous
        assert scaled_lower_bound(inst, speed) <= opt

    def test_infeasible_slow_speed_raises(self):
        # Zero-laxity job: infeasible at every machine count below unit speed.
        inst = Instance([Job(0, 4, 4, id=0)])
        with pytest.raises(ValueError):
            migratory_optimum(inst, speed=Fraction(1, 2))
        assert migratory_optimum(inst, speed=1) == 1


class TestSnapshotRestore:
    """Copy-on-write snapshots: one memcpy to capture, zero allocations to
    restore, and the live capacity buffer object is never replaced."""

    def test_snapshots_are_immutable_bytes(self):
        inst = uniform_random_instance(12, horizon=24, seed=5)
        cache = cache_for(inst)
        network = cache.solved_network(window_concurrency(inst), Fraction(1))
        machines, blob, flow = network.snapshot()
        assert isinstance(blob, bytes)  # immutable: restores can share it
        assert machines == network.machines
        assert flow == network.flow

    def test_restore_reuses_the_live_buffer(self):
        inst = uniform_random_instance(12, horizon=24, seed=5)
        cache = cache_for(inst)
        hi = window_concurrency(inst)
        network = cache.solved_network(hi, Fraction(1))
        cap_before = network.dinic.cap
        snap = network.snapshot()
        cache.solved_network(max(1, hi - 1), Fraction(1))
        network.restore(snap)
        # Same array object: restore writes through a memoryview in place.
        assert network.dinic.cap is cap_before
        assert network.snapshot()[1] == snap[1]

    def test_restored_state_is_byte_identical(self):
        inst = uniform_random_instance(15, horizon=30, seed=9)
        cache = cache_for(inst)
        migratory_optimum(inst, backend="dinic")
        state = cache._state_for(Fraction(1), "py")
        # Every probed m has a snapshot; restoring and re-snapshotting any
        # of them is lossless.
        assert state.snapshots
        for m, snap in list(state.snapshots.items()):
            state.network.restore(snap)
            assert state.network.snapshot() == snap
            assert state.network.machines == m

    @pytest.mark.parametrize("kernel", ["py", "c"])
    def test_snapshots_are_exactly_the_probed_counts(self, kernel):
        """One snapshot per probed m, none for the unprobed m = 0 start."""
        if kernel == "c" and not available():
            pytest.skip("compiled kernel unavailable")
        inst = uniform_random_instance(20, horizon=30, seed=11)
        cache = cache_for(inst)
        hi = window_concurrency(inst)
        probed = [hi, 1, max(1, hi - 1), hi, 1]
        for m in [0, *probed, -1]:
            cache.feasible(m, Fraction(1), kernel)
        state = cache._state_for(Fraction(1), kernel)
        assert sorted(state.snapshots) == sorted(set(probed))
        assert cache.stats.probes == len(set(probed))
        assert {m for m, _, _ in state.snapshots.values()} == set(probed)

    def test_shrinking_drains_instead_of_rebuilding(self):
        """A fresh probe below the current state must not rebuild or restore:
        the solver drains the excess flow in place (pinned by stats)."""
        inst = uniform_random_instance(20, horizon=30, seed=11)
        cache = cache_for(inst)
        hi = window_concurrency(inst)
        assert cache.feasible(hi, Fraction(1))
        lower = max(1, hi - 1)
        cache.feasible(lower, Fraction(1))
        assert cache.stats.network_builds == 1
        assert cache.stats.restores == 0  # drain, not snapshot-restore
        # Revisiting an already-probed m *is* a snapshot restore.
        net = cache.solved_network(hi, Fraction(1))
        assert cache.stats.restores == 1
        assert net.feasible
