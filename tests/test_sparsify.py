"""Event-interval sparsification against the unsparsified network.

Sparsification (``repro.offline.feascache``) drops the elementary intervals
no job window covers before the feasibility network is built; it is the
only interval structure the library builds.  Two references built over
*every* elementary interval check it:

* the networkx oracle of ``tests/oracles.py``, an independent max-flow
  formulation: it finds the same optimum as every kernel, every
  certificate of either side passes the solver-independent checker, and
  none touches a dropped interval;
* ``oracles.reference_network``, the former stand-alone network build
  from the jobs' ``Fraction`` data, which runs the same kernels on the
  unsparsified network: a dropped interval carries no arc a maximum flow
  could use and the greedy blocking order is invariant under the
  (monotone) reindexing, so cold solves give the same verdicts, work maps
  and residual-reachability min cuts on both structures, for every
  kernel.

Nothing merges: a hypothesis property pins the fact that makes merging
impossible (adjacent elementary intervals never share a live-job set).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Instance, Job
from repro.model.intervals import IntervalUnion
from repro.model.io import load
from repro.obs import core as obs
from repro.offline import kernel
from repro.offline.dinic import FeasibilityNetwork
from repro.offline.feascache import cache_for
from repro.offline.flow import available_backends, max_flow_assignment
from repro.offline.optimum import migratory_optimum
from repro.verify import Unsatisfiable, certified_optimum, check_certificate

from tests import oracles
from tests.strategies import instances_st

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), "r", encoding="utf-8") as fh:
    CASES = json.load(fh)["cases"]

#: The level-graph kernels usable in this process.
KERNELS = ("py", "c") if kernel.available() else ("py",)


def _case_id(case) -> str:
    return f"{case['file']}@s={case['speed']}"


def _certified(instance, speed, backend):
    """``(machines, certificates)``; ``machines`` is ``None`` when unsat."""
    try:
        if backend == "networkx":
            co = oracles.certified_optimum(instance, speed)
        else:
            co = certified_optimum(instance, speed, backend=backend)
    except Unsatisfiable as exc:
        return None, [exc.certificate]
    return co.machines, [c for c in (co.feasible, co.infeasible) if c is not None]


def _footprint(cert) -> IntervalUnion:
    """Where a certificate acts: its schedule's segments, or its region."""
    if cert.kind == "feasible":
        return IntervalUnion.from_pairs(
            (seg.start, seg.end) for seg in cert.schedule.segments
        )
    return cert.region


def _assert_agrees_across_structures(instance, speed, backend):
    """``backend``'s certified optimum against the other interval structure:
    the library (kept intervals) against the oracle (every elementary
    interval), or the oracle against the library.  Same machine count, and
    this side's certificates check without touching a dropped interval."""
    other = "auto" if backend == "networkx" else "networkx"
    machines, certs = _certified(instance, speed, backend)
    assert machines == _certified(instance, speed, other)[0]
    kept = set(cache_for(instance).tables.intervals)
    dropped = IntervalUnion.from_pairs(
        iv for iv in oracles.elementary_intervals(instance) if iv not in kept
    )
    for cert in certs:
        assert check_certificate(instance, cert).ok
        assert _footprint(cert).intersection(dropped).length == 0


def _cold_flow(instance, m, speed, kernel_name, full):
    """One cold solve at ``m`` over the kept intervals (the tables build) or
    over every elementary interval (``oracles.reference_network``), keyed
    by interval so the two structures compare directly."""
    cache = cache_for(instance)
    scale = cache.scale_for(speed)
    if full:
        intervals = oracles.elementary_intervals(instance)
        network = oracles.reference_network(
            instance, speed, intervals, scale, kernel_name
        )
    else:
        intervals = list(cache.tables.intervals)
        network = FeasibilityNetwork(
            instance, speed, scale, kernel_name, cache.tables
        )
    network.set_machines(m)
    network.solve()
    ticks = scale * speed
    work = {
        job_id: {intervals[k]: amount / ticks for k, amount in row.items()}
        for job_id, row in oracles.work_map(network.work_by_job()).items()
    }
    cut = None
    if not network.feasible:
        job_ids, iv_idx = network.min_cut()
        cut = (job_ids, [intervals[k] for k in iv_idx])
    return network.feasible, work, cut


class TestGoldenCorpus:
    """Every corpus case against both unsparsified references."""

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    @pytest.mark.parametrize("backend", [*available_backends(), "networkx"])
    def test_certificates_identical(self, case, backend):
        """Identical optimum across the two structures; this backend's
        certificates check and keep out of the dropped intervals."""
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        _assert_agrees_across_structures(instance, Fraction(case["speed"]), backend)

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_kernels_identical(self, case):
        """Every kernel, on the kept and on every elementary interval: one
        flow and one cut at each ``m`` up to the window concurrency."""
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        speed = Fraction(case["speed"])
        for m in range(1, cache_for(instance).window_concurrency + 1):
            runs = [
                _cold_flow(instance, m, speed, name, full)
                for name in KERNELS
                for full in (False, True)
            ]
            assert all(run == runs[0] for run in runs), f"m={m}"


class TestSparsificationEngages:
    """The reduction is real (not vacuously tested) and observable."""

    def test_two_bursts_drops_the_gap(self):
        instance = load(os.path.join(CORPUS_DIR, "two_bursts.json"))
        cache = cache_for(instance)
        tables = cache.tables
        assert tables.dropped >= 1  # the idle gap between the bursts
        assert len(tables.intervals) == tables.elementary_count - tables.dropped
        assert tables.elementary_count == len(
            oracles.elementary_intervals(instance)
        )

    def test_interval_lengths_are_preserved(self):
        instance = load(os.path.join(CORPUS_DIR, "two_bursts.json"))
        tables = cache_for(instance).tables
        for (a, b), lb in zip(tables.intervals, tables.len_base):
            assert (b - a) * tables.base_scale == lb

    def test_counters_surface_the_reduction(self):
        instance = load(os.path.join(CORPUS_DIR, "two_bursts.json"))
        with obs.capture() as reg:
            migratory_optimum(Instance(list(instance)))
        counters = reg.snapshot()["counters"]
        assert counters["network.intervals_dropped"] >= 1
        assert "network.nodes" in counters
        assert "network.edges" in counters

    def test_window_concurrency_matches_instance(self):
        for case in CASES:
            instance = load(os.path.join(CORPUS_DIR, case["file"]))
            cache = cache_for(instance)
            assert (
                cache.zero_laxity_concurrency
                == instance.zero_laxity_concurrency()
            )
            assert cache.total_work == instance.total_work

    def test_tables_count_the_network(self):
        """The tables' sizes are those of the reference build over the kept
        intervals (``repro profile --network`` reports them)."""
        for case in CASES:
            instance = load(os.path.join(CORPUS_DIR, case["file"]))
            cache = cache_for(instance)
            tables = cache.tables
            speed = Fraction(case["speed"])
            network = oracles.reference_network(
                instance, speed, list(tables.intervals), cache.scale_for(speed)
            )
            assert (tables.n_nodes, tables.n_edges) == (
                network.n_nodes, network.n_edges
            ), case["file"]


@st.composite
def gapped_instances_st(draw, max_jobs: int = 6):
    """Instances with far-apart bursts so sparsification actually fires."""
    n = draw(st.integers(1, max_jobs))
    jobs = []
    for i in range(n):
        burst = draw(st.integers(0, 3)) * 1000  # bursts separated by dead time
        release = Fraction(burst + draw(st.integers(0, 10)))
        processing = Fraction(draw(st.integers(1, 6)))
        slack = Fraction(draw(st.integers(0, 8)))
        jobs.append(Job(release, processing, release + processing + slack, id=i))
    return Instance(jobs)


class TestRandomInstances:
    @given(instance=instances_st(), m=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_verdict_and_work_identical(self, instance, m):
        """The library's cold solve matches the same kernel's over every
        elementary interval: verdict, and work per job and interval."""
        feasible, work, intervals = max_flow_assignment(instance, m, backend="dinic")
        full_feasible, full_work, _ = _cold_flow(
            instance, m, Fraction(1), "py", full=True
        )
        assert feasible == full_feasible
        assert {
            job_id: {intervals[k]: amount for k, amount in row.items()}
            for job_id, row in work.items()
        } == full_work

    @given(instance=gapped_instances_st())
    @settings(max_examples=30, deadline=None)
    def test_certificates_identical_on_gapped(self, instance):
        _assert_agrees_across_structures(instance, Fraction(1), "dinic")

    @given(instance=gapped_instances_st())
    @settings(max_examples=20, deadline=None)
    def test_dropped_intervals_are_flow_invisible(self, instance):
        cache = cache_for(instance)
        tables = cache.tables
        m = migratory_optimum(instance)
        network = cache.solved_network(m, Fraction(1))
        assert network.feasible
        # Every kept interval matches its elementary length; total length
        # dropped is exactly the elementary span minus the kept span.
        kept_len = sum(b - a for a, b in tables.intervals)
        full_len = sum(b - a for a, b in oracles.elementary_intervals(instance))
        assert kept_len <= full_len
        if tables.dropped:
            assert kept_len < full_len

    @given(instance=instances_st())
    @settings(max_examples=100, deadline=None)
    def test_adjacent_intervals_never_share_a_live_set(self, instance):
        """Why nothing merges: every elementary boundary is a release or a
        deadline, so the set of covering windows changes across it."""
        events = {p for job in instance for p in (job.release, job.deadline)}

        def live(a, b):
            return {job.id for job in instance if job.release <= a and b <= job.deadline}

        intervals = oracles.elementary_intervals(instance)
        for (a, b), (_, c) in zip(intervals, intervals[1:]):
            assert b in events
            assert live(a, b) != live(b, c)
