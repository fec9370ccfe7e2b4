"""Differential tests: event-interval sparsification on vs. off.

Sparsification (``repro.offline.feascache``) drops zero-demand elementary
intervals before the feasibility network is built.  The claim is not just
"same verdicts": dropped intervals carry no arc a maximum flow could use,
the greedy blocking order is invariant under the (monotone) reindexing, and
residual-reachability min cuts are the unique minimal source side — so the
*certificates* (schedules and Theorem-1 witnesses, as serialized dicts) must
be identical with sparsification on and off, for every kernel and for the
networkx oracle of ``tests/oracles.py`` (whose maximal cut side no dropped
interval joins at ``m ≥ 1`` either), on the whole golden corpus and on
random instances.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Instance, Job
from repro.model.io import load
from repro.obs import core as obs
from repro.offline import kernel
from repro.offline.feascache import cache_for
from repro.offline.flow import available_backends, max_flow_assignment
from repro.offline.optimum import migratory_optimum
from repro.verify import Unsatisfiable, certified_optimum, certify

from tests import oracles
from tests.strategies import instances_st

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), "r", encoding="utf-8") as fh:
    CASES = json.load(fh)["cases"]


def _case_id(case) -> str:
    return f"{case['file']}@s={case['speed']}"


def _strip_stats(cert_dict):
    """Certificates modulo solver statistics (probe counts may differ when a
    shared per-instance cache already holds verdicts from an earlier call)."""
    return {k: v for k, v in cert_dict.items() if k != "cache_stats"}


def _certified_pair(instance, speed, backend, sparsify):
    try:
        if backend == "networkx":
            co = oracles.certified_optimum(instance, speed, sparsify=sparsify)
        else:
            co = certified_optimum(instance, speed, backend=backend,
                                   sparsify=sparsify)
    except Unsatisfiable as exc:
        return ("unsat", _strip_stats(exc.certificate.to_dict()))
    return (
        co.machines,
        _strip_stats(co.feasible.to_dict()),
        _strip_stats(co.infeasible.to_dict()) if co.infeasible else None,
    )


class TestGoldenCorpus:
    """Byte-identical serialized certificates across sparsify on/off."""

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    @pytest.mark.parametrize("backend", [*available_backends(), "networkx"])
    def test_certificates_identical(self, case, backend):
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        speed = Fraction(case["speed"])
        sparse = _certified_pair(instance, speed, backend, True)
        full = _certified_pair(instance, speed, backend, False)
        assert json.dumps(sparse, sort_keys=True) == json.dumps(
            full, sort_keys=True
        )

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_kernels_identical(self, case):
        """dinic vs dinic_c on the unsparsified network: bit-identical too."""
        if not kernel.available():
            pytest.skip("compiled kernel unavailable")
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        speed = Fraction(case["speed"])
        py = _certified_pair(instance, speed, "dinic", False)
        c = _certified_pair(instance, speed, "dinic_c", False)
        assert json.dumps(py, sort_keys=True) == json.dumps(c, sort_keys=True)


class TestSparsificationEngages:
    """The reduction is real (not vacuously tested) and observable."""

    def test_two_bursts_drops_the_gap(self):
        instance = load(os.path.join(CORPUS_DIR, "two_bursts.json"))
        tables = cache_for(instance).tables
        assert tables.dropped >= 1  # the idle gap between the bursts
        assert len(tables.intervals) == tables.elementary_count - tables.dropped
        full = cache_for(instance, sparsify=False).tables
        assert full.dropped == 0
        assert len(full.intervals) == full.elementary_count

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
        fs, ws, _ = max_flow_assignment(instance, m, sparsify=True)
        ff, wf, _ = max_flow_assignment(instance, m, sparsify=False)
        assert fs == ff
        # Same per-job totals; the interval *indices* differ (sparse list),
        # but the total machine time routed per job must match exactly.
        for job_id in ws:
            assert sum(ws[job_id].values(), Fraction(0)) == sum(
                wf[job_id].values(), Fraction(0)
            )

    @given(instance=gapped_instances_st())
    @settings(max_examples=30, deadline=None)
    def test_certificates_identical_on_gapped(self, instance):
        sparse = _certified_pair(instance, Fraction(1), "dinic", True)
        full = _certified_pair(instance, Fraction(1), "dinic", False)
        assert json.dumps(sparse, sort_keys=True) == json.dumps(
            full, sort_keys=True
        )

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
        full_len = sum(b - a for a, b in cache.intervals)
        assert kept_len <= full_len
        if tables.dropped:
            assert kept_len < full_len
