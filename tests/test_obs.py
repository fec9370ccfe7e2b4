"""Tests for the observability layer (`repro.obs`).

Covers the contract pinned by ISSUE 3:

* span nesting and exception safety (paths compose, errors propagate and
  are recorded, the contextvar stack always unwinds),
* the no-sink fast path (shared no-op span, counters untouched, later
  captures start clean) and counter atomicity under threads,
* JSONL sink round-trip (every record is valid JSON and re-aggregates to
  the registry's numbers),
* exact Dinic/search/cache counter values on two corpus instances, so an
  algorithmic regression in the feasibility core shows up as a counter
  diff even when verdicts stay correct,
* CacheStats surfaced on certificates and certified optima (satellite).
"""

import contextvars
import json
import threading
from fractions import Fraction

import pytest

from repro import obs
from repro.model import Instance, Job
from repro.model.io import load
from repro.obs import core as obs_core
from repro.offline.feascache import CacheStats, cache_for
from repro.offline.optimum import migratory_optimum
from repro.verify import certificate_from_dict, certified_optimum, certify

CORPUS = "tests/data/corpus"


@pytest.fixture(autouse=True)
def _no_leftover_sinks():
    """Every test starts and ends with observability disabled."""
    assert not obs.enabled()
    yield
    assert not obs.enabled()


class TestSpans:
    def test_nesting_builds_hierarchical_paths(self):
        with obs.capture() as reg:
            with obs.span("outer"):
                with obs.span("inner"):
                    assert obs.span_path() == ("outer", "inner")
                with obs.span("inner"):
                    pass
        snap = reg.snapshot()
        assert set(snap["spans"]) == {"outer", "outer/inner"}
        assert snap["spans"]["outer/inner"]["count"] == 2
        # A parent's wall time includes its children's.
        assert (snap["spans"]["outer"]["total_ns"]
                >= snap["spans"]["outer/inner"]["total_ns"])

    def test_exception_propagates_and_is_recorded(self):
        with obs.capture() as reg:
            with pytest.raises(ValueError):
                with obs.span("will_fail"):
                    raise ValueError("boom")
            # The stack unwound: new spans are top-level again.
            assert obs.span_path() == ()
            with obs.span("after"):
                pass
        snap = reg.snapshot()
        assert snap["spans"]["will_fail"]["errors"] == 1
        assert "after" in snap["spans"]  # not "will_fail/after"

    def test_span_attrs_reach_sinks(self):
        events = []

        class Probe(obs.Sink):
            def on_span(self, path, duration_ns, attrs, error):
                events.append((path, attrs, error))

        sink = obs.attach(Probe())
        try:
            with obs.span("s", m=3, speed="1/2"):
                pass
        finally:
            obs.detach(sink)
        assert events == [("s", {"m": 3, "speed": "1/2"}, None)]


class TestNoSinkFastPath:
    def test_disabled_by_default_and_span_is_shared_noop(self):
        assert not obs.enabled()
        a, b = obs.span("x", key=1), obs.span("y")
        assert a is b is obs_core._NOOP_SPAN

    def test_unobserved_increments_are_dropped(self):
        obs.incr("lost.counter", 41)
        obs.gauge("lost.gauge", 1)
        obs.event("lost.event")
        with obs.capture() as reg:
            obs.incr("kept.counter")
        snap = reg.snapshot()
        assert snap["counters"] == {"kept.counter": 1}
        assert snap["gauges"] == {} and snap["events"] == {}

    def test_counter_atomicity_under_threads(self):
        # Captures are context-local, and a fresh Thread starts with an
        # empty context — a thread that should report into an enclosing
        # capture must carry the opener's context across explicitly.
        with obs.capture() as reg:
            ctx = contextvars.copy_context()

            def worker():
                for _ in range(10_000):
                    obs.incr("threads.counter")

            threads = [
                threading.Thread(target=ctx.copy().run, args=(worker,))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert reg.counters["threads.counter"] == 80_000

    def test_captures_are_context_local_across_threads(self):
        # Two threads capturing concurrently must not see each other's
        # emissions — the serve daemon leans on this to run request
        # captures and a sweep executor in one process.
        registries = {}
        barrier = threading.Barrier(2)

        def worker(name):
            with obs.capture() as reg:
                barrier.wait()  # both captures provably open at once
                obs.incr(f"{name}.counter")
                obs.event(f"{name}.event")
                barrier.wait()
            registries[name] = reg.snapshot()

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registries["a"]["counters"] == {"a.counter": 1}
        assert registries["b"]["counters"] == {"b.counter": 1}
        assert registries["a"]["events"] == {"a.event": 1}
        assert registries["b"]["events"] == {"b.event": 1}

    def test_global_attach_sees_every_thread(self):
        # attach() stays global: a --trace sink or the serve daemon's
        # service registry aggregates across all request threads.
        from repro.obs.sinks import Registry

        sink = obs.attach(Registry())
        try:
            threads = [
                threading.Thread(target=obs.incr, args=("global.counter",))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            obs.detach(sink)
        assert sink.counters["global.counter"] == 4


class TestJsonlSink:
    def test_round_trip_matches_registry(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.capture(obs.JsonlSink(str(path))) as reg:
            with obs.span("top", speed=Fraction(1, 2)):
                obs.incr("a.counter", 2)
                obs.incr("a.counter", 3)
                obs.gauge("a.gauge", Fraction(7, 3))
                obs.event("a.event", detail="x")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "trace file must not be empty"
        by_type = {}
        for rec in records:
            by_type.setdefault(rec["type"], []).append(rec)
        counted = sum(r["value"] for r in by_type["counter"]
                      if r["name"] == "a.counter")
        assert counted == reg.counters["a.counter"] == 5
        (gauge_rec,) = by_type["gauge"]
        assert gauge_rec["value"] == "7/3"  # Fractions survive as strings
        (span_rec,) = by_type["span"]
        assert span_rec["path"] == "top" and span_rec["ns"] >= 0
        assert span_rec["attrs"] == {"speed": "1/2"}
        (event_rec,) = by_type["event"]
        assert event_rec["span"] == "top" and event_rec["attrs"] == {"detail": "x"}
        assert all("t" in r for r in records)

    def test_error_spans_marked(self, tmp_path):
        path = tmp_path / "err.jsonl"
        sink = obs.attach(obs.JsonlSink(str(path)))
        try:
            with pytest.raises(RuntimeError):
                with obs.span("bad"):
                    raise RuntimeError
        finally:
            obs.detach(sink)
            sink.close()
        (rec,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert rec["error"] == "RuntimeError"


class TestCounterRegression:
    """Exact counters on corpus instances: algorithmic drift = counter diff."""

    def optimum_counters(self, name):
        inst = load(f"{CORPUS}/{name}.json")
        with obs.capture() as reg:
            m = migratory_optimum(inst)
        return m, reg.snapshot()

    def test_mcnaughton3(self):
        # The EDF greedy blocking pass routes the whole demand at both
        # probes (the m = 2 probe drains from 3 and re-places in one pass),
        # so no dinic.* phase counters appear: Dinic never runs.
        m, snap = self.optimum_counters("mcnaughton3")
        assert m == 2
        assert snap["counters"] == {
            "cache.network_builds": 1,
            "cache.probes": 2,
            "dinic.greedy_pushed": 6,
            "network.edges": 7,
            "network.intervals_dropped": 0,
            "network.nodes": 6,
            "search.probes": 2,
        }
        assert snap["gauges"] == {
            "network.intervals_elementary": 1,
            "network.intervals_kept": 1,
            "search.lower_bound_start": 2,
            "search.optimum": 2,
            "search.upper_bound_start": 3,
        }

    def test_overload_six(self):
        m, snap = self.optimum_counters("overload_six")
        assert m == 6
        assert snap["counters"] == {
            "cache.network_builds": 1,
            "cache.probes": 1,
            "dinic.greedy_pushed": 13,
            "network.edges": 16,
            "network.intervals_dropped": 0,
            "network.nodes": 11,
            "search.probes": 1,
        }
        assert snap["gauges"]["search.lower_bound_start"] == 6

    def test_layers_covered_by_certified_optimum(self):
        """≥ 10 distinct counters spanning dinic, cache, search, verify."""
        inst = load(f"{CORPUS}/uniform_seed3.json")
        with obs.capture() as reg:
            certified_optimum(inst)
        names = set(reg.counters)
        assert len(names) >= 10
        for layer in ("dinic.", "cache.", "search.", "verify."):
            assert any(n.startswith(layer) for n in names), layer


class TestCacheStatsSurfaced:
    """Satellite: certify/certified_optimum carry the CacheStats snapshot."""

    def test_certify_carries_snapshot(self, mcnaughton_instance):
        cert = certify(mcnaughton_instance, 2)
        stats = cert.cache_stats
        assert isinstance(stats, CacheStats)
        assert stats.probes >= 1 and stats.network_builds == 1
        # It is a snapshot, not the live object: later probes don't mutate it.
        live = cache_for(mcnaughton_instance).stats
        assert stats is not live
        before = stats.probes
        certify(mcnaughton_instance, 3)
        assert stats.probes == before

    def test_certified_optimum_totals(self, mcnaughton_instance):
        co = certified_optimum(mcnaughton_instance)
        assert co.machines == 2
        assert isinstance(co.cache_stats, CacheStats)
        # The carried totals equal the live cache's counters at return time.
        assert co.cache_stats == cache_for(mcnaughton_instance).stats
        assert co.feasible.cache_stats is not None
        assert co.infeasible.cache_stats is not None

    def test_round_trip_preserves_stats(self, mcnaughton_instance):
        cert = certify(mcnaughton_instance, 2)
        clone = certificate_from_dict(json.loads(json.dumps(cert.to_dict())))
        assert clone.cache_stats == cert.cache_stats

    def test_infeasible_cert_carries_snapshot(self):
        inst = Instance([Job(0, 2, 2, id=i) for i in range(3)])
        cert = certify(inst, 2)
        assert cert.kind == "infeasible"
        assert cert.cache_stats is not None
        assert cert.cache_stats.probes >= 1
