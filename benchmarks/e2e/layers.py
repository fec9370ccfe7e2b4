"""The traced run: spans around each layer's public calls, and the metrics.

Nothing under ``src/`` changes.  :class:`Tracer` patches the wrap points in
:data:`WRAP_POINTS` for the traced pass only, each under the name its
caller looks it up by: ``certified_optimum`` calls
``repro.verify.certify.check_certificate``, not the defining module's name.
A span records its name, start, end and op id; after the run, spans nest
by time containment within an op.  That also nests the work the serve
compute pool does on another thread under the request that caused it,
since the traced run sends one op at a time.  Exact counts (``cache.*``,
``dinic.*``, ``search.*``, ``engine.*``) come from an obs
:class:`~repro.obs.sinks.Registry` attached for the traced pass.

Each workload runs twice in-process on the same inputs: an untraced pass
for half the run's seconds, then a traced pass of the same ops.  Their
median op times give ``trace.overhead_pct``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import workloads as wl
from repro import obs
from repro.obs.sinks import Registry

#: ``(span name, module, attribute)``; ``TASKS.ratio_sample`` is a dict entry.
WRAP_POINTS = (
    ("serve.handle", "repro.serve.app", "ServeApp.handle"),
    ("serve.encode", "repro.serve.testclient", "encode_body"),
    ("serve.sweep_ack", "repro.serve.app", "ServeApp._do_submit_sweep"),
    ("model.decode", "repro.serve.app", "instance_from_dict"),
    ("model.verify", "repro.model.schedule", "Schedule.verify"),
    ("feascache.tables", "repro.offline.feascache", "_build_tables"),
    ("dinic.build", "repro.offline.feascache", "FeasibilityNetwork"),
    ("dinic.solve", "repro.offline.dinic", "FeasibilityNetwork.solve"),
    ("dinic.work_by_job", "repro.offline.dinic", "FeasibilityNetwork.work_by_job"),
    ("dinic.min_cut", "repro.offline.dinic", "FeasibilityNetwork.min_cut"),
    ("flow.extract", "repro.verify.certify", "schedule_from_work"),
    ("optimum.search", "repro.offline.optimum", "migratory_optimum"),
    ("optimum.search", "repro.verify.certify", "migratory_optimum"),
    ("verify.certify", "repro.verify", "certify"),
    ("verify.certify", "repro.verify.certify", "certify"),
    ("verify.check", "repro.verify.certify", "check_certificate"),
    ("verify.certified_optimum", "repro.verify", "certified_optimum"),
    ("online.simulate", "repro.online.engine", "simulate"),
    ("runner.sweep", "repro.runner.pool", "run_sweep"),
    ("runner.item", "repro.runner.tasks", "TASKS.ratio_sample"),
    ("runner.journal_append", "repro.runner.journal", "Journal.append_item"),
)

#: Spans that open their own op: the calls inside belong to them, not to
#: the request the main thread is waiting on.
OWN_OP = frozenset({"runner.sweep", "runner.item"})

#: What a span keeps from its call's result.
INFO: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "serve.encode": lambda result: {"bytes": len(result[0])},
    "flow.extract": lambda result: {"segments": len(result)},
    "feascache.tables": lambda result: {
        "kept": len(result.intervals), "elementary": result.elementary_count,
    },
}

C, H, O, S = wl.WORKLOADS
ALL = wl.WORKLOADS
CERT = wl.CERTIFY

#: ``(name, unit, better, workloads it must be nonzero on)``.  Elsewhere
#: the layer does not run and the metric reads 0.  ``*_self_ms`` is the
#: span minus its children; any other ``*_ms`` is the whole call.
PER_LAYER = (
    ("serve.handle_self_ms", "ms", "lower", (C, H, S)),
    ("serve.encode_ms", "ms", "lower", (C, H, S)),
    ("serve.response_kb", "KB", "lower", (C, H, S)),
    ("serve.cache_hit_ratio", "ratio", "higher", (H,)),
    ("serve.sweep_ack_ms", "ms", "lower", (S,)),
    ("model.decode_ms", "ms", "lower", CERT),
    ("model.verify_ms", "ms", "lower", CERT),
    ("model.segments", "count", "lower", CERT),
    ("feascache.tables_ms", "ms", "lower", ALL),
    ("feascache.probes_per_op", "count", "lower", ALL),
    ("feascache.restores_per_op", "count", "higher", (H,)),
    ("feascache.verdict_hits_per_op", "count", "higher", (H, S)),
    ("feascache.kept_interval_ratio", "ratio", "lower", ALL),
    ("dinic.build_ms", "ms", "lower", ALL),
    ("dinic.solve_ms", "ms", "lower", ALL),
    ("dinic.solve_calls_per_op", "count", "lower", ALL),
    ("dinic.bfs_phases_per_op", "count", "lower", ALL),
    ("dinic.greedy_share", "ratio", "higher", ALL),
    ("dinic.work_by_job_ms", "ms", "lower", CERT),
    ("dinic.min_cut_ms", "ms", "lower", CERT),
    ("flow.extract_ms", "ms", "lower", CERT),
    ("optimum.search_ms", "ms", "lower", (H, O, S)),
    ("optimum.probes_per_search", "count", "lower", (H, O, S)),
    ("verify.certify_self_ms", "ms", "lower", CERT),
    ("verify.check_ms", "ms", "lower", CERT),
    ("verify.certified_optimum_self_ms", "ms", "lower", (H,)),
    ("online.simulate_ms", "ms", "lower", (S,)),
    ("online.simulations_per_item", "count", "lower", (S,)),
    ("online.engine_steps_per_item", "count", "lower", (S,)),
    ("runner.item_ms", "ms", "lower", (S,)),
    ("runner.journal_append_ms", "ms", "lower", (S,)),
    ("runner.overhead_share", "ratio", "lower", (S,)),
    ("trace.overhead_pct", "%", "lower", ALL),
)

#: Span names each workload must record (the self-test's wrap-point map).
FIRES_ON = {
    "serve.handle": (C, H, S),
    "serve.encode": (C, H, S),
    "serve.sweep_ack": (S,),
    "model.decode": CERT,
    "model.verify": CERT,
    "feascache.tables": ALL,
    "dinic.build": ALL,
    "dinic.solve": ALL,
    "dinic.work_by_job": CERT,
    "dinic.min_cut": CERT,
    "flow.extract": CERT,
    "optimum.search": (H, O, S),
    "verify.certify": CERT,
    "verify.check": CERT,
    "verify.certified_optimum": (H,),
    "online.simulate": (S,),
    "runner.sweep": (S,),
    "runner.item": (S,),
    "runner.journal_append": (S,),
}


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    op: Any
    thread: str
    info: Optional[Dict[str, int]] = None
    parent: Optional[int] = None
    self_ns: int = 0


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _get(owner: Any, attr: str) -> Any:
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records one span per call of a wrap point while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._foreground: Any = None
        self._local = threading.local()
        self._own_ids = itertools.count()

    @contextlib.contextmanager
    def op(self, op_id: Any):
        """Attribute calls made for the harness's current request to ``op_id``.

        Threads without an op of their own (the serve compute pool) see
        this one; the traced run sends one op at a time.
        """
        self._foreground = op_id
        try:
            yield
        finally:
            self._foreground = None

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        info = INFO.get(name)
        own = name in OWN_OP
        local = self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("ops", [])
            if own:
                stack.append(f"{name}:{next(self._own_ids)}")
            op = stack[-1] if stack else self._foreground
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                if own:
                    stack.pop()
            self.spans.append(Span(
                name, t0, t1, op, threading.current_thread().name,
                info(result) if info else None,
            ))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrap point and attach an obs registry; undo on exit."""
        patches = []
        registry = Registry()
        try:
            for name, module, path in WRAP_POINTS:
                owner, attr = _resolve(module, path)
                original = _get(owner, attr)
                _set(owner, attr, self._wrap(name, original))
                patches.append((owner, attr, original))
            obs.attach(registry)
            try:
                yield registry
            finally:
                obs.detach(registry)
        finally:
            for owner, attr, original in reversed(patches):
                _set(owner, attr, original)


def nest(spans: List[Span]) -> None:
    """Set each span's parent (innermost containing span of its op) and self time."""
    by_op: Dict[Any, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_op[span.op].append(i)
        span.self_ns = span.end - span.start
    for members in by_op.values():
        members.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: List[int] = []
        for i in members:
            span = spans[i]
            while stack and spans[stack[-1]].end <= span.start:
                stack.pop()
            if stack and span.end <= spans[stack[-1]].end:
                span.parent = stack[-1]
                spans[stack[-1]].self_ns -= span.end - span.start
            stack.append(i)


def layer_metrics(
    spans: List[Span],
    counters: Dict[str, int],
    n_ops: int,
    cache_stats: Dict[str, int],
    overhead_pct: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass."""
    total: Dict[str, List[float]] = defaultdict(list)
    own: Dict[str, List[float]] = defaultdict(list)
    infos: Dict[str, List[Dict[str, int]]] = defaultdict(list)
    for span in spans:
        total[span.name].append((span.end - span.start) / 1e6)
        own[span.name].append(span.self_ns / 1e6)
        if span.info:
            infos[span.name].append(span.info)

    def whole(name: str) -> float:
        return wl.median(total[name])

    def self_ms(name: str) -> float:
        return wl.median(own[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    count = counters.get
    tables = infos["feascache.tables"]
    greedy = count("dinic.greedy_pushed", 0)
    return {
        "serve.handle_self_ms": self_ms("serve.handle"),
        "serve.encode_ms": whole("serve.encode"),
        "serve.response_kb": wl.median(i["bytes"] / 1024 for i in infos["serve.encode"]),
        "serve.cache_hit_ratio": ratio(
            cache_stats.get("hits", 0),
            cache_stats.get("hits", 0) + cache_stats.get("misses", 0),
        ),
        "serve.sweep_ack_ms": whole("serve.sweep_ack"),
        "model.decode_ms": whole("model.decode"),
        "model.verify_ms": whole("model.verify"),
        "model.segments": wl.median(i["segments"] for i in infos["flow.extract"]),
        "feascache.tables_ms": whole("feascache.tables"),
        "feascache.probes_per_op": ratio(count("cache.probes", 0), n_ops),
        "feascache.restores_per_op": ratio(count("cache.restores", 0), n_ops),
        "feascache.verdict_hits_per_op": ratio(count("cache.verdict_hits", 0), n_ops),
        "feascache.kept_interval_ratio": ratio(
            sum(i["kept"] for i in tables), sum(i["elementary"] for i in tables)
        ),
        "dinic.build_ms": whole("dinic.build"),
        "dinic.solve_ms": whole("dinic.solve"),
        "dinic.solve_calls_per_op": ratio(len(total["dinic.solve"]), n_ops),
        "dinic.bfs_phases_per_op": ratio(count("dinic.bfs_phases", 0), n_ops),
        "dinic.greedy_share": ratio(greedy, greedy + count("dinic.flow_pushed", 0)),
        "dinic.work_by_job_ms": whole("dinic.work_by_job"),
        "dinic.min_cut_ms": whole("dinic.min_cut"),
        "flow.extract_ms": whole("flow.extract"),
        "optimum.search_ms": whole("optimum.search"),
        "optimum.probes_per_search": ratio(
            count("search.probes", 0), len(total["optimum.search"])
        ),
        "verify.certify_self_ms": self_ms("verify.certify"),
        "verify.check_ms": whole("verify.check"),
        "verify.certified_optimum_self_ms": self_ms("verify.certified_optimum"),
        "online.simulate_ms": whole("online.simulate"),
        "online.simulations_per_item": ratio(len(total["online.simulate"]), n_ops),
        "online.engine_steps_per_item": ratio(count("engine.steps", 0), n_ops),
        "runner.item_ms": whole("runner.item"),
        "runner.journal_append_ms": whole("runner.journal_append"),
        "runner.overhead_share": 1 - ratio(
            sum(total["runner.item"]), sum(total["runner.sweep"])
        ) if total["runner.sweep"] else 0.0,
        "trace.overhead_pct": overhead_pct,
    }


@dataclass
class TraceResult:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    messages: List[str]
    spans: List[Span]


def _certify_pass(ops, seconds: float, scope) -> Tuple[wl.Phase, Dict[str, int]]:
    from repro.serve.app import ServeApp

    app = ServeApp(compute_workers=2)
    try:
        phase = wl.run_ops(wl.InProcessClient(app), ops, seconds, scope)
        return phase, app.cache_pool.stats()
    finally:
        app.close()


def _sweep_pass(specs, seconds: float, journal_dir: Path, scope) -> wl.Phase:
    from repro.serve.app import ServeApp
    from repro.serve.queue import SweepQueue

    # One sweep worker: the runner executes items serially on the queue's
    # executor thread, inside this process, where the wrappers see them.
    queue = SweepQueue(str(journal_dir), sweep_workers=1).start()
    app = ServeApp(queue, compute_workers=2)
    try:
        return wl.run_sweeps(wl.InProcessClient(app), specs, seconds, journal_dir, scope)
    finally:
        queue.drain(timeout=wl.DRAIN_TIMEOUT_S)
        app.close()


def traced_run(
    workload: str, seed: int, seconds: float, tmp: Path, sizes: wl.Sizes = wl.FULL
) -> TraceResult:
    """Untraced then traced pass of the same ops; per-layer metrics."""
    tracer = Tracer()
    half = seconds / 2
    stats: Dict[str, int] = {}
    if workload in wl.CERTIFY:
        plain, _ = _certify_pass(
            wl.certify_ops(workload, sizes, seed), half,
            lambda op_id: contextlib.nullcontext(),
        )
        with tracer.installed() as registry:
            traced, stats = _certify_pass(iter(plain.ops), math.inf, tracer.op)
        failed, messages = wl.check_certify_records(plain.records + traced.records)
        n_ops = traced.attempted
    elif workload == "sweep_ratio":
        plain = _sweep_pass(
            wl.sweep_specs(sizes, seed), half, tmp / "plain",
            lambda op_id: contextlib.nullcontext(),
        )
        with tracer.installed() as registry:
            traced = _sweep_pass(iter(plain.ops), math.inf, tmp / "traced", tracer.op)
        failed, messages = wl.check_sweep_records(plain.records + traced.records, seed)
        n_ops = traced.attempted
    else:
        # Call through the module attribute, which the tracer patches.
        optimum = importlib.import_module("repro.offline.optimum")
        base = wl.optimum_base(sizes, seed)
        plain = wl.run_optimum_calls(
            base, half, lambda instance: optimum.migratory_optimum(instance)
        )
        with tracer.installed() as registry:
            traced = wl.run_optimum_calls(
                base, math.inf, lambda instance: optimum.migratory_optimum(instance),
                tracer.op, max_ops=plain.attempted,
            )
        failed, messages = wl.check_optimum_answers(base, plain.records + traced.records)
        n_ops = traced.attempted
    nest(tracer.spans)
    overhead = 100 * (
        wl.median(traced.latencies) / wl.median(plain.latencies) - 1
    ) if plain.latencies and traced.latencies else 0.0
    metrics = layer_metrics(
        tracer.spans, registry.counters, n_ops, stats, overhead
    )
    errors = plain.errors + traced.errors
    return TraceResult(
        metrics,
        plain.attempted + traced.attempted,
        failed + len(errors),
        errors + messages,
        tracer.spans,
    )


def write_spans(spans: List[Span], path: Path) -> None:
    """One JSON object per span: name, times, self time, parent index, op."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps({
                "name": span.name,
                "start_ns": span.start,
                "end_ns": span.end,
                "self_ns": span.self_ns,
                "parent": span.parent,
                "op": span.op,
                "thread": span.thread,
                **(span.info or {}),
            }) + "\n")
