"""Inputs, load loops and output checks shared by the timed and traced runs.

Every input is a pure function of the run's seed: the same seed yields the
same instances, machine counts and sweep specs.  The program receives only
the generated JSON (the HTTP workloads) or the generated instance
(``optimum_1e5``).

All four workloads are closed loops.  Their callers are experiment scripts
and the sweep runner, and each waits for its reply before sending again.
A timed phase runs until ``seconds`` of *busy* time have passed.  Busy
time is the phase's wall time minus untimed preparation: building the
next instance and its optimum, or copying the large instance so that its
per-instance cache starts cold.  The program is idle during preparation.
Response checks run after the phase, so the client does no other work
while ops are in flight.

The callers need ``src`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import http.client
import itertools
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.generators import uniform_random_instance
from repro.model import Instance
from repro.model.io import instance_to_dict
from repro.obs.sinks import jsonable
from repro.offline.flow import migratory_feasible
from repro.offline.optimum import migratory_optimum, window_concurrency
from repro.offline.workload import scaled_lower_bound
from repro.runner.journal import read_journal
from repro.runner.plan import SweepPlan
from repro.runner.tasks import task_ratio_sample
from repro.verify import certificate_from_dict, check_certificate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for journals, kernel caches and span dumps.  It lives
#: inside the checkout (and in ``.gitignore``) so a run writes nowhere else.
SCRATCH = ROOT / ".bench_e2e"

WORKLOADS = ("certify_unique", "certify_hot", "optimum_1e5", "sweep_ratio")
CERTIFY = ("certify_unique", "certify_hot")

COLD_STARTS = 3
TENANT = "bench"
#: Ops per certify group: three in four at OPT (``certify_unique``), or
#: OPT - 1, OPT, OPT + 1 and the optimum (``certify_hot``).
CYCLE = 4
POLL_S = 0.05
SETUP_POLL_S = 0.01
HTTP_TIMEOUT_S = 60.0
SPAWN_TIMEOUT_S = 60.0
SWEEP_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 30.0
#: Every 10th certificate is re-proved with the independent checker.
DEEP_CHECK_EVERY = 10
#: Sweep items re-run in-process and compared with the served result.
SWEEP_SAMPLES = 10

SWEEP_POLICIES = ("edf", "llf", "firstfit")
SWEEP_FAMILIES = ("uniform", "agreeable")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark runs :data:`FULL`, the self-test less."""

    certify_n: int = 1000
    certify_horizon: int = 2000
    hot_set: int = 8
    optimum_n: int = 100_000
    optimum_horizon: int = 200_000
    sweep_n: int = 100
    #: instances per family in one sweep (3 policies x 2 families each)
    sweep_seeds: int = 8


FULL = Sizes()


def subseed(seed: int, label: str, index: int = 0) -> int:
    """A child seed of the run seed, stable across processes and platforms."""
    digest = hashlib.sha256(f"e2e:{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def median(values: Iterable[float]) -> float:
    """Median, or 0.0 for no samples (a layer that did not fire)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile by linear interpolation between samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- host speed ------------------------------------------------------------------

REFERENCE_LOOPS = 1000
#: CPU seconds :func:`reference_work` takes on the reference host, about
#: the fastest the 2-vCPU Xeon VM these numbers were taken on runs it.
REFERENCE_COST_S = 1e-4
#: Seconds between probe samples: wall time for :class:`ProbeThread`, CPU
#: time of the sampled process for :class:`ProbeSignal`.
PROBE_PERIOD_S = 0.01


def reference_work() -> int:
    """Fixed pure-Python work that shares no code with the program."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        table[i & 63] = total
        total += i * i % 7
    return total


class SpeedProbe:
    """Times :func:`reference_work` every :data:`PROBE_PERIOD_S` while ops run.

    A shared host runs the same instructions at changing speed.  On the
    2-vCPU VM these numbers were taken on, a fixed loop takes either its
    fastest time or about 1.7 times that, switching within a second; the
    share of slow time drifts over minutes, and so does the fastest time,
    by up to a quarter from one run to the next.  An op's time divided by
    its slowdown, the median cost of the samples taken during it over
    :data:`REFERENCE_COST_S`, is its time on the reference host.  The
    reference work is fixed, so a change to the program moves the op time
    and not the slowdown.
    """

    #: True when samples run on the measured thread, inside its ops.
    inline = False

    def __init__(self, starts: Iterable[float] = (), costs: Iterable[float] = ()) -> None:
        self.starts: List[float] = list(starts)  # perf_counter at each sample
        self.costs: List[float] = list(costs)  # seconds each sample took

    def sample(self) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        reference_work()
        # CPU time: a sample that waits for a busy CPU is not a slow host.
        self.costs.append(time.thread_time() - cpu)
        self.starts.append(start)

    def during(self, t0: float, t1: float) -> List[float]:
        """Costs of the samples started within ``[t0, t1)``."""
        lo = bisect.bisect_left(self.starts, t0)
        return self.costs[lo:bisect.bisect_left(self.starts, t1, lo)]

    def slowdowns(self, spans: List[Tuple[float, float]]) -> List[float]:
        """The host's slowdown against the reference host during each span.

        It is the median of the samples taken during the span: a few samples
        run many times their usual cost, and a mean follows them.  A span
        too short to hold a sample takes the sample nearest its start.
        """
        out = []
        for t0, t1 in spans:
            costs = self.during(t0, t1)
            if not costs:
                i = bisect.bisect_left(self.starts, t0)
                near = min(
                    (j for j in (i - 1, i) if 0 <= j < len(self.starts)),
                    key=lambda j: abs(self.starts[j] - t0),
                )
                costs = [self.costs[near]]
            out.append(statistics.median(costs) / REFERENCE_COST_S)
        return out

    def stolen(self, t0: float, t1: float) -> float:
        """Seconds an inline probe took from the op in ``[t0, t1)``."""
        return sum(self.during(t0, t1)) if self.inline else 0.0


class ProbeThread(SpeedProbe):
    """Samples from a thread of its own; the program runs in other processes.

    It samples the CPUs its thread may run on: pinned with the program by
    :func:`one_cpu`, or all of them while a sweep keeps every CPU busy.
    """

    def __enter__(self) -> "ProbeThread":
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.sample()

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()


class ProbeSignal(SpeedProbe):
    """Samples on the measured thread itself, from a ``SIGPROF`` handler.

    The timed call then shares its vCPU with the samples, so the slowdown
    is that of the core the call runs on; the samples' own time is taken
    back out of the call (:meth:`stolen`).
    """

    inline = True

    def __enter__(self) -> "ProbeSignal":
        self._previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Run this thread, and the threads and processes it starts, on one CPU.

    For the workloads whose program uses one CPU at a time anyway (a certify
    daemon computes while its client waits): the probe thread then samples
    the core the program runs on.  The cores of a shared host differ in speed.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def at_reference_speed(phase: "Phase", probe: SpeedProbe) -> Tuple[List[float], float]:
    """``(latencies, busy seconds)`` of ``phase``, each op divided by its slowdown.

    An op's share of busy time runs from the previous op's completion to its
    own; an inline probe's samples are taken out of both first.
    """
    latencies = []
    busy = previous = 0.0
    for latency, done, (t0, t1), slowdown in zip(
        phase.latencies, phase.done, phase.spans, probe.slowdowns(phase.spans)
    ):
        stolen = probe.stolen(t0, t1)
        latencies.append((latency - stolen) / slowdown)
        busy += (done - previous - stolen) / slowdown
        previous = done
    return latencies, busy


# -- certify workloads -------------------------------------------------------


@dataclass
class Op:
    """One request and the reply it must get."""

    method: str
    path: str
    body: bytes
    #: ("feasible" | "infeasible", m) for certify, ("optimum", OPT) otherwise
    expect: Tuple[str, int]
    #: the generated instance, kept for the post-phase certificate checks
    instance: Optional[Instance] = None


def _instance(sizes: Sizes, seed: int, label: str, index: int = 0) -> Instance:
    return uniform_random_instance(
        sizes.certify_n,
        horizon=sizes.certify_horizon,
        seed=subseed(seed, label, index),
    )


def _solved(sizes: Sizes, seed: int, label: str, index: int):
    instance = _instance(sizes, seed, label, index)
    return instance, instance_to_dict(instance), migratory_optimum(instance)


def _certify_op(payload: Dict[str, Any], instance: Instance, m: int, opt: int) -> Op:
    body = json.dumps({"tenant": TENANT, "instance": payload, "m": m}).encode()
    kind = "feasible" if m >= opt else "infeasible"
    return Op("POST", "/v1/certify", body, (kind, m), instance)


def _optimum_op(payload: Dict[str, Any], instance: Instance, opt: int) -> Op:
    body = json.dumps({"tenant": TENANT, "instance": payload}).encode()
    return Op("POST", "/v1/optimum", body, ("optimum", opt), instance)


def probe_op(sizes: Sizes, seed: int) -> Op:
    """The first op of a certify cold start: one certify at its optimum."""
    instance, payload, opt = _solved(sizes, seed, "probe", 0)
    return _certify_op(payload, instance, opt, opt)


def unique_ops(sizes: Sizes, seed: int) -> Iterator[Op]:
    """Distinct instances; ``m = OPT`` three times in four, else ``OPT - 1``."""
    for i in itertools.count():
        instance, payload, opt = _solved(sizes, seed, "unique", i)
        m = opt - 1 if i % CYCLE == CYCLE - 1 else opt
        yield _certify_op(payload, instance, m, opt)


def hot_ops(sizes: Sizes, seed: int) -> Iterator[Op]:
    """Groups of four on a hot set: certify at OPT-1, OPT, OPT+1, then optimum."""
    hot = [_solved(sizes, seed, "hot", k) for k in range(sizes.hot_set)]
    rng = random.Random(subseed(seed, "hot-order"))
    while True:
        instance, payload, opt = hot[rng.randrange(len(hot))]
        for m in (opt - 1, opt, opt + 1):
            yield _certify_op(payload, instance, m, opt)
        yield _optimum_op(payload, instance, opt)


def certify_ops(workload: str, sizes: Sizes, seed: int) -> Iterator[Op]:
    return (unique_ops if workload == "certify_unique" else hot_ops)(sizes, seed)


def check_certify_records(records) -> Tuple[int, List[str]]:
    """``(failed ops, messages)`` for ``(index, op, status, body)`` records.

    Every reply must carry the expected verdict and machine count, and
    every 10th certificate is decoded and re-proved by
    :func:`repro.verify.check_certificate`, which shares no code with the
    solver that produced it.
    """
    failed: Dict[int, str] = {}
    certificates = []
    for index, op, status, body in records:
        want, m = op.expect
        if status != 200:
            failed[index] = f"op {index} {op.path}: HTTP {status}"
            continue
        payload = json.loads(body)
        if want == "optimum":
            if payload.get("satisfiable") is not True or payload.get("optimum") != m:
                failed[index] = (
                    f"op {index}: optimum {payload.get('optimum')!r}, want {m}"
                )
            continue
        if payload.get("kind") != want or payload.get("machines") != m:
            failed[index] = (
                f"op {index}: {payload.get('kind')} at "
                f"{payload.get('machines')!r}, want {want} at {m}"
            )
            continue
        certificates.append((index, op, payload))
    for index, op, payload in certificates[::DEEP_CHECK_EVERY]:
        result = check_certificate(op.instance, certificate_from_dict(payload))
        if not result.ok:
            failed[index] = f"op {index}: certificate rejected: {result!r}"
    return len(failed), list(failed.values())


# -- clients -------------------------------------------------------------------


class HttpClient:
    """One keep-alive connection to the daemon."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self.address, timeout=HTTP_TIMEOUT_S
            )
        try:
            self._conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class InProcessClient:
    """The same ``send`` over :class:`repro.serve.testclient.TestClient`."""

    def __init__(self, app) -> None:
        from repro.serve.testclient import TestClient

        self._client = TestClient(app)

    def send(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        response = self._client.request(method, path, data=body)
        return response.status, response.body


# -- timed loops ------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase did."""

    latencies: List[float] = field(default_factory=list)  # seconds
    #: busy seconds into the phase at which each latency's op completed
    done: List[float] = field(default_factory=list)
    #: ``perf_counter`` start and end of each latency's op (of its sweep,
    #: for sweep items), to look up the host's speed then
    spans: List[Tuple[float, float]] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    ops: List[Any] = field(default_factory=list)  # inputs, in send order
    attempted: int = 0
    errors: List[str] = field(default_factory=list)  # transport failures
    busy_s: float = 0.0

    def record(self, latency: float, done: float, span: Tuple[float, float]) -> None:
        self.latencies.append(latency)
        self.done.append(done)
        self.spans.append(span)


def run_ops(
    client,
    ops: Iterator[Op],
    seconds: float,
    scope: Callable[[Any], Any] = lambda op_id: contextlib.nullcontext(),
) -> Phase:
    """Closed loop on one connection until ``seconds`` busy or ``ops`` runs out.

    Producing the next op (instance generation and its untimed optimum) is
    preparation and is subtracted from the busy time.
    """
    phase = Phase()
    prep = 0.0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if t - start - prep >= seconds:
            break
        op = next(ops, None)
        if op is None:
            break
        prep += time.perf_counter() - t
        index = phase.attempted
        phase.attempted += 1
        phase.ops.append(op)
        try:
            with scope(index):
                t0 = time.perf_counter()
                status, body = client.send(op.method, op.path, op.body)
                t1 = time.perf_counter()
        except (OSError, http.client.HTTPException) as exc:
            phase.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        phase.record(t1 - t0, t1 - start - prep, (t0, t1))
        phase.records.append((index, op, status, body))
    phase.busy_s = time.perf_counter() - start - prep
    return phase


# -- sweep workload ------------------------------------------------------------


def sweep_items(spec: Dict[str, Any]) -> int:
    return len(spec["policies"]) * len(spec["families"]) * spec["seeds"]


def sweep_specs(sizes: Sizes, seed: int) -> Iterator[Dict[str, Any]]:
    """Ratio sweeps of ``3 x 2 x sweep_seeds`` items, each on fresh seeds."""
    for k in itertools.count():
        yield {
            "kind": "ratio",
            "policies": list(SWEEP_POLICIES),
            "families": list(SWEEP_FAMILIES),
            "n": sizes.sweep_n,
            "seeds": sizes.sweep_seeds,
            "root_seed": subseed(seed, "sweep", k) % 2**32,
            "workers": 2,
        }


def probe_sweep_spec(sizes: Sizes, seed: int) -> Dict[str, Any]:
    """The first op of a sweep cold start: a one-item sweep."""
    return {
        "kind": "ratio",
        "policies": [SWEEP_POLICIES[0]],
        "families": [SWEEP_FAMILIES[0]],
        "n": sizes.sweep_n,
        "seeds": 1,
        "root_seed": subseed(seed, "sweep-probe") % 2**32,
        "workers": 2,
    }


class SweepError(RuntimeError):
    pass


def complete_sweep(
    client,
    spec: Dict[str, Any],
    poll: float = POLL_S,
    scope: Callable[[Any], Any] = lambda op_id: contextlib.nullcontext(),
) -> Tuple[str, Dict[str, Any]]:
    """Submit one sweep and poll until it is done; ``(id, report)``."""
    with scope("submit"):
        status, body = client.send("POST", "/v1/sweeps", json.dumps(spec).encode())
    if status not in (200, 202):
        raise SweepError(f"sweep submit: HTTP {status}: {body[:200]!r}")
    sweep_id = json.loads(body)["id"]
    deadline = time.monotonic() + SWEEP_TIMEOUT_S
    while time.monotonic() < deadline:
        time.sleep(poll)
        with scope("poll"):
            status, body = client.send("GET", f"/v1/sweeps/{sweep_id}")
        state = json.loads(body).get("state") if status == 200 else None
        if state == "done":
            return sweep_id, json.loads(body)["report"]
        if state not in ("accepted", "running"):
            raise SweepError(f"sweep {sweep_id}: HTTP {status}, state {state!r}")
    raise SweepError(f"sweep {sweep_id} not done after {SWEEP_TIMEOUT_S}s")


def run_sweeps(
    client,
    specs: Iterator[Dict[str, Any]],
    seconds: float,
    journal_dir: Path,
    scope: Callable[[Any], Any] = lambda op_id: contextlib.nullcontext(),
) -> Phase:
    """Sweeps back to back until ``seconds`` have passed; ops are items.

    Item latency is the runner's own per-item wall time
    (``runner.item_ns``), read back from each sweep's journal after the
    phase; an item counts as completed when its sweep is done, and its
    span is its sweep's.
    """
    phase = Phase()
    finished = []
    start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        if t0 - start >= seconds:
            break
        phase.attempted += sweep_items(spec)
        phase.ops.append(spec)
        try:
            sweep_id, report = complete_sweep(client, spec, scope=scope)
        except (SweepError, OSError, http.client.HTTPException) as exc:
            phase.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        finished.append((sweep_id, (t0, time.perf_counter())))
        phase.records.append((spec, sweep_id, report))
    phase.busy_s = time.perf_counter() - start
    for sweep_id, span in finished:
        _, records, _ = read_journal(str(journal_dir / f"{sweep_id}.journal.jsonl"))
        for _, rec in sorted(records.items()):
            if rec.status == "ok":
                item_s = rec.snapshot["hists"]["runner.item_ns"]["sum"] / 1e9
                phase.record(item_s, span[1] - start, span)
    return phase


def _plan(spec: Dict[str, Any]) -> SweepPlan:
    return SweepPlan.competitive(
        policies=spec["policies"],
        families=spec["families"],
        n=spec["n"],
        seeds=spec["seeds"],
        root_seed=spec["root_seed"],
    )


def check_sweep_records(records, seed: int, samples: int = SWEEP_SAMPLES) -> Tuple[int, List[str]]:
    """``(failed items, messages)``: every item ok with ``k >= m >= 1``,
    the full plan present, and sampled items equal to an in-process run."""
    failed = 0
    messages: List[str] = []
    pool = []
    for spec, sweep_id, report in records:
        results = report["results"]
        if len(results) != sweep_items(spec):
            failed += sweep_items(spec)
            messages.append(
                f"sweep {sweep_id}: {len(results)} items, want {sweep_items(spec)}"
            )
            continue
        for result in results:
            value = result.get("value") or {}
            m, k = value.get("m"), value.get("k")
            if result["status"] != "ok" or not (
                isinstance(m, int) and isinstance(k, int) and k >= m >= 1
            ):
                failed += 1
                messages.append(f"sweep {sweep_id} item {result['index']}: {result}")
            else:
                pool.append((spec, sweep_id, result))
    rng = random.Random(subseed(seed, "sweep-check"))
    for spec, sweep_id, result in rng.sample(pool, min(samples, len(pool))):
        item = _plan(spec).items[result["index"]]
        want = jsonable(task_ratio_sample(item.spec.build(), **item.kwargs))
        if result["value"] != want:
            failed += 1
            messages.append(
                f"sweep {sweep_id} item {result['index']}: served "
                f"{result['value']}, in-process {want}"
            )
    return failed, messages


# -- optimum_1e5 workload -------------------------------------------------------


def optimum_base(sizes: Sizes, seed: int) -> Instance:
    """The run's large instance; every call is on a fresh copy of it.

    One instance only: the Python collector walks every live object on
    each full collection inside the timed call, so a second 100k-job
    instance held by the harness would slow the calls by about a third.
    """
    return uniform_random_instance(
        sizes.optimum_n,
        horizon=sizes.optimum_horizon,
        seed=subseed(seed, "optimum"),
    )


def optimum_probe(sizes: Sizes, seed: int) -> int:
    """The first call of a library cold start (small, so setup stays setup)."""
    return migratory_optimum(_instance(sizes, seed, "probe"))


def run_optimum_calls(
    base: Instance,
    seconds: float,
    call: Callable[[Instance], int],
    scope: Callable[[Any], Any] = lambda op_id: contextlib.nullcontext(),
    max_ops: Optional[int] = None,
) -> Phase:
    """Cold ``call(copy)`` on fresh copies of ``base`` for ``seconds`` busy.

    The per-instance feasibility cache lives on the instance, so each copy
    starts cold.  Copying and a full garbage collection are preparation and
    are not timed: the collection frees the previous call's garbage, so
    every call starts from the same heap and pays for its own collections
    only.
    """
    phase = Phase()
    prep = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start - prep < seconds:
        if max_ops is not None and phase.attempted >= max_ops:
            break
        t = time.perf_counter()
        instance = Instance(list(base))
        gc.collect()
        prep += time.perf_counter() - t
        index = phase.attempted
        phase.attempted += 1
        with scope(index):
            t0 = time.perf_counter()
            answer = call(instance)
            t1 = time.perf_counter()
        del instance
        phase.record(t1 - t0, t1 - start - prep, (t0, t1))
        phase.records.append(answer)
    phase.busy_s = time.perf_counter() - start - prep
    return phase


def check_optimum_answers(base: Instance, answers: List[int]) -> Tuple[int, List[str]]:
    """``(failed calls, messages)`` for answers on copies of ``base``.

    Each answer must lie within [``scaled_lower_bound``, window
    concurrency], and the first is re-probed at ``m`` and ``m - 1`` on the
    pure-Python kernel (``backend="dinic"``), not the compiled one that
    answered.  Every copy has the same content, so every answer must match.
    """
    if not answers:
        return 0, []
    instance = Instance(list(base))
    lo, hi = scaled_lower_bound(instance), window_concurrency(instance)
    m = answers[0]
    exact = migratory_feasible(instance, m, backend="dinic") and not (
        migratory_feasible(instance, m - 1, backend="dinic")
    )
    messages = []
    if not exact:
        messages.append(f"optimum {m} is not the pure-Python kernel's optimum")
    bad = [a for a in answers if not (exact and a == m and lo <= a <= hi)]
    if bad:
        messages.append(f"{len(bad)} answers wrong: {sorted(set(bad))} (bounds [{lo}, {hi}])")
    return len(bad), messages


# -- processes --------------------------------------------------------------------


def _child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    # A fresh, empty kernel cache: every cold start compiles the kernel.
    env["REPRO_KERNEL_CACHE"] = str(workdir / "kernels")
    return env


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class _Process:
    """A child process whose merged stdout/stderr a thread reads line by line."""

    def __init__(self, cmd: List[str], workdir: Path, ready: str) -> None:
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_child_env(workdir), cwd=str(ROOT),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.ready_line = self.read_line(ready, SPAWN_TIMEOUT_S)
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read_line(self, marker: str, timeout: float) -> str:
        """The next output line containing ``marker``; raises on exit or timeout."""
        deadline = time.monotonic() + timeout
        seen: List[str] = []
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            if marker in line:
                return line
            seen.append(line)
        raise RuntimeError(
            f"{self.proc.args[1:3]} did not print {marker!r}; output:\n"
            + "".join(seen[-20:])
        )

    def stop(self, sig: Optional[int] = signal.SIGTERM) -> int:
        """Send ``sig`` (if any) and wait; SIGKILL after the drain timeout."""
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()
        return self.proc.returncode


class Daemon(_Process):
    """A ``repro serve`` process with its own journal dir and kernel cache.

    Clients must close their connections before :meth:`stop`: the SIGTERM
    drain does not finish while an idle keep-alive connection is open.
    """

    def __init__(self, workdir: Path) -> None:
        self.journal_dir = workdir / "journal"
        super().__init__(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--journal-dir", str(self.journal_dir),
             "--workers", "2", "--sweep-workers", "2"],
            workdir,
            ready="listening on",
        )
        host, port = self.ready_line.strip().rsplit("/", 1)[-1].rsplit(":", 1)
        self.address = (host, int(port))


class LibChild(_Process):
    """``libchild.py``: the library process of the ``optimum_1e5`` workload.

    It prints its ready line after its first call; a ``timed`` child then
    runs the timed phase and prints one result line.  Both exit by
    themselves, so :meth:`stop` only waits.
    """

    def __init__(self, workdir: Path, seed: int, seconds: float, timed: bool) -> None:
        super().__init__(
            [sys.executable, str(HERE / "libchild.py"), "--seed", str(seed),
             "--seconds", str(seconds)] + (["--timed"] if timed else []),
            workdir,
            ready='{"ready"',
        )

    def result(self, timeout: float) -> Dict[str, Any]:
        try:
            return json.loads(self.read_line('{"result"', timeout))["result"]
        finally:
            code = self.stop()
            if code != 0:
                raise RuntimeError(f"library child exited with {code}")

    def stop(self, sig: Optional[int] = None) -> int:
        return super().stop(sig)


def cold_starts(tmp: Path, start: Callable[[Path, bool], Any], first_op: Callable[[Any], None]):
    """:data:`COLD_STARTS` cold starts; ``(perf_counter spans, the last process)``.

    Each start gets a fresh work dir and an empty kernel cache and is timed
    from spawn until its first op succeeds.  The last process stays up and
    runs the timed phase, with its kernel cache now warm.
    """
    spans = []
    for i in range(COLD_STARTS):
        last = i == COLD_STARTS - 1
        t0 = time.perf_counter()
        process = start(tmp / f"start{i}", last)
        try:
            first_op(process)
        except BaseException:
            process.stop()
            raise
        spans.append((t0, time.perf_counter()))
        if not last:
            process.stop()
    return spans, process


@dataclass
class RunResult:
    """One timed run: cold starts, the timed phase, the host's speed, checks."""

    setup: List[Tuple[float, float]]  # perf_counter span of each cold start
    phase: Phase
    failed: int
    messages: List[str]
    rss_mb: float
    setup_probe: SpeedProbe
    phase_probe: SpeedProbe

    def setup_s(self) -> List[float]:
        """Each cold start's seconds on the reference host."""
        return [
            (t1 - t0) / slowdown
            for (t0, t1), slowdown in zip(self.setup, self.setup_probe.slowdowns(self.setup))
        ]


def _first_request(send_op: Callable[[HttpClient], None]) -> Callable[[Daemon], None]:
    def first(daemon: Daemon) -> None:
        client = HttpClient(daemon.address)
        try:
            send_op(client)
        finally:
            client.close()

    return first


def timed_certify(workload: str, sizes: Sizes, seed: int, seconds: float, tmp: Path) -> RunResult:
    probe = probe_op(sizes, seed)

    def send_probe(client: HttpClient) -> None:
        status, body = client.send(probe.method, probe.path, probe.body)
        if status != 200 or json.loads(body).get("kind") != "feasible":
            raise RuntimeError(f"cold-start certify failed: HTTP {status}")

    with one_cpu(), ProbeThread() as speed:
        setup, daemon = cold_starts(
            tmp, lambda workdir, last: Daemon(workdir), _first_request(send_probe)
        )
        try:
            client = HttpClient(daemon.address)
            try:
                phase = run_ops(client, certify_ops(workload, sizes, seed), seconds)
            finally:
                client.close()
            rss = peak_rss_mb(daemon.proc.pid)
        finally:
            code = daemon.stop()
    failed, messages = check_certify_records(phase.records)
    return _result(setup, phase, failed, messages, rss, code, speed)


def timed_sweep(sizes: Sizes, seed: int, seconds: float, tmp: Path) -> RunResult:
    probe = probe_sweep_spec(sizes, seed)
    with ProbeThread() as speed:
        setup, daemon = cold_starts(
            tmp,
            lambda workdir, last: Daemon(workdir),
            _first_request(lambda client: complete_sweep(client, probe, poll=SETUP_POLL_S)),
        )
        try:
            client = HttpClient(daemon.address)
            try:
                phase = run_sweeps(client, sweep_specs(sizes, seed), seconds, daemon.journal_dir)
            finally:
                client.close()
            rss = peak_rss_mb(daemon.proc.pid)
        finally:
            code = daemon.stop()
    failed, messages = check_sweep_records(phase.records, seed)
    return _result(setup, phase, failed, messages, rss, code, speed)


def timed_optimum(sizes: Sizes, seed: int, seconds: float, tmp: Path) -> RunResult:
    with one_cpu():
        with ProbeThread() as speed:
            setup, child = cold_starts(
                tmp,
                lambda workdir, last: LibChild(workdir, seed, seconds, timed=last),
                lambda child: None,  # the child's first call precedes its ready line
            )
        # The child samples the host's speed on its own thread (ProbeSignal).
        out = child.result(timeout=3 * seconds + 60)
    phase = Phase(
        latencies=out["latencies"], done=out["done"],
        spans=[tuple(span) for span in out["spans"]],
        attempted=out["attempted"], busy_s=out["busy_s"],
    )
    child_probe = ProbeSignal(out["probe_starts"], out["probe_costs"])
    return RunResult(
        setup, phase, out["failed"], out["messages"], out["rss_mb"], speed, child_probe
    )


def _result(
    setup, phase: Phase, failed: int, messages: List[str], rss: float, code: int,
    speed: SpeedProbe,
) -> RunResult:
    messages = phase.errors + messages
    if code != 0:
        messages.append(f"daemon exited with {code}")
    return RunResult(setup, phase, failed + len(phase.errors), messages, rss, speed, speed)


def timed_run(workload: str, seed: int, seconds: float, tmp: Path, sizes: Sizes = FULL) -> RunResult:
    if workload in CERTIFY:
        return timed_certify(workload, sizes, seed, seconds, tmp)
    if workload == "sweep_ratio":
        return timed_sweep(sizes, seed, seconds, tmp)
    return timed_optimum(sizes, seed, seconds, tmp)
