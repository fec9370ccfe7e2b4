"""Chunked, deterministic, crash-only process-pool execution of sweep plans.

:func:`run_sweep` fans a :class:`~repro.runner.plan.SweepPlan` out across
``n_jobs`` worker processes and merges everything back into a single
:class:`SweepReport`.  The contract:

* **Bit-identical results.**  ``run_sweep(plan, n_jobs=k)`` returns the
  same results in the same order with the same merged counter totals for
  every ``k`` and every chunking.  Work is cut into group-preserving chunks
  up front (a function of the plan and ``chunksize`` only), every item
  attempt runs under its own :func:`repro.obs.capture`, and only the
  *successful* attempt's snapshot is kept — merged in plan order — so
  faults, retries, and resumes cannot shift a single task-level counter.
* **One execution path.**  Every process pool — the shared one and each
  ladder rung below — is started and run by :func:`_run_pool`; every
  in-process execution — ``n_jobs=1``, and the rungs where no pool starts —
  by :func:`_run_inline`.  Both hand each finished row to the same landing
  step, which journals and records it.  ``n_jobs=1`` spawns no pool and
  pickles nothing, and ambient obs sinks see its raw event stream.
* **Warm caches.**  A chunk materializes each instance group once, so every
  item of the group shares the instance's
  :class:`~repro.offline.feascache.FeasibilityCache` (verdict memo + warm
  flow networks) inside its worker.
* **Failure containment.**  Transient failures (injected faults, item
  deadlines, ``OSError``) are retried up to the
  :class:`~repro.runner.faults.RetryPolicy` budget; exhausted items are
  quarantined as ``"failed"`` records.  Deterministic task exceptions
  become ``"error"`` records immediately (retrying cannot change them).
  Either way the sweep continues.
* **Graceful degradation.**  A pool starts at its first ``submit``: under
  the fork start method that is where CPython forks the workers.  A start
  that fails (``OSError``, e.g. ``EAGAIN`` from ``fork``) kills any worker
  it had forked and runs the work in-process instead (pool → serial, with
  ``sigkill`` faults demoted).  A worker that dies mid-chunk (OOM-killed,
  segfault), or while chunks are still being submitted, breaks the pool;
  the runner walks a ladder — fresh pool per *group* → fresh pool per
  *item* → in-process once no pool starts — re-running the unresolved work
  at each rung until exactly the crasher is blamed with a
  ``"crashed"``/:class:`WorkerCrash` record.  Each transition is logged as
  a ``runner.degraded`` obs event; a sweep always terminates with a
  complete report, never silently dropping an item.
* **Durability.**  With ``journal=`` every completed item is appended to a
  checksummed JSONL journal (:mod:`repro.runner.journal`) as it lands, on
  every path and rung; ``resume=True`` restores settled groups from the
  journal and executes only the rest.  A ``KeyboardInterrupt`` anywhere
  cancels outstanding work, fsyncs the journal, and returns the partial
  report: finished items kept, the rest marked ``"cancelled"`` — a
  Ctrl-C'd sweep is always resumable.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..obs import core as _obs
from ..obs.sinks import Registry, jsonable
from .faults import FaultPlan, ItemTimeout, RetryPolicy, time_limit
from .journal import Journal, JournalError, JournalRecord, read_journal
from .merge import merge_snapshot_into, replay_into_ambient
from .plan import SweepPlan, WorkItem, chunk_items
from .tasks import TASKS

__all__ = [
    "ExecPolicy",
    "ItemResult",
    "SweepProgress",
    "SweepReport",
    "WorkerCrash",
    "run_sweep",
]

#: (index, status, value, error, attempts, snapshot) — the wire format an
#: executed item ships back.  The snapshot is the successful attempt's obs
#: registry dump ({} for quarantined items: their attempts left no trace).
_Row = Tuple[int, str, Any, Optional[str], int, Dict[str, Any]]

#: Seconds between two live progress samples (plus a forced final one).
PROGRESS_INTERVAL = 0.2


class WorkerCrash(RuntimeError):
    """A worker process died while executing an item (e.g. OOM-killed)."""


@dataclass(frozen=True)
class ExecPolicy:
    """Per-item execution policy shipped to the workers (picklable).

    ``deadline`` is the per-item time budget in seconds (``None`` = no
    limit); ``retry`` bounds transient retries; ``faults`` is an optional
    chaos :class:`~repro.runner.faults.FaultPlan` consulted before each
    attempt.
    """

    deadline: Optional[float] = None
    retry: RetryPolicy = RetryPolicy()
    faults: Optional[FaultPlan] = None

    def without_kills(self) -> "ExecPolicy":
        if self.faults is None:
            return self
        return dataclasses.replace(self, faults=self.faults.without_kills())


@dataclass(frozen=True)
class ItemResult:
    """Outcome of one work item; exactly one per plan item, in plan order."""

    index: int
    task: str
    group: str
    status: str  # "ok" | "error" | "failed" | "crashed" | "cancelled"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class SweepProgress:
    """One live progress sample of a running sweep.

    Delivered to the ``progress`` callback of :func:`run_sweep` and
    emitted as a ``runner.progress`` obs event (ambient sinks only — the
    sample cadence is wall-clock-dependent, so progress never enters the
    merged report registry and cannot disturb its determinism).
    """

    total: int
    done: int  # settled this run or restored from the journal
    ok: int
    errors: int
    failed: int  # quarantined (retry budget exhausted)
    crashed: int
    retried: int  # extra attempts beyond the first, summed over items
    resumed: int
    elapsed_seconds: float
    rate: Optional[float]  # items/second executed this run, None until known
    eta_seconds: Optional[float]  # None until the rate is known

    @property
    def remaining(self) -> int:
        return self.total - self.done

    def render(self) -> str:
        """The single-line ticker ``repro sweep --progress`` prints."""
        parts = [f"{self.done}/{self.total}", f"ok={self.ok}"]
        for label, count in (
            ("err", self.errors),
            ("failed", self.failed),
            ("crashed", self.crashed),
            ("retried", self.retried),
            ("resumed", self.resumed),
        ):
            if count:
                parts.append(f"{label}={count}")
        if self.rate is not None:
            parts.append(f"{self.rate:.1f} it/s")
        if self.eta_seconds is not None:
            parts.append(f"eta {self.eta_seconds:.0f}s")
        return "[sweep] " + " ".join(parts)


class _ProgressTracker:
    """Samples sweep state into :class:`SweepProgress` at a bounded cadence.

    Opt-in (``run_sweep(progress=callback)``): each emission goes to the
    ambient obs stream as a ``runner.progress`` event and to the callback,
    rate-limited to one per :data:`PROGRESS_INTERVAL` seconds plus a forced
    final sample — so even an instant sweep reports once.
    """

    def __init__(
        self,
        total: int,
        resumed: int,
        callback: Callable[[SweepProgress], None],
    ) -> None:
        self._total = total
        self._resumed = resumed
        self._callback = callback
        self._t0 = time.perf_counter()
        self._last_emit: Optional[float] = None

    def sample(self, results: Dict[int, ItemResult]) -> SweepProgress:
        counts = {"ok": 0, "error": 0, "failed": 0, "crashed": 0}
        retried = 0
        for result in results.values():
            if result.status in counts:
                counts[result.status] += 1
            retried += max(0, result.attempts - 1)
        done = len(results)
        elapsed = time.perf_counter() - self._t0
        executed = done - self._resumed
        rate = executed / elapsed if executed > 0 and elapsed > 0 else None
        eta = (self._total - done) / rate if rate else None
        return SweepProgress(
            total=self._total,
            done=done,
            ok=counts["ok"],
            errors=counts["error"],
            failed=counts["failed"],
            crashed=counts["crashed"],
            retried=retried,
            resumed=self._resumed,
            elapsed_seconds=elapsed,
            rate=rate,
            eta_seconds=eta,
        )

    def tick(self, results: Dict[int, ItemResult], force: bool = False) -> None:
        now = time.perf_counter()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < PROGRESS_INTERVAL
        ):
            return
        self._last_emit = now
        progress = self.sample(results)
        _obs.event(
            "runner.progress",
            done=progress.done,
            total=progress.total,
            ok=progress.ok,
            errors=progress.errors,
            failed=progress.failed,
            crashed=progress.crashed,
            retried=progress.retried,
            resumed=progress.resumed,
            rate=None if progress.rate is None else round(progress.rate, 3),
            eta_s=(
                None
                if progress.eta_seconds is None
                else round(progress.eta_seconds, 1)
            ),
        )
        self._callback(progress)


@dataclass
class SweepReport:
    """Merged outcome of a sweep: per-item results + one obs registry."""

    results: Tuple[ItemResult, ...]
    registry: Registry
    n_jobs: int
    n_chunks: int
    chunksize: int
    wall_seconds: float
    interrupted: bool = False
    resumed: int = 0  # items restored from the journal instead of re-run
    shard: Optional[Tuple[int, int]] = None  # (k, n) when a shard ran

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def values(self) -> List[Any]:
        """Values of successful items, in plan order."""
        return [r.value for r in self.results if r.ok]

    @property
    def errors(self) -> List[ItemResult]:
        return [r for r in self.results if r.status == "error"]

    @property
    def failed(self) -> List[ItemResult]:
        return [r for r in self.results if r.status == "failed"]

    @property
    def crashes(self) -> List[ItemResult]:
        return [r for r in self.results if r.status == "crashed"]

    @property
    def cancelled(self) -> List[ItemResult]:
        return [r for r in self.results if r.status == "cancelled"]

    def summary(self) -> str:
        n_ok = sum(1 for r in self.results if r.ok)
        parts = [f"sweep: {n_ok}/{len(self.results)} items ok"]
        if self.shard is not None:
            parts[0] = (
                f"sweep (shard {self.shard[0]}/{self.shard[1]}): "
                f"{n_ok}/{len(self.results)} items ok"
            )
        for label, items in (
            ("errors", self.errors),
            ("failed", self.failed),
            ("crashed", self.crashes),
            ("cancelled", self.cancelled),
        ):
            if items:
                parts.append(f"{len(items)} {label}")
        if self.resumed:
            parts.append(f"{self.resumed} resumed from journal")
        if self.n_jobs == 0:
            parts.append(f"merged from {self.n_chunks} shard journal(s)")
        else:
            parts.append(
                f"{self.n_chunks} chunks on {self.n_jobs} worker(s) "
                f"in {self.wall_seconds:.2f}s"
            )
        item_ns = self.registry.hists.get("runner.item_ns")
        if item_ns is not None and item_ns.count:
            row = item_ns.quantile_row()
            parts.append(
                "item latency p50={:.1f}ms p90={:.1f}ms p99={:.1f}ms "
                "max={:.1f}ms".format(
                    row["p50"] / 1e6,
                    row["p90"] / 1e6,
                    row["p99"] / 1e6,
                    row["max"] / 1e6,
                )
            )
        return ", ".join(parts)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: per-item results + the merged registry snapshot."""
        return {
            "n_jobs": self.n_jobs,
            "n_chunks": self.n_chunks,
            "chunksize": self.chunksize,
            "wall_seconds": self.wall_seconds,
            "interrupted": self.interrupted,
            "resumed": self.resumed,
            "shard": list(self.shard) if self.shard is not None else None,
            "results": [
                {
                    "index": r.index,
                    "task": r.task,
                    "status": r.status,
                    "value": jsonable(r.value),
                    "attempts": r.attempts,
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.results
            ],
            **self.registry.snapshot(),
        }


def _init_worker() -> None:
    """Worker initialization: start from a clean observability state.

    Under the fork start method the child inherits the parent's attached
    sinks — including open ``--trace`` file descriptors, which concurrent
    workers would interleave garbage into.  Workers report exclusively
    through their row snapshots, so all inherited sinks are dropped —
    both the global list and any context-local capture the forking thread
    had open (fork copies that thread's contextvars into the child's main
    thread, e.g. when a serve daemon's drained request capture forks a
    sweep pool).
    """
    _obs._sinks.clear()
    _obs._local_sinks.set(())
    with _obs._local_lock:
        _obs._n_local = 0


def _run_item(
    item: WorkItem,
    instances: Dict[str, Any],
    policy: ExecPolicy,
    base_attempt: int,
) -> _Row:
    """Execute one item under the policy; returns its finished row.

    Each attempt runs under a fresh :func:`repro.obs.capture`; a failed
    attempt's snapshot is *discarded* so retried items contribute exactly
    one attempt's worth of counters — the same as a fault-free run.
    Injected faults fire before any task work (inside the deadline scope),
    so a struck attempt leaves no trace at all.

    Latency telemetry rides in the successful attempt's snapshot as
    ``runner.*`` histograms (``runner.item_ns`` per-item wall time;
    ``runner.retry_ns``/``runner.timeout_ns`` for the attempts that were
    retried away) — stripped by ``canonical_report_view`` like every other
    ``runner.*`` name, so clean and chaos runs still compare equal.
    """
    from .. import obs

    attempt = base_attempt
    lost_attempts: List[Tuple[str, int]] = []  # (hist name, wasted ns)
    while True:
        with obs.capture() as registry:
            t_attempt = time.perf_counter_ns()
            try:
                with time_limit(
                    policy.deadline, label=f"item {item.index} ({item.task})"
                ):
                    if policy.faults is not None:
                        policy.faults.fire(item.index, attempt, policy.deadline)
                    instance = item.materialize(instances)
                    value = TASKS[item.task](instance, **item.kwargs)
                obs.observe("runner.item_ns", time.perf_counter_ns() - t_attempt)
                for hist_name, wasted_ns in lost_attempts:
                    obs.observe(hist_name, wasted_ns)
                return (item.index, "ok", value, None, attempt, registry.snapshot())
            except Exception as exc:  # noqa: BLE001 — contained per item
                wasted_ns = time.perf_counter_ns() - t_attempt
                detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
                transient = policy.retry.is_transient(exc)
                timed_out = isinstance(exc, ItemTimeout)
        if transient and (attempt - base_attempt) < policy.retry.max_retries:
            lost_attempts.append((
                "runner.timeout_ns" if timed_out else "runner.retry_ns",
                wasted_ns,
            ))
            attempt += 1
            continue
        status = "failed" if transient else "error"
        return (item.index, status, None, detail, attempt, {})


def _execute_chunk(
    items: Sequence[WorkItem],
    policy: Optional[ExecPolicy] = None,
    base_attempt: int = 1,
    on_row: Optional[Callable[[_Row], None]] = None,
) -> List[_Row]:
    """Run one chunk; returns finished rows in item order.

    This is the single item executor for the in-process loop, the pool
    workers, and every degradation rung — which is precisely why their
    counter totals agree.  The chunk materializes each instance group once;
    all items of the group share its warm
    :class:`~repro.offline.feascache.FeasibilityCache`.  ``on_row`` (the
    in-process loop only) streams each row the moment it finishes, which is
    what makes an interrupted chunk's completed items durable in the
    journal.
    """
    if policy is None:
        policy = ExecPolicy()
    rows: List[_Row] = []
    instances: Dict[str, Any] = {}
    for item in items:
        row = _run_item(item, instances, policy, base_attempt)
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows


def _default_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _crash_row(item: WorkItem, attempts: int) -> _Row:
    return (
        item.index,
        "crashed",
        None,
        f"WorkerCrash: worker process died while running item "
        f"{item.index} ({item.task})",
        attempts,
        {},
    )


def _run_pool(
    chunks: Sequence[Sequence[WorkItem]],
    workers: int,
    mp_context,
    policy: ExecPolicy,
    base_attempt: int,
    on_chunk: Callable[[int, List[_Row]], None],
) -> Optional[List[int]]:
    """Run ``chunks`` on one fresh pool of ``workers`` processes.

    Each finished chunk's rows go to ``on_chunk(ci, rows)`` as it lands.
    Returns the indices of the chunks the pool died under — a worker death
    mid-chunk, or during submission (that chunk and every later one) — or
    ``None`` when the pool could not start.  The start is the constructor
    *and* the submits: under the fork start method CPython forks the
    workers inside the first ``submit``.  A start that fails after forking
    some workers kills them, so none outlives the failure.
    """
    pool = None
    futures: Dict[concurrent.futures.Future, int] = {}
    broken: List[int] = []
    finished = False
    try:
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=mp_context, initializer=_init_worker
            )
            for ci, chunk in enumerate(chunks):
                try:
                    future = pool.submit(_execute_chunk, chunk, policy, base_attempt)
                except BrokenProcessPool:
                    broken.extend(range(ci, len(chunks)))
                    break
                futures[future] = ci
        except OSError:
            # The manager thread that would stop these workers never
            # started, and the executor has no public handle on them.
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                process.kill()
                process.join()
            return None
        for future in concurrent.futures.as_completed(futures):
            try:
                rows = future.result()
            except BrokenProcessPool:
                broken.append(futures[future])
                continue
            on_chunk(futures[future], rows)
        finished = True
        return sorted(broken)
    finally:
        if pool is not None:
            # An interrupt must not hang on the join: drop queued chunks and
            # let running workers finish on their own.
            pool.shutdown(wait=finished, cancel_futures=not finished)


def _run_inline(
    chunks: Sequence[Sequence[WorkItem]],
    policy: ExecPolicy,
    base_attempt: int,
    on_row: Callable[[_Row], Any],
    on_chunk: Optional[Callable[[int, List[_Row]], None]] = None,
) -> None:
    """Run ``chunks`` in this process: the one in-process loop.

    Each row goes to ``on_row`` the moment it finishes, so an interrupt
    keeps every finished row; each finished chunk then goes to
    ``on_chunk(ci, rows)``.
    """
    for ci, chunk in enumerate(chunks):
        rows = _execute_chunk(chunk, policy, base_attempt, on_row)
        if on_chunk is not None:
            on_chunk(ci, rows)


def _run_ladder(
    chunk: Sequence[WorkItem],
    mp_context,
    policy: ExecPolicy,
    land: Callable[[_Row], Any],
    degradations: List[Tuple[str, str]],
) -> None:
    """Degradation rungs below a broken pool; see the module docstring.

    First each *group* of the dead chunk is re-run whole in a fresh
    single-worker pool (``base_attempt=2``): innocent groups — and groups
    whose injected crash struck attempt 1 — recover with the exact warm-
    cache counter pattern of a clean run.  A group whose fresh pool breaks
    again holds a genuine crasher: its items re-run one per pool
    (``base_attempt=3``) so exactly the killer is blamed and its mates
    still recover.  Once a pool cannot start (fork failure), the remaining
    work runs in-process — with ``sigkill`` faults demoted, since an
    in-process SIGKILL would take the parent down.  Every group's or item's
    rows go to ``land`` as soon as they settle.
    """
    inline = False

    def land_rows(_ci: int, rows: List[_Row]) -> None:
        for row in rows:
            land(row)

    def rung(items: Sequence[WorkItem], base_attempt: int) -> bool:
        """Run ``items`` on their own pool (or in-process); False iff it died."""
        nonlocal inline
        if not inline:
            broken = _run_pool([items], 1, mp_context, policy, base_attempt, land_rows)
            if broken is not None:
                return not broken
            degradations.append(("isolated", "serial"))
            inline = True
        _run_inline([items], policy.without_kills(), base_attempt, land)
        return True

    for group in chunk_items(chunk, 1):  # chunksize=1 splits at group bounds
        if not rung(group, 2):
            # The group still kills its worker: isolate item by item.
            for item in group:
                if not rung((item,), 3):
                    land(_crash_row(item, attempts=3))


class _ResultStream:
    """Streams item results to ``on_result`` exactly once each, in plan order.

    Completed chunks are buffered until every earlier chunk has been
    flushed; within a chunk, items stream in plan order.  Journal-restored
    items are emitted by the final flush, in plan order.
    """

    def __init__(
        self, on_result: Optional[Callable[["ItemResult"], None]]
    ) -> None:
        self._on_result = on_result
        self._pending: Dict[int, List[ItemResult]] = {}
        self._next_chunk = 0
        self.emitted: Set[int] = set()

    def chunk_done(self, chunk_index: int, results: List[ItemResult]) -> None:
        if self._on_result is None:
            return
        self._pending[chunk_index] = results
        while self._next_chunk in self._pending:
            self._emit(self._pending.pop(self._next_chunk))
            self._next_chunk += 1

    def flush_remaining(self, results: Sequence["ItemResult"]) -> None:
        """Emit whatever never streamed (resumed/retried/cancelled), in plan order."""
        if self._on_result is None:
            return
        self._emit([r for r in results if r.index not in self.emitted])

    def _emit(self, results: List["ItemResult"]) -> None:
        for result in results:
            if result.index not in self.emitted:
                self.emitted.add(result.index)
                self._on_result(result)


def run_sweep(
    plan: SweepPlan,
    n_jobs: int = 1,
    chunksize: int = 1,
    on_result: Optional[Callable[[ItemResult], None]] = None,
    item_timeout: Optional[float] = None,
    retry: Union[RetryPolicy, int, None] = None,
    faults: Optional[FaultPlan] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> SweepReport:
    """Execute ``plan`` on ``n_jobs`` processes; see the module contract.

    ``on_result`` streams item results in plan order as chunks finish; the
    returned report carries the same results, in the same order.

    ``item_timeout`` is the per-item deadline in seconds; ``retry`` a
    :class:`~repro.runner.faults.RetryPolicy` (or an int budget of
    transient retries); ``faults`` an injected chaos plan.  ``journal``
    names a durable JSONL result journal; with ``resume=True`` an existing
    journal's settled groups are restored instead of re-run (a journal for
    a different plan — or a different shard of the same plan — raises
    :class:`~repro.runner.journal.JournalMismatch`).

    ``plan`` may be a shard from :meth:`SweepPlan.shard(k, n)
    <repro.runner.plan.SweepPlan.shard>`: the run executes just that
    shard's items (keeping their parent-plan indices, so ``faults`` and
    journals speak parent-global indices) and stamps the shard identity
    into the journal header for :func:`~repro.runner.merge.merge_journals`.

    ``progress`` is a callback for live telemetry: it is invoked with a
    :class:`SweepProgress` sample at most once per
    :data:`PROGRESS_INTERVAL` seconds plus a final sample, each also
    emitted as a ``runner.progress`` obs event (ambient sinks only) — the
    hook behind the ``repro sweep --progress`` ticker.  Progress never
    touches the merged report registry, so it cannot perturb the
    determinism contract.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if isinstance(retry, int):
        retry = RetryPolicy(max_retries=retry)
    policy = ExecPolicy(
        deadline=item_timeout, retry=retry or RetryPolicy(), faults=faults
    )
    t0 = time.perf_counter()
    items_by_index = {item.index: item for item in plan}
    interrupted = False
    stream = _ResultStream(on_result)
    degradations: List[Tuple[str, str]] = []

    results_by_index: Dict[int, ItemResult] = {}
    snapshots_by_index: Dict[int, Dict[str, Any]] = {}

    # -- journal: restore settled groups, open for append --------------------
    # The header stamps the parent fingerprint and the shard identity (a
    # whole plan is shard (0, 1) of itself): that is what lets
    # merge_journals() and shard-aware resume validate without the
    # original plan object in hand.
    journal_obj: Optional[Journal] = None
    resumed_records: Dict[int, JournalRecord] = {}
    journal_dropped = 0
    if journal is not None:
        fingerprint = plan.fingerprint()
        header = None
        if resume and os.path.exists(journal):
            try:
                header, records, journal_dropped = read_journal(journal)
            except JournalError:
                header, records = None, {}
            if header is not None:
                # Journal.append_to below re-validates the fingerprint and
                # raises JournalMismatch before any restored result is used.
                settled = {
                    idx: rec
                    for idx, rec in records.items()
                    if rec.settled
                    and idx in items_by_index
                    and items_by_index[idx].task == rec.task
                }
                members: Dict[str, List[int]] = {}
                for item in plan:
                    members.setdefault(item.group, []).append(item.index)
                whole = {
                    group
                    for group, idxs in members.items()
                    if all(i in settled for i in idxs)
                }
                resumed_records = {
                    idx: rec
                    for idx, rec in settled.items()
                    if items_by_index[idx].group in whole
                }
        if header is not None:
            journal_obj = Journal.append_to(journal, fingerprint, shard=plan.shard_id)
        else:
            journal_obj = Journal.create(
                journal,
                fingerprint,
                len(plan),
                shard=plan.shard_id,
                plan_items=plan.plan_items,
            )

    for index, rec in resumed_records.items():
        item = items_by_index[index]
        results_by_index[index] = ItemResult(
            index, item.task, item.group, rec.status,
            rec.value, rec.error, rec.attempts,
        )
        snapshots_by_index[index] = rec.snapshot

    pending = [item for item in plan if item.index not in resumed_records]
    chunks = chunk_items(pending, chunksize) if pending else []
    tracker = (
        _ProgressTracker(len(plan), len(resumed_records), progress)
        if progress is not None
        else None
    )

    def land(row: _Row) -> ItemResult:
        """Make one finished row durable and recorded the moment it lands."""
        index, status, value, error, attempts, snapshot = row
        item = items_by_index[index]
        if journal_obj is not None:
            journal_obj.append_item(
                index=index,
                task=item.task,
                status=status,
                value=value,
                error=error,
                attempts=attempts,
                snapshot=snapshot,
                corrupt=faults is not None and faults.should("corrupt", index, 1),
            )
        result = ItemResult(index, item.task, item.group, status, value, error, attempts)
        results_by_index[index] = result
        snapshots_by_index[index] = snapshot
        if tracker is not None:
            tracker.tick(results_by_index)
        return result

    def land_chunk(ci: int, rows: List[_Row]) -> None:
        stream.chunk_done(ci, [land(row) for row in rows])

    def stream_chunk(ci: int, rows: List[_Row]) -> None:
        stream.chunk_done(ci, [results_by_index[row[0]] for row in rows])

    # -- execution: one pool runner, one in-process loop ---------------------
    broken: Optional[List[int]] = None
    try:
        if n_jobs > 1:
            mp_context = _default_context()
            broken = _run_pool(chunks, n_jobs, mp_context, policy, 1, land_chunk)
            if broken is None:
                degradations.append(("pool", "serial"))
        if broken is None:
            inline_policy = policy if n_jobs == 1 else policy.without_kills()
            _run_inline(chunks, inline_policy, 1, land, stream_chunk)
        elif broken:
            # The pool died under these chunks: walk the degradation ladder
            # so exactly the killers are blamed and every innocent item
            # recovers its clean-run outcome.
            degradations.append(("pool", "isolated"))
            for ci in broken:
                _run_ladder(chunks[ci], mp_context, policy, land, degradations)
    except KeyboardInterrupt:
        # Every finished row already landed; the rest become "cancelled".
        interrupted = True
    finally:
        if journal_obj is not None:
            journal_obj.close()  # flush + fsync: interrupted runs resume too

    # -- deterministic assembly (plan order throughout) -----------------------
    results: List[ItemResult] = []
    for item in plan:
        result = results_by_index.get(item.index)
        if result is None:
            result = ItemResult(
                item.index, item.task, item.group, "cancelled",
                None, "sweep interrupted",
            )
        results.append(result)

    registry = Registry()
    for item in plan:
        snapshot = snapshots_by_index.get(item.index)
        if snapshot:
            merge_snapshot_into(registry, snapshot)

    n_errors = sum(1 for r in results if r.status == "error")
    n_failed = sum(1 for r in results if r.status == "failed")
    n_crashed = sum(1 for r in results if r.status == "crashed")
    n_cancelled = sum(1 for r in results if r.status == "cancelled")
    n_retries = sum(
        r.attempts - 1
        for r in results
        if r.index not in resumed_records and r.status != "cancelled"
    )
    bookkeeping = [
        ("runner.items", len(plan.items)),
        ("runner.chunks", len(chunks)),
        ("runner.errors", n_errors),
        ("runner.task_errors", n_errors),
        ("runner.failed", n_failed),
        ("runner.crashes", n_crashed),
        ("runner.cancelled", n_cancelled),
        ("runner.retries", n_retries),
        ("runner.worker_crashes", len(broken or ())),
        ("runner.resumed", len(resumed_records)),
        ("runner.journal_dropped", journal_dropped),
    ]
    for name, count in bookkeeping:
        if count:
            registry.on_counter(name, count, {})
    for source, target in degradations:
        registry.on_event("runner.degraded", {"from": source, "to": target}, "")

    if n_jobs != 1:
        # Ambient sinks saw none of the workers' streams: replay the merged
        # totals so `repro stats`/`--trace` see serial-identical totals.
        replay_into_ambient(registry.snapshot())
    else:
        # Serial: the raw stream already reached ambient sinks; replay only
        # what this run did not execute (journal-restored items) and top up
        # the runner's own bookkeeping so both paths report it identically.
        if resumed_records and _obs.enabled():
            restored = Registry()
            for index in sorted(resumed_records):
                if snapshots_by_index.get(index):
                    merge_snapshot_into(restored, snapshots_by_index[index])
            replay_into_ambient(restored.snapshot())
        for name, count in bookkeeping:
            if count:
                _obs.incr(name, count)

    if tracker is not None:
        tracker.tick(results_by_index, force=True)

    stream.flush_remaining(results)

    return SweepReport(
        results=tuple(results),
        registry=registry,
        n_jobs=n_jobs,
        n_chunks=len(chunks),
        chunksize=chunksize,
        wall_seconds=time.perf_counter() - t0,
        interrupted=interrupted,
        resumed=len(resumed_records),
        shard=plan.shard_id if plan.shard_id != (0, 1) else None,
    )
