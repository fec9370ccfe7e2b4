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
* **Serial fast path.**  ``n_jobs=1`` executes the same chunk loop inline:
  no pool is spawned, no pickling happens, ambient obs sinks see the raw
  event stream exactly as before this module existed.
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
* **Graceful degradation.**  A worker that dies mid-chunk (OOM-killed,
  segfault) breaks the pool; the runner walks a ladder — pool → fresh pool
  per *group* → fresh pool per *item* → in-process serial — re-running the
  unresolved work at each rung until exactly the crasher is blamed with a
  ``"crashed"``/:class:`WorkerCrash` record.  Each transition is logged as
  a ``runner.degraded`` obs event; a sweep always terminates with a
  complete report, never silently dropping an item.
* **Durability.**  With ``journal=`` every completed item is appended to a
  checksummed JSONL journal (:mod:`repro.runner.journal`) as it lands;
  ``resume=True`` restores settled groups from the journal and executes
  only the rest.  ``KeyboardInterrupt`` cancels outstanding work, fsyncs
  the journal, and returns the partial report with remaining items marked
  ``"cancelled"`` — a Ctrl-C'd sweep is always resumable.
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
from .plan import SweepPlan, SweepShard, WorkItem, chunk_items
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

    Opt-in (``run_sweep(progress=...)``): each emission goes to the ambient
    obs stream as a ``runner.progress`` event and to the callback, rate-
    limited to one per ``interval`` seconds plus a forced final sample —
    so even an instant sweep reports once.
    """

    def __init__(
        self,
        total: int,
        resumed: int,
        callback: Optional[Callable[[SweepProgress], None]],
        interval: float,
    ) -> None:
        self._total = total
        self._resumed = resumed
        self._callback = callback
        self._interval = interval
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
            and now - self._last_emit < self._interval
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
        if self._callback is not None:
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
    shard: Optional[Tuple[int, int]] = None  # (k, n) when a SweepShard ran

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

    This is the single execution path for the serial loop, the pool
    workers, and every degradation rung — which is precisely why their
    counter totals agree.  The chunk materializes each instance group once;
    all items of the group share its warm
    :class:`~repro.offline.feascache.FeasibilityCache`.  ``on_row`` (serial
    path only) streams each row the moment it finishes, which is what makes
    an interrupted chunk's completed items durable in the journal.
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


def _isolated_retry(
    chunk: Sequence[WorkItem],
    mp_context,
    policy: ExecPolicy,
    degradations: List[Tuple[str, str]],
) -> Dict[int, _Row]:
    """Degradation rungs below a broken pool; see the module docstring.

    First each *group* of the dead chunk is re-run whole in a fresh
    single-worker pool (``base_attempt=2``): innocent groups — and groups
    whose injected crash struck attempt 1 — recover with the exact warm-
    cache counter pattern of a clean run.  A group whose fresh pool breaks
    again holds a genuine crasher: its items re-run one per pool
    (``base_attempt=3``) so exactly the killer is blamed and its mates
    still recover.  If pools cannot be created at all (fork failure), the
    remaining work runs in-process — with ``sigkill`` faults demoted, since
    an in-process SIGKILL would take the parent down.
    """
    rows: Dict[int, _Row] = {}
    serial = False

    def run_serial(items: Sequence[WorkItem], base_attempt: int) -> None:
        for row in _execute_chunk(items, policy.without_kills(), base_attempt):
            rows[row[0]] = row

    def run_pooled(
        items: Sequence[WorkItem], base_attempt: int
    ) -> Optional[List[_Row]]:
        """One fresh single-worker pool; None means the pool broke."""
        nonlocal serial
        pool = None
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=mp_context, initializer=_init_worker
            )
            return pool.submit(_execute_chunk, items, policy, base_attempt).result()
        except BrokenProcessPool:
            return None
        except OSError:
            # Couldn't even stand a pool up (fork/resource exhaustion):
            # last rung — run the rest of the ladder in-process.
            degradations.append(("isolated", "serial"))
            serial = True
            run_serial(items, base_attempt)
            return list()  # handled; nothing further to do for these items
        finally:
            if pool is not None:
                pool.shutdown(wait=False)

    for group in chunk_items(chunk, 1):  # chunksize=1 splits at group bounds
        if serial:
            run_serial(group, 2)
            continue
        group_rows = run_pooled(group, base_attempt=2)
        if group_rows is None:
            # The group still kills its worker: isolate item by item.
            for item in group:
                if serial:
                    run_serial((item,), 3)
                    continue
                item_rows = run_pooled((item,), base_attempt=3)
                if item_rows is None:
                    rows[item.index] = _crash_row(item, attempts=3)
                else:
                    for row in item_rows:
                        rows[row[0]] = row
        else:
            for row in group_rows:
                rows[row[0]] = row
    return rows


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
    plan: Union[SweepPlan, SweepShard],
    n_jobs: int = 1,
    chunksize: int = 1,
    on_result: Optional[Callable[[ItemResult], None]] = None,
    item_timeout: Optional[float] = None,
    retry: Union[RetryPolicy, int, None] = None,
    faults: Optional[FaultPlan] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    progress: Union[bool, Callable[[SweepProgress], None], None] = None,
    progress_interval: float = 1.0,
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

    ``plan`` may also be a :class:`~repro.runner.plan.SweepShard` from
    :meth:`SweepPlan.shard(k, n) <repro.runner.plan.SweepPlan.shard>`:
    the run executes just that shard's items (keeping their parent-plan
    indices, so ``faults`` and journals speak parent-global indices) and
    stamps the shard identity into the journal header for
    :func:`~repro.runner.merge.merge_journals`.

    ``progress`` opts into live telemetry: ``True`` emits periodic
    ``runner.progress`` obs events (ambient sinks only, at most one per
    ``progress_interval`` seconds plus a final sample); a callable is
    additionally invoked with each :class:`SweepProgress` sample — the
    hook behind the ``repro sweep --progress`` ticker.  Progress never
    touches the merged report registry, so enabling it cannot perturb the
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
    tracker: Optional[_ProgressTracker] = None

    results_by_index: Dict[int, ItemResult] = {}
    snapshots_by_index: Dict[int, Dict[str, Any]] = {}

    # -- journal: restore settled groups, open for append --------------------
    # A SweepShard carries its parent identity; an unsharded plan journals
    # as shard (0, 1) of itself.  Stamping both into the header is what
    # lets merge_journals() and shard-aware resume validate without the
    # original plan object in hand.
    shard_id: Tuple[int, int] = getattr(plan, "shard_id", (0, 1))
    parent_items: int = getattr(plan, "plan_items", len(plan))
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
            journal_obj = Journal.append_to(journal, fingerprint, shard=shard_id)
        else:
            journal_obj = Journal.create(
                journal,
                fingerprint,
                len(plan),
                shard=shard_id,
                plan_items=parent_items,
            )

    def record_row(row: _Row) -> None:
        """Make one finished row durable the moment the parent learns it."""
        if journal_obj is None:
            return
        index = row[0]
        corrupt = faults is not None and faults.should("corrupt", index, 1)
        journal_obj.append_item(
            index=index,
            task=items_by_index[index].task,
            status=row[1],
            value=row[2],
            error=row[3],
            attempts=row[4],
            snapshot=row[5],
            corrupt=corrupt,
        )

    def absorb(rows: Sequence[_Row]) -> List[ItemResult]:
        out = []
        for index, status, value, error, attempts, snapshot in rows:
            item = items_by_index[index]
            result = ItemResult(
                index, item.task, item.group, status, value, error, attempts
            )
            results_by_index[index] = result
            snapshots_by_index[index] = snapshot
            out.append(result)
        if tracker is not None and out:
            tracker.tick(results_by_index)
        return out

    for index, rec in resumed_records.items():
        item = items_by_index[index]
        results_by_index[index] = ItemResult(
            index, item.task, item.group, rec.status,
            rec.value, rec.error, rec.attempts,
        )
        snapshots_by_index[index] = rec.snapshot

    pending = [item for item in plan if item.index not in resumed_records]
    chunks = chunk_items(pending, chunksize) if pending else []
    n_worker_crashes = 0

    if progress:
        tracker = _ProgressTracker(
            total=len(plan),
            resumed=len(resumed_records),
            callback=progress if callable(progress) else None,
            interval=progress_interval,
        )

    # -- execution ------------------------------------------------------------
    try:
        if n_jobs == 1:
            for ci, chunk in enumerate(chunks):
                streamed: List[_Row] = []

                def on_row(row: _Row, _acc: List[_Row] = streamed) -> None:
                    _acc.append(row)
                    record_row(row)

                try:
                    rows = _execute_chunk(chunk, policy, on_row=on_row)
                except KeyboardInterrupt:
                    # Completed items of the cut-short chunk are already
                    # journaled and kept; the rest become "cancelled".
                    interrupted = True
                    absorb(streamed)
                    break
                stream.chunk_done(ci, absorb(rows))
        else:
            mp_context = _default_context()
            broken_chunks: List[int] = []
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=n_jobs,
                    mp_context=mp_context,
                    initializer=_init_worker,
                )
            except OSError:
                # Can't stand up a pool at all: degrade straight to serial.
                degradations.append(("pool", "serial"))
                serial_policy = policy.without_kills()
                for ci, chunk in enumerate(chunks):
                    try:
                        rows = _execute_chunk(chunk, serial_policy, on_row=record_row)
                    except KeyboardInterrupt:
                        interrupted = True
                        break
                    stream.chunk_done(ci, absorb(rows))
                pool = None
            if pool is not None:
                try:
                    futures = {
                        pool.submit(_execute_chunk, chunk, policy): ci
                        for ci, chunk in enumerate(chunks)
                    }
                    try:
                        for future in concurrent.futures.as_completed(futures):
                            ci = futures[future]
                            try:
                                rows = future.result()
                            except BrokenProcessPool:
                                broken_chunks.append(ci)
                                continue
                            except concurrent.futures.CancelledError:
                                continue
                            for row in rows:
                                record_row(row)
                            stream.chunk_done(ci, absorb(rows))
                    except KeyboardInterrupt:
                        # Report partial results instead of hanging on the join.
                        interrupted = True
                        pool.shutdown(wait=False, cancel_futures=True)
                finally:
                    if not interrupted:
                        pool.shutdown(wait=True)
                if broken_chunks and not interrupted:
                    # The pool died under these chunks: walk the degradation
                    # ladder so exactly the killers are blamed and every
                    # innocent item recovers its clean-run outcome.
                    degradations.append(("pool", "isolated"))
                    for ci in sorted(broken_chunks):
                        rows_by_index = _isolated_retry(
                            chunks[ci], mp_context, policy, degradations
                        )
                        ordered_rows = [
                            rows_by_index[i] for i in sorted(rows_by_index)
                        ]
                        for row in ordered_rows:
                            record_row(row)
                        absorb(ordered_rows)
                        n_worker_crashes += 1
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
        ("runner.worker_crashes", n_worker_crashes),
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
        shard=shard_id if shard_id != (0, 1) else None,
    )
