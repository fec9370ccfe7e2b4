"""Durable sweep queue: journaled before acknowledged, resumed on restart.

The queue is the crash-only core of the daemon.  Its invariant is the
acknowledgement rule from :mod:`repro.runner.journal`'s durability
contract: **whatever is acknowledged is durable, whatever is not durable
was never acknowledged.**  Concretely, ``submit`` writes the normalized
sweep spec to ``<id>.spec.json`` (atomic tmp-write → fsync → rename →
parent-directory fsync) *before* returning the 202 — so a daemon killed
the instruction after acknowledging a sweep still owns it after restart.

On-disk layout under ``journal_dir`` (one flat directory):

* ``<id>.spec.json``    — the accepted spec; existence == acknowledged,
* ``<id>.journal.jsonl`` — the runner's item journal (PR 5 format),
* ``<id>.report.json``  — the finished report snapshot; existence == done,
* ``<id>.error.json``   — a terminal failure: an exception ``run_sweep``
  does not contain (a spec that validated but cannot run, or a runner
  bug).  A pool that cannot start (``EAGAIN`` from ``fork``) or a worker
  that dies is not one: the runner degrades and the sweep still ends in
  ``report.json``.

``<id>`` is the SHA-256 (truncated) of the normalized spec, so
resubmitting the same spec is idempotent — same id, no duplicate work —
and ids are stable across daemon generations.

The executor is one thread draining accepted sweeps in FIFO order through
:func:`repro.runner.pool.run_sweep` with the full retry/timeout/
degradation ladder, journaling every item.  The drain state machine is::

    SERVING ──begin_drain()──▶ DRAINING ──executor exits──▶ STOPPED

While DRAINING no new sweep starts and the in-flight sweep is
*checkpointed*: the per-item ``on_result`` hook raises KeyboardInterrupt,
``run_sweep``'s one interrupt handler flushes + fsyncs the journal and
returns the partial report (on every execution path), and the sweep's
state returns to ``accepted`` — on
disk it is indistinguishable from a SIGKILL at that journal prefix, which
is exactly why the kill-resume conformance property holds for graceful
and violent deaths alike.  Restart scans the directory, re-enqueues every
acknowledged-but-unfinished sweep, and resumes each from its journal to a
report byte-identical (``canonical_report_view``) to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runner.faults import FaultPlan
from ..runner.journal import JournalError, _fsync_dir, journal_status
from ..runner.plan import FAMILIES, plan_from_spec
from .errors import BadRequest, ServiceUnavailable, TooManyRequests

__all__ = ["SweepQueue", "normalize_spec", "plan_from_spec",
           "SERVING", "DRAINING", "STOPPED"]

#: Drain state machine: SERVING → DRAINING → STOPPED, never backwards.
#: Internal comparisons use the int codes; :attr:`SweepQueue.lifecycle`
#: exposes the names.
_SERVING, _DRAINING, _STOPPED = 0, 1, 2
_LIFECYCLE_NAMES = ("serving", "draining", "stopped")
SERVING, DRAINING, STOPPED = _LIFECYCLE_NAMES

_SPEC_FIELDS = {
    "kind", "policies", "families", "n", "seeds", "root_seed",
    "speeds", "dir",
    "workers", "chunksize", "retries", "item_timeout", "chaos",
}


def _require_int(spec: Dict[str, Any], key: str, lo: int, hi: int, default: int) -> int:
    value = spec.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise BadRequest(f'"{key}" must be an integer in [{lo}, {hi}]')
    return value


def _require_names(spec: Dict[str, Any], key: str, known, what: str) -> List[str]:
    value = spec.get(key)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) for v in value)
    ):
        raise BadRequest(f'"{key}" must be a non-empty list of {what} names')
    unknown = [v for v in value if v not in known]
    if unknown:
        raise BadRequest(
            f"unknown {what}(s) {unknown}; known: {sorted(known)}"
        )
    return list(value)


def normalize_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a submitted sweep spec and fill every default.

    The normalized dict is the sweep's *identity* — its canonical JSON is
    hashed into the sweep id — so two submissions that mean the same work
    collapse onto one durable sweep.  All malformed input raises
    :class:`~repro.serve.errors.BadRequest` naming the offending field;
    nothing is accepted (or written) until the whole spec validates and
    its plan builds.
    """
    from ..runner.tasks import POLICIES as sweep_policies

    if not isinstance(spec, dict):
        raise BadRequest("sweep spec must be a JSON object")
    stray = sorted(set(spec) - _SPEC_FIELDS)
    if stray:
        raise BadRequest(f"unknown spec field(s) {stray}")
    kind = spec.get("kind")
    if kind not in ("ratio", "differential", "corpus"):
        raise BadRequest(
            f'"kind" must be one of ratio/differential/corpus, got {kind!r}'
        )
    out: Dict[str, Any] = {"kind": kind}
    if kind == "ratio":
        out["policies"] = _require_names(spec, "policies", sweep_policies, "policy")
        out["families"] = _require_names(spec, "families", FAMILIES, "family")
        out["n"] = _require_int(spec, "n", 1, 200, 12)
        out["seeds"] = _require_int(spec, "seeds", 1, 64, 3)
        out["root_seed"] = _require_int(spec, "root_seed", 0, 2**32, 0)
    elif kind == "differential":
        out["families"] = _require_names(spec, "families", FAMILIES, "family")
        out["n"] = _require_int(spec, "n", 1, 200, 12)
        out["seeds"] = _require_int(spec, "seeds", 1, 64, 3)
        out["root_seed"] = _require_int(spec, "root_seed", 0, 2**32, 0)
        speeds = spec.get("speeds", ["1"])
        if not isinstance(speeds, list) or not speeds or not all(
            isinstance(s, str) for s in speeds
        ):
            raise BadRequest('"speeds" must be a non-empty list of strings')
        from fractions import Fraction

        for s in speeds:
            try:
                if Fraction(s) <= 0:
                    raise ValueError
            except (ValueError, ZeroDivisionError):
                raise BadRequest(f"unparsable or non-positive speed {s!r}")
        out["speeds"] = list(speeds)
    else:  # corpus
        corpus_dir = spec.get("dir")
        if not isinstance(corpus_dir, str) or not corpus_dir:
            raise BadRequest('corpus sweeps need a "dir" string field')
        if not os.path.isfile(os.path.join(corpus_dir, "expectations.json")):
            raise BadRequest(f"{corpus_dir!r} has no expectations.json")
        out["dir"] = corpus_dir
    out["workers"] = _require_int(spec, "workers", 1, 8, 1)
    out["chunksize"] = _require_int(spec, "chunksize", 1, 64, 1)
    out["retries"] = _require_int(spec, "retries", 0, 5, 0)
    timeout = spec.get("item_timeout")
    if timeout is not None and (
        not isinstance(timeout, (int, float))
        or isinstance(timeout, bool)
        or not 0 < timeout <= 300
    ):
        raise BadRequest('"item_timeout" must be a number in (0, 300] seconds')
    out["item_timeout"] = timeout
    chaos = spec.get("chaos")
    if chaos is not None:
        if not isinstance(chaos, str):
            raise BadRequest('"chaos" must be a fault-plan string')
        try:
            FaultPlan.parse(chaos)
        except ValueError as exc:
            raise BadRequest(f"bad chaos plan: {exc}")
    out["chaos"] = chaos
    return out


def _sweep_id(normalized: Dict[str, Any]) -> str:
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_durable(path: str, payload: Any) -> None:
    """Atomic durable write: tmp → fsync → rename → directory fsync."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


class SweepQueue:
    """Bounded, durable, resumable sweep queue (see the module docstring)."""

    def __init__(
        self,
        journal_dir: str,
        max_queue: int = 8,
        sweep_workers: int = 1,
        on_item: Optional[Callable[[str, Any], None]] = None,
    ) -> None:
        self.journal_dir = journal_dir
        self.max_queue = max_queue
        self.sweep_workers = sweep_workers
        #: Per-item observation hook ``(sweep_id, ItemResult)`` — metrics
        #: tick for the app, drain trigger for the chaos tests.  Runs on
        #: the executor thread; exceptions it raises checkpoint the sweep.
        self.on_item = on_item
        os.makedirs(journal_dir, exist_ok=True)
        self._cond = threading.Condition()
        self._lifecycle = _SERVING
        self._pending: "deque[str]" = deque()
        self._specs: Dict[str, Dict[str, Any]] = {}
        self._state: Dict[str, str] = {}
        self._thread: Optional[threading.Thread] = None
        self.completed = 0
        self.checkpointed = 0
        self.resumed = 0

    # -- paths ----------------------------------------------------------------

    def _path(self, sweep_id: str, suffix: str) -> str:
        return os.path.join(self.journal_dir, f"{sweep_id}.{suffix}")

    # -- lifecycle ------------------------------------------------------------

    @property
    def lifecycle(self) -> str:
        return _LIFECYCLE_NAMES[self._lifecycle]

    def start(self) -> "SweepQueue":
        """Recover acknowledged-but-unfinished sweeps, then start executing."""
        for name in sorted(os.listdir(self.journal_dir)):
            if not name.endswith(".spec.json"):
                continue
            sweep_id = name[: -len(".spec.json")]
            if os.path.exists(self._path(sweep_id, "report.json")):
                continue
            if os.path.exists(self._path(sweep_id, "error.json")):
                continue
            with open(self._path(sweep_id, "spec.json"), encoding="utf-8") as fh:
                spec = json.load(fh)
            with self._cond:
                self._specs[sweep_id] = spec
                self._state[sweep_id] = "accepted"
                self._pending.append(sweep_id)
                self.resumed += 1
        self._thread = threading.Thread(
            target=self._run, name="serve-sweeps", daemon=True
        )
        self._thread.start()
        return self

    def begin_drain(self) -> None:
        """SERVING → DRAINING: refuse new work, checkpoint the in-flight sweep."""
        with self._cond:
            if self._lifecycle == _SERVING:
                self._lifecycle = _DRAINING
            self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain and join the executor; True iff it stopped in time."""
        self.begin_drain()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                return False
        with self._cond:
            self._lifecycle = _STOPPED
        return True

    # -- client surface -------------------------------------------------------

    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def submit(self, spec: Dict[str, Any]) -> Tuple[str, str, bool]:
        """Accept a sweep durably; returns ``(id, state, created)``.

        The spec is fully validated (its plan must build) *before* anything
        is written; the spec file is durable on disk *before* this returns.
        Known ids — done, failed, queued, or running — are answered
        idempotently without re-enqueueing.  A full queue raises
        :class:`~repro.serve.errors.TooManyRequests` immediately: honest
        backpressure beats an unbounded backlog.
        """
        normalized = normalize_spec(spec)
        plan_from_spec(normalized)  # must build; BadRequest on any defect
        sweep_id = _sweep_id(normalized)
        with self._cond:
            if self._lifecycle != _SERVING:
                raise ServiceUnavailable(
                    "queue is draining; resubmit to the replacement daemon",
                    retry_after=5.0,
                )
            # Memory first, as in status(): a sweep the executor still holds
            # is not done yet, even once its report file exists.
            if sweep_id in self._state:
                return sweep_id, self._state[sweep_id], False
            if os.path.exists(self._path(sweep_id, "report.json")):
                return sweep_id, "done", False
            if os.path.exists(self._path(sweep_id, "error.json")):
                return sweep_id, "failed", False
            if len(self._pending) >= self.max_queue:
                raise TooManyRequests(
                    f"sweep queue is full ({self.max_queue} pending); "
                    f"retry after the backlog drains",
                    retry_after=2.0,
                )
            # Ack rule: durable before acknowledged.  A kill after this
            # write re-enqueues the sweep on restart; a kill before it
            # means the client never saw a 202 and resubmits.
            _write_durable(self._path(sweep_id, "spec.json"), normalized)
            self._specs[sweep_id] = normalized
            self._state[sweep_id] = "accepted"
            self._pending.append(sweep_id)
            self._cond.notify_all()
        return sweep_id, "accepted", True

    def status(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        """Durable-first status: disk is the truth, memory adds liveness.

        While this process's executor still holds the sweep, memory
        answers: ``_finish`` renames the report into place, fsyncs the
        directory and only then releases the sweep, so ``done`` (and
        ``failed``) imply a durable outcome and an updated ``completed``.
        """
        if not sweep_id or "/" in sweep_id or "." in sweep_id:
            return None
        with self._cond:
            state = self._state.get(sweep_id)
        if state is None:
            report_path = self._path(sweep_id, "report.json")
            if os.path.exists(report_path):
                with open(report_path, encoding="utf-8") as fh:
                    return {"id": sweep_id, "state": "done",
                            "report": json.load(fh)}
            error_path = self._path(sweep_id, "error.json")
            if os.path.exists(error_path):
                with open(error_path, encoding="utf-8") as fh:
                    return {"id": sweep_id, "state": "failed", **json.load(fh)}
            state = "accepted"
        if not os.path.exists(self._path(sweep_id, "spec.json")):
            return None
        out: Dict[str, Any] = {"id": sweep_id, "state": state}
        journal = self._path(sweep_id, "journal.jsonl")
        if os.path.exists(journal):
            try:
                progress = journal_status(journal)
            except JournalError:
                progress = None
            if progress is not None:
                out["progress"] = {
                    k: progress[k]
                    for k in ("settled", "remaining", "by_status",
                              "retries", "dropped")
                }
        return out

    # -- executor -------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while self._lifecycle == _SERVING and not self._pending:
                    self._cond.wait()
                if self._lifecycle != _SERVING:
                    # DRAINING: pending sweeps stay acknowledged on disk;
                    # the next daemon generation picks them up.
                    return
                sweep_id = self._pending.popleft()
                self._state[sweep_id] = "running"
            self._run_one(sweep_id)

    def _run_one(self, sweep_id: str) -> None:
        from ..runner.pool import run_sweep

        spec = self._specs[sweep_id]
        journal = self._path(sweep_id, "journal.jsonl")
        resume = os.path.exists(journal)

        def tick(result) -> None:
            if self._lifecycle != _SERVING:
                raise KeyboardInterrupt
            if self.on_item is not None:
                self.on_item(sweep_id, result)

        try:
            plan = plan_from_spec(spec)
            report = run_sweep(
                plan,
                n_jobs=max(1, min(spec.get("workers", 1), self.sweep_workers)),
                chunksize=spec.get("chunksize", 1),
                retry=spec.get("retries", 0),
                item_timeout=spec.get("item_timeout"),
                faults=FaultPlan.parse(spec["chaos"]) if spec.get("chaos") else None,
                journal=journal,
                resume=resume,
                on_result=tick,
            )
        except KeyboardInterrupt:
            # The hook raised again while the partial report's unrun items
            # streamed out; run_sweep had already fsynced the journal — on
            # disk this is a SIGKILL at a record boundary.
            self._checkpoint(sweep_id)
            return
        except Exception as exc:  # noqa: BLE001 — a spec-level defect
            _write_durable(
                self._path(sweep_id, "error.json"),
                {"error": f"{type(exc).__name__}: {exc}"},
            )
            with self._cond:
                self._state.pop(sweep_id, None)
                self._specs.pop(sweep_id, None)
            return
        self._finish(sweep_id, report)

    def _outcome(self, report: Any) -> str:
        """Classify a returned report: ``done`` / ``checkpoint`` / ``stalled``.

        ``done`` iff every item settled (``ok``/``error`` — the journal
        reader's own settledness rule).  An incomplete report while
        DRAINING is a checkpoint (``run_sweep`` returns the partial report
        on interrupt); incomplete while SERVING means the ladder
        was exhausted — ``stalled``, terminal for this process life so the
        executor cannot hot-loop, but *not* terminal on disk: a restart
        retries it.
        """
        if all(r.status in ("ok", "error") for r in report.results):
            return "done"
        if self._lifecycle != _SERVING:
            return "checkpoint"
        return "stalled"

    def _finish(self, sweep_id: str, report: Any) -> None:
        outcome = self._outcome(report)
        if outcome == "done":
            from ..obs.sinks import jsonable

            _write_durable(
                self._path(sweep_id, "report.json"),
                jsonable(report.snapshot()),
            )
            with self._cond:
                self._state.pop(sweep_id, None)
                self._specs.pop(sweep_id, None)
                self.completed += 1
        elif outcome == "checkpoint":
            self._checkpoint(sweep_id)
        else:
            with self._cond:
                self._state[sweep_id] = "stalled"

    def _checkpoint(self, sweep_id: str) -> None:
        with self._cond:
            self._state[sweep_id] = "accepted"
            self.checkpointed += 1
