"""Failure semantics for sweeps: deadlines, retries, and fault injection.

Three pieces, all picklable so they travel to pool workers:

* :func:`time_limit` — a POSIX ``SIGALRM`` per-item deadline.  A task that
  outlives its budget raises :class:`ItemTimeout` *inside the worker*, so a
  pathological probe (a runaway search or simulation) cannot stall the
  whole sweep.  On platforms without ``SIGALRM`` (or off the main thread)
  the limit degrades to unenforced — documented, never wrong.
* :class:`RetryPolicy` — bounded retries for *transient* failures
  (:class:`TransientError`, :class:`ItemTimeout`, interpreter-level
  ``OSError``).  Deterministic task exceptions (a ``ValueError`` from bad
  input) are never retried — retrying them cannot change the answer.
  Exhausted items are quarantined as ``"failed"`` records instead of
  poisoning the sweep.
* :class:`FaultPlan` — seeded, deterministic chaos: named faults
  (``sigkill``, ``hang``, ``transient``, ``corrupt``) pinned to
  ``(item index, attempt)`` pairs.  Because faults key on the *attempt*
  number, an injected failure strikes exactly once and the recovery
  machinery (retry, isolated re-run, journal resume) is exercised
  end-to-end; because injection happens *before* any task work, a failed
  attempt leaves no trace in the merged counters — which is what makes
  chaos runs byte-comparable to fault-free runs (see
  ``docs/ARCHITECTURE.md`` § Failure model).

Fault indices are **parent-plan-global**: a shard (the
:class:`~repro.runner.plan.SweepPlan` that ``plan.shard(k, n)`` returns)
keeps its items' original plan indices, so the same ``FaultPlan`` spec
(``sigkill:2``) strikes the same logical item whether the plan runs whole
or as ``--shard k/n`` on another host — chaos specs need no per-shard
translation, and a fault aimed at an item another shard owns simply never
fires there.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "ItemTimeout",
    "RetryPolicy",
    "TransientError",
    "time_limit",
]


class TransientError(RuntimeError):
    """A failure worth retrying: the same attempt may succeed next time."""


class ItemTimeout(TransientError):
    """An item exceeded its per-item deadline (see :func:`time_limit`)."""


def _deadline_enforceable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def time_limit(seconds: Optional[float], label: str = "item") -> Iterator[None]:
    """Raise :class:`ItemTimeout` if the block runs longer than ``seconds``.

    ``SIGALRM``-based: the handler interrupts pure-Python execution (and
    ``time.sleep``) at the next bytecode boundary, which covers every hang
    this codebase can produce — solver loops, engine runs, injected sleeps.
    A C extension that never yields the GIL is out of reach; that case is
    handled one level up by the pool's crash containment.  With
    ``seconds=None``, off the main thread, or without ``SIGALRM`` the block
    runs unguarded.

    Limits nest: an inner limit (a caller's own budget inside a sweep
    item's deadline) is clamped to whatever the outer one has left, and the
    outer timer is re-armed with its remaining budget on exit — so the
    tighter deadline always wins and the outer one is never silently lost.
    """
    if seconds is None or not _deadline_enforceable():
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - exercised via raise
        raise ItemTimeout(f"{label} exceeded the {seconds:g}s deadline")

    outer_remaining = signal.getitimer(signal.ITIMER_REAL)[0]
    effective = min(seconds, outer_remaining) if outer_remaining else seconds
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, effective)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining:
            elapsed = time.monotonic() - t0
            signal.setitimer(
                signal.ITIMER_REAL, max(outer_remaining - elapsed, 1e-3)
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget for transient failures.

    ``max_retries`` is the number of *additional* attempts after the first
    (so an item runs at most ``1 + max_retries`` times per execution).
    Only transient failures are retried; a deterministic task error would
    fail the same way again.
    """

    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def is_transient(self, exc: BaseException) -> bool:
        return isinstance(exc, (TransientError, OSError))


#: The injectable fault kinds, in severity order.
FAULT_KINDS = ("sigkill", "hang", "transient", "corrupt")


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``kind`` strikes item ``index`` on ``attempt``."""

    kind: str
    index: int
    attempt: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.attempt < 1:
            raise ValueError("attempt numbers are 1-based")


class FaultPlan:
    """A deterministic set of injected faults for chaos testing.

    Injection points (named after where the runner consults the plan):

    * ``sigkill`` — the worker process kills itself (``SIGKILL``) before
      touching the item: simulates the OOM killer.  Exercises pool
      breakage, isolated blame, and crash records.
    * ``hang`` — the item sleeps past its deadline: exercises
      :func:`time_limit` and timeout retries.
    * ``transient`` — raises :class:`TransientError`: exercises
      :class:`RetryPolicy`.
    * ``corrupt`` — the *parent* truncates the item's journal record as it
      is written: simulates a crash mid-append.  Exercises the journal's
      checksum validation and prefix recovery on resume.

    All faults fire *before task work starts* (or, for ``corrupt``, outside
    task execution entirely), so a struck attempt contributes nothing to
    the merged counters — the determinism argument depends on this.
    """

    def __init__(
        self, faults: Sequence[Fault] = (), hang_seconds: float = 2.0
    ) -> None:
        self.faults = tuple(faults)
        self.hang_seconds = hang_seconds
        self._table: Dict[Tuple[str, int, int], Fault] = {
            (f.kind, f.index, f.attempt): f for f in self.faults
        }

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.faults == other.faults

    def should(self, kind: str, index: int, attempt: int = 1) -> bool:
        return (kind, index, attempt) in self._table

    def without_kills(self) -> "FaultPlan":
        """The same plan with ``sigkill`` demoted to ``transient``.

        Used when the degradation ladder falls back to in-process
        execution: a self-``SIGKILL`` there would take the parent down.
        """
        return FaultPlan(
            tuple(
                Fault("transient", f.index, f.attempt)
                if f.kind == "sigkill"
                else f
                for f in self.faults
            ),
            self.hang_seconds,
        )

    def fire(
        self, index: int, attempt: int, deadline: Optional[float] = None
    ) -> None:
        """Consult the plan at an item's start; called inside the executor.

        Must run inside the item's :func:`time_limit` scope so an injected
        hang is cut off by the deadline like a real one.
        """
        if self.should("sigkill", index, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        if self.should("hang", index, attempt):
            # Outlast the deadline when one is set; otherwise a bounded
            # stall (a deadline-less sweep must still terminate).
            time.sleep(deadline * 4 if deadline else self.hang_seconds)
        if self.should("transient", index, attempt):
            raise TransientError(
                f"injected transient fault (item {index}, attempt {attempt})"
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--chaos`` spec: ``kind:index[@attempt],...``.

        Examples: ``"sigkill:2,transient:4"``, ``"hang:0@2"``.  The form
        ``"seed:S[:rate]"`` instead samples a random plan at resolve time —
        see :meth:`sample`, which callers invoke with the plan size.
        """
        faults = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            kind, _, rest = part.partition(":")
            if not rest:
                raise ValueError(f"bad fault spec {part!r}: expected kind:index")
            index_s, _, attempt_s = rest.partition("@")
            try:
                faults.append(
                    Fault(kind, int(index_s), int(attempt_s) if attempt_s else 1)
                )
            except ValueError as exc:
                raise ValueError(f"bad fault spec {part!r}: {exc}") from None
        return cls(faults)

    @classmethod
    def sample(
        cls,
        n_items: int,
        seed: int,
        rate: float = 0.1,
        kinds: Sequence[str] = ("transient", "hang"),
    ) -> "FaultPlan":
        """A seeded random plan: each item struck with probability ``rate``.

        SHA-256 driven (never the salted builtin ``hash``), so the same
        ``(n_items, seed, rate, kinds)`` yields the same plan in every
        process on every platform — chaos runs stay reproducible.
        """
        faults = []
        for index in range(n_items):
            digest = hashlib.sha256(
                f"repro.faults:{seed}:{index}".encode()
            ).digest()
            u = int.from_bytes(digest[:8], "big") / 2**64
            if u < rate:
                kind = kinds[int.from_bytes(digest[8:12], "big") % len(kinds)]
                faults.append(Fault(kind, index))
        return cls(faults)
