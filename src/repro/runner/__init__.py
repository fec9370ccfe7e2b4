"""Deterministic, crash-only process-pool fan-out for sweeps.

Every empirical result in this repo — competitive-ratio profiles,
differential verification, corpus re-checks — is a batch of independent
``(instance, task)`` work items.  This package runs such batches across
worker processes with one hard guarantee: **parallel and serial runs are
bit-identical** — same results, same order, same merged observability
counter totals — for any worker count and any chunking.

    from repro.runner import SweepPlan, run_sweep

    plan = SweepPlan.competitive(
        policies=["edf", "firstfit"], families=["uniform", "agreeable"],
        n=30, seeds=50, root_seed=7,
    )
    report = run_sweep(plan, n_jobs=4, chunksize=4)
    report.values()                      # in plan order, k-independent
    report.registry.counters             # merged obs totals, k-independent

How the guarantee is kept (details in ``docs/ARCHITECTURE.md``):

* seeds split deterministically from a root seed (:func:`~repro.runner.plan.split_seed`),
* chunk boundaries depend only on the plan and ``chunksize``,
* items sharing an instance are grouped into the same chunk, so warm
  :class:`~repro.offline.feascache.FeasibilityCache` hits are scheduling-independent,
* per-item snapshots merge in plan order, never completion order.

The guarantee extends through failures — *crash-only* operation:

* per-item deadlines (:func:`~repro.runner.faults.time_limit`) and bounded
  :class:`~repro.runner.faults.RetryPolicy` retries quarantine flaky items
  as ``"failed"`` records instead of stalling or poisoning the sweep,
* dead workers degrade pool → per-group pool → per-item pool → in-process,
  blaming exactly the crasher (:class:`~repro.runner.pool.WorkerCrash`),
* with ``journal=`` every outcome lands in a checksummed JSONL journal
  (:mod:`repro.runner.journal`) the moment it completes; ``resume=True``
  (or :func:`~repro.runner.journal.resume`) restores settled groups and
  re-runs the rest, converging to the clean report byte-for-byte,
* a seeded :class:`~repro.runner.faults.FaultPlan` injects SIGKILLs,
  hangs, transient errors, and torn journal writes for chaos testing
  (``repro sweep --chaos``); :func:`~repro.runner.merge.canonical_report_view`
  is the equivalence judge.

The guarantee also extends across hosts — *sharded* operation:
:meth:`SweepPlan.shard(k, n) <repro.runner.plan.SweepPlan.shard>` cuts a
plan into ``n`` disjoint, group-preserving shards, each itself a
:class:`~repro.runner.plan.SweepPlan` (a pure function of the plan, so
every host computes the same partition), each shard journals under its own
``(k, n)`` identity, and :func:`~repro.runner.merge.merge_journals` folds
the N journals back into one report byte-identical to the unsharded run —
``repro sweep ... --shard k/n`` plus ``repro sweep merge j*.jsonl``.

Execution has one path: one function starts and runs every process pool
(the shared one and each ladder rung), one loop runs every in-process
execution (``n_jobs=1`` — no pool, no pickling — and the rungs where no
pool can start), every finished row is journaled as it lands, and one
``KeyboardInterrupt`` handler returns the partial report from any of them.
The front ends are ``repro sweep`` and the daemon's ``/v1/sweeps``; both
build their plan with :func:`~repro.runner.plan.plan_from_spec`.
"""

from .faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    ItemTimeout,
    RetryPolicy,
    TransientError,
    time_limit,
)
from .journal import (
    Journal,
    JournalError,
    JournalMismatch,
    JournalRecord,
    journal_status,
    read_journal,
    resume,
)
from .merge import (
    MergeError,
    canonical_report_view,
    merge_journals,
    merge_snapshot_into,
    merge_snapshots,
    replay_into_ambient,
)
from .plan import (
    FAMILIES,
    InstanceSpec,
    SweepPlan,
    WorkItem,
    chunk_items,
    instance_key,
    plan_from_spec,
    split_seed,
)
from .pool import (
    ExecPolicy,
    ItemResult,
    SweepProgress,
    SweepReport,
    WorkerCrash,
    run_sweep,
)
from .tasks import POLICIES, TASKS, register_task

__all__ = [
    "FAMILIES",
    "FAULT_KINDS",
    "ExecPolicy",
    "Fault",
    "FaultPlan",
    "InstanceSpec",
    "ItemResult",
    "ItemTimeout",
    "Journal",
    "JournalError",
    "JournalMismatch",
    "JournalRecord",
    "MergeError",
    "POLICIES",
    "RetryPolicy",
    "SweepPlan",
    "SweepProgress",
    "SweepReport",
    "TASKS",
    "TransientError",
    "WorkItem",
    "WorkerCrash",
    "canonical_report_view",
    "chunk_items",
    "instance_key",
    "journal_status",
    "merge_journals",
    "merge_snapshot_into",
    "merge_snapshots",
    "plan_from_spec",
    "read_journal",
    "register_task",
    "replay_into_ambient",
    "resume",
    "run_sweep",
    "split_seed",
    "time_limit",
]
