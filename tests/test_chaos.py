"""Chaos tests for the crash-only sweep runner (ISSUE 5).

The headline contract: **for every fault plan, the sweep terminates and the
resumed/retried merged report + counter snapshot are byte-identical to the
fault-free serial run** (modulo the runner's own ``runner.*`` bookkeeping,
which `canonical_report_view` strips — chunk counts legitimately differ
between a clean run and a resumed one).

Covers:

* FaultPlan parsing/sampling determinism, `time_limit` (incl. nesting),
  RetryPolicy semantics,
* the journal: checksummed round-trip, prefix validation of torn tails,
  fingerprint mismatch refusal, last-record-wins,
* chaos determinism for every fault kind (sigkill / hang / transient /
  corrupt), including a hypothesis sweep over *every* journal prefix,
* retry accounting (attempts in the report, `runner.retries` mirrored to
  ambient obs) and quarantine (`"failed"` records, retried on resume),
* the KeyboardInterrupt journal-flush regression (a Ctrl-C'd sweep is
  resumable, including completed items of a cut-short chunk),
* the degradation ladder (pool-start failure → serial, logged as a
  ``runner.degraded`` event; a worker death during submission → the
  per-group/per-item rungs; a failed start leaves no forked worker alive)
  and interrupts on every path (finished items kept and journaled),
* the `repro sweep --journal/--resume/--retries/--item-timeout/--chaos` CLI,
* sharded sweeps (ISSUE 7): kill any shard — fault it, quarantine it, or
  truncate its journal mid-run — resume it, and `merge_journals` folds the
  shard journals into a report byte-identical to the unsharded clean run;
  unsound merges (duplicate/missing/overlapping shards, foreign
  fingerprints, torn tails, unsettled items) are refused with precise
  errors, and journal identity mismatches report expected vs. found
  fingerprint *and* shard identity.
"""

import concurrent.futures
import errno
import itertools
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.model import Instance, Job
from repro.obs.sinks import Registry
from repro.runner import (
    Fault,
    FaultPlan,
    ItemTimeout,
    Journal,
    JournalMismatch,
    MergeError,
    RetryPolicy,
    SweepPlan,
    TransientError,
    canonical_report_view,
    merge_journals,
    read_journal,
    register_task,
    resume,
    run_sweep,
    time_limit,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_ALARM = hasattr(signal, "SIGALRM")

fork_only = pytest.mark.skipif(
    not HAS_FORK, reason="runtime-registered tasks need fork inheritance"
)
alarm_only = pytest.mark.skipif(
    not HAS_ALARM, reason="deadlines need SIGALRM (POSIX)"
)


def _counting_task(instance, *, tag: str = ""):
    obs.incr("test.work", len(instance))
    obs.event("test.visited")
    # A deterministic value histogram: canonical views keep it in full, so
    # every clean-vs-chaos comparison below also pins exact hist merging.
    obs.observe("test.sizes", len(instance))
    return len(instance)


#: Which item index the "interrupter" task Ctrl-C's on (None = disarmed).
#: A module global, not a task param: the Ctrl-C must not change the plan
#: fingerprint between the interrupted run and its resume.
_INTERRUPT_AT = {"index": None}


def _interrupt_task(instance, *, index: int = 0):
    if index == _INTERRUPT_AT["index"]:
        raise KeyboardInterrupt
    return len(instance)


register_task("counting", _counting_task)
register_task("interrupter", _interrupt_task)


def _grouped_plan(n_items: int = 8) -> SweepPlan:
    """n_items cheap items in groups of two (same inline instance)."""
    instances = [
        Instance([Job(0, 1, 2, id=j) for j in range(i // 2 + 1)])
        for i in range(n_items)
    ]
    return SweepPlan.build(
        ("counting", instances[i - i % 2], {"tag": str(i % 2)})
        for i in range(n_items)
    )


def _canon(report):
    return canonical_report_view(report.snapshot())


def _fail_fork(monkeypatch, from_call: int = 1) -> None:
    """Make ``os.fork`` raise ``EAGAIN`` from its ``from_call``-th call on."""
    real_fork = os.fork
    calls = itertools.count(1)

    def fork():
        if next(calls) >= from_call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def _degraded(monkeypatch):
    """The ``runner.degraded`` (from, to) pairs report registries receive."""
    seen = []
    on_event = Registry.on_event

    def spy(self, name, attrs, span_path):
        if name == "runner.degraded" and "from" in attrs:
            seen.append((attrs["from"], attrs["to"]))
        on_event(self, name, attrs, span_path)

    monkeypatch.setattr(Registry, "on_event", spy)
    return seen


def _pool_breaking_at_submit(k: int, start_fails_after: int = 0):
    """A pool class whose ``k``-th submit (counted over every pool) finds it
    broken, as when a worker dies mid-submission; with
    ``start_fails_after`` pools built, every later pool fails to start."""
    submits = itertools.count(1)
    pools = itertools.count(1)

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            if start_fails_after and next(pools) > start_fails_after:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            if next(submits) == k:
                raise BrokenProcessPool("a worker died during submission")
            return super().submit(*args, **kwargs)

    return Pool


# ---------------------------------------------------------------------------
# faults: plans, deadlines, retry policy


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("sigkill:2,transient:4,hang:0@2")
        assert plan.should("sigkill", 2)
        assert plan.should("transient", 4, attempt=1)
        assert plan.should("hang", 0, attempt=2)
        assert not plan.should("hang", 0, attempt=1)
        assert not plan.should("sigkill", 3)

    def test_parse_rejects_garbage(self):
        for bad in ("sigkill", "sigkill:x", "explode:1", "hang:1@0"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor", 0)

    def test_sample_deterministic(self):
        a = FaultPlan.sample(100, seed=7, rate=0.2)
        b = FaultPlan.sample(100, seed=7, rate=0.2)
        assert a == b and len(a.faults) > 0
        assert FaultPlan.sample(100, seed=8, rate=0.2) != a

    def test_without_kills_demotes(self):
        plan = FaultPlan.parse("sigkill:1,hang:2")
        demoted = plan.without_kills()
        assert demoted.should("transient", 1)
        assert not demoted.should("sigkill", 1)
        assert demoted.should("hang", 2)

    def test_transient_fault_raises(self):
        with pytest.raises(TransientError, match="item 3"):
            FaultPlan.parse("transient:3").fire(3, 1)


@alarm_only
class TestTimeLimit:
    def test_cuts_off_a_sleep(self):
        t0 = time.monotonic()
        with pytest.raises(ItemTimeout, match="deadline"):
            with time_limit(0.1, label="sleepy"):
                time.sleep(5)
        assert time.monotonic() - t0 < 2

    def test_no_limit_is_free(self):
        with time_limit(None):
            pass

    def test_nested_outer_deadline_survives_inner_block(self):
        # The inner (longer) limit must not disarm the outer one.
        with pytest.raises(ItemTimeout):
            with time_limit(0.2, label="outer"):
                with time_limit(10.0, label="inner"):
                    time.sleep(5)

    def test_nested_inner_fires_first(self):
        t0 = time.monotonic()
        with pytest.raises(ItemTimeout):
            with time_limit(10.0, label="outer"):
                with time_limit(0.1, label="inner"):
                    time.sleep(5)
        assert time.monotonic() - t0 < 2


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransientError("x"))
        assert policy.is_transient(ItemTimeout("x"))
        assert policy.is_transient(OSError("x"))
        assert not policy.is_transient(ValueError("x"))


# ---------------------------------------------------------------------------
# journal


class TestJournal:
    def test_roundtrip_preserves_exact_values(self, tmp_path):
        from fractions import Fraction

        path = str(tmp_path / "j.jsonl")
        journal = Journal.create(path, "fp", 2)
        journal.append_item(0, "t", "ok", Fraction(22, 7), None, 1, {"counters": {}})
        journal.append_item(1, "t", "error", None, "nope", 1, {})
        journal.close()
        header, records, dropped = read_journal(path)
        assert header["plan"] == "fp" and header["n_items"] == 2
        assert dropped == 0
        assert records[0].value == Fraction(22, 7)  # exact, not a float/str
        assert records[0].settled and records[1].settled
        assert records[1].error == "nope"

    def test_torn_tail_keeps_valid_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal.create(path, "fp", 3)
        for i in range(3):
            journal.append_item(i, "t", "ok", i, None, 1, {})
        journal.close()
        lines = open(path).readlines()
        # tear the middle record: it and everything after must be dropped
        lines[2] = lines[2][:20] + "\n"
        open(path, "w").writelines(lines)
        header, records, dropped = read_journal(path)
        assert header is not None
        assert sorted(records) == [0]
        assert dropped == 2

    def test_corrupt_flag_simulates_torn_write(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal.create(path, "fp", 2)
        journal.append_item(0, "t", "ok", 1, None, 1, {}, corrupt=True)
        journal.append_item(1, "t", "ok", 2, None, 1, {})
        journal.close()
        _, records, dropped = read_journal(path)
        assert records == {} and dropped == 2  # prefix semantics

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        Journal.create(path, "plan-a", 1).close()
        with pytest.raises(JournalMismatch):
            Journal.append_to(path, "plan-b")

    def test_last_record_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal.create(path, "fp", 1)
        journal.append_item(0, "t", "failed", None, "flaky", 1, {})
        journal.append_item(0, "t", "ok", 42, None, 2, {})
        journal.close()
        _, records, _ = read_journal(path)
        assert records[0].status == "ok" and records[0].value == 42

    def test_resume_refuses_foreign_plan(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan_a = _grouped_plan(4)
        run_sweep(plan_a, journal=path)
        plan_b = SweepPlan.competitive(["edf"], ["uniform"], n=5, seeds=1)
        with pytest.raises(JournalMismatch):
            resume(plan_b, path)


# ---------------------------------------------------------------------------
# chaos determinism: every fault kind converges to the clean report


@fork_only
class TestChaosDeterminism:
    def _clean(self, plan):
        return _canon(run_sweep(plan, n_jobs=1))

    def test_transient_fault_retried_to_clean_report(self):
        plan = _grouped_plan()
        clean = self._clean(plan)
        report = run_sweep(plan, n_jobs=2, chunksize=2,
                           faults=FaultPlan.parse("transient:3"))
        assert _canon(report) == clean
        assert report.results[3].attempts == 2

    def test_sigkill_fault_recovers_in_run(self, tmp_path):
        plan = _grouped_plan()
        clean = self._clean(plan)
        path = str(tmp_path / "j.jsonl")
        report = run_sweep(plan, n_jobs=2, chunksize=2, journal=path,
                           faults=FaultPlan.parse("sigkill:2"))
        # the killed worker's chunk recovered through the isolated re-run
        assert report.ok
        assert _canon(report) == clean
        counters = report.registry.snapshot()["counters"]
        assert counters["runner.worker_crashes"] >= 1

    @alarm_only
    def test_hang_fault_cut_by_deadline_then_clean(self):
        plan = _grouped_plan()
        clean = self._clean(plan)
        report = run_sweep(plan, n_jobs=1, item_timeout=0.3,
                           faults=FaultPlan.parse("hang:1"))
        assert report.ok and _canon(report) == clean
        assert report.results[1].attempts == 2

    def test_corrupt_journal_record_rerun_on_resume(self, tmp_path):
        plan = _grouped_plan()
        clean = self._clean(plan)
        path = str(tmp_path / "j.jsonl")
        run_sweep(plan, n_jobs=1, journal=path,
                  faults=FaultPlan.parse("corrupt:4"))
        _, records, dropped = read_journal(path)
        assert dropped >= 1  # the torn record and everything after
        resumed = resume(plan, path, n_jobs=1)
        assert _canon(resumed) == clean

    def test_quarantine_then_resume_converges(self, tmp_path):
        """Exhausted retries -> 'failed' record; resume retries and heals."""
        plan = _grouped_plan()
        clean = self._clean(plan)
        path = str(tmp_path / "j.jsonl")
        report = run_sweep(plan, n_jobs=1, journal=path, retry=0,
                           faults=FaultPlan.parse("transient:5"))
        assert report.results[5].status == "failed"
        assert "injected transient" in report.results[5].error
        assert report.registry.snapshot()["counters"]["runner.failed"] == 1
        healed = resume(plan, path, n_jobs=1)
        assert healed.ok and _canon(healed) == clean
        # every settled group restored; item 4, though journaled ok, rides
        # along with its quarantined group-mate 5 (cold-cache determinism)
        assert healed.resumed == 6

    def test_real_tasks_chaos_matches_clean(self, tmp_path):
        """The acceptance scenario on real solver tasks, not toy counters."""
        plan = SweepPlan.competitive(
            ["edf", "firstfit"], ["uniform"], n=10, seeds=2
        )
        clean = _canon(run_sweep(plan, n_jobs=1))
        path = str(tmp_path / "j.jsonl")
        chaotic = run_sweep(
            plan, n_jobs=2, chunksize=2, journal=path,
            faults=FaultPlan.parse("sigkill:1,transient:2"),
        )
        assert chaotic.ok and _canon(chaotic) == clean
        resumed = resume(plan, path, n_jobs=2, chunksize=2)
        assert _canon(resumed) == clean
        assert resumed.resumed == len(plan)


# ---------------------------------------------------------------------------
# resume-after-any-prefix (the hypothesis property of ISSUE 5)


_PREFIX_CACHE = {}


def _prefix_fixture():
    """(plan, clean canonical view, full clean journal lines) — computed once."""
    if not _PREFIX_CACHE:
        import os
        import tempfile

        plan = _grouped_plan(8)
        clean = _canon(run_sweep(plan, n_jobs=1))
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            run_sweep(plan, n_jobs=1, journal=path)
            with open(path) as fh:
                lines = fh.readlines()
        finally:
            os.unlink(path)
        _PREFIX_CACHE["value"] = (plan, clean, lines)
    return _PREFIX_CACHE["value"]


class TestResumeAfterAnyPrefix:
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(0, 9), tear=st.booleans(), n_jobs=st.sampled_from([1, 2]))
    def test_any_prefix_resumes_to_clean_report(self, k, tear, n_jobs, tmp_path_factory):
        if n_jobs != 1 and not HAS_FORK:
            n_jobs = 1
        plan, clean, lines = _prefix_fixture()
        k = min(k, len(lines))
        path = str(tmp_path_factory.mktemp("prefix") / "j.jsonl")
        with open(path, "w") as fh:
            fh.writelines(lines[:k])
            if tear and k < len(lines):
                # a torn half-record at the point the "crash" hit
                fh.write(lines[k][: max(1, len(lines[k]) // 2)])
        resumed = run_sweep(plan, n_jobs=n_jobs, chunksize=2,
                            journal=path, resume=True)
        assert _canon(resumed) == clean
        # and the journal is now complete: a second resume restores everything
        again = resume(plan, path, n_jobs=1)
        assert again.resumed == len(plan) and _canon(again) == clean


# ---------------------------------------------------------------------------
# retry accounting and ambient mirroring


class TestRetryAccounting:
    def test_attempts_and_retries_counted(self):
        plan = _grouped_plan(4)
        with obs.capture() as ambient:
            report = run_sweep(
                plan, n_jobs=1, faults=FaultPlan.parse("transient:0,transient:2")
            )
        assert [r.attempts for r in report.results] == [2, 1, 2, 1]
        counters = report.registry.snapshot()["counters"]
        assert counters["runner.retries"] == 2
        # mirrored into the ambient capture exactly (serial top-up path)
        assert ambient.snapshot()["counters"]["runner.retries"] == 2
        snap = report.snapshot()
        assert [r["attempts"] for r in snap["results"]] == [2, 1, 2, 1]

    def test_deterministic_errors_never_retried(self):
        inst = Instance([Job(0, 1, 2, id=0)])
        plan = SweepPlan.build(
            ("fragile", inst, {"explode": i == 1}) for i in range(3)
        )
        report = run_sweep(plan, n_jobs=1, retry=5)
        assert report.results[1].status == "error"
        assert report.results[1].attempts == 1  # ValueError is not transient

    def test_exhausted_budget_quarantines(self):
        plan = _grouped_plan(2)
        faults = FaultPlan(
            tuple(Fault("transient", 0, attempt) for attempt in (1, 2, 3))
        )
        report = run_sweep(plan, n_jobs=1, retry=2, faults=faults)
        assert report.results[0].status == "failed"
        assert report.results[0].attempts == 3
        assert report.results[1].ok  # quarantine never poisons the sweep
        assert not report.ok
        assert "1 failed" in report.summary()


# ---------------------------------------------------------------------------
# KeyboardInterrupt: the journal-flush regression (satellite fix)


class TestInterruptDurability:
    def test_interrupted_sweep_flushes_journal_and_resumes(self, tmp_path):
        instances = [Instance([Job(0, 1, 2, id=i)]) for i in range(6)]
        plan = SweepPlan.build(
            ("interrupter", instances[i], {"index": i}) for i in range(6)
        )
        path = str(tmp_path / "j.jsonl")
        _INTERRUPT_AT["index"] = 4
        try:
            report = run_sweep(plan, n_jobs=1, chunksize=3, journal=path)
        finally:
            _INTERRUPT_AT["index"] = None
        assert report.interrupted
        statuses = [r.status for r in report.results]
        # item 3 finished inside the cut-short chunk and must be durable
        assert statuses == ["ok", "ok", "ok", "ok", "cancelled", "cancelled"]
        _, records, dropped = read_journal(path)
        assert dropped == 0 and sorted(records) == [0, 1, 2, 3]
        # the user re-runs the same sweep after the Ctrl-C
        clean = _canon(run_sweep(plan, n_jobs=1))
        resumed = resume(plan, path, n_jobs=1)
        assert resumed.resumed == 4
        assert _canon(resumed) == clean

    def test_interrupted_partial_report_is_complete(self):
        instances = [Instance([Job(0, 1, 2, id=i)]) for i in range(4)]
        plan = SweepPlan.build(
            ("interrupter", instances[i], {"index": i}) for i in range(4)
        )
        _INTERRUPT_AT["index"] = 1
        try:
            report = run_sweep(plan, n_jobs=1)  # no journal: still terminates
        finally:
            _INTERRUPT_AT["index"] = None
        assert report.interrupted and len(report.results) == len(plan)
        assert report.registry.snapshot()["counters"]["runner.cancelled"] == 3

    def test_interrupt_on_the_no_pool_loop_keeps_finished_items(
        self, tmp_path, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        instances = [Instance([Job(0, 1, 2, id=i)]) for i in range(6)]
        plan = SweepPlan.build(
            ("interrupter", instances[i], {"index": i}) for i in range(6)
        )
        path = str(tmp_path / "j.jsonl")
        _INTERRUPT_AT["index"] = 3
        try:
            report = run_sweep(plan, n_jobs=2, chunksize=6, journal=path)
        finally:
            _INTERRUPT_AT["index"] = None
        assert report.interrupted
        assert [r.status for r in report.results] == ["ok"] * 3 + ["cancelled"] * 3
        _, records, dropped = read_journal(path)
        assert dropped == 0 and sorted(records) == [0, 1, 2]

    @fork_only
    def test_interrupt_in_the_ladder_keeps_settled_groups(self, tmp_path):
        # One chunk of three groups: sigkill:0 breaks the shared pool, the
        # ladder re-runs group 0 to ok, then item 2 interrupts in group 1.
        instances = [Instance([Job(0, 1, 2, id=i)]) for i in range(3)]
        plan = SweepPlan.build(
            ("interrupter", instances[i // 2], {"index": i}) for i in range(6)
        )
        path = str(tmp_path / "j.jsonl")
        _INTERRUPT_AT["index"] = 2
        try:
            report = run_sweep(
                plan, n_jobs=2, chunksize=6, journal=path,
                faults=FaultPlan.parse("sigkill:0"),
            )
        finally:
            _INTERRUPT_AT["index"] = None
        assert report.interrupted
        assert [r.status for r in report.results] == ["ok"] * 2 + ["cancelled"] * 4
        _, records, dropped = read_journal(path)
        assert dropped == 0 and sorted(records) == [0, 1]
        assert all(records[i].status == "ok" for i in (0, 1))

    @fork_only
    def test_interrupt_on_the_shared_pool_returns_the_partial_report(
        self, tmp_path
    ):
        instances = [Instance([Job(0, 1, 2, id=i)]) for i in range(6)]
        plan = SweepPlan.build(
            ("interrupter", instances[i], {"index": i}) for i in range(6)
        )
        path = str(tmp_path / "j.jsonl")
        _INTERRUPT_AT["index"] = 0
        try:
            report = run_sweep(plan, n_jobs=2, chunksize=3, journal=path)
        finally:
            _INTERRUPT_AT["index"] = None
        assert report.interrupted
        statuses = [r.status for r in report.results]
        assert statuses[:3] == ["cancelled"] * 3
        # whatever the other worker finished first is kept and journaled
        _, records, dropped = read_journal(path)
        assert dropped == 0
        assert sorted(records) == [i for i, s in enumerate(statuses) if s == "ok"]
        assert set(statuses[3:]) <= {"ok", "cancelled"}


# ---------------------------------------------------------------------------
# degradation ladder


class TestDegradation:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        )
        plan = _grouped_plan(6)
        clean = _canon(run_sweep(plan, n_jobs=1))
        report = run_sweep(plan, n_jobs=4, chunksize=2)
        assert report.ok
        assert _canon(report) == clean
        assert report.registry.snapshot()["events"]["runner.degraded"] == 1

    def test_degraded_serial_demotes_sigkill(self, monkeypatch):
        """An injected SIGKILL must not take the parent down in-process."""
        import concurrent.futures

        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no pool")),
        )
        plan = _grouped_plan(4)
        report = run_sweep(
            plan, n_jobs=2, faults=FaultPlan.parse("sigkill:1")
        )
        # demoted to transient -> retried -> recovered; parent survived
        assert report.ok
        assert report.results[1].attempts == 2

    @fork_only
    def test_fork_failure_at_pool_start_degrades_to_serial(self, monkeypatch):
        # Under the fork start method the pool forks in its first submit,
        # not in the constructor: that is where EAGAIN lands.
        plan = _grouped_plan(6)
        clean = _canon(run_sweep(plan, n_jobs=1))
        _fail_fork(monkeypatch)
        seen = _degraded(monkeypatch)
        report = run_sweep(plan, n_jobs=2, chunksize=2)
        assert report.ok and not report.interrupted
        assert _canon(report) == clean
        assert seen == [("pool", "serial")]

    @fork_only
    def test_failed_start_leaves_no_forked_worker(self, monkeypatch):
        plan = _grouped_plan(6)
        clean = _canon(run_sweep(plan, n_jobs=1))
        before = set(multiprocessing.active_children())
        _fail_fork(monkeypatch, from_call=2)  # one worker forks, then EAGAIN
        seen = _degraded(monkeypatch)
        report = run_sweep(plan, n_jobs=2, chunksize=2)
        assert _canon(report) == clean
        assert seen == [("pool", "serial")]
        assert set(multiprocessing.active_children()) <= before

    @fork_only
    @pytest.mark.parametrize("k", [1, 3])
    def test_worker_death_during_submission_takes_the_ladder(
        self, k, monkeypatch
    ):
        plan = _grouped_plan(8)  # four chunks of one group each
        clean = _canon(run_sweep(plan, n_jobs=1))
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _pool_breaking_at_submit(k)
        )
        seen = _degraded(monkeypatch)
        report = run_sweep(plan, n_jobs=2, chunksize=2)
        assert report.ok and _canon(report) == clean
        assert seen == [("pool", "isolated")]
        # the chunk whose submit broke and every later one re-ran at rung 2
        assert [r.attempts for r in report.results] == (
            [1] * (2 * k - 2) + [2] * (8 - 2 * k + 2)
        )
        counters = report.registry.snapshot()["counters"]
        assert counters["runner.worker_crashes"] == 4 - k + 1

    @fork_only
    def test_ladder_runs_in_process_once_no_pool_starts(self, monkeypatch):
        plan = _grouped_plan(6)
        clean = _canon(run_sweep(plan, n_jobs=1))
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            _pool_breaking_at_submit(1, start_fails_after=2),
        )
        seen = _degraded(monkeypatch)
        report = run_sweep(plan, n_jobs=2, chunksize=6)  # one chunk
        # pool 1 breaks at its first submit; pool 2 re-runs group 0; pool 3
        # cannot start, so groups 1 and 2 run in-process at attempt 2
        assert report.ok and _canon(report) == clean
        assert seen == [("pool", "isolated"), ("isolated", "serial")]
        assert [r.attempts for r in report.results] == [2] * 6


# ---------------------------------------------------------------------------
# sharded sweeps: kill any shard, resume, merge — identical to the clean run


def _shard_paths(plan, tmp_path, n=3, skip=(), **kwargs):
    """Journal every shard of ``plan`` serially; returns the journal paths."""
    paths = []
    for k in range(n):
        path = str(tmp_path / f"shard{k}.jsonl")
        if k not in skip:
            run_sweep(plan.shard(k, n), n_jobs=1, chunksize=2,
                      journal=path, **kwargs)
        paths.append(path)
    return paths


class TestMergeJournals:
    def test_merge_equals_clean_run(self, tmp_path):
        plan = _grouped_plan(8)
        clean = _canon(run_sweep(plan, n_jobs=1, chunksize=2))
        paths = _shard_paths(plan, tmp_path)
        # with the plan: groups restored, canonical view byte-identical
        merged = merge_journals(paths, plan=plan)
        assert merged.ok
        assert canonical_report_view(merged) == clean
        assert [r.group for r in merged.results] == [
            item.group for item in plan
        ]
        # plan-free (the CLI path): journals alone carry enough identity
        assert canonical_report_view(merge_journals(paths)) == clean

    def test_merge_replays_into_ambient_sinks(self, tmp_path):
        plan = _grouped_plan(6)
        with obs.capture() as clean_reg:
            run_sweep(plan, n_jobs=1)
        paths = _shard_paths(plan, tmp_path)
        with obs.capture() as merged_reg:
            merge_journals(paths)
        assert (
            merged_reg.snapshot()["counters"]["test.work"]
            == clean_reg.snapshot()["counters"]["test.work"]
        )
        assert (
            merged_reg.snapshot()["events"]["test.visited"]
            == clean_reg.snapshot()["events"]["test.visited"]
        )

    def test_merge_histograms_bit_identical_to_unsharded(self, tmp_path):
        """3-shard merge vs unsharded: value hists byte-equal, `_ns` counts too."""
        plan = _grouped_plan(9)
        clean = run_sweep(plan, n_jobs=1, chunksize=2)
        merged = merge_journals(_shard_paths(plan, tmp_path, n=3))

        def split(report):
            hists = report.registry.snapshot()["hists"]
            values = {
                name: h for name, h in hists.items()
                if not name.endswith("_ns") and not name.startswith("runner.")
            }
            ns_counts = {
                name: h["count"] for name, h in hists.items()
                if name.endswith("_ns") and not name.startswith("runner.")
            }
            return values, ns_counts

        clean_values, clean_ns = split(clean)
        assert clean_values["test.sizes"]["count"] == 9
        merged_values, merged_ns = split(merged)
        assert json.dumps(merged_values, sort_keys=True) == json.dumps(
            clean_values, sort_keys=True
        )
        assert merged_ns == clean_ns

    def test_merged_report_summary_names_the_shards(self, tmp_path):
        plan = _grouped_plan(4)
        merged = merge_journals(_shard_paths(plan, tmp_path, n=2))
        assert "merged from 2 shard journal(s)" in merged.summary()

    def test_no_paths_rejected(self):
        with pytest.raises(MergeError, match="no journal paths"):
            merge_journals([])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="missing or corrupt"):
            merge_journals([str(tmp_path / "nope.jsonl")])

    def test_duplicate_shard_rejected(self, tmp_path):
        paths = _shard_paths(_grouped_plan(8), tmp_path)
        with pytest.raises(MergeError, match="duplicate shard 0/3"):
            merge_journals([paths[0], paths[0], paths[1], paths[2]])

    def test_missing_shard_rejected(self, tmp_path):
        paths = _shard_paths(_grouped_plan(8), tmp_path)
        with pytest.raises(MergeError, match=r"missing shard\(s\) \[2\]"):
            merge_journals(paths[:2])

    def test_foreign_fingerprint_rejected(self, tmp_path):
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        Journal.create(p1, "plan-a", 1, shard=(0, 2), plan_items=2).close()
        Journal.create(p2, "plan-b", 1, shard=(1, 2), plan_items=2).close()
        with pytest.raises(MergeError) as exc:
            merge_journals([p1, p2])
        # expected vs. found, both fingerprints named
        assert "plan-a" in str(exc.value) and "plan-b" in str(exc.value)
        assert "expected" in str(exc.value) and "found" in str(exc.value)

    def test_foreign_plan_object_rejected(self, tmp_path):
        plan = _grouped_plan(4)
        paths = _shard_paths(plan, tmp_path, n=2)
        other = SweepPlan.competitive(["edf"], ["uniform"], n=5, seeds=1)
        with pytest.raises(MergeError, match="from the plan"):
            merge_journals(paths, plan=other)

    def test_inconsistent_shard_count_rejected(self, tmp_path):
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        Journal.create(p1, "fp", 2, shard=(0, 2), plan_items=4).close()
        Journal.create(p2, "fp", 2, shard=(1, 3), plan_items=4).close()
        with pytest.raises(MergeError, match="inconsistent shard count"):
            merge_journals([p1, p2])

    def test_inconsistent_plan_size_rejected(self, tmp_path):
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        Journal.create(p1, "fp", 2, shard=(0, 2), plan_items=4).close()
        Journal.create(p2, "fp", 2, shard=(1, 2), plan_items=6).close()
        with pytest.raises(MergeError, match="inconsistent parent plan size"):
            merge_journals([p1, p2])

    def test_overlapping_shards_rejected(self, tmp_path):
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        j = Journal.create(p1, "fp", 2, shard=(0, 2), plan_items=4)
        j.append_item(0, "t", "ok", 1, None, 1, {})
        j.append_item(1, "t", "ok", 1, None, 1, {})
        j.close()
        j = Journal.create(p2, "fp", 3, shard=(1, 2), plan_items=4)
        for i in (1, 2, 3):  # item 1 also claimed by shard 0
            j.append_item(i, "t", "ok", 1, None, 1, {})
        j.close()
        with pytest.raises(MergeError, match="overlapping shards: item 1"):
            merge_journals([p1, p2])

    def test_torn_tail_rejected(self, tmp_path):
        plan = _grouped_plan(8)
        paths = _shard_paths(plan, tmp_path)
        with open(paths[1]) as fh:
            lines = fh.readlines()
        with open(paths[1], "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])  # torn mid-record
        with pytest.raises(MergeError, match="torn tail.*--resume"):
            merge_journals(paths)

    def test_incomplete_shard_rejected(self, tmp_path):
        plan = _grouped_plan(8)
        paths = _shard_paths(plan, tmp_path)
        with open(paths[2]) as fh:
            lines = fh.readlines()
        with open(paths[2], "w") as fh:
            fh.writelines(lines[:2])  # header + first item: a clean prefix
        with pytest.raises(MergeError, match="never completed.*--resume"):
            merge_journals(paths)

    def test_unsettled_shard_rejected_then_resume_heals(self, tmp_path):
        plan = _grouped_plan(8)
        clean = _canon(run_sweep(plan, n_jobs=1, chunksize=2))
        target = plan.shard(1, 3).items[0].index
        paths = _shard_paths(plan, tmp_path, skip={1})
        run_sweep(plan.shard(1, 3), n_jobs=1, chunksize=2, journal=paths[1],
                  retry=0, faults=FaultPlan.parse(f"transient:{target}"))
        with pytest.raises(MergeError, match="unsettled.*--resume"):
            merge_journals(paths)
        run_sweep(plan.shard(1, 3), n_jobs=1, chunksize=2,
                  journal=paths[1], resume=True)
        assert canonical_report_view(merge_journals(paths)) == clean


class TestJournalIdentityErrors:
    """Satellite bugfix: mismatch errors name expected vs. found identity."""

    def test_mismatch_reports_both_fingerprints_and_shards(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        Journal.create(path, "plan-a", 1, shard=(1, 3), plan_items=6).close()
        with pytest.raises(JournalMismatch) as exc:
            Journal.append_to(path, "plan-b", shard=(0, 3))
        message = str(exc.value)
        assert "expected" in message and "found" in message
        assert "'plan-b'" in message and "'plan-a'" in message
        assert "0/3" in message and "1/3" in message

    def test_resume_refuses_sibling_shard_journal(self, tmp_path):
        plan = _grouped_plan(8)
        path = str(tmp_path / "j.jsonl")
        run_sweep(plan.shard(0, 3), n_jobs=1, journal=path)
        with pytest.raises(JournalMismatch, match="0/3"):
            run_sweep(plan.shard(1, 3), n_jobs=1, journal=path, resume=True)

    def test_resume_refuses_unsharded_journal_for_shard(self, tmp_path):
        plan = _grouped_plan(4)
        path = str(tmp_path / "j.jsonl")
        run_sweep(plan, n_jobs=1, journal=path)
        with pytest.raises(JournalMismatch) as exc:
            run_sweep(plan.shard(0, 2), n_jobs=1, journal=path, resume=True)
        assert "0/2" in str(exc.value) and "0/1" in str(exc.value)


class TestKillAnyShard:
    """The acceptance scenario: kill any shard, resume it, merge — identical."""

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_quarantined_shard_resumes_to_identical_merge(
        self, victim, tmp_path
    ):
        plan = _grouped_plan(12)
        clean = _canon(run_sweep(plan, n_jobs=1, chunksize=2))
        target = plan.shard(victim, 3).items[0].index
        paths = _shard_paths(plan, tmp_path, skip={victim})
        struck = run_sweep(
            plan.shard(victim, 3), n_jobs=1, chunksize=2,
            journal=paths[victim], retry=0,
            faults=FaultPlan.parse(f"transient:{target}"),
        )
        assert not struck.ok  # the shard really was wounded
        healed = run_sweep(plan.shard(victim, 3), n_jobs=1, chunksize=2,
                           journal=paths[victim], resume=True)
        assert healed.ok
        assert canonical_report_view(merge_journals(paths, plan=plan)) == clean

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_shard_killed_mid_journal_resumes_to_identical_merge(
        self, victim, tmp_path
    ):
        # Simulate SIGKILLing the shard's *driver process* partway: keep an
        # arbitrary journal prefix (here: header + one item), then resume.
        plan = _grouped_plan(12)
        clean = _canon(run_sweep(plan, n_jobs=1, chunksize=2))
        paths = _shard_paths(plan, tmp_path)
        with open(paths[victim]) as fh:
            lines = fh.readlines()
        with open(paths[victim], "w") as fh:
            fh.writelines(lines[:2])
        run_sweep(plan.shard(victim, 3), n_jobs=1, chunksize=2,
                  journal=paths[victim], resume=True)
        assert canonical_report_view(merge_journals(paths)) == clean

    @fork_only
    def test_sigkilled_worker_in_shard_recovers_in_run(self, tmp_path):
        plan = _grouped_plan(12)
        clean = _canon(run_sweep(plan, n_jobs=1, chunksize=2))
        target = plan.shard(1, 3).items[0].index
        paths = _shard_paths(plan, tmp_path, skip={1})
        report = run_sweep(
            plan.shard(1, 3), n_jobs=2, chunksize=2, journal=paths[1],
            faults=FaultPlan.parse(f"sigkill:{target}"),
        )
        # the degradation ladder healed the shard without an operator resume
        assert report.ok
        assert canonical_report_view(merge_journals(paths)) == clean


# ---------------------------------------------------------------------------
# CLI


class TestChaosCLI:
    def test_chaos_transient_retried(self, capsys):
        assert main([
            "sweep", "ratio", "--policies", "edf", "--families", "uniform",
            "-n", "5", "--seeds", "2", "--chaos", "transient:1",
            "--retries", "2",
        ]) == 0
        assert "2/2 items ok" in capsys.readouterr().out

    def test_journal_then_resume_heals_quarantine(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        clean_snap = str(tmp_path / "clean.json")
        chaos_snap = str(tmp_path / "chaos.json")
        resumed_snap = str(tmp_path / "resumed.json")
        base = [
            "sweep", "ratio", "--policies", "edf,firstfit",
            "--families", "uniform", "-n", "5", "--seeds", "2",
        ]
        assert main(base + ["--snapshot", clean_snap]) == 0
        # fault with no retry budget -> quarantined item -> exit 1
        assert main(base + [
            "--journal", journal, "--chaos", "transient:1", "--retries", "0",
            "--snapshot", chaos_snap,
        ]) == 1
        out = capsys.readouterr().out
        assert "failed" in out and "--resume" in out
        # resume heals it and the canonical views agree byte-for-byte
        assert main(base + [
            "--journal", journal, "--resume", "--snapshot", resumed_snap,
        ]) == 0
        clean = canonical_report_view(json.loads(open(clean_snap).read()))
        resumed = canonical_report_view(json.loads(open(resumed_snap).read()))
        assert clean == resumed
        chaos = canonical_report_view(json.loads(open(chaos_snap).read()))
        assert chaos != resumed  # the quarantined item really was different

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main(["sweep", "ratio", "--resume"])

    def test_bad_chaos_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad fault spec"):
            main(["sweep", "ratio", "--chaos", "meteor"])

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--chunksize", "0"),
        ("--retries", "-1"),
        ("-n", "0"),
        ("--item-timeout", "-1"),
        ("--item-timeout", "0"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "sweep", "ratio", "--policies", "edf", "--families", "uniform",
                "--seeds", "1", flag, value,
            ])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err

    @alarm_only
    def test_item_timeout_flag_accepted(self, capsys):
        assert main([
            "sweep", "ratio", "--policies", "edf", "--families", "uniform",
            "-n", "5", "--seeds", "1", "--item-timeout", "60",
        ]) == 0
        assert "1/1 items ok" in capsys.readouterr().out


class TestShardCLI:
    BASE = [
        "sweep", "ratio", "--policies", "edf,firstfit",
        "--families", "uniform", "-n", "5", "--seeds", "3",
    ]

    def test_shard_and_merge_roundtrip(self, tmp_path, capsys):
        clean_snap = str(tmp_path / "clean.json")
        merged_snap = str(tmp_path / "merged.json")
        assert main(self.BASE + ["--snapshot", clean_snap]) == 0
        journals = []
        for k in range(3):
            journal = str(tmp_path / f"shard{k}.jsonl")
            assert main(self.BASE + [
                "--shard", f"{k}/3", "--journal", journal,
            ]) == 0
            journals.append(journal)
        out = capsys.readouterr().out
        assert "shard 2/3" in out  # summaries carry the shard identity
        assert main([
            "sweep", "merge", *journals, "--snapshot", merged_snap,
        ]) == 0
        out = capsys.readouterr().out
        assert "merged from 3 shard journal(s)" in out
        assert "edf" in out and "firstfit" in out  # ratio table rendered
        clean = canonical_report_view(json.loads(open(clean_snap).read()))
        merged = canonical_report_view(json.loads(open(merged_snap).read()))
        assert clean == merged

    def test_chaos_struck_shard_resume_then_merge(self, tmp_path, capsys):
        clean_snap = str(tmp_path / "clean.json")
        merged_snap = str(tmp_path / "merged.json")
        assert main(self.BASE + ["--snapshot", clean_snap]) == 0
        journals = [str(tmp_path / f"shard{k}.jsonl") for k in range(3)]
        assert main(self.BASE + ["--shard", "0/3", "--journal", journals[0]]) == 0
        assert main(self.BASE + ["--shard", "2/3", "--journal", journals[2]]) == 0
        # shard 1 owns item 2 (groups round-robin); strike it, no retries
        assert main(self.BASE + [
            "--shard", "1/3", "--journal", journals[1],
            "--chaos", "transient:2", "--retries", "0",
        ]) == 1
        with pytest.raises(SystemExit, match="unsettled"):
            main(["sweep", "merge", *journals])
        assert main(self.BASE + [
            "--shard", "1/3", "--journal", journals[1], "--resume",
        ]) == 0
        capsys.readouterr()
        assert main([
            "sweep", "merge", *journals, "--snapshot", merged_snap,
        ]) == 0
        clean = canonical_report_view(json.loads(open(clean_snap).read()))
        merged = canonical_report_view(json.loads(open(merged_snap).read()))
        assert clean == merged

    def test_bad_shard_spec_rejected(self):
        with pytest.raises(SystemExit, match="expects K/N"):
            main(self.BASE + ["--shard", "three"])

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(SystemExit, match="0 <= k < n"):
            main(self.BASE + ["--shard", "3/3"])

    def test_merge_requires_journals(self):
        with pytest.raises(SystemExit, match="at least one shard journal"):
            main(["sweep", "merge"])

    def test_merge_rejects_shard_flag(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        with pytest.raises(SystemExit, match="does not apply"):
            main(["sweep", "merge", journal, "--shard", "0/3"])

    def test_stray_journals_rejected_for_run_kinds(self):
        with pytest.raises(SystemExit, match="only apply to 'sweep merge'"):
            main(["sweep", "ratio", "stray.jsonl"])

    def test_merge_error_is_a_clean_exit(self, tmp_path):
        journal = str(tmp_path / "shard0.jsonl")
        assert main(self.BASE + ["--shard", "0/3", "--journal", journal]) == 0
        with pytest.raises(SystemExit, match="duplicate shard 0/3"):
            main(["sweep", "merge", journal, journal])
