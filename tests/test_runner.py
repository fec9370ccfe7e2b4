"""Tests for the parallel sweep runner (`repro.runner`).

Covers the contract pinned by ISSUE 4:

* seed splitting and grouping are process-stable (SHA-256, never the
  salted builtin ``hash``),
* chunking is group-preserving and a pure function of (plan, chunksize),
* ``run_sweep`` is bit-identical across worker counts — results, merged
  counters, and events — including a hypothesis sweep over random plans
  and ``n_jobs`` ∈ {1, 2, 4},
* failures are contained: task exceptions become ``"error"`` records, a
  SIGKILL-poisoned worker yields exactly one ``"crashed"`` record while
  its chunk-mates recover, and nothing is ever silently dropped,
* result streaming emits each item exactly once, in plan order,
* the ``repro sweep`` CLI drives all three plan kinds.
"""

import json
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.model import Instance, Job
from repro.runner import (
    FAMILIES,
    InstanceSpec,
    SweepPlan,
    WorkItem,
    instance_key,
    register_task,
    run_sweep,
    split_seed,
)

CORPUS = "tests/data/corpus"


# ---------------------------------------------------------------------------
# plan construction


class TestSeedSplitting:
    def test_deterministic_and_distinct(self):
        seeds = [split_seed(0, i) for i in range(64)]
        assert seeds == [split_seed(0, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**63 for s in seeds)

    def test_root_independence(self):
        assert split_seed(0, 0) != split_seed(1, 0)

    def test_known_value_is_platform_stable(self):
        # Pinned: a change here silently reshuffles every seeded sweep.
        assert split_seed(0, 0) == 6012404539614383444

    def test_instance_key_content_derived(self):
        a = Instance([Job(0, 1, 2, id=0)])
        b = Instance([Job(0, 1, 2, id=0)])
        c = Instance([Job(0, 1, 3, id=0)])
        assert instance_key(a) == instance_key(b) != instance_key(c)


class TestPlanModel:
    def test_spec_builds_family(self):
        spec = InstanceSpec("uniform", 5, split_seed(0, 0))
        inst = spec.build()
        assert len(inst) == 5
        assert inst == spec.build()  # rebuilding is deterministic

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            InstanceSpec("nope", 5, 0)

    def test_item_needs_exactly_one_target(self):
        spec = InstanceSpec("uniform", 3, 0)
        inst = Instance([Job(0, 1, 2, id=0)])
        with pytest.raises(ValueError):
            WorkItem(0, "ratio_sample")
        with pytest.raises(ValueError):
            WorkItem(0, "ratio_sample", spec=spec, instance=inst)

    def test_plan_rejects_sparse_indexing(self):
        spec = InstanceSpec("uniform", 3, 0)
        items = (WorkItem(1, "min_machines", spec=spec, params=(("policy", "edf"),)),)
        with pytest.raises(ValueError, match="densely indexed"):
            SweepPlan(items)

    def test_competitive_groups_by_instance(self):
        plan = SweepPlan.competitive(["edf", "firstfit"], ["uniform"], n=5, seeds=3)
        assert len(plan) == 6
        groups = [item.group for item in plan]
        # policies of one (family, seed) sit adjacent, sharing a group
        assert groups[0] == groups[1] != groups[2]
        assert len(set(groups)) == 3

    def test_corpus_plan_covers_expectations(self):
        plan = SweepPlan.corpus(CORPUS)
        with open(os.path.join(CORPUS, "expectations.json")) as fh:
            expected = len(json.load(fh)["cases"])
        assert len(plan) == expected
        assert all(item.task == "corpus_case" for item in plan)


class TestChunking:
    def test_groups_never_split(self):
        plan = SweepPlan.competitive(
            ["edf", "llf", "firstfit"], ["uniform", "loose"], n=5, seeds=4
        )
        for chunksize in (1, 2, 3, 5, 100):
            seen = {}
            for ci, chunk in enumerate(plan.chunks(chunksize)):
                for item in chunk:
                    assert seen.setdefault(item.group, ci) == ci

    def test_chunks_partition_plan_in_order(self):
        plan = SweepPlan.competitive(["edf"], ["uniform"], n=5, seeds=7)
        for chunksize in (1, 2, 3, 100):
            flat = [i.index for chunk in plan.chunks(chunksize) for i in chunk]
            assert flat == list(range(len(plan)))

    def test_chunksize_validated(self):
        plan = SweepPlan.competitive(["edf"], ["uniform"], n=5, seeds=1)
        with pytest.raises(ValueError):
            plan.chunks(0)


# ---------------------------------------------------------------------------
# sharding


def _ratio_plan(seeds=5, root=0):
    return SweepPlan.competitive(
        ["edf", "firstfit"], ["uniform"], n=5, seeds=seeds, root_seed=root
    )


class TestSharding:
    def test_shard_arguments_validated(self):
        plan = _ratio_plan()
        with pytest.raises(ValueError, match=">= 1"):
            plan.shard(0, 0)
        with pytest.raises(ValueError, match="0 <= k < n"):
            plan.shard(3, 3)
        with pytest.raises(ValueError, match="0 <= k < n"):
            plan.shard(-1, 2)

    def test_single_shard_is_the_whole_plan(self):
        plan = _ratio_plan()
        shard = plan.shard(0, 1)
        assert [i.index for i in shard] == [i.index for i in plan]
        assert shard.shard_id == (0, 1)
        assert shard.plan_items == len(plan)

    def test_shard_is_a_plan_that_cannot_be_sharded_again(self):
        plan = _ratio_plan()
        shard = plan.shard(1, 3)
        assert isinstance(shard, SweepPlan)
        assert plan.shard(0, 1) is plan
        with pytest.raises(ValueError, match="cannot be sharded again"):
            shard.shard(0, 2)

    def test_known_partition_is_pinned(self):
        # 5 groups of 2 items (2 policies x 5 seeds); groups round-robin
        # over shards in first-appearance order.  Pinned: a change here
        # silently repartitions every multi-host sweep.
        plan = _ratio_plan()
        got = [[i.index for i in plan.shard(k, 3)] for k in range(3)]
        assert got == [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5]]

    def test_shard_keeps_parent_identity(self):
        plan = _ratio_plan()
        shard = plan.shard(1, 3)
        assert shard.shard_id == (1, 3)
        assert shard.fingerprint() == plan.fingerprint()
        assert shard.plan_items == len(plan)
        # items keep their parent-plan indices (fault specs, journals, and
        # merge all speak parent-global indices)
        assert [i.index for i in shard] == [2, 3, 8, 9]

    @settings(max_examples=20, deadline=None)
    @given(
        policies=st.lists(
            st.sampled_from(["edf", "llf", "firstfit", "bestfit"]),
            min_size=1, max_size=2, unique=True,
        ),
        family=st.sampled_from(sorted(FAMILIES)),
        seeds=st.integers(1, 6),
        root=st.integers(0, 2**32),
        n_shards=st.integers(1, 5),
    )
    def test_property_shards_partition_the_plan(
        self, policies, family, seeds, root, n_shards
    ):
        plan = SweepPlan.competitive(
            policies, [family], n=4, seeds=seeds, root_seed=root
        )
        shards = [plan.shard(k, n_shards) for k in range(n_shards)]
        # pairwise disjoint, union to the full plan
        indices = [i.index for s in shards for i in s]
        assert len(indices) == len(set(indices))
        assert sorted(indices) == [item.index for item in plan]
        # each shard lists its items in canonical (plan) order
        for shard in shards:
            idx = [i.index for i in shard]
            assert idx == sorted(idx)
        # no group is ever split across shards
        owner = {}
        for k, shard in enumerate(shards):
            for item in shard:
                assert owner.setdefault(item.group, k) == k
        # pure function of the plan: an independently rebuilt plan agrees
        rebuilt = SweepPlan.competitive(
            policies, [family], n=4, seeds=seeds, root_seed=root
        )
        for k in range(n_shards):
            assert rebuilt.shard(k, n_shards).items == shards[k].items

    def test_partition_stable_across_processes(self):
        # The partition must not depend on the salted builtin hash: a fresh
        # interpreter under PYTHONHASHSEED=random computes the same shards.
        import subprocess
        import sys

        code = (
            "import json; from repro.runner import SweepPlan; "
            "p = SweepPlan.competitive(['edf', 'firstfit'], ['uniform'], "
            "n=5, seeds=5, root_seed=0); "
            "print(json.dumps("
            "[[i.index for i in p.shard(k, 3)] for k in range(3)]))"
        )
        env = dict(os.environ, PYTHONHASHSEED="random")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(out.stdout) == [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5]]

    def test_sharded_runs_cover_the_full_sweep(self):
        plan = _ratio_plan(seeds=3)
        clean = run_sweep(plan, n_jobs=1, chunksize=2)
        values = {}
        for k in range(2):
            report = run_sweep(plan.shard(k, 2), n_jobs=1, chunksize=2)
            assert report.ok and report.shard == (k, 2)
            values.update({r.index: r.value for r in report.results})
        assert values == {r.index: r.value for r in clean.results}


# ---------------------------------------------------------------------------
# execution: determinism across worker counts


def _strip_volatile(snapshot):
    """Counters + event counts only: span wall times are real, not replayed."""
    return snapshot["counters"], snapshot.get("events", {})


class TestDeterminism:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_parallel_matches_serial(self, n_jobs):
        plan = SweepPlan.competitive(
            ["edf", "firstfit"], ["uniform", "tight"], n=8, seeds=3
        )
        with obs.capture() as reg1:
            serial = run_sweep(plan, n_jobs=1, chunksize=2)
        with obs.capture() as reg2:
            parallel = run_sweep(plan, n_jobs=n_jobs, chunksize=2)
        assert [r.value for r in serial.results] == [
            r.value for r in parallel.results
        ]
        assert [r.status for r in serial.results] == [
            r.status for r in parallel.results
        ]
        # merged registries agree exactly (counters and event counts)
        assert _strip_volatile(serial.registry.snapshot()) == _strip_volatile(
            parallel.registry.snapshot()
        )
        # ...and so do the ambient captures around each call
        assert _strip_volatile(reg1.snapshot()) == _strip_volatile(reg2.snapshot())

    def test_histograms_bit_identical_across_worker_counts(self):
        """Merged value histograms are byte-equal for n_jobs 1, 2, and 4.

        Timing histograms (`*_ns`) hold genuine wall time, so only their
        observation *counts* must agree; every other histogram carries
        deterministic algorithmic values and must match bit for bit.
        """
        plan = SweepPlan.competitive(
            ["edf", "firstfit"], ["uniform", "tight"], n=8, seeds=3
        )
        base = None
        for n_jobs in (1, 2, 4):
            hists = run_sweep(
                plan, n_jobs=n_jobs, chunksize=2
            ).registry.snapshot()["hists"]
            values = json.dumps(
                {k: v for k, v in hists.items() if not k.endswith("_ns")},
                sort_keys=True,
            )
            ns_counts = {
                k: v["count"] for k, v in hists.items() if k.endswith("_ns")
            }
            if base is None:
                base = (values, ns_counts)
                assert ns_counts  # span auto-feed produced latency hists
                assert json.loads(values)  # and at least one value histogram
            else:
                assert (values, ns_counts) == base

    def test_chunksize_does_not_change_results(self):
        plan = SweepPlan.competitive(["edf"], ["uniform"], n=6, seeds=4)
        baseline = run_sweep(plan, n_jobs=1, chunksize=1)
        for chunksize in (2, 3, 100):
            other = run_sweep(plan, n_jobs=2, chunksize=chunksize)
            assert [r.value for r in other.results] == [
                r.value for r in baseline.results
            ]

    def test_serial_spawns_no_pool(self, monkeypatch):
        import concurrent.futures

        def boom(*a, **k):  # pragma: no cover - would fail the test
            raise AssertionError("n_jobs=1 must not spawn a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        plan = SweepPlan.competitive(["edf"], ["uniform"], n=5, seeds=2)
        report = run_sweep(plan, n_jobs=1)
        assert report.ok and report.n_jobs == 1

    @settings(max_examples=5, deadline=None)
    @given(
        policies=st.lists(
            st.sampled_from(["edf", "llf", "firstfit", "bestfit"]),
            min_size=1, max_size=2, unique=True,
        ),
        family=st.sampled_from(sorted(FAMILIES)),
        seeds=st.integers(1, 3),
        root=st.integers(0, 2**32),
        chunksize=st.integers(1, 4),
    )
    def test_property_bit_identical_across_worker_counts(
        self, policies, family, seeds, root, chunksize
    ):
        plan = SweepPlan.competitive(
            policies, [family], n=6, seeds=seeds, root_seed=root
        )
        reports = {
            k: run_sweep(plan, n_jobs=k, chunksize=chunksize) for k in (1, 2, 4)
        }
        base = reports[1]
        assert base.ok
        for k in (2, 4):
            assert [r.value for r in reports[k].results] == [
                r.value for r in base.results
            ]
            assert _strip_volatile(reports[k].registry.snapshot()) == (
                _strip_volatile(base.registry.snapshot())
            )


# ---------------------------------------------------------------------------
# failure containment


def _fragile_task(instance, *, explode: bool = False):
    if explode:
        raise ValueError("boom on purpose")
    return len(instance)


def _poison_task(instance, *, die: bool = False):
    if die:
        os.kill(os.getpid(), signal.SIGKILL)  # simulate the OOM killer
    return len(instance)


register_task("fragile", _fragile_task)
register_task("poison", _poison_task)


def _poison_plan(die_index: int, total: int = 6) -> SweepPlan:
    jobs = [Instance([Job(0, 1, 2, id=i)]) for i in range(total)]
    return SweepPlan.build(
        ("poison", jobs[i], {"die": i == die_index}) for i in range(total)
    )


class TestFailureContainment:
    def test_task_error_recorded_not_raised(self):
        inst = Instance([Job(0, 1, 2, id=0)])
        plan = SweepPlan.build(
            ("fragile", inst, {"explode": i == 1}) for i in range(3)
        )
        report = run_sweep(plan, n_jobs=1)
        assert [r.status for r in report.results] == ["ok", "error", "ok"]
        assert "boom on purpose" in report.errors[0].error
        assert report.registry.snapshot()["counters"]["runner.task_errors"] == 1
        assert report.registry.snapshot()["counters"]["runner.errors"] == 1

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="poison task is registered at runtime; needs fork inheritance",
    )
    def test_sigkilled_worker_blamed_chunkmates_recover(self):
        # item 2 SIGKILLs its worker mid-chunk; with chunksize=3 its chunk
        # also holds items 0,1 (and 3..5 ride in the second chunk).
        report = run_sweep(_poison_plan(die_index=2), n_jobs=2, chunksize=3)
        statuses = [r.status for r in report.results]
        assert statuses == ["ok", "ok", "crashed", "ok", "ok", "ok"]
        crash = report.crashes[0]
        assert crash.index == 2
        assert "WorkerCrash" in crash.error and "item 2" in crash.error
        # chunk-mates recovered their real values through the isolated retry
        assert [r.value for r in report.results if r.ok] == [1, 1, 1, 1, 1]
        counters = report.registry.snapshot()["counters"]
        assert counters["runner.crashes"] == 1
        assert counters["runner.items"] == 6
        # every item is accounted for: nothing silently dropped
        assert sorted(r.index for r in report.results) == list(range(6))

    def test_group_mates_of_a_persistent_crasher_recover(self):
        # One shared instance: the crasher's group re-runs whole, breaks its
        # fresh pool again, and drops to one pool per item.
        inst = Instance([Job(0, 1, 2, id=0)])
        plan = SweepPlan.build(("poison", inst, {"die": i == 1}) for i in range(3))
        report = run_sweep(plan, n_jobs=2, chunksize=3)
        assert [(r.status, r.value) for r in report.results] == [
            ("ok", 1), ("crashed", None), ("ok", 1)
        ]

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="poison task is registered at runtime; needs fork inheritance",
    )
    def test_crash_report_is_deterministic(self):
        a = run_sweep(_poison_plan(die_index=1), n_jobs=2, chunksize=2)
        b = run_sweep(_poison_plan(die_index=1), n_jobs=3, chunksize=2)
        assert [(r.status, r.value) for r in a.results] == [
            (r.status, r.value) for r in b.results
        ]


# ---------------------------------------------------------------------------
# streaming


class TestStreaming:
    def _plan(self):
        return SweepPlan.competitive(["edf"], ["uniform"], n=5, seeds=6)

    def test_ordered_streams_in_plan_order(self):
        seen = []
        plan = self._plan()
        report = run_sweep(plan, n_jobs=2, chunksize=2, on_result=seen.append)
        assert [r.index for r in seen] == list(range(len(plan)))
        # streamed objects are the same results the report carries
        assert {r.index: r.value for r in seen} == {
            r.index: r.value for r in report.results
        }


# ---------------------------------------------------------------------------
# consumers


class TestConsumers:
    def test_competitive_matrix_parallel_equals_serial(self):
        from repro.analysis.competitive import profile_matrix
        from repro.generators import uniform_random_instance

        policies = {"EDF": "edf", "FirstFit": "firstfit"}
        families = {"uniform": lambda s: uniform_random_instance(8, seed=s)}
        seeds = [split_seed(7, i) for i in range(3)]
        serial = profile_matrix(policies, families, seeds)
        parallel = profile_matrix(policies, families, seeds, n_jobs=2)
        assert serial == parallel

    def test_competitive_rejects_unpicklable_factory(self):
        from repro.analysis.competitive import profile_matrix
        from repro.generators import uniform_random_instance
        from repro.online.edf import EDF

        with pytest.raises(ValueError, match="registry policy names"):
            profile_matrix(
                {"EDF": lambda: EDF()},
                {"uniform": lambda s: uniform_random_instance(5, seed=s)},
                [1], n_jobs=2,
            )

    def test_differential_sweep_parallel_equals_serial(self):
        from repro.generators import uniform_random_instance
        from repro.verify.differential import differential_sweep

        instances = [uniform_random_instance(6, seed=s) for s in (1, 2)]
        serial = differential_sweep(instances, speeds=(1, "3/2"))
        parallel = differential_sweep(
            instances, speeds=(1, "3/2"), n_jobs=2, chunksize=2
        )
        assert serial.ok and parallel.ok
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert (a.m, a.speed, a.verdicts, a.failures) == (
                b.m, b.speed, b.verdicts, b.failures
            )


# ---------------------------------------------------------------------------
# CLI


class TestSweepCLI:
    def test_ratio_table(self, capsys):
        assert main([
            "sweep", "ratio", "--policies", "edf,firstfit",
            "--families", "uniform", "-n", "6", "--seeds", "2", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "edf" in out and "firstfit" in out

    def test_differential_json(self, capsys):
        assert main([
            "sweep", "differential", "--families", "uniform", "-n", "5",
            "--seeds", "2", "--workers", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_jobs"] == 2
        assert all(r["status"] == "ok" for r in payload["results"])
        assert payload["counters"]["runner.items"] == len(payload["results"])

    def test_corpus_snapshot_artifact(self, tmp_path, capsys):
        snap = tmp_path / "sweep.json"
        assert main([
            "sweep", "corpus", "--dir", CORPUS,
            "--workers", "2", "--chunksize", "4", "--snapshot", str(snap),
        ]) == 0
        payload = json.loads(snap.read_text())
        assert payload["counters"]["runner.items"] == len(payload["results"])
        assert all(r["status"] == "ok" for r in payload["results"])

    def test_unknown_policy_is_an_error(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["sweep", "ratio", "--policies", "zzz"])
