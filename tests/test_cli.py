"""End-to-end tests for the command-line interface."""

import json
import os
from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.adversary.migration_gap import MigrationGapAdversary
from repro.model.io import load, save
from repro.model import Instance, Job, Schedule
from repro.offline import kernel
from repro.offline.flow import PAST_INT64
from repro.offline.kernel import KernelUnavailable
from repro.offline.optimum import migratory_optimum
from repro.online.nonmigratory import FirstFitEDF
from repro.verify import certificate_from_dict, check_certificate

MCNAUGHTON3 = os.path.join(
    os.path.dirname(__file__), "data", "corpus", "mcnaughton3.json"
)


@pytest.fixture
def loose_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["generate", "loose", "-n", "15", "--alpha", "1/3",
                 "--seed", "7", "-o", str(path)]) == 0
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("kind", ["uniform", "loose", "tight", "agreeable", "laminar"])
    def test_all_kinds(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.json"
        assert main(["generate", kind, "-n", "10", "-o", str(path)]) == 0
        inst = load(str(path))
        assert isinstance(inst, Instance) and len(inst) == 10

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "uniform", "-n", "8", "--seed", "5", "-o", str(a)])
        main(["generate", "uniform", "-n", "8", "--seed", "5", "-o", str(b)])
        assert load(str(a)) == load(str(b))


class TestInspect:
    def test_classify(self, loose_file, capsys):
        assert main(["classify", loose_file]) == 0
        out = capsys.readouterr().out
        assert "class = loose" in out

    def test_opt(self, loose_file, capsys):
        assert main(["opt", loose_file, "--nonmigratory"]) == 0
        out = capsys.readouterr().out
        assert "migratory optimum:" in out
        assert "non-migratory optimum" in out


class TestSolveSimulate:
    def test_solve_auto_writes_schedule(self, loose_file, tmp_path, capsys):
        out_path = tmp_path / "sched.json"
        assert main(["solve", loose_file, "-o", str(out_path)]) == 0
        sched = load(str(out_path))
        assert isinstance(sched, Schedule)
        inst = load(loose_file)
        assert sched.verify(inst).feasible

    def test_solve_named_algorithm(self, loose_file, capsys):
        assert main(["solve", loose_file, "--algorithm", "loose"]) == 0
        assert "LooseAlgorithm" in capsys.readouterr().out

    def test_simulate_search_mode(self, loose_file, capsys):
        assert main(["simulate", loose_file, "--policy", "llf"]) == 0
        assert "minimum machines" in capsys.readouterr().out

    def test_simulate_fixed_machines(self, loose_file, capsys):
        code = main(["simulate", loose_file, "--policy", "edf",
                     "--machines", "15", "--gantt", "--width", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "missed = none" in out
        assert "M0" in out

    def test_simulate_failure_exit_code(self, tmp_path, capsys):
        # 3 zero-laxity parallel unit jobs on 1 machine must fail
        path = tmp_path / "hard.json"
        path.write_text(json.dumps({
            "format": 1, "kind": "instance",
            "jobs": [{"id": i, "release": 0, "processing": 1, "deadline": 1}
                     for i in range(3)],
        }))
        assert main(["simulate", str(path), "--policy", "edf",
                     "--machines", "1"]) == 1

    def test_gantt_command(self, loose_file, tmp_path, capsys):
        out_path = tmp_path / "sched.json"
        main(["solve", loose_file, "-o", str(out_path)])
        capsys.readouterr()
        assert main(["gantt", str(out_path), "--width", "30"]) == 0
        assert "M0" in capsys.readouterr().out


class TestAdversaryCommands:
    def test_migration_gap(self, tmp_path, capsys):
        out_path = tmp_path / "adv.json"
        assert main(["adversary", "migration-gap", "--k", "3",
                     "--policy", "firstfit", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "forced 3 machines" in out
        inst = load(str(out_path))
        assert isinstance(inst, Instance)

    def test_agreeable(self, capsys):
        assert main(["adversary", "agreeable", "--m", "40",
                     "--machines", "40", "--policy", "edf",
                     "--rounds", "5"]) == 0
        assert "MISSED" in capsys.readouterr().out

    def test_agreeable_survival(self, capsys):
        assert main(["adversary", "agreeable", "--m", "40",
                     "--machines", "60", "--policy", "llf",
                     "--rounds", "5"]) == 0
        assert "survived" in capsys.readouterr().out


class TestNewCommands:
    def test_svg_command(self, loose_file, tmp_path, capsys):
        sched_path = tmp_path / "s.json"
        main(["solve", loose_file, "-o", str(sched_path)])
        capsys.readouterr()
        out_path = tmp_path / "s.svg"
        assert main(["svg", str(sched_path), "-o", str(out_path),
                     "--title", "T"]) == 0
        assert out_path.read_text().startswith("<svg")

    def test_profile_command(self, loose_file, capsys):
        assert main(["profile", loose_file]) == 0
        out = capsys.readouterr().out
        assert "lower bound on m" in out
        assert "witness: C(S, I) = " in out

    def test_realtime_command(self, tmp_path, capsys):
        spec = tmp_path / "ts.json"
        spec.write_text(
            '{"tasks": [{"wcet": 1, "period": 4}, '
            '{"wcet": 2, "period": 8, "deadline": 6, "name": "x"}]}'
        )
        assert main(["realtime", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "migratory optimum" in out
        assert "recommended" in out

    def test_realtime_with_horizon(self, tmp_path, capsys):
        spec = tmp_path / "ts.json"
        spec.write_text('{"tasks": [{"wcet": 1, "period": 7}, {"wcet": 1, "period": 11}]}')
        assert main(["realtime", str(spec), "--horizon", "40"]) == 0


class TestObservability:
    def test_stats_prints_counter_table(self, loose_file, capsys):
        assert main(["stats", loose_file, "--policy", "edf"]) == 0
        out = capsys.readouterr().out
        assert "certified optimum:" in out
        assert "dinic.aug_paths" in out
        assert "engine.steps" in out

    def test_stats_json_spans_all_layers(self, loose_file, capsys):
        assert main(["stats", loose_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimum"] >= 1
        counters = payload["counters"]
        assert len(counters) >= 10
        for layer in ("dinic.", "cache.", "search.", "verify."):
            assert any(name.startswith(layer) for name in counters), layer
        assert payload["spans"]["verify.certified_optimum"]["count"] == 1

    def test_global_trace_flag_writes_jsonl(self, loose_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["opt", loose_file, "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        assert {"counter", "span"} <= {rec["type"] for rec in records}

    def test_trace_detached_after_run(self, loose_file, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "trace.jsonl"
        assert main(["classify", loose_file, "--trace", str(trace)]) == 0
        assert not obs.enabled()

    def test_profile_json_witness(self, loose_file, capsys):
        assert main(["profile", loose_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "instance", "n", "peak_density", "lower_bound", "witness",
        }  # "network" only with --network
        instance = load(loose_file)
        assert payload["lower_bound"] == migratory_optimum(instance)
        assert Fraction(payload["peak_density"]) > 0
        witness = payload["witness"]
        assert set(witness) == {"jobs", "region"}
        cert = certificate_from_dict({
            "kind": "infeasible", "machines": payload["lower_bound"] - 1,
            "speed": "1", **witness,
        })
        assert check_certificate(instance, cert).ok

    def test_profile_network_mode(self, loose_file, capsys):
        assert main(["profile", loose_file, "--network"]) == 0
        out = capsys.readouterr().out
        assert "event-interval sparsification" in out
        assert "elementary" in out and "kept" in out

    def test_profile_network_json(self, loose_file, capsys):
        assert main(["profile", loose_file, "--network", "--json"]) == 0
        net = json.loads(capsys.readouterr().out)["network"]
        assert net["intervals_kept"] == (
            net["intervals_elementary"] - net["intervals_dropped"]
        )
        assert net["nodes_before"] - net["nodes_after"] == net["intervals_dropped"]
        assert net["nodes_after"] <= net["nodes_before"]
        assert net["edges_after"] <= net["edges_before"]
        assert net["edges_after"] > 0


class TestObsV2:
    """`stats --prom`, the `trace` subcommand, `sweep status/--progress/--prom`."""

    FIXTURE = "tests/data/trace_fixture.jsonl"

    def test_stats_prom_exposition(self, loose_file, capsys):
        assert main(["stats", loose_file, "--policy", "edf", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "repro_dinic_aug_paths_total" in out
        hist_families = [
            line for line in out.splitlines()
            if line.startswith("# TYPE") and line.endswith("histogram")
        ]
        assert len(hist_families) >= 3
        assert 'le="+Inf"' in out
        for line in out.splitlines():
            assert line
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])  # every sample parses

    def test_stats_json_has_hist_quantiles(self, loose_file, capsys):
        assert main(["stats", loose_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["hist_quantiles"]
        assert rows
        assert all(
            {"count", "p50", "p90", "p99", "max"} <= set(row)
            for row in rows.values()
        )
        assert "dinic.solve" in json.dumps(list(rows))
        assert payload["hists"].keys() == rows.keys()

    def test_trace_analyze_table(self, capsys):
        assert main(["trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "16 records (1 skipped)" in out
        assert "span path" in out
        assert "optimum.search/optimum.probe" in out

    def test_trace_analyze_json_and_folded(self, tmp_path, capsys):
        folded = tmp_path / "folded.txt"
        assert main(["trace", "analyze", self.FIXTURE,
                     "--folded", str(folded), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 16 and payload["skipped"] == 1
        assert payload["hotspots"][0]["path"] == "runner.chunk"
        assert payload["counters"]["dinic.aug_paths"] == 10
        text = folded.read_text()
        assert "engine.simulate 4000000" in text
        assert "optimum.search;optimum.probe;dinic.solve 900000" in text

    def test_trace_diff_of_identical_traces_is_flat(self, capsys):
        assert main(["trace", "diff", self.FIXTURE, self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "Δself_ms" in out
        assert "+5" not in out  # no nonzero deltas

    def test_trace_arity_errors(self):
        with pytest.raises(SystemExit):
            main(["trace", "diff", self.FIXTURE])
        with pytest.raises(SystemExit):
            main(["trace", self.FIXTURE, self.FIXTURE])

    def _sweep(self, extra):
        return main([
            "sweep", "ratio", "--policies", "edf", "--families", "uniform",
            "-n", "6", "--seeds", "2", *extra,
        ])

    def test_sweep_prom_status_and_latency_summary(self, tmp_path, capsys):
        journal, prom = tmp_path / "j.jsonl", tmp_path / "m.prom"
        assert self._sweep(["--journal", str(journal),
                            "--prom", str(prom)]) == 0
        assert "item latency p50=" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE repro_runner_item_ns histogram" in text
        assert 'le="+Inf"' in text

        assert main(["sweep", "status", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "state: complete" in out
        assert "2/2 settled (2 ok), 0 remaining" in out

        # A torn tail flips the journal to incomplete: exit 1, healable.
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        assert main(["sweep", "status", str(journal), "--json"]) == 1
        status = json.loads(capsys.readouterr().out)
        assert status["dropped"] == 1 and not status["complete"]

    def test_sweep_status_names_the_shard(self, tmp_path, capsys):
        journal = tmp_path / "shard1.jsonl"
        assert self._sweep(["--shard", "1/2", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", str(journal)]) == 0
        assert "(shard 1/2 of a 2-item plan)" in capsys.readouterr().out

    def test_sweep_status_arity_and_missing(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "status"])
        with pytest.raises(SystemExit):
            main(["sweep", "status", str(tmp_path / "nope.jsonl")])

    def test_sweep_progress_ticker_on_stderr(self, capsys):
        assert self._sweep(["--progress"]) == 0
        err = capsys.readouterr().err
        assert "[sweep]" in err
        assert "2/2" in err


def past_int64_instance(name):
    """An instance whose flow passes int64: total demand 2**63 + 2**62
    with H = 2**61, or the depth-6 Lemma 2 adversary (an 87-bit scale)."""
    if name == "total-demand":
        h = 2**61
        return Instance([
            Job(0, 2 * h, 2 * h, id=0), Job(0, h, h, id=1),
            Job(h, h, 2 * h, id=2), Job(0, 2 * h, 2 * h, id=3),
        ])
    return MigrationGapAdversary(FirstFitEDF(), machines=9).run(6).instance


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["opt", "profile"])
    @pytest.mark.parametrize("name", ["total-demand", "depth-6-adversary"])
    def test_past_int64_exits_with_the_served_message(
        self, tmp_path, command, name, capsys
    ):
        path = tmp_path / "big.json"
        save(past_int64_instance(name), str(path))
        with pytest.raises(SystemExit) as exc_info:
            main([command, str(path)])
        assert str(exc_info.value) == PAST_INT64
        assert "certified lower bound" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["opt", "verify", "stats"])
    def test_unavailable_backend_exits_with_the_kernel_message(
        self, command, monkeypatch
    ):
        monkeypatch.setenv(kernel.DISABLE_ENV, "off")
        kernel.reset()
        try:
            with pytest.raises(SystemExit) as exc_info:
                main([command, MCNAUGHTON3, "--backend", "dinic_c"])
            message = str(exc_info.value)
            with pytest.raises(KernelUnavailable) as expected:
                kernel.load()
            assert message == str(expected.value)
            assert kernel.DISABLE_ENV in message
        finally:
            kernel.reset()

    @pytest.mark.parametrize("argv", [
        ["verify", MCNAUGHTON3, "--speed", "0"],
        ["verify", MCNAUGHTON3, "--speed=-1/2"],
        ["verify", MCNAUGHTON3, "--speed", "1/0"],
        ["verify", MCNAUGHTON3, "--speed", "abc"],
        ["verify", MCNAUGHTON3, "--m", "2", "--speed", "-1"],
        ["stats", MCNAUGHTON3, "--speed", "0"],
        ["simulate", MCNAUGHTON3, "--machines", "2", "--speed", "0"],
        ["sweep", "differential", "-n", "4", "--seeds", "1", "--speeds", "1,0"],
    ])
    def test_bad_speed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--speed" in err

    def test_missing_file(self, tmp_path):
        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["classify", str(tmp_path / "nope.json")])

    def test_wrong_payload_kind_for_instance(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text('{"format": 1, "kind": "schedule", "segments": []}')
        with pytest.raises(SystemExit):
            main(["classify", str(path)])

    def test_wrong_payload_kind_for_schedule(self, loose_file):
        with pytest.raises(SystemExit):
            main(["gantt", loose_file])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        # a user input problem exits cleanly, naming the file — no traceback
        with pytest.raises(SystemExit) as exc_info:
            main(["classify", str(path)])
        assert str(path) in str(exc_info.value)
        assert "invalid JSON" in str(exc_info.value)
