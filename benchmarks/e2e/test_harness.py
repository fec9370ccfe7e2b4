"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

A tiny traced run of every workload must record every wrap point the layer
map says fires there and report every such metric as nonzero, so a rename
under ``src/`` fails here instead of silently reporting zeros.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SMOKE = wl.Sizes(
    certify_n=60,
    certify_horizon=120,
    hot_set=2,
    optimum_n=2000,
    optimum_horizon=4000,
    sweep_n=12,
    sweep_seeds=1,
)


@pytest.fixture(scope="module", autouse=True)
def kernel_cache(tmp_path_factory):
    """Keep the compiled kernel's cache inside the test's temp dir."""
    old = os.environ.get("REPRO_KERNEL_CACHE")
    os.environ["REPRO_KERNEL_CACHE"] = str(tmp_path_factory.mktemp("kernels"))
    yield
    if old is None:
        del os.environ["REPRO_KERNEL_CACHE"]
    else:
        os.environ["REPRO_KERNEL_CACHE"] = old


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


REF = wl.REFERENCE_COST_S


def test_ops_are_read_at_the_reference_speed_of_their_own_time():
    # The reference work takes its reference cost until t=10, then twice that.
    probe = wl.ProbeThread(starts=range(0, 20, 2), costs=[REF] * 5 + [2 * REF] * 5)
    phase = wl.Phase()
    phase.record(4.0, 4.0, (0.0, 4.0))  # samples at 0 and 2: reference speed
    phase.record(8.0, 12.0, (10.0, 18.0))  # samples at 10..16: half speed
    phase.record(0.5, 12.5, (19.0, 19.5))  # no sample inside: the one at 18
    latencies, busy = wl.at_reference_speed(phase, probe)
    assert latencies == pytest.approx([4.0, 4.0, 0.25])
    assert busy == pytest.approx(8.25)


def test_an_inline_probe_takes_its_samples_out_of_the_op():
    probe = wl.ProbeSignal(starts=[1.0, 3.0], costs=[REF, 2 * REF])
    phase = wl.Phase()
    phase.record(6.0, 6.0, (0.0, 6.0))  # slowdown 1.5, 3 * REF s of samples
    latencies, busy = wl.at_reference_speed(phase, probe)
    assert latencies == pytest.approx([(6.0 - 3 * REF) / 1.5])
    assert busy == pytest.approx((6.0 - 3 * REF) / 1.5)


@pytest.mark.parametrize("probe_type", [wl.ProbeThread, wl.ProbeSignal])
def test_probes_sample_while_the_program_runs(probe_type):
    deadline = time.process_time() + 0.2
    with probe_type() as probe:
        while time.process_time() < deadline:
            pass
    assert len(probe.costs) >= 5 and probe.starts == sorted(probe.starts)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_nest_subtracts_direct_children_only():
    spans = [
        layers.Span("outer", 0, 100, op=1, thread="main"),
        layers.Span("mid", 10, 60, op=1, thread="pool"),
        layers.Span("leaf", 20, 30, op=1, thread="pool"),
        layers.Span("other-op", 40, 50, op=2, thread="main"),
    ]
    layers.nest(spans)
    assert [s.parent for s in spans] == [None, 0, 1, None]
    assert [s.self_ns for s in spans] == [50, 40, 10, 10]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_smoke_run_hits_every_declared_wrap_point(workload, tmp_path):
    result = layers.traced_run(workload, seed=1, seconds=1.0, tmp=tmp_path, sizes=SMOKE)
    assert result.failed == 0 and not result.messages, result.messages
    assert list(result.metrics) == [name for name, _, _, _ in layers.PER_LAYER]
    fired = {span.name for span in result.spans}
    missing = [
        name for name, where in layers.FIRES_ON.items()
        if workload in where and name not in fired
    ]
    assert not missing, f"wrap points recorded no span on {workload}: {missing}"
    zeros = [
        name for name, _, _, where in layers.PER_LAYER
        if workload in where and result.metrics[name] == 0
    ]
    assert not zeros, f"metrics read 0 on {workload}: {zeros}"


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "certify_unique",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
