"""End-to-end benchmark of ``repro serve`` and the library: one command.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload certify_unique --seed 0 --seconds 15 --trace 0

prints its metrics one per line with units and sample counts, then, as the
last line of stdout, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of the real daemon (or library child process);
``--trace 1`` reports the per-layer metrics of an in-process traced run and
writes its spans to ``.bench_e2e/spans/``.  The exit code is 0 only when
every output checked correct.

Without ``--workload`` every workload runs, each in its own process::

    python3 benchmarks/e2e/run.py --seed 0              # one run each
    python3 benchmarks/e2e/run.py --seed 0 --trace 1    # traced run each
    python3 benchmarks/e2e/run.py --seed 0 --repeat 5   # stability table

``--repeat K`` runs every workload K times, seeds ``seed .. seed+K-1``,
alternating the workload order, and prints each metric's median,
quartiles, IQR/median and (max-min)/median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("certify_unique", "certify_hot", "optimum_1e5", "sweep_ratio")
#: BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 15
#: ``(name, unit, better)``, in BENCHMARK.json's order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
#: A run normally ends within 180 s; the first in a fresh checkout may be slower.
CHILD_TIMEOUT_S = 900


def commit() -> str:
    """``git rev-parse HEAD`` of the checkout, or ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def e2e_table(result):
    """``(values, notes)``: the end-to-end metrics, read on the reference
    host (see :class:`workloads.SpeedProbe`), and what each rests on."""
    from workloads import at_reference_speed, median, percentile

    phase = result.phase
    latencies, busy = at_reference_speed(phase, result.phase_probe)
    setup = result.setup_s()
    slowdowns = result.phase_probe.slowdowns(phase.spans)
    n = len(phase.latencies)
    values = {
        "setup_s": median(setup),
        "latency_p50_ms": median(latencies) * 1e3,
        "throughput_ops_s": n / busy,
        "peak_rss_mb": result.rss_mb,
    }
    notes = {
        "setup_s": "median of cold starts "
        + ", ".join(f"{s:.3f}" for s in setup) + "; as measured "
        + ", ".join(f"{t1 - t0:.3f}" for t0, t1 in result.setup),
        "latency_p50_ms": f"n={n}, p90={percentile(latencies, 90) * 1e3:.1f}; "
        f"as measured p50={median(phase.latencies) * 1e3:.1f} "
        f"p90={percentile(phase.latencies, 90) * 1e3:.1f}, median slowdown "
        f"{median(slowdowns):.3f} from {len(result.phase_probe.costs)} samples",
        "throughput_ops_s": f"as measured {n / phase.busy_s:.3f} "
        f"({n} ops in {phase.busy_s:.2f} s busy)",
    }
    return values, notes


def single_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as wl
    from repro.offline.flow import resolve_backend

    wl.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=wl.SCRATCH))
    # The harness's own kernel cache and temp dir (the compiler's scratch
    # files go there too), inherited by every child: nothing is written
    # outside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = str(tmp / "kernels")
    (tmp / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp / "tmp")
    try:
        print(
            f"# {workload} seed={seed} seconds={seconds} trace={int(trace)} "
            f"cpu_count={os.cpu_count()} kernel={resolve_backend('auto')} "
            f"python={platform.python_version()} commit={commit()}",
            flush=True,
        )
        if trace:
            import layers

            run = layers.traced_run(workload, seed, seconds, tmp)
            spans_dir = wl.SCRATCH / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_path = spans_dir / f"{workload}-seed{seed}.jsonl"
            layers.write_spans(run.spans, spans_path)
            table = [(name, unit, "") for name, unit, _, _ in layers.PER_LAYER]
            values, attempted, failed, messages = (
                run.metrics, run.attempted, run.failed, run.messages
            )
            print(f"# {len(run.spans)} spans written to {spans_path}")
        else:
            run = wl.timed_run(workload, seed, seconds, tmp)
            values, notes = e2e_table(run)
            table = [(name, unit, notes.get(name, "")) for name, unit, _ in END_TO_END]
            attempted, failed, messages = (
                run.phase.attempted, run.failed, run.messages
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, unit, note in table:
        print(f"{name:34s} {values[name]:14.6g} {unit:6s} {note}")
    print(f"{'error_rate':34s} {failed / max(attempted, 1):14.6g} ratio  "
          f"{failed} of {attempted} ops failed")
    for message in messages[:20]:
        print(f"! {message}")
    correct = failed == 0 and not messages
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in table
        },
    }), flush=True)
    return 0 if correct else 1


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def multi_run(workloads, seed: int, seconds: float, trace: bool, repeat: int) -> int:
    """Each workload ``repeat`` times in child processes; a summary table."""
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    status = 0
    for r in range(repeat):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed + r),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                status = 1
            lines = out.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                continue
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values[workload][name].append(metric["value"])
                units[name] = metric["unit"]
    if repeat > 1:
        print(f"\n# {repeat} runs per workload, seeds {seed}..{seed + repeat - 1}")
        print(f"{'workload':15s} {'metric':34s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s}")
        for workload in workloads:
            for name, vals in values[workload].items():
                q1, med, q3 = _quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                rng = (max(vals) - min(vals)) / med if med else 0.0
                print(f"{workload:15s} {name:34s} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:8.3f} {rng:8.3f} {units[name]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be positive and --repeat at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is not None and args.repeat == 1:
        return single_run(args.workload, args.seed, args.seconds, bool(args.trace))
    workloads = (args.workload,) if args.workload else WORKLOADS
    return multi_run(workloads, args.seed, args.seconds, bool(args.trace), args.repeat)


if __name__ == "__main__":
    sys.exit(main())
