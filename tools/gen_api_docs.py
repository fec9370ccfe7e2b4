"""Generate docs/API.md from the package's public surface.

Walks ``repro``'s subpackages, collects public names with their one-line
summaries (first docstring line), and writes a browsable index.  Run after
changing the public API:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PACKAGES = [
    "repro.model",
    "repro.offline",
    "repro.offline.kernel",
    "repro.verify",
    "repro.online",
    "repro.core",
    "repro.core.adversary",
    "repro.generators",
    "repro.realtime",
    "repro.analysis",
    "repro.obs",
    "repro.runner",
    "repro.serve",
]


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n", 1)[0].strip()
    return first


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        yield name, obj


#: Hand-maintained tail: the CLI surface is not importable API, so it is
#: kept here and appended verbatim on every regeneration.
CLI_SECTION = [
    "## Command line (`python -m repro.cli`)",
    "",
    "| Command | Summary |",
    "|---|---|",
    "| `repro verify INSTANCE.json` | Certified optimum: prints the optimum"
    " with its feasible/infeasible witness pair, re-checked by exact"
    " arithmetic. |",
    "| `repro opt INSTANCE.json [--backend auto\\|dinic\\|dinic_c]` | Exact"
    " migratory/non-migratory optima; `auto` (default) picks the compiled"
    " Dinic kernel, building it on first use, and falls back to the"
    " pure-Python one without a compiler. |",
    "| `repro verify INSTANCE.json --m M [--speed S] [--backend B]` |"
    " Certificate for the verdict at a fixed machine count;"
    " `-o CERT.json` archives it. |",
    "| `repro verify INSTANCE.json --schedule SCHED.json [--m M]` |"
    " Re-verify an archived schedule (optionally against a machine bound). |",
    "| `repro verify INSTANCE.json --differential` | Cross-examine every"
    " available kernel (`dinic`, plus `dinic_c` where it builds) on the"
    " same probes; exit 1 on any certified disagreement. |",
    "| `repro stats INSTANCE.json [--policy P] [--json]` | One-shot"
    " observability report: certified optimum plus the counter/gauge/span"
    " table and per-histogram p50/p90/p99/max latency columns captured"
    " while computing it (and simulating `P`, if given); reports the"
    " resolved backend and, for `dinic_c`, the kernel build-cache"
    " hit/compiler/path. |",
    "| `repro stats INSTANCE.json --prom` | The same run rendered in"
    " Prometheus text exposition format: counters, numeric gauges,"
    " histograms with cumulative `le` buckets, and span totals. |",
    "| `repro trace RUN.jsonl [--top N] [--folded OUT] [--json]` | Post-hoc"
    " analysis of a `--trace` file: span-tree hotspot table (self vs."
    " cumulative time) and folded stacks for flamegraph.pl/speedscope. |",
    "| `repro trace diff BEFORE.jsonl AFTER.jsonl` | Per-span-path"
    " self/cumulative/count deltas between two traces, biggest movers"
    " first. |",
    "| `repro profile INSTANCE.json --json` | Machine-readable load profile:"
    " peak density, certified lower bound, and the winning grid window. |",
    "| `repro sweep ratio\\|differential\\|corpus [--workers K]"
    " [--journal OUT.jsonl] [--resume] [--retries K] [--item-timeout SEC]"
    " [--chaos SPEC]` | Parallel sweep with crash-only durability: journal"
    " every completed item, resume a killed run from the journal, retry"
    " transient failures, deadline each item, or inject deterministic"
    " faults (`sigkill:2,transient:4@1`) for chaos testing. |",
    "| `repro sweep … --shard K/N --journal shardK.jsonl` | Run only the"
    " deterministic, group-preserving shard K of N for multi-host fan-out;"
    " the journal header carries the parent-plan fingerprint and the shard"
    " identity, and per-shard `--resume`/`--chaos` work unchanged. |",
    "| `repro sweep merge shard0.jsonl shard1.jsonl …` | Fold the N shard"
    " journals into the canonical report, byte-identical to the unsharded"
    " run; duplicate/missing/overlapping shards, foreign fingerprints, torn"
    " tails, and unsettled items are refused with precise errors. |",
    "| `repro sweep … --progress` | Live single-line stderr ticker while"
    " the sweep runs: done/total, per-status counts, throughput, ETA. |",
    "| `repro sweep … --prom OUT.prom` | Also write the merged snapshot in"
    " Prometheus exposition format (works for runs and `sweep merge`). |",
    "| `repro sweep status JOURNAL.jsonl [--json]` | Progress of a"
    " journaled sweep from the durable file alone — settled/remaining"
    " counts, retries, torn tails, throughput, ETA; exit 0 iff complete. |",
    "| `repro <any subcommand> --trace OUT.jsonl` | Stream every span,"
    " counter, gauge, and event of the run to a JSONL trace file. |",
    "",
]


def generate() -> str:
    lines = [
        "# API — public surface index",
        "",
        "Generated by `python tools/gen_api_docs.py`; one line per public "
        "name, grouped by subpackage.  See module docstrings for details.",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`")
        lines.append("")
        pkg_doc = _summary(module)
        if pkg_doc:
            lines.append(pkg_doc)
            lines.append("")
        lines.append("| Name | Kind | Summary |")
        lines.append("|---|---|---|")
        for name, obj in sorted(_public_members(module)):
            if inspect.isclass(obj):
                kind = "class"
            elif callable(obj):
                kind = "function"
            else:
                kind = "constant"
            summary = _summary(obj) if kind != "constant" else ""
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
    lines.extend(CLI_SECTION)
    return "\n".join(lines)


def main() -> None:
    out = ROOT / "docs" / "API.md"
    out.write_text(generate(), encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
