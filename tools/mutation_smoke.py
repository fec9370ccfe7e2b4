#!/usr/bin/env python
"""Mutation smoke gate for the feasibility core, checker, runner, and obs hists.

Applies small, deterministic AST mutations (operator swaps, comparison
negations, min/max swaps) to the solver modules under ``src/repro/offline/``
(including the integer table scan and sweep of ``feascache.py``)
— plus the schedule checker (``model/schedule.py::verify``) and the
certificate checkers (``verify/checkers.py``), the
sweep-sharding partition (``runner/plan.py::shard``), the
multi-journal merge (``runner/merge.py::merge_journals``), and the obs v2
histogram core (``obs/hist.py`` bucket/merge/quantile logic) — and re-runs
the kill-set tests for each mutant.  Every mutant must be *killed* — a
surviving mutant means the certificate layer would accept output from a
subtly broken solver (or the merge layer would accept an unsound shard
partition), which is exactly the failure mode those layers exist to
prevent.

A mutant that makes the tests hang counts as killed (the behavioral change
was detected); a mutant that fails to compile is skipped (nothing to test).

Usage:
    python tools/mutation_smoke.py [--max-mutants N] [--time-budget SECONDS]
                                   [--list] [--tests PATH ...]

Exit status: 0 iff every executed mutant was killed.
"""

from __future__ import annotations

import argparse
import ast
import copy
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: file → function allowlist (None = every function in the file).  The
#: allowlist keeps mutation sites inside *semantics-critical* code: bounds
#: seeding and warm-start bookkeeping are deliberately excluded where a
#: mutation only degrades performance (an equivalent mutant for these tests).
TARGETS: Dict[str, Optional[Set[str]]] = {
    "src/repro/offline/dinic.py": None,
    "src/repro/offline/flow.py": {
        "_tick_base",
        "_wrap",
        "_to_ticks",
        "mcnaughton",
        "schedule_from_work",
        "max_flow_assignment",
        "migratory_feasible",
        "migratory_schedule",
    },
    "src/repro/offline/optimum.py": {"migratory_optimum"},
    # The integer table scan and sweep every network is built from (base
    # scale, live counts, dropped intervals, per-job windows, node/edge
    # counts, EDF order) and the points of the lazy Fraction interval lists.
    # tests/test_tables.py checks them field by field against the former
    # Fraction sweep; tests/test_sparsify.py against references built over
    # every elementary interval (the networkx oracle and the stand-alone
    # build).
    "src/repro/offline/feascache.py": {
        "_scan", "_sweep", "_build_tables", "_pairs",
    },
    # The checker every feasible certificate is re-verified by: the
    # one-pass integer ``Schedule.verify`` (plus the normalization whose
    # start order it relies on) and the certificate checkers.  The kill-set
    # pins it to its Fraction reference (tests/test_integer_time.py) and
    # to systematic schedule corruptions (tests/test_checker_mutations.py).
    "src/repro/model/schedule.py": {"verify", "_merge_adjacent", "_ticks"},
    "src/repro/verify/checkers.py": None,
    # Sharded sweeps (ISSUE 7): a mutated partition (split group, skewed
    # round-robin) or merge validation (accepted duplicate/overlap/foreign
    # journal) must be caught by the sharding and merge kill-sets below.
    "src/repro/runner/plan.py": {"shard"},
    "src/repro/runner/merge.py": {"merge_journals"},
    # Obs v2 histograms (ISSUE 8): mutated bucket geometry, inexact merges,
    # or skewed quantiles would silently corrupt every latency report and
    # break the bit-identical sweep-merge invariant; tests/test_hist.py is
    # the kill-set.
    "src/repro/obs/hist.py": {
        "bucket_index",
        "bucket_bounds",
        "observe",
        "merge",
        "quantile",
    },
    # Compiled kernel (ISSUE 9): the ctypes ABI layer (buffer addresses,
    # error propagation, allocation sizes) and the build-cache publish
    # logic.  With ``auto`` resolving to ``dinic_c``, test_corpus alone no
    # longer exercises the python kernel — the explicit py-vs-c equality
    # checks in tests/test_kernel.py::TestKillSet keep both sides honest,
    # TestBuildCache kills mutants that break the compile/cache path
    # (which would otherwise hide behind the graceful auto fallback), and
    # TestFallbackLadder those that break the typed no-compiler error.
    "src/repro/offline/kernel/abi.py": None,
    "src/repro/offline/kernel/build.py": {"ensure_built"},
    # Serve layer (ISSUE 10): the request router (a swapped comparison
    # routes certify traffic to the wrong handler or forgives trailing
    # slashes) and the queue's drain state machine (int-coded lifecycle
    # precisely so these comparisons are mutable sites — a mutant that
    # accepts submits while draining, or resurrects a stopped queue,
    # breaks the crash-only acknowledgement rule).  tests/test_serve.py's
    # routing/backpressure/drain classes are the kill-set.
    "src/repro/serve/app.py": {"dispatch", "_match", "handle"},
    "src/repro/serve/queue.py": {
        "submit",
        "_outcome",
        "_run",
        "begin_drain",
        "drain",
    },
}

#: The kill-set: fast, deterministic, certificate-backed.
DEFAULT_TESTS = [
    "tests/test_corpus.py",
    "tests/test_sparsify.py",
    "tests/test_tables.py",
    "tests/test_integer_time.py",
    "tests/test_checker_mutations.py",
    "tests/test_runner.py::TestSharding",
    "tests/test_chaos.py::TestMergeJournals",
    "tests/test_hist.py",
    "tests/test_kernel.py::TestKillSet",
    "tests/test_kernel.py::TestBuildCache",
    "tests/test_kernel.py::TestFallbackLadder",
    "tests/test_serve.py::TestRouting",
    "tests/test_serve.py::TestBackpressure",
    "tests/test_serve.py::TestSweepEndpoints",
    "tests/test_serve.py::TestDrainStateMachine",
]

COMPARE_SWAP = {
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}
BINOP_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.BitXor: ast.BitOr}
NAME_SWAP = {"min": "max", "max": "min"}

#: Functions where ``==``/``!=`` swaps are excluded: Dinic's level check
#: (``level[v] == lu``) degenerates into plain DFS augmentation — slower but
#: still a maximum flow, i.e. an equivalent mutant for correctness tests.
NO_EQ_SWAP_FUNCS = {"max_flow"}

#: Functions where ``^``/``|`` swaps are excluded: ``work_by_job`` reads
#: ``cap[e ^ 1]`` only on *forward* (even) edge ids, where ``e ^ 1 == e | 1``
#: — a textbook equivalent mutant.
NO_XOR_SWAP_FUNCS = {"work_by_job"}


class Site:
    """One mutable AST location inside an allowlisted function."""

    __slots__ = ("path", "func", "lineno", "col", "node_kind", "detail")

    def __init__(self, path: str, func: str, lineno: int, col: int,
                 node_kind: str, detail: str) -> None:
        self.path = path
        self.func = func
        self.lineno = lineno
        self.col = col
        self.node_kind = node_kind
        self.detail = detail

    def label(self) -> str:
        return f"{self.path}:{self.lineno}:{self.col} [{self.func}] {self.detail}"


def _is_string_compare(node: ast.Compare) -> bool:
    """Skip ``backend == "dinic"``-style dispatch: swapping it just routes
    probes through the *other* (correct) backend — an equivalent mutant."""
    operands = [node.left, *node.comparators]
    return any(isinstance(o, ast.Constant) and isinstance(o.value, str) for o in operands)


def iter_sites(path: str, tree: ast.Module, allow: Optional[Set[str]]) -> Iterator[Site]:
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if allow is not None and func.name not in allow:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.BinOp)
                and type(node.op) in BINOP_SWAP
                and not (
                    func.name in NO_XOR_SWAP_FUNCS
                    and isinstance(node.op, ast.BitXor)
                )
            ):
                yield Site(path, func.name, node.lineno, node.col_offset,
                           "binop", type(node.op).__name__)
            elif (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and type(node.ops[0]) in COMPARE_SWAP
                and not _is_string_compare(node)
                and not (
                    func.name in NO_EQ_SWAP_FUNCS
                    and type(node.ops[0]) in (ast.Eq, ast.NotEq)
                )
            ):
                yield Site(path, func.name, node.lineno, node.col_offset,
                           "compare", type(node.ops[0]).__name__)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in NAME_SWAP
            ):
                yield Site(path, func.name, node.lineno, node.col_offset,
                           "minmax", node.func.id)


def mutate_source(source: str, site: Site) -> Optional[str]:
    """Re-parse, swap the node at the site, and unparse the mutated module."""
    tree = ast.parse(source)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name != site.func:
            continue
        for node in ast.walk(func):
            if (getattr(node, "lineno", None), getattr(node, "col_offset", None)) != (
                site.lineno,
                site.col,
            ):
                continue
            # Nested expressions can share (lineno, col) — e.g. in
            # ``a * b / c`` the Div node starts at ``a`` too — so the op
            # kind must match the enumerated site, not just the position.
            if (
                site.node_kind == "binop"
                and isinstance(node, ast.BinOp)
                and type(node.op).__name__ == site.detail
            ):
                node.op = BINOP_SWAP[type(node.op)]()
                return ast.unparse(tree)
            if (
                site.node_kind == "compare"
                and isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and type(node.ops[0]).__name__ == site.detail
            ):
                node.ops = [COMPARE_SWAP[type(node.ops[0])]()]
                return ast.unparse(tree)
            if site.node_kind == "minmax" and isinstance(node, ast.Call):
                node.func = ast.Name(id=NAME_SWAP[node.func.id], ctx=ast.Load())
                return ast.unparse(tree)
    return None


def run_tests(tests: List[str], timeout: float) -> str:
    """Returns 'killed', 'survived', or 'timeout' for the current tree."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "--no-header", *tests],
            cwd=REPO,
            env={**dict(__import__("os").environ), "PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mutants", type=int, default=14,
                        help="evenly-spaced sample of all enumerated sites")
    parser.add_argument("--time-budget", type=float, default=300.0,
                        help="stop (gracefully) after this many seconds")
    parser.add_argument("--per-mutant-timeout", type=float, default=None,
                        help="default: 2.5x the clean-run time (min 30s)")
    parser.add_argument("--tests", nargs="*", default=DEFAULT_TESTS)
    parser.add_argument("--list", action="store_true",
                        help="print every enumerated site and exit")
    args = parser.parse_args(argv)

    sites: List[Site] = []
    sources: Dict[str, str] = {}
    for rel, allow in TARGETS.items():
        source = (REPO / rel).read_text(encoding="utf-8")
        sources[rel] = source
        sites.extend(iter_sites(rel, ast.parse(source), allow))
    if args.list:
        for i, site in enumerate(sites):
            print(f"{i:4d}  {site.label()}")
        print(f"{len(sites)} sites total")
        return 0

    if args.max_mutants and args.max_mutants < len(sites):
        stride = len(sites) / args.max_mutants
        chosen = [sites[int(i * stride)] for i in range(args.max_mutants)]
    else:
        chosen = sites

    start = time.monotonic()
    print(f"sanity: running kill-set clean ({' '.join(args.tests)})")
    if run_tests(args.tests, args.time_budget) != "survived":
        print("FATAL: kill-set does not pass on the unmutated tree")
        return 2
    clean_time = time.monotonic() - start
    # A mutant that runs much longer than the clean suite has hung (e.g. an
    # unbounded search) — that *is* a behavioral detection, so cut it short.
    timeout = args.per_mutant_timeout or max(30.0, 2.5 * clean_time)
    print(f"clean run {clean_time:.0f}s; per-mutant timeout {timeout:.0f}s")

    survivors: List[Site] = []
    executed = 0
    for site in chosen:
        if time.monotonic() - start > args.time_budget:
            print(f"time budget exhausted after {executed}/{len(chosen)} mutants")
            break
        mutated = mutate_source(sources[site.path], site)
        if mutated is None:
            print(f"  skip (site vanished): {site.label()}")
            continue
        target = REPO / site.path
        try:
            target.write_text(mutated, encoding="utf-8")
            verdict = run_tests(args.tests, timeout)
        finally:
            target.write_text(sources[site.path], encoding="utf-8")
        executed += 1
        mark = {"killed": "✓ killed", "timeout": "✓ killed (hang)",
                "survived": "✗ SURVIVED"}[verdict]
        print(f"  {mark}: {site.label()}")
        if verdict == "survived":
            survivors.append(site)

    elapsed = time.monotonic() - start
    print(f"\n{executed} mutants in {elapsed:.0f}s: "
          f"{executed - len(survivors)} killed, {len(survivors)} survived")
    if survivors:
        print("surviving mutants (the certificate tests must be strengthened):")
        for site in survivors:
            print(f"  {site.label()}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
