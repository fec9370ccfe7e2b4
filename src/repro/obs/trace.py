"""Post-hoc analysis of JSONL trace files (``--trace out.jsonl``).

A trace is the raw obs stream — one JSON object per line, types ``span``,
``counter``, ``gauge``, ``event``, ``observe``, ``hist`` — written by
:class:`~repro.obs.sinks.JsonlSink`.  This module turns a trace back into
answers:

* **Span-tree aggregation**: span records carry their full hierarchical
  path (``optimum.search/optimum.probe/dinic.solve``), so the tree is
  reconstructed from path prefixes alone.  *Cumulative* time is the span's
  own total; *self* time subtracts the totals of its direct children —
  the number that tells you where the clock actually went.
* **Hotspot table**: top-N paths by self time, with call counts and the
  share of the trace's total self time (``render_hotspots``).
* **Folded stacks**: ``a;b;c <self_ns>`` lines, the input format of
  flamegraph.pl and speedscope (``folded_stacks``).
* **Diffing**: ``diff_traces(a, b)`` aligns two traces by span path and
  reports self/cumulative/count deltas — the before/after view for perf
  work (``repro trace diff a.jsonl b.jsonl``).

Everything is a pure function of the parsed trace, with deterministic
ordering (self time descending, then path), so the outputs are
snapshot-testable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

__all__ = [
    "TraceSummary",
    "diff_traces",
    "folded_stacks",
    "hotspots",
    "load_trace",
    "render_diff",
    "render_hotspots",
]


@dataclass
class _SpanAgg:
    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    errors: int = 0


@dataclass
class TraceSummary:
    """Aggregated view of one JSONL trace file."""

    spans: Dict[str, _SpanAgg] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    records: int = 0
    skipped: int = 0  # unparseable lines (torn tails are tolerated)


def load_trace(source: Union[str, IO[str]]) -> TraceSummary:
    """Parse a JSONL trace file (path or open stream) into a summary.

    Unknown record types are counted but otherwise ignored, so traces from
    newer obs versions degrade gracefully; malformed lines (e.g. a torn
    tail from a killed run) are skipped and counted in ``skipped``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_trace(fh)
    summary = TraceSummary()
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            kind = record["type"]
        except (ValueError, KeyError, TypeError):
            summary.skipped += 1
            continue
        summary.records += 1
        if kind == "span":
            path = str(record.get("path", ""))
            agg = summary.spans.get(path)
            if agg is None:
                agg = summary.spans[path] = _SpanAgg()
            ns = int(record.get("ns", 0))
            agg.count += 1
            agg.total_ns += ns
            agg.max_ns = max(agg.max_ns, ns)
            if record.get("error"):
                agg.errors += 1
        elif kind == "span_agg":
            # Pre-aggregated worker span totals, replayed by the runner
            # after a sweep (individual span records stay worker-local).
            path = str(record.get("path", ""))
            agg = summary.spans.get(path)
            if agg is None:
                agg = summary.spans[path] = _SpanAgg()
            agg.count += int(record.get("count", 0))
            agg.total_ns += int(record.get("total_ns", 0))
            agg.max_ns = max(agg.max_ns, int(record.get("max_ns", 0)))
            agg.errors += int(record.get("errors", 0))
        elif kind == "counter":
            name = str(record.get("name", ""))
            summary.counters[name] = (
                summary.counters.get(name, 0) + int(record.get("value", 0))
            )
        elif kind == "event":
            name = str(record.get("name", ""))
            summary.events[name] = summary.events.get(name, 0) + 1
    return summary


def _direct_children(paths: Iterable[str]) -> Dict[str, List[str]]:
    children: Dict[str, List[str]] = {}
    for path in paths:
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            children.setdefault(parent, []).append(path)
    return children


def hotspots(
    summary: TraceSummary, top: Optional[int] = 20
) -> List[Dict[str, Any]]:
    """Top-N span paths by self time (``top=None`` returns all).

    Each row carries ``path``, ``count``, ``errors``, ``cum_ns``
    (the path's own total) and ``self_ns`` (total minus the totals of its
    direct children; clamped at 0 against clock skew in torn traces).
    Ordering: self time descending, then path ascending — deterministic
    for golden tests.
    """
    children = _direct_children(summary.spans)
    rows = []
    for path, agg in summary.spans.items():
        child_ns = sum(
            summary.spans[c].total_ns for c in children.get(path, ())
        )
        rows.append({
            "path": path,
            "count": agg.count,
            "errors": agg.errors,
            "cum_ns": agg.total_ns,
            "self_ns": max(0, agg.total_ns - child_ns),
        })
    rows.sort(key=lambda r: (-r["self_ns"], r["path"]))
    return rows if top is None else rows[:top]


def render_hotspots(summary: TraceSummary, top: Optional[int] = 20) -> str:
    """The ``repro trace`` hotspot table (self/cumulative ms, share)."""
    rows = hotspots(summary, top=top)
    if not rows:
        return "(no spans in trace)"
    total_self = sum(r["self_ns"] for r in rows) or 1
    width = max(len(r["path"]) for r in rows)
    width = max(width, len("span path"))
    lines = [
        f"{'span path':<{width}}   count      self_ms       cum_ms   self%",
    ]
    for r in rows:
        lines.append(
            f"{r['path']:<{width}}  {r['count']:>6}"
            f"  {r['self_ns'] / 1e6:>11.3f}"
            f"  {r['cum_ns'] / 1e6:>11.3f}"
            f"  {100.0 * r['self_ns'] / total_self:>5.1f}%"
            + (f"  ({r['errors']} errors)" if r["errors"] else "")
        )
    return "\n".join(lines)


def folded_stacks(summary: TraceSummary) -> str:
    """Folded-stack lines (``a;b;c <self_ns>``) for flamegraph.pl/speedscope.

    One line per span path with nonzero self time, path components joined
    by semicolons, weighted by self nanoseconds; sorted by path so the
    output is byte-stable for a given trace.
    """
    lines = []
    for row in sorted(hotspots(summary, top=None), key=lambda r: r["path"]):
        if row["self_ns"] > 0:
            lines.append(f"{row['path'].replace('/', ';')} {row['self_ns']}")
    return "\n".join(lines)


def diff_traces(
    before: TraceSummary, after: TraceSummary, top: Optional[int] = 20
) -> List[Dict[str, Any]]:
    """Per-path self/cum/count deltas between two traces (after − before).

    Paths present in either trace are aligned; ordering is by absolute
    self-time delta descending, then path — the biggest regressions and
    wins surface first.
    """
    rows_a = {r["path"]: r for r in hotspots(before, top=None)}
    rows_b = {r["path"]: r for r in hotspots(after, top=None)}
    merged = []
    for path in sorted(set(rows_a) | set(rows_b)):
        a = rows_a.get(path, {"count": 0, "self_ns": 0, "cum_ns": 0})
        b = rows_b.get(path, {"count": 0, "self_ns": 0, "cum_ns": 0})
        merged.append({
            "path": path,
            "count_before": a["count"],
            "count_after": b["count"],
            "self_ns_delta": b["self_ns"] - a["self_ns"],
            "cum_ns_delta": b["cum_ns"] - a["cum_ns"],
        })
    merged.sort(key=lambda r: (-abs(r["self_ns_delta"]), r["path"]))
    return merged if top is None else merged[:top]


def render_diff(
    before: TraceSummary, after: TraceSummary, top: Optional[int] = 20
) -> str:
    """Human-readable table for ``repro trace diff``."""
    rows = diff_traces(before, after, top=top)
    if not rows:
        return "(no spans in either trace)"
    width = max(len(r["path"]) for r in rows)
    width = max(width, len("span path"))
    lines = [
        f"{'span path':<{width}}    calls     Δself_ms      Δcum_ms",
    ]
    for r in rows:
        calls = f"{r['count_before']}→{r['count_after']}"
        lines.append(
            f"{r['path']:<{width}}  {calls:>7}"
            f"  {r['self_ns_delta'] / 1e6:>+11.3f}"
            f"  {r['cum_ns_delta'] / 1e6:>+11.3f}"
        )
    return "\n".join(lines)
