"""Sinks for the observability stream.

A sink is any object with the callbacks below; :mod:`repro.obs.core`
fans every span/counter/gauge/event/observation out to all attached sinks:

* :class:`Registry` — thread-safe in-memory aggregation (counters sum,
  gauges keep the last value, spans keep count/total/max nanoseconds,
  histograms stream into fixed log buckets — see :mod:`repro.obs.hist`).
  Every span duration additionally feeds the histogram ``<path>_ns``, so
  latency quantiles per span path come for free wherever spans already
  exist.  The workhorse for tests, ``repro stats``, and the benchmark
  harness.
* :class:`JsonlSink` — one JSON object per line, timestamps relative to
  sink creation, for offline analysis and CI artifacts.
* :class:`StderrSummary` — aggregates like a registry and renders a
  human-readable table on :meth:`close` (or on demand).

All values pass through :func:`jsonable`, so exact :class:`~fractions.Fraction`
attributes survive as strings instead of crashing ``json.dump``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, IO, Optional, Union

from .hist import Hist

__all__ = ["Sink", "Registry", "JsonlSink", "StderrSummary", "jsonable"]


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into something ``json.dump`` accepts."""
    # Exact types first: a payload that is JSON already (a served
    # certificate) never reaches the ABC-backed ``isinstance`` checks.
    kind = type(value)
    if kind is str or kind is int or value is None:
        return value
    if kind is dict:
        return {str(k): jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return str(value)


def _fmt_hist_value(name: str, value: Any) -> str:
    """One histogram table cell; ``*_ns`` histograms render as milliseconds."""
    if value is None:
        return "-"
    if name.endswith("_ns"):
        return f"{value / 1e6:.3f}ms"
    return f"{float(value):g}"


class Sink:
    """Base sink: ignores everything.  Subclasses override what they need."""

    def on_span(self, path: str, duration_ns: int,
                attrs: Dict[str, Any], error: Optional[str]) -> None:
        pass

    def on_span_agg(self, path: str, stat: Dict[str, int]) -> None:
        pass

    def on_counter(self, name: str, value: int, attrs: Dict[str, Any]) -> None:
        pass

    def on_gauge(self, name: str, value: Any, attrs: Dict[str, Any]) -> None:
        pass

    def on_event(self, name: str, attrs: Dict[str, Any], span_path: str) -> None:
        pass

    def on_observe(self, name: str, value: Any, attrs: Dict[str, Any]) -> None:
        pass

    def on_hist(self, name: str, snapshot: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass
class SpanStat:
    """Aggregated timing of one span path."""

    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    errors: int = 0

    def add(self, duration_ns: int, error: Optional[str]) -> None:
        self.count += 1
        self.total_ns += duration_ns
        if duration_ns > self.max_ns:
            self.max_ns = duration_ns
        if error is not None:
            self.errors += 1


class Registry(Sink):
    """Thread-safe in-memory aggregation of the observability stream."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Any] = {}
        self.spans: Dict[str, SpanStat] = {}
        self.events: Dict[str, int] = {}
        self.hists: Dict[str, Hist] = {}
        self._lock = threading.Lock()

    def on_span(self, path, duration_ns, attrs, error) -> None:
        with self._lock:
            stat = self.spans.get(path)
            if stat is None:
                stat = self.spans[path] = SpanStat()
            stat.add(duration_ns, error)
            # Every span path doubles as a latency histogram, so quantiles
            # per hierarchical path need no extra instrumentation.
            hist = self.hists.get(path + "_ns")
            if hist is None:
                hist = self.hists[path + "_ns"] = Hist()
            hist.observe(duration_ns)

    def on_span_agg(self, path, stat) -> None:
        # Fold pre-aggregated worker span totals.  The matching ``<path>_ns``
        # histogram is NOT fed here: the workers' registries already fed it
        # span by span, and those histograms replay separately via
        # ``on_hist`` — feeding it again would double-count.
        with self._lock:
            agg = self.spans.get(path)
            if agg is None:
                agg = self.spans[path] = SpanStat()
            agg.count += int(stat["count"])
            agg.total_ns += int(stat["total_ns"])
            agg.max_ns = max(agg.max_ns, int(stat["max_ns"]))
            agg.errors += int(stat.get("errors", 0))

    def on_observe(self, name, value, attrs) -> None:
        with self._lock:
            hist = self.hists.get(name)
            if hist is None:
                hist = self.hists[name] = Hist()
            hist.observe(value)

    def on_hist(self, name, snapshot) -> None:
        with self._lock:
            hist = self.hists.get(name)
            if hist is None:
                hist = self.hists[name] = Hist()
            hist.merge(Hist.from_snapshot(snapshot))

    def on_counter(self, name, value, attrs) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def on_gauge(self, name, value, attrs) -> None:
        with self._lock:
            self.gauges[name] = value

    def on_event(self, name, attrs, span_path) -> None:
        with self._lock:
            self.events[name] = self.events.get(name, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dict of everything aggregated so far."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": {k: jsonable(v) for k, v in sorted(self.gauges.items())},
                "spans": {
                    path: {
                        "count": s.count,
                        "total_ns": s.total_ns,
                        "max_ns": s.max_ns,
                        "errors": s.errors,
                    }
                    for path, s in sorted(self.spans.items())
                },
                "events": dict(sorted(self.events.items())),
                "hists": {
                    name: h.snapshot() for name, h in sorted(self.hists.items())
                },
            }

    def summary(self) -> str:
        """Human-readable counter + span table (used by ``repro stats``)."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            width = max(map(len, snap["counters"]))
            lines.append("counters:")
            lines.extend(
                f"  {name:<{width}}  {value}"
                for name, value in snap["counters"].items()
            )
        if snap["gauges"]:
            width = max(map(len, snap["gauges"]))
            lines.append("gauges:")
            lines.extend(
                f"  {name:<{width}}  {value}"
                for name, value in snap["gauges"].items()
            )
        if snap["events"]:
            width = max(map(len, snap["events"]))
            lines.append("events:")
            lines.extend(
                f"  {name:<{width}}  {count}"
                for name, count in snap["events"].items()
            )
        if snap["spans"]:
            width = max(map(len, snap["spans"]))
            lines.append("spans:" + " " * max(0, width - 4)
                         + "   count     total_ms       max_ms")
            for path, s in snap["spans"].items():
                lines.append(
                    f"  {path:<{width}}  {s['count']:>6}  {s['total_ns'] / 1e6:>11.3f}"
                    f"  {s['max_ns'] / 1e6:>11.3f}"
                    + (f"  ({s['errors']} errors)" if s["errors"] else "")
                )
        hist_rows = self.hist_quantiles()
        if hist_rows:
            width = max(map(len, hist_rows))
            lines.append("histograms:" + " " * max(0, width - 9)
                         + "   count          p50          p90          p99          max")
            for name, row in hist_rows.items():
                cells = "".join(
                    f"  {_fmt_hist_value(name, row[col]):>11}"
                    for col in ("p50", "p90", "p99", "max")
                )
                lines.append(f"  {name:<{width}}  {row['count']:>6}{cells}")
        return "\n".join(lines) if lines else "(no observability data)"

    def hist_quantiles(self) -> Dict[str, Dict[str, Any]]:
        """Per-histogram ``{count, p50, p90, p99, max}`` rows (sorted)."""
        with self._lock:
            return {
                name: {"count": h.count, **h.quantile_row()}
                for name, h in sorted(self.hists.items())
            }


class JsonlSink(Sink):
    """Streams every span/counter/gauge/event as one JSON line.

    ``t`` is nanoseconds since the sink was created, so a trace is
    self-contained and replayable without wall-clock context.  Accepts a
    path (opened and owned) or an existing text stream (borrowed).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._t0 = time.perf_counter_ns()
        self._lock = threading.Lock()

    def _write(self, record: Dict[str, Any]) -> None:
        record["t"] = time.perf_counter_ns() - self._t0
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")

    def on_span(self, path, duration_ns, attrs, error) -> None:
        self._write({
            "type": "span",
            "path": path,
            "ns": duration_ns,
            "attrs": jsonable(attrs),
            **({"error": error} if error else {}),
        })

    def on_counter(self, name, value, attrs) -> None:
        self._write({
            "type": "counter",
            "name": name,
            "value": value,
            **({"attrs": jsonable(attrs)} if attrs else {}),
        })

    def on_gauge(self, name, value, attrs) -> None:
        self._write({
            "type": "gauge",
            "name": name,
            "value": jsonable(value),
            **({"attrs": jsonable(attrs)} if attrs else {}),
        })

    def on_event(self, name, attrs, span_path) -> None:
        self._write({
            "type": "event",
            "name": name,
            "attrs": jsonable(attrs),
            **({"span": span_path} if span_path else {}),
        })

    def on_observe(self, name, value, attrs) -> None:
        self._write({
            "type": "observe",
            "name": name,
            "value": jsonable(value),
            **({"attrs": jsonable(attrs)} if attrs else {}),
        })

    def on_hist(self, name, snapshot) -> None:
        self._write({"type": "hist", "name": name, "hist": jsonable(snapshot)})

    def on_span_agg(self, path, stat) -> None:
        self._write({
            "type": "span_agg",
            "path": path,
            "count": int(stat["count"]),
            "total_ns": int(stat["total_ns"]),
            "max_ns": int(stat["max_ns"]),
            "errors": int(stat.get("errors", 0)),
        })

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class StderrSummary(Registry):
    """A registry that prints its summary table when closed."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        super().__init__()
        self._stream = stream

    def close(self) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        print(self.summary(), file=stream)
