"""Deterministic log-bucketed streaming histograms.

The distribution primitive of obs v2.  Design constraints, in order:

* **Order-independent, bit-identical merges.**  Sweep chunks and shard
  journals carry per-item histogram snapshots that the runner folds back
  together; the merged distribution must not depend on worker count,
  chunking, or merge order.  Bucket boundaries are therefore *fixed* (a
  pure function of the value, never adapted to the data), and every
  aggregate is exact: counts are ints, ``sum`` is an int or an exact
  :class:`~fractions.Fraction` (float observations convert exactly via
  binary expansion), ``min``/``max`` compare exactly.  Integer/rational
  addition is associative and commutative, so
  ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` holds bit-for-bit —
  a hypothesis property in ``tests/test_hist.py`` pins it.
* **Log-bucketed with sub-buckets.**  A positive value lands in the
  bucket ``index = e * SUBBUCKETS + sub`` where ``e = floor(log2(v))``
  and ``sub = floor((v / 2**e - 1) * SUBBUCKETS)``: base-2 octaves split
  into :data:`SUBBUCKETS` geometric sub-buckets, i.e. a relative
  quantile error of at most ``1/SUBBUCKETS`` per octave.  Integer values
  are bucketed by exact shift arithmetic (no float round-trip), floats
  via ``math.frexp``; both agree wherever they overlap.
* **Allocation-light observation.**  ``observe`` is dict arithmetic on
  ``__slots__`` state — no per-call object graph — so hot call sites can
  afford one observation per solver call (the local-accumulator flush
  pattern from the PR-3 instrumentation still applies to inner loops).

Non-positive values are counted in a dedicated ``zeros`` bucket (upper
bound 0) rather than log-bucketed; they still contribute to ``count``,
``sum``, ``min``, and ``max``.

Naming convention (consumed by ``canonical_report_view`` and the trace
tools): histogram names ending in ``_ns`` hold wall-clock durations in
nanoseconds — genuine timing whose *values* legitimately differ between
equivalent runs (their counts are still deterministic).  Every other
histogram holds deterministic algorithmic values and must be
byte-identical across worker counts and shard splits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Iterable, Optional, Tuple, Union

__all__ = [
    "SUBBUCKETS",
    "Hist",
    "bucket_bounds",
    "bucket_index",
]

#: Geometric sub-buckets per base-2 octave (power of two; 8 ≈ 12.5%
#: worst-case relative bucket width, plenty for latency work).
SUBBUCKETS = 8

_SUB_BITS = SUBBUCKETS.bit_length() - 1

Number = Union[int, float, Fraction]


def bucket_index(value: Number) -> int:
    """The fixed bucket index of a positive value (pure, data-independent).

    ``index = e * SUBBUCKETS + sub`` with ``e = floor(log2(value))`` and
    ``sub = floor((value / 2**e - 1) * SUBBUCKETS)``; negative indices
    are valid (values below 1).  Raises :class:`ValueError` for
    ``value <= 0`` — the caller routes those to the ``zeros`` bucket.
    """
    if value <= 0:
        raise ValueError(f"bucket_index requires a positive value, got {value!r}")
    if isinstance(value, int):
        e = value.bit_length() - 1
        # floor(value * SUB / 2**e) - SUB, exactly, without floats.
        sub = ((value << _SUB_BITS) >> e) - SUBBUCKETS
        return e * SUBBUCKETS + sub
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return bucket_index(value.numerator)
        # floor(log2(p/q)) via integer bit lengths, exact for any ratio.
        p, q = value.numerator, value.denominator
        e = p.bit_length() - q.bit_length()
        if (p >> e if e >= 0 else p << -e) < q:  # 2**e > value: step down
            e -= 1
        # sub = floor((value / 2**e - 1) * SUB), still in exact integers.
        scaled = p << _SUB_BITS
        if e >= 0:
            shifted_q = q << e
        else:
            shifted_q = q
            scaled <<= -e
        sub = scaled // shifted_q - SUBBUCKETS
        return e * SUBBUCKETS + sub
    m, ex = math.frexp(value)  # value = m * 2**ex, 0.5 <= m < 1
    e = ex - 1
    # Every step is exact: 2.0*m scales the exponent, the subtraction is
    # exact by Sterbenz (2.0*m in [1, 2)), and *SUBBUCKETS is a power-of-two
    # scale — so sub lands in [0, SUBBUCKETS) with no rounding-edge clamp.
    sub = int((2.0 * m - 1.0) * SUBBUCKETS)
    return e * SUBBUCKETS + sub


def bucket_bounds(index: int) -> Tuple[Fraction, Fraction]:
    """Exact ``[lo, hi)`` boundaries of a bucket index.

    ``lo = 2**e * (1 + sub/SUBBUCKETS)`` — the inverse of
    :func:`bucket_index`: every positive value ``v`` satisfies
    ``bucket_bounds(bucket_index(v))[0] <= v < bucket_bounds(...)[1]``.
    """
    e, sub = divmod(index, SUBBUCKETS)
    scale = Fraction(2) ** e
    lo = scale * (SUBBUCKETS + sub) / SUBBUCKETS
    hi = scale * (SUBBUCKETS + sub + 1) / SUBBUCKETS
    return lo, hi


def _exact(value: Number) -> Union[int, Fraction]:
    """Exact rational twin of a numeric value (floats expand exactly)."""
    if isinstance(value, (int, Fraction)):
        return value
    return Fraction(value)


def _rank(value: Number) -> int:
    """Type order that picks one representative among equal extremes."""
    return 0 if isinstance(value, int) else 1 if isinstance(value, Fraction) else 2


def _jsonable_number(value: Any) -> Any:
    """Ints and floats pass through; Fractions serialize as ``"p/q"``."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def _parse_number(value: Any) -> Any:
    if isinstance(value, str):
        return Fraction(value)
    return value


class Hist:
    """One streaming histogram: fixed log buckets + exact aggregates."""

    __slots__ = ("count", "zeros", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count: int = 0
        self.zeros: int = 0  # observations with value <= 0
        self.sum: Union[int, Fraction] = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.buckets: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def observe(self, value: Number) -> None:
        """Record one value (any real number; ``<= 0`` lands in ``zeros``)."""
        self.count += 1
        self.sum += _exact(value)
        # Equal extremes (0, 0.0, Fraction(0)) keep the int, then the
        # Fraction, in any arrival order, so merge order never shows.
        rank = _rank(value)
        if self.min is None or (value, rank) < (self.min, _rank(self.min)):
            self.min = value
        if self.max is None or (value, -rank) > (self.max, -_rank(self.max)):
            self.max = value
        if value <= 0:
            self.zeros += 1
            return
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Hist") -> "Hist":
        """Fold ``other`` into this histogram (exact; order-independent)."""
        self.count += other.count
        self.zeros += other.zeros
        self.sum += other.sum
        if other.min is not None and (
            self.min is None
            or (other.min, _rank(other.min)) < (self.min, _rank(self.min))
        ):
            self.min = other.min
        if other.max is not None and (
            self.max is None
            or (other.max, -_rank(other.max)) > (self.max, -_rank(self.max))
        ):
            self.max = other.max
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        return self

    # -- reading -------------------------------------------------------------

    def quantile(self, p: float) -> Optional[float]:
        """The p-quantile (0 <= p <= 1) as a float, exact to bucket width.

        Uses the nearest-rank method over the cumulative bucket counts and
        returns the containing bucket's upper bound, clamped into
        ``[min, max]`` — so ``quantile(0) == float(min)`` and
        ``quantile(1) <= float(max)`` always hold, and the relative error
        against the true sample quantile is at most one sub-bucket width.
        """
        if self.count == 0:
            return None
        if not 0 <= p <= 1:
            raise ValueError(f"quantile order must lie in [0, 1], got {p!r}")
        if p == 0:
            return float(self.min)
        rank = max(1, math.ceil(p * self.count))
        seen = self.zeros
        if seen >= rank:
            upper = 0.0
        else:
            upper = float(self.max)
            for index in sorted(self.buckets):
                seen += self.buckets[index]
                if seen >= rank:
                    upper = float(bucket_bounds(index)[1])
                    break
        upper = min(upper, float(self.max))
        return max(upper, float(self.min))

    def quantile_row(self) -> Dict[str, Optional[float]]:
        """The standard ``repro stats`` latency columns for this histogram."""
        return {
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "max": None if self.max is None else float(self.max),
        }

    def cumulative(self) -> Iterable[Tuple[Fraction, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ascending (Prometheus).

        The ``zeros`` bucket surfaces as an upper bound of 0; the final
        ``+Inf`` bucket is the consumer's job (its count is ``count``).
        """
        running = 0
        if self.zeros:
            running += self.zeros
            yield Fraction(0), running
        for index in sorted(self.buckets):
            running += self.buckets[index]
            yield bucket_bounds(index)[1], running

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump; bucket keys become strings, exact sums survive."""
        return {
            "count": self.count,
            "zeros": self.zeros,
            "sum": _jsonable_number(self.sum),
            "min": _jsonable_number(self.min),
            "max": _jsonable_number(self.max),
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "Hist":
        """Rebuild a histogram from :meth:`snapshot` output (JSON round-trip)."""
        hist = cls()
        hist.count = int(snap.get("count", 0))
        hist.zeros = int(snap.get("zeros", 0))
        hist.sum = _parse_number(snap.get("sum", 0))
        hist.min = _parse_number(snap.get("min"))
        hist.max = _parse_number(snap.get("max"))
        hist.buckets = {int(k): int(v) for k, v in snap.get("buckets", {}).items()}
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hist):
            return NotImplemented
        return (
            self.count == other.count
            and self.zeros == other.zeros
            and self.sum == other.sum
            and self.min == other.min
            and self.max == other.max
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:
        return (
            f"Hist(count={self.count}, sum={self.sum}, min={self.min}, "
            f"max={self.max}, buckets={len(self.buckets)})"
        )
