"""Exact arithmetic over finite unions of half-open intervals.

The paper's workload characterization (Theorem 1) and its laxity-trim lemma
(Lemma 3) both quantify over *finite unions of intervals* ``I`` and measure
``|I|``, ``|I ∩ I(j)|`` etc.  This module provides an immutable, normalized
:class:`IntervalUnion` over :class:`fractions.Fraction` endpoints so that
those quantities are computed exactly — the adversarial construction of
Lemma 2 recursively scales instances by data-dependent rationals and would
not survive floating-point round-off.

All intervals are half-open ``[a, b)``.  A normalized union stores pairwise
disjoint, non-empty, sorted components with no two components touching
(``b_i < a_{i+1}``), so equality of unions is equality of component tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple, Union

Numeric = Union[int, float, str, Fraction]


def to_fraction(x: Numeric) -> Fraction:
    """Convert ``x`` to an exact :class:`Fraction`.

    Floats are converted via :meth:`Fraction.limit_denominator` — floats are
    accepted only as a convenience for interactive use; library code and
    generators always pass ``int`` or ``Fraction``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def positive_speed(speed: Numeric) -> Fraction:
    """The exact machine speed ``speed``; raises ``ValueError`` unless positive.

    Every public entry point that takes a machine speed checks it here: at
    a speed of zero or below no job can run, so no verdict, schedule or
    certificate means anything.
    """
    value = to_fraction(speed)
    if value <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    return value


class Interval:
    """A single half-open interval ``[start, end)`` with exact endpoints."""

    __slots__ = ("start", "end")

    def __init__(self, start: Numeric, end: Numeric) -> None:
        self.start = to_fraction(start)
        self.end = to_fraction(end)
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def length(self) -> Fraction:
        return self.end - self.start

    def is_empty(self) -> bool:
        return self.end <= self.start

    def contains(self, t: Numeric) -> bool:
        t = to_fraction(t)
        return self.start <= t < self.end

    def intersects(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> "Interval":
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi < lo:
            return Interval(lo, lo)
        return Interval(lo, hi)

    def contains_interval(self, other: "Interval") -> bool:
        """True iff ``other ⊆ self`` (empty intervals are contained in all)."""
        if other.is_empty():
            return True
        return self.start <= other.start and other.end <= self.end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"[{self.start}, {self.end})"


class IntervalUnion:
    """An immutable normalized finite union of half-open intervals."""

    __slots__ = ("components",)

    components: Tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        object.__setattr__(self, "components", _normalize(intervals))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("IntervalUnion is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Numeric, Numeric]]) -> "IntervalUnion":
        return cls(Interval(a, b) for a, b in pairs)

    @classmethod
    def single(cls, start: Numeric, end: Numeric) -> "IntervalUnion":
        return cls([Interval(start, end)])

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls()

    # -- measurements ------------------------------------------------------

    @property
    def length(self) -> Fraction:
        """Total measure ``|I|`` of the union."""
        return sum((c.length for c in self.components), Fraction(0))

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, t: Numeric) -> bool:
        t = to_fraction(t)
        return any(c.contains(t) for c in self.components)

    @property
    def infimum(self) -> Fraction:
        if not self.components:
            raise ValueError("empty union has no infimum")
        return self.components[0].start

    @property
    def supremum(self) -> Fraction:
        if not self.components:
            raise ValueError("empty union has no supremum")
        return self.components[-1].end

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(list(self.components) + list(other.components))

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        i = j = 0
        a, b = self.components, other.components
        while i < len(a) and j < len(b):
            x = a[i].intersection(b[j])
            if not x.is_empty():
                out.append(x)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return IntervalUnion(out)

    def intersect_interval(self, iv: Interval) -> "IntervalUnion":
        return self.intersection(IntervalUnion([iv]))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference ``self \\ other``."""
        out = []
        for comp in self.components:
            cur = comp.start
            for o in other.components:
                if o.end <= cur:
                    continue
                if o.start >= comp.end:
                    break
                if o.start > cur:
                    out.append(Interval(cur, min(o.start, comp.end)))
                cur = max(cur, o.end)
                if cur >= comp.end:
                    break
            if cur < comp.end:
                out.append(Interval(cur, comp.end))
        return IntervalUnion(out)

    def contains_union(self, other: "IntervalUnion") -> bool:
        """True iff ``other ⊆ self``."""
        return other.difference(self).is_empty()

    # -- transforms --------------------------------------------------------

    def scale_shift(self, scale: Numeric, shift: Numeric) -> "IntervalUnion":
        """Map every point ``t`` to ``scale * t + shift`` (``scale > 0``)."""
        s, h = to_fraction(scale), to_fraction(shift)
        if s <= 0:
            raise ValueError("scale must be positive")
        return IntervalUnion(Interval(s * c.start + h, s * c.end + h) for c in self.components)

    def expand_left(self, gamma: Numeric) -> "IntervalUnion":
        """The expansion operator ``ex(I)`` from the proof of Lemma 3.

        Each component ``[g_i, h_i)`` is expanded to the left so that the
        total length becomes ``|I| / (1 - gamma)``; when an expansion would
        overlap the previous component, the overflow ``δ`` is pushed further
        left, exactly as in the paper.  Expansion is processed right to left.
        """
        gamma = to_fraction(gamma)
        if not (0 < gamma < 1):
            raise ValueError("gamma must lie in (0, 1)")
        comps = list(self.components)
        if not comps:
            return IntervalUnion()
        factor = 1 / (1 - gamma)
        new_starts: list[Fraction] = [Fraction(0)] * len(comps)
        delta = Fraction(0)
        for i in range(len(comps) - 1, -1, -1):
            want = comps[i].end - (comps[i].length + delta) * factor
            floor = comps[i - 1].end if i > 0 else None
            if floor is not None and want < floor:
                new_starts[i] = floor
                delta = floor - want
                # delta carries the *unexpanded* shortfall scaled back down:
                # the paper pushes the leftover length (in expanded measure)
                # to the next interval; convert back to pre-expansion units.
                delta = delta / factor
            else:
                new_starts[i] = want
                delta = Fraction(0)
        return IntervalUnion(
            Interval(new_starts[i], comps[i].end) for i in range(len(comps))
        )

    # -- protocol ----------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "IntervalUnion(" + " ∪ ".join(map(repr, self.components)) + ")"


def _normalize(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, drop empties, and merge overlapping/touching components."""
    items = sorted((iv for iv in intervals if not iv.is_empty()), key=lambda iv: (iv.start, iv.end))
    merged: list[Interval] = []
    for iv in items:
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, iv.end)
        else:
            merged.append(Interval(iv.start, iv.end))
    return tuple(merged)


def event_points(intervals: Sequence[Interval]) -> Tuple[Fraction, ...]:
    """Sorted distinct endpoints of the given intervals."""
    pts = {iv.start for iv in intervals} | {iv.end for iv in intervals}
    return tuple(sorted(pts))
