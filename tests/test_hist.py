"""Deterministic log-bucketed histograms (`repro.obs.hist`).

The load-bearing guarantee is exact, order-independent merging: sweep
chunks and shard journals fold their histogram snapshots back together,
and the result must be bit-identical for any worker count, chunking, or
merge order.  The hypothesis properties here pin that algebra
(associativity + commutativity) along with the bucket geometry, quantile
accuracy, and snapshot round-trips.  This file is also the kill-set for
``tools/mutation_smoke.py``'s obs/hist.py mutants.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.hist import SUBBUCKETS, Hist, bucket_bounds, bucket_index


# ---------------------------------------------------------------------------
# bucket geometry


def test_subbuckets_is_a_power_of_two():
    assert SUBBUCKETS >= 2 and SUBBUCKETS & (SUBBUCKETS - 1) == 0


@pytest.mark.parametrize("value", [0, -1, 0.0, -0.5, Fraction(0), Fraction(-3, 7)])
def test_bucket_index_rejects_nonpositive(value):
    with pytest.raises(ValueError):
        bucket_index(value)


def test_bucket_bounds_are_contiguous_and_geometric():
    # Consecutive buckets tile the positive reals: hi(i) == lo(i+1).
    for index in range(-4 * SUBBUCKETS, 4 * SUBBUCKETS):
        lo, hi = bucket_bounds(index)
        assert lo < hi
        assert hi == bucket_bounds(index + 1)[0]
        # Relative width never exceeds one sub-bucket of the octave.
        assert (hi - lo) / lo <= Fraction(1, SUBBUCKETS)
    # Index 0 starts the [1, 2) octave.
    assert bucket_bounds(0)[0] == 1
    assert bucket_bounds(SUBBUCKETS)[0] == 2
    assert bucket_bounds(-SUBBUCKETS)[0] == Fraction(1, 2)


def test_bucket_containment_small_ints():
    for v in range(1, 3000):
        lo, hi = bucket_bounds(bucket_index(v))
        assert lo <= v < hi


def test_int_float_fraction_agree():
    for v in list(range(1, 2049)) + [10**6, 10**9, 10**12]:
        i = bucket_index(v)
        assert bucket_index(float(v)) == i
        assert bucket_index(Fraction(v)) == i


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
@settings(max_examples=200, deadline=None)
def test_bucket_containment_fractions(value):
    lo, hi = bucket_bounds(bucket_index(value))
    assert lo <= value < hi


@given(st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_bucket_containment_floats(value):
    lo, hi = bucket_bounds(bucket_index(value))
    assert lo <= Fraction(value) < hi


@given(st.floats(min_value=1e-9, max_value=1e9, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_float_fraction_bucket_agreement(value):
    # The float fast path must agree with the exact rational path.
    assert bucket_index(value) == bucket_index(Fraction(value))


# ---------------------------------------------------------------------------
# observation


def test_observe_tracks_exact_aggregates():
    h = Hist()
    for v in [3, 1, 4, 1, 5]:
        h.observe(v)
    assert h.count == 5
    assert h.zeros == 0
    assert h.sum == 14
    assert h.min == 1 and h.max == 5
    assert sum(h.buckets.values()) == 5


def test_observe_routes_nonpositive_to_zeros():
    h = Hist()
    for v in [0, -2, 5, 0.0, -0.5]:
        h.observe(v)
    assert h.count == 5
    assert h.zeros == 4
    assert sum(h.buckets.values()) == 1
    assert h.min == -2 and h.max == 5
    assert h.sum == Fraction(5, 2)


def test_float_sums_are_exact_not_accumulated_error():
    # 0.1 converts exactly via binary expansion; ten of them sum to the
    # exact rational 10 * Fraction(0.1), not a float with drift.
    h = Hist()
    for _ in range(10):
        h.observe(0.1)
    assert h.sum == 10 * Fraction(0.1)
    assert isinstance(h.sum, Fraction)


# ---------------------------------------------------------------------------
# merge algebra (the sweep-determinism keystone)

_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.fractions(min_value=Fraction(-(10**6)), max_value=Fraction(10**6)),
)
_value_lists = st.lists(_values, max_size=30)


def _hist_of(values):
    h = Hist()
    for v in values:
        h.observe(v)
    return h


@given(_value_lists, _value_lists)
@example([0], [Fraction(0)])
@example([2.0, 1], [Fraction(2), 1.0])
@settings(max_examples=100, deadline=None)
def test_merge_commutative(xs, ys):
    ab = _hist_of(xs).merge(_hist_of(ys))
    ba = _hist_of(ys).merge(_hist_of(xs))
    assert ab == ba
    assert ab.snapshot() == ba.snapshot()


@given(_value_lists, _value_lists, _value_lists)
@settings(max_examples=100, deadline=None)
def test_merge_associative(xs, ys, zs):
    left = _hist_of(xs).merge(_hist_of(ys)).merge(_hist_of(zs))
    right = _hist_of(xs).merge(_hist_of(ys).merge(_hist_of(zs)))
    assert left == right
    assert left.snapshot() == right.snapshot()


@given(_value_lists)
@settings(max_examples=100, deadline=None)
def test_merge_equals_streaming(xs):
    # Observing a stream == merging any partition of it.
    whole = _hist_of(xs)
    for cut in {0, len(xs) // 2, len(xs)}:
        split = _hist_of(xs[:cut]).merge(_hist_of(xs[cut:]))
        assert split == whole


def test_merge_with_empty_is_identity():
    h = _hist_of([1, 2.5, Fraction(7, 3), 0, -1])
    before = h.snapshot()
    assert h.merge(Hist()).snapshot() == before
    assert Hist().merge(_hist_of([1, 2.5])).snapshot() == _hist_of([1, 2.5]).snapshot()


# ---------------------------------------------------------------------------
# quantiles


def test_quantile_empty_and_bad_order():
    assert Hist().quantile(0.5) is None
    h = _hist_of([1])
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_quantile_endpoints():
    h = _hist_of(list(range(1, 101)))
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) <= 100.0
    row = h.quantile_row()
    assert set(row) == {"p50", "p90", "p99", "max"}
    assert row["max"] == 100.0


def test_quantile_accuracy_within_one_subbucket():
    n = 1000
    h = _hist_of(list(range(1, n + 1)))
    for p in (0.1, 0.25, 0.5, 0.9, 0.99):
        true = max(1, math.ceil(p * n))  # nearest-rank sample quantile
        got = h.quantile(p)
        # The containing bucket's upper bound: never below the true value,
        # and at most one sub-bucket (1/SUBBUCKETS relative) above it.
        assert true <= got <= true * (1 + 1 / SUBBUCKETS) + 1e-9


def test_quantile_zeros_dominate():
    h = _hist_of([0] * 9 + [100])
    assert h.quantile(0.5) == 0.0
    assert h.quantile(0.95) == 100.0


def test_quantile_all_negative_clamps_to_range():
    # The zeros bucket spans (-inf, 0], so negative quantiles resolve only
    # to the observed range — but never escape it.
    h = _hist_of([-5, -3])
    assert h.quantile(0.0) == -5.0
    assert -5.0 <= h.quantile(0.5) <= 0.0
    assert -5.0 <= h.quantile(1.0) <= -3.0


# ---------------------------------------------------------------------------
# cumulative view (Prometheus) and snapshots


def test_cumulative_is_monotone_and_complete():
    h = _hist_of([0, 0, 1, 2, 3, 1000, 0.25])
    pairs = list(h.cumulative())
    bounds = [b for b, _ in pairs]
    counts = [c for _, c in pairs]
    assert bounds == sorted(bounds)
    assert counts == sorted(counts)
    assert counts[-1] == h.count
    assert bounds[0] == 0  # the zeros bucket surfaces at le=0
    assert pairs[0][1] == 2


@given(_value_lists)
@settings(max_examples=100, deadline=None)
def test_snapshot_json_round_trip(xs):
    h = _hist_of(xs)
    wire = json.loads(json.dumps(h.snapshot()))
    assert Hist.from_snapshot(wire) == h
    assert Hist.from_snapshot(wire).snapshot() == h.snapshot()


def test_snapshot_is_json_safe_with_fraction_aggregates():
    h = _hist_of([Fraction(1, 3), Fraction(2, 3)])
    snap = h.snapshot()
    assert snap["sum"] == "1"
    assert snap["min"] == "1/3"
    json.dumps(snap)  # must not raise
