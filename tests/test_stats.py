"""Tests for bootstrap statistics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import _quantile, bootstrap_ci, max_ci, mean_ci


class TestBootstrap:
    def test_point_estimate(self):
        point, lo, hi = mean_ci([1.0, 2.0, 3.0], seed=1)
        assert point == pytest.approx(2.0)
        assert lo <= point <= hi

    def test_single_sample_degenerate(self):
        assert mean_ci([5.0]) == (5.0, 5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_max_statistic(self):
        point, lo, hi = max_ci([1.0, 4.0, 2.0], seed=2)
        assert point == 4.0
        assert hi <= 4.0 + 1e-12

    def test_ci_narrows_with_more_data(self):
        rng = np.random.default_rng(3)
        small = rng.normal(0, 1, 10)
        large = rng.normal(0, 1, 1000)
        _, lo_s, hi_s = mean_ci(small, seed=4)
        _, lo_l, hi_l = mean_ci(large, seed=4)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_deterministic_by_seed(self):
        data = [1.0, 2.0, 5.0, 3.0]
        assert mean_ci(data, seed=7) == mean_ci(data, seed=7)

    def test_confidence_widens(self):
        data = list(np.random.default_rng(5).normal(0, 1, 50))
        _, lo90, hi90 = mean_ci(data, confidence=0.90, seed=6)
        _, lo99, hi99 = mean_ci(data, confidence=0.99, seed=6)
        assert (hi99 - lo99) >= (hi90 - lo90)


class TestQuantile:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
    )
    def test_numpy_linear_interpolation(self, values, q):
        expected = float(np.quantile(values, q))
        assert _quantile(sorted(values), q) == pytest.approx(expected, abs=1e-6)
