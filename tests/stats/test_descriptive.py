"""Tests for descriptive statistics (summaries, CDFs)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.descriptive import (
    Cdf,
    fraction_below,
    summarize,
    summarize_groups,
)

positive_samples = st.lists(
    st.floats(min_value=0.01, max_value=1000, allow_nan=False), min_size=2, max_size=200
)


class TestSummarize:
    def test_known_values(self):
        s = summarize(range(1, 101))
        assert s.count == 100
        assert s.p50 == pytest.approx(50.5)
        assert s.mean == pytest.approx(50.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_value(self):
        s = summarize([3.0])
        assert s.p5 == s.p95 == 3.0
        assert s.std == 0.0

    @given(positive_samples)
    def test_percentiles_ordered(self, values):
        s = summarize(values)
        assert s.p5 <= s.p10 <= s.p50 <= s.p90 <= s.p95
        assert s.spread == pytest.approx(s.p95 - s.p5)

    @given(positive_samples)
    def test_percentiles_within_range(self, values):
        s = summarize(values)
        assert min(values) <= s.p50 <= max(values)

    def test_summarize_groups_skips_empty(self):
        out = summarize_groups({"a": [1.0, 2.0], "b": []})
        assert set(out) == {"a"}


class TestCdf:
    def test_evaluate_at_extremes(self):
        cdf = Cdf.from_sample([1, 2, 3, 4])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(4) == 1.0
        assert cdf.evaluate(2) == pytest.approx(0.5)

    def test_quantile_inverse(self):
        cdf = Cdf.from_sample(range(1, 11))
        assert cdf.quantile(0.5) == 5
        assert cdf.quantile(1.0) == 10
        assert cdf.quantile(0.0) == 1

    def test_bad_quantile_raises(self):
        cdf = Cdf.from_sample([1, 2])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    @given(positive_samples)
    def test_cdf_monotone(self, values):
        cdf = Cdf.from_sample(values)
        points = sorted(values)
        evaluated = [cdf.evaluate(p) for p in points]
        assert all(a <= b for a, b in zip(evaluated, evaluated[1:]))

    @given(positive_samples, st.floats(min_value=0.01, max_value=0.99))
    def test_quantile_cdf_consistency(self, values, p):
        cdf = Cdf.from_sample(values)
        assert cdf.evaluate(cdf.quantile(p)) >= p


class TestFractions:
    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fraction_below([], 1)

