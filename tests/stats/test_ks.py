"""Tests for the two-sample KS test (cross-checked against scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats.ks import ks_two_sample


class TestKsStatistic:
    def test_identical_samples_statistic_zero(self):
        result = ks_two_sample([1, 2, 3], [1, 2, 3])
        assert result.statistic == 0.0
        assert result.pvalue == pytest.approx(1.0)

    def test_disjoint_samples_statistic_one(self):
        result = ks_two_sample([1, 2, 3], [10, 11, 12])
        assert result.statistic == 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_detects_shifted_distributions(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 500)
        b = rng.normal(0.6, 1, 500)
        result = ks_two_sample(a, b)
        assert result.pvalue < 0.001

    def test_same_distribution_usually_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, 400)
        b = rng.normal(0, 1, 400)
        assert not ks_two_sample(a, b).pvalue < 0.001

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=10, max_size=80),
        st.lists(st.floats(-50, 50), min_size=10, max_size=80),
    )
    def test_statistic_matches_scipy(self, a, b):
        ours = ks_two_sample(a, b)
        theirs = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)

    def test_pvalue_close_to_scipy_for_large_samples(self):
        rng = np.random.default_rng(2)
        a = rng.exponential(1.0, 300)
        b = rng.exponential(1.3, 300)
        ours = ks_two_sample(a, b)
        theirs = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.pvalue == pytest.approx(theirs.pvalue, rel=0.2, abs=1e-4)
