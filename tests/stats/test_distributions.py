"""Tests for lognormal fitting and median ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.distributions import LogNormal, median_ratio


class TestLogNormal:
    def test_median_and_mean(self):
        dist = LogNormal(mu=0.0, sigma=1.0)
        assert dist.median == pytest.approx(1.0)
        assert dist.mean == pytest.approx(np.exp(0.5))

    def test_fit_recovers_parameters(self):
        rng = np.random.default_rng(3)
        sample = rng.lognormal(mean=0.7, sigma=0.4, size=20_000)
        fitted = LogNormal.fit(sample)
        assert fitted.mu == pytest.approx(0.7, abs=0.02)
        assert fitted.sigma == pytest.approx(0.4, abs=0.02)

    def test_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LogNormal.fit([1.0, -2.0])

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            LogNormal.fit([1.0])

    def test_scaled_shifts_median(self):
        dist = LogNormal(mu=0.0, sigma=0.5)
        assert dist.scaled(1.7).median == pytest.approx(1.7 * dist.median)

    def test_scaled_preserves_sigma(self):
        dist = LogNormal(mu=0.2, sigma=0.5)
        assert dist.scaled(3.0).sigma == dist.sigma

    def test_variance_positive(self):
        assert LogNormal(0.0, 0.7).variance > 0


class TestMedianRatio:
    def test_known_ratio(self):
        assert median_ratio([2, 4, 6], [1, 2, 3]) == pytest.approx(2.0)

    def test_paper_direction(self):
        """Encrypted ~1.7x cleartext: ratio(enc, clr) > 1."""
        rng = np.random.default_rng(5)
        clr = rng.lognormal(0.0, 0.4, 5000)
        enc = rng.lognormal(np.log(1.7), 0.4, 5000)
        assert median_ratio(enc, clr) == pytest.approx(1.7, rel=0.05)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_ratio([], [1.0])

    def test_zero_denominator_raises(self):
        with pytest.raises(ValueError):
            median_ratio([1.0], [0.0])
