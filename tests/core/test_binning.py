"""Tests for log-space price binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import PriceBinner, fit_price_binner


def lognormal_prices(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=0.0, sigma=1.0, size=n)


class TestFit:
    def test_four_classes_by_default(self):
        binner = fit_price_binner(lognormal_prices())
        assert binner.n_classes == 4
        assert len(binner.cuts) == 3

    def test_classes_reasonably_balanced(self):
        binner = fit_price_binner(lognormal_prices())
        assert min(binner.counts) / sum(binner.counts) > 0.10

    def test_cuts_sorted(self):
        binner = fit_price_binner(lognormal_prices(), n_classes=5)
        assert list(binner.cuts) == sorted(binner.cuts)

    def test_representatives_increase_with_class(self):
        binner = fit_price_binner(lognormal_prices())
        reps = binner.representatives
        assert all(a < b for a, b in zip(reps, reps[1:]))

    def test_too_few_prices_rejected(self):
        with pytest.raises(ValueError):
            fit_price_binner([1.0, 2.0], n_classes=4)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_price_binner([1.0, -1.0, 2.0, 3.0])

    def test_identical_prices_rejected(self):
        with pytest.raises(ValueError):
            fit_price_binner([2.0] * 10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6))
    def test_every_class_populated(self, n_classes):
        binner = fit_price_binner(lognormal_prices(seed=n_classes), n_classes=n_classes)
        assert all(c > 0 for c in binner.counts)


class TestAssign:
    def test_assignment_consistent_with_cuts(self):
        prices = lognormal_prices()
        binner = fit_price_binner(prices)
        labels = binner.assign(prices)
        for price, label in zip(prices[:200], labels[:200]):
            log_price = np.log(price)
            assert all(log_price > c for c in binner.cuts[:label])
            assert all(log_price <= c for c in binner.cuts[label:])

    def test_assign_one(self):
        binner = fit_price_binner(lognormal_prices())
        tiny, huge = binner.assign([1e-6, 1e6])
        assert tiny == 0
        assert huge == binner.n_classes - 1

    def test_monotone_in_price(self):
        binner = fit_price_binner(lognormal_prices())
        grid = np.logspace(-3, 3, 50)
        labels = binner.assign(grid)
        assert all(a <= b for a, b in zip(labels, labels[1:]))

    def test_nonpositive_assignment_rejected(self):
        binner = fit_price_binner(lognormal_prices())
        with pytest.raises(ValueError):
            binner.assign([0.0])

    def test_estimate_maps_to_representatives(self):
        binner = fit_price_binner(lognormal_prices())
        out = binner.estimate([0, 3])
        assert out[0] == binner.representatives[0]
        assert out[1] == binner.representatives[3]

    def test_representative_inside_class_range(self):
        prices = lognormal_prices()
        binner = fit_price_binner(prices)
        labels = binner.assign(prices)
        for cls in range(binner.n_classes):
            members = prices[labels == cls]
            assert members.min() <= binner.representatives[cls] <= members.max()


class TestSerialization:
    def test_roundtrip(self):
        binner = fit_price_binner(lognormal_prices())
        clone = PriceBinner.from_dict(binner.to_dict())
        prices = lognormal_prices(seed=9)
        assert np.array_equal(binner.assign(prices), clone.assign(prices))
        assert clone.representatives == binner.representatives

