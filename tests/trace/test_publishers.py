"""Tests for the publisher universe and slot-popularity drift."""

import numpy as np
import pytest

from repro.rtb.iab import DATASET_CATEGORIES
from repro.trace.pricing import months_since_2015
from repro.trace.publishers import _slot_weights, build_universe, sample_slot_size
from repro.util.rng import stream
from repro.util.timeutil import epoch


def slot_weights_for(ts, device_type):
    """The slot mix ``sample_slot_size`` draws from at time ``ts``."""
    return _slot_weights(device_type, months_since_2015(ts))


class TestUniverse:
    def test_counts(self):
        universe = build_universe(stream("u"), n_web=100, n_app=40, n_advertisers=10)
        assert len(universe.web_publishers) == 100
        assert len(universe.app_publishers) == 40
        assert len(universe.advertisers) == 10

    def test_domains_unique(self):
        universe = build_universe(stream("u2"), n_web=150, n_app=60)
        domains = [p.domain for p in universe.publishers]
        assert len(domains) == len(set(domains))

    def test_categories_from_dataset_roster(self):
        universe = build_universe(stream("u3"), n_web=200, n_app=50)
        for pub in universe.publishers:
            assert pub.iab_category in DATASET_CATEGORIES

    def test_popularity_zipf_like(self):
        universe = build_universe(stream("u5"), n_web=100, n_app=10)
        pops = [p.popularity for p in universe.web_publishers]
        assert pops[0] / pops[-1] > 50  # heavy head


class TestSlotDrift:
    def test_january_banner_dominates(self):
        labels, weights = slot_weights_for(epoch(2015, 1, 15), "smartphone")
        by_label = dict(zip(labels, weights))
        assert by_label["320x50"] > by_label["300x250"]

    def test_december_mpu_dominates(self):
        """Figure 12: 300x250 overtakes 320x50 during 2015."""
        labels, weights = slot_weights_for(epoch(2015, 12, 15), "smartphone")
        by_label = dict(zip(labels, weights))
        assert by_label["300x250"] > by_label["320x50"]

    def test_crossover_around_may(self):
        for month, banner_leads in [(2, True), (10, False)]:
            labels, weights = slot_weights_for(epoch(2015, month, 15), "smartphone")
            by_label = dict(zip(labels, weights))
            assert (by_label["320x50"] > by_label["300x250"]) == banner_leads

    def test_weights_normalised(self):
        for device in ("smartphone", "tablet"):
            _, weights = slot_weights_for(epoch(2015, 7, 1), device)
            assert weights.sum() == pytest.approx(1.0)

    def test_tablet_catalog_distinct(self):
        labels, _ = slot_weights_for(epoch(2015, 7, 1), "tablet")
        assert "768x1024" in labels
        assert "320x50" not in labels

    def test_sample_slot_size_valid(self):
        rng = stream("slots")
        for _ in range(50):
            slot = sample_slot_size(rng, epoch(2015, 6, 1), "smartphone")
            assert slot.width > 0 and slot.height > 0

    def test_2016_extends_trend(self):
        labels, weights = slot_weights_for(epoch(2016, 5, 15), "smartphone")
        by_label = dict(zip(labels, weights))
        assert by_label["300x250"] > 2 * by_label["320x50"]
