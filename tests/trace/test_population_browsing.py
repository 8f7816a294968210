"""Tests for user-population synthesis and browsing models."""

import numpy as np
import pytest

from repro.rtb.iab import DATASET_CATEGORIES
from repro.trace.browsing import (
    HOURLY_WEIGHTS,
    PublisherChooser,
    sample_event_times,
)
from repro.trace.population import (
    activity_weights,
    build_population,
    sample_interests,
)
from repro.trace.publishers import build_universe
from repro.util.rng import stream
from repro.util.timeutil import Period, hour_of, is_weekend


class TestPopulation:
    def test_population_size_and_ids_unique(self):
        users = build_population(stream("pop"), 50)
        assert len(users) == 50
        assert len({u.user_id for u in users}) == 50

    def test_activity_heavy_tailed(self):
        users = build_population(stream("pop2"), 2000)
        acts = np.array([u.activity for u in users])
        assert acts.max() / np.median(acts) > 10

    def test_activity_weights_normalised(self):
        users = build_population(stream("pop3"), 100)
        weights = activity_weights(users)
        assert weights.sum() == pytest.approx(1.0)

    def test_city_distribution_follows_population(self):
        users = build_population(stream("pop4"), 3000)
        madrid = sum(1 for u in users if u.city.name == "Madrid")
        assert madrid / len(users) > 0.3  # Madrid ~41% of the roster population

    def test_app_fraction_bounded(self):
        users = build_population(stream("pop5"), 200)
        assert all(0.05 <= u.app_fraction <= 0.95 for u in users)

    def test_zero_users_rejected(self):
        with pytest.raises(ValueError):
            build_population(stream("pop6"), 0)


class TestInterests:
    def test_profiles_are_sparse_and_normalised(self):
        rng = stream("ints")
        for _ in range(20):
            profile = sample_interests(rng)
            assert profile.weights
            total = sum(w for _, w in profile.weights)
            assert total == pytest.approx(1.0)
            assert all(c in DATASET_CATEGORIES for c, _ in profile.weights)

    def test_dominant_is_highest_weight(self):
        rng = stream("ints2")
        profile = sample_interests(rng)
        weights = dict(profile.weights)
        assert weights[profile.dominant] == max(weights.values())


    def test_category_draw_matches_choice_and_is_kept(self):
        profile = sample_interests(stream("ints3"))
        codes, draw = profile.category_draw
        assert codes == [c for c, _ in profile.weights]
        assert profile.category_draw[1] is draw
        probs = np.array([w for _, w in profile.weights])
        ours, theirs = stream("draw"), stream("draw")
        for _ in range(200):
            expected = int(theirs.choice(len(probs), p=probs / probs.sum()))
            assert draw(ours) == expected


class TestEventTimes:
    PERIOD = Period.for_year(2015)

    def test_times_inside_period(self):
        ts = sample_event_times(stream("t1"), self.PERIOD, 500)
        assert ts.min() >= self.PERIOD.start
        assert ts.max() < self.PERIOD.end

    def test_zero_events(self):
        assert sample_event_times(stream("t2"), self.PERIOD, 0).size == 0

    def test_diurnal_shape(self):
        """Night hours must be much quieter than evening peak."""
        ts = sample_event_times(stream("t3"), self.PERIOD, 20_000)
        hours = np.array([hour_of(t) for t in ts])
        night = np.mean((hours >= 2) & (hours < 5))
        evening = np.mean((hours >= 19) & (hours < 22))
        assert evening > 3 * night

    def test_weekday_share_close_to_five_sevenths(self):
        ts = sample_event_times(stream("t4"), self.PERIOD, 10_000)
        weekday = np.mean([not is_weekend(t) for t in ts])
        assert weekday == pytest.approx(5 / 7, abs=0.05)

    def test_hourly_weights_cover_24_hours(self):
        assert len(HOURLY_WEIGHTS) == 24


class TestPublisherChooser:
    def test_interest_loyalty_bias(self):
        universe = build_universe(stream("u1"), n_web=100, n_app=40)
        chooser = PublisherChooser(universe)
        users = build_population(stream("u2"), 30)
        rng = stream("u3")
        for user in users[:10]:
            dominant = user.interests.dominant
            picks = [chooser.choose(rng, user, is_app=False) for _ in range(200)]
            share = np.mean([p.iab_category == dominant for p in picks])
            dominant_weight = user.interests.weight(dominant)
            # The chooser should visit the dominant category far more
            # often than its global publisher share (~its interest
            # weight times the loyalty factor).
            if dominant_weight > 0.5:
                assert share > 0.25

    def test_app_choice_returns_apps(self):
        universe = build_universe(stream("u4"), n_web=50, n_app=20)
        chooser = PublisherChooser(universe)
        users = build_population(stream("u5"), 5)
        rng = stream("u6")
        for _ in range(50):
            assert chooser.choose(rng, users[0], is_app=True).is_app
