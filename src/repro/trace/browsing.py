"""Temporal and content-choice models of mobile browsing.

Event times follow a diurnal x weekly x seasonal profile: mobile usage
dips overnight, peaks in the morning commute and the evening couch
hours, weekdays carry more daytime traffic, and months vary mildly.
Publisher choice mixes the user's interest profile with global
popularity, so interest inference from the visited publishers (paper
section 4.3) recovers profiles close to the generative ones.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.rtb.entities import Publisher
from repro.trace.population import UserProfile
from repro.trace.publishers import MarketUniverse
from repro.util.rng import WeightedDraw
from repro.util.timeutil import SECONDS_PER_DAY, Period

#: Relative browsing intensity per hour of day (0..23).
HOURLY_WEIGHTS = np.array(
    [
        0.25, 0.15, 0.10, 0.08, 0.08, 0.12,   # 00-05: night trough
        0.35, 0.70, 1.00, 1.10, 1.05, 1.00,   # 06-11: morning ramp/peak
        0.95, 0.90, 0.85, 0.90, 0.95, 1.00,   # 12-17: daytime plateau
        1.05, 1.15, 1.30, 1.35, 1.10, 0.60,   # 18-23: evening peak
    ]
)

#: Relative intensity per day of week (Mon..Sun).
DOW_WEIGHTS = np.array([1.05, 1.0, 1.0, 1.0, 1.05, 0.95, 0.90])

#: Mild seasonality across months (Jan..Dec); August dips (holidays).
MONTH_WEIGHTS = np.array(
    [0.95, 0.97, 1.0, 1.0, 1.02, 1.03, 1.0, 0.90, 1.02, 1.05, 1.08, 1.10]
)

#: Fraction of a user's pageviews drawn from their interest categories
#: (the rest follow global popularity).
INTEREST_LOYALTY = 0.7


@functools.lru_cache(maxsize=16)
def _day_weights(period: Period) -> np.ndarray:
    """Unnormalised sampling weight for every day in the period.

    Cached per period (a simulation draws event times once per user);
    the array is read-only because every caller shares it.
    """
    n_days = int(np.ceil(period.days))
    days = np.arange(n_days)
    ts0 = period.start
    weights = np.empty(n_days)
    for d in days:
        ts = ts0 + d * SECONDS_PER_DAY
        moment = np.datetime64(int(ts), "s")
        dow = (int(ts // SECONDS_PER_DAY) + 3) % 7  # 1970-01-01 was a Thursday
        month = int(str(moment.astype("datetime64[M]"))[5:7])
        weights[d] = DOW_WEIGHTS[dow] * MONTH_WEIGHTS[month - 1]
    weights.setflags(write=False)
    return weights


def sample_event_times(
    rng: np.random.Generator, period: Period, n_events: int
) -> np.ndarray:
    """Draw ``n_events`` timestamps following the browsing profile.

    Sampling factorises as day (weekly x monthly weights) then
    second-of-day (hourly weights), which is fast and keeps the three
    marginals the analyzer measures (Figures 6-9) in the right shape.
    """
    if n_events <= 0:
        return np.empty(0)
    day_w = _day_weights(period)
    day_p = day_w / day_w.sum()
    days = rng.choice(len(day_w), size=n_events, p=day_p)

    hour_p = HOURLY_WEIGHTS / HOURLY_WEIGHTS.sum()
    hours = rng.choice(24, size=n_events, p=hour_p)
    seconds = rng.uniform(0, 3600, size=n_events)

    ts = period.start + days * SECONDS_PER_DAY + hours * 3600 + seconds
    return np.minimum(ts, period.end - 1.0)


class PublisherChooser:
    """Chooses which publisher a user visits, given interests and kind.

    Precomputes per-(category, kind) publisher lists and popularity
    draws once; each interest profile builds its own category draw on
    first use (:attr:`InterestProfile.category_draw`).  Draws take
    O(log n) per pageview.
    """

    def __init__(self, universe: MarketUniverse):
        self._by_key: dict[tuple[str, bool], tuple[list[Publisher], WeightedDraw]] = {}
        self._all: dict[bool, tuple[list[Publisher], WeightedDraw]] = {}
        for is_app in (False, True):
            pubs = list(universe.app_publishers if is_app else universe.web_publishers)
            pops = np.array([p.popularity for p in pubs])
            self._all[is_app] = (pubs, WeightedDraw(pops / pops.sum()))
            categories = {p.iab_category for p in pubs}
            for cat in categories:
                group = [p for p in pubs if p.iab_category == cat]
                weights = np.array([p.popularity for p in group])
                self._by_key[(cat, is_app)] = (
                    group, WeightedDraw(weights / weights.sum())
                )

    def choose(
        self,
        rng: np.random.Generator,
        user: UserProfile,
        is_app: bool,
    ) -> Publisher:
        """Draw the next publisher this user visits."""
        interests = user.interests
        if interests.weights and rng.random() < INTEREST_LOYALTY:
            codes, draw = interests.category_draw
            entry = self._by_key.get((codes[draw(rng)], is_app))
            if entry is not None:
                pubs, draw = entry
                return pubs[draw(rng)]
        pubs, draw = self._all[is_app]
        return pubs[draw(rng)]
