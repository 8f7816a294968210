"""Synthesis of the mobile-user population.

Dataset D covers 1,594 volunteering mobile users from one country
(paper Table 3).  Each synthetic user carries, for the whole year: a
home city (population-weighted), a device (OS/class per market shares),
a stable IP inside the city's block, an IAB interest profile (sparse
Dirichlet, so most users have a few dominant interests), an app-vs-web
propensity, and a heavy-tailed activity level.

The lognormal activity distribution is what produces the paper's
Figure-17 shape -- a ~25 CPM median annual cost with a ~2% tail of
users costing 1000-10000 CPM: annual cost is roughly (impressions
received) x (average CPM), and impressions scale with activity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rtb.iab import DATASET_CATEGORIES, InterestProfile
from repro.trace.devices import DeviceProfile, sample_device
from repro.trace.geography import CITIES, City, assign_ip, population_weights

#: Activity is a lognormal body plus a Pareto tail of heavy users.
#: The paper's Figure 17 pins both ends: the median user costs ~25 CPM
#: while ~2% of users cost 1000-10000 CPM -- a spread no single
#: lognormal produces (its median would collapse).  A ~2.5% power-law
#: segment of always-on users reproduces the extreme tail without
#: moving the median.
ACTIVITY_SIGMA = 1.2
HEAVY_USER_FRACTION = 0.025
HEAVY_USER_PARETO_ALPHA = 1.5
HEAVY_USER_SCALE = 10.0

@dataclass(frozen=True)
class UserProfile:
    """One simulated mobile user, stable across the year."""

    user_id: str
    city: City
    device: DeviceProfile
    ip: str
    interests: InterestProfile
    #: Relative browsing intensity; 1.0 is the median user.
    activity: float
    #: Probability an ad-eligible pageview happens in an app.
    app_fraction: float

    def __post_init__(self) -> None:
        if self.activity <= 0:
            raise ValueError("activity must be positive")
        if not 0.0 <= self.app_fraction <= 1.0:
            raise ValueError("app_fraction must be in [0,1]")


def sample_interests(rng: np.random.Generator, concentration: float = 0.25
                     ) -> InterestProfile:
    """Sparse Dirichlet interest profile over the dataset's categories.

    Low concentration makes profiles peaky: a typical user has 2-4
    dominant interests, as interest inference from real browsing shows.
    """
    weights = rng.dirichlet(np.full(len(DATASET_CATEGORIES), concentration))
    counts = {
        code: float(w) for code, w in zip(DATASET_CATEGORIES, weights) if w > 0.01
    }
    if not counts:  # pathological draw; fall back to the largest component
        best = int(np.argmax(weights))
        counts = {DATASET_CATEGORIES[best]: 1.0}
    return InterestProfile.from_counts(counts)


def build_population(rng: np.random.Generator, n_users: int) -> list[UserProfile]:
    """Generate ``n_users`` stable user profiles."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    city_weights = population_weights()
    users = []
    for i in range(n_users):
        city = CITIES[int(rng.choice(len(CITIES), p=city_weights))]
        device = sample_device(rng)
        activity = float(rng.lognormal(mean=0.0, sigma=ACTIVITY_SIGMA))
        if rng.random() < HEAVY_USER_FRACTION:
            activity *= HEAVY_USER_SCALE * (1.0 + rng.pareto(HEAVY_USER_PARETO_ALPHA))
        app_fraction = float(np.clip(rng.beta(4.0, 3.0), 0.05, 0.95))
        users.append(
            UserProfile(
                user_id=f"u{i:05d}",
                city=city,
                device=device,
                ip=assign_ip(city, rng),
                interests=sample_interests(rng),
                activity=activity,
                app_fraction=app_fraction,
            )
        )
    return users


def activity_weights(users: list[UserProfile]) -> np.ndarray:
    """Normalised per-user activity weights (auction volume allocation)."""
    acts = np.array([u.activity for u in users], dtype=float)
    return acts / acts.sum()
