"""Synthetic mobile-weblog substrate (stands in for the paper's
proprietary year-long trace of 1,594 users).

Generates a population of mobile users (cities, devices, interests,
heavy-tailed activity), replays their browsing through the simulated
RTB market, and emits an HTTP weblog with win-notification URLs -- the
exact observable the paper's analyzer consumes.
"""

from repro.trace.browsing import (
    DOW_WEIGHTS,
    HOURLY_WEIGHTS,
    MONTH_WEIGHTS,
    PublisherChooser,
    sample_event_times,
)
from repro.trace.devices import (
    DEVICE_TYPE_SHARES,
    OS_SHARES,
    DeviceProfile,
    sample_device,
    sample_os,
)
from repro.trace.geography import (
    CAMPAIGN_CITIES,
    CITIES,
    CITIES_BY_SIZE,
    City,
    assign_ip,
    city_by_name,
    population_weights,
)
from repro.trace.population import (
    UserProfile,
    activity_weights,
    build_population,
    sample_interests,
)
from repro.trace.pricing import (
    ADX_MULTIPLIERS,
    APP_MULTIPLIER,
    BASE_CPM,
    ENCRYPTED_PREMIUM,
    IAB_MULTIPLIERS,
    OS_MULTIPLIERS,
    SLOT_MULTIPLIERS,
    GroundTruthPriceModel,
    months_since_2015,
)
from repro.trace.publishers import (
    MarketUniverse,
    build_universe,
    sample_slot_size,
)
from repro.trace.simulate import (
    PREMIUM_DSPS,
    STANDARD_DSPS,
    MarketState,
    SimulationConfig,
    build_desktop_policy,
    build_market,
    default_config,
    simulate_dataset,
    simulate_period,
    small_config,
)
from repro.trace.weblog import (
    KIND_ANALYTICS,
    KIND_CONTENT,
    KIND_NURL,
    KIND_SYNC,
    GroundTruthImpression,
    HttpRequest,
    UserTrafficStats,
    Weblog,
)

__all__ = [
    "City",
    "CITIES",
    "CITIES_BY_SIZE",
    "CAMPAIGN_CITIES",
    "city_by_name",
    "assign_ip",
    "population_weights",
    "DeviceProfile",
    "OS_SHARES",
    "DEVICE_TYPE_SHARES",
    "sample_device",
    "sample_os",
    "UserProfile",
    "build_population",
    "sample_interests",
    "activity_weights",
    "GroundTruthPriceModel",
    "BASE_CPM",
    "APP_MULTIPLIER",
    "ENCRYPTED_PREMIUM",
    "IAB_MULTIPLIERS",
    "OS_MULTIPLIERS",
    "SLOT_MULTIPLIERS",
    "ADX_MULTIPLIERS",
    "months_since_2015",
    "MarketUniverse",
    "build_universe",
    "sample_slot_size",
    "PublisherChooser",
    "sample_event_times",
    "HOURLY_WEIGHTS",
    "DOW_WEIGHTS",
    "MONTH_WEIGHTS",
    "HttpRequest",
    "GroundTruthImpression",
    "UserTrafficStats",
    "Weblog",
    "KIND_CONTENT",
    "KIND_NURL",
    "KIND_SYNC",
    "KIND_ANALYTICS",
    "SimulationConfig",
    "MarketState",
    "STANDARD_DSPS",
    "PREMIUM_DSPS",
    "build_market",
    "build_desktop_policy",
    "simulate_period",
    "simulate_dataset",
    "default_config",
    "small_config",
]
