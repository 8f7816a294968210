"""Shared utilities: seeded randomness, simulation calendar, CPM money,
process-pool worker resolution."""

from repro.util.money import (
    cpm_to_micros,
    format_cpm,
    format_usd,
    micros_to_cpm,
)
from repro.util.parallel import pool_context, resolve_workers
from repro.util.rng import DEFAULT_SEED, RngRegistry, derive_seed, stream
from repro.util.timeutil import (
    CAMPAIGN_A1_PERIOD,
    CAMPAIGN_A2_PERIOD,
    DAY_NAMES,
    TIME_OF_DAY_BUCKETS,
    Period,
    day_of_week,
    epoch,
    from_epoch,
    hour_of,
    is_weekend,
    month_of,
    year_of,
)
from repro.util.validation import (
    require_in_unit_interval,
    require_positive,
)

__all__ = [
    "DEFAULT_SEED",
    "RngRegistry",
    "derive_seed",
    "stream",
    "Period",
    "CAMPAIGN_A1_PERIOD",
    "CAMPAIGN_A2_PERIOD",
    "DAY_NAMES",
    "TIME_OF_DAY_BUCKETS",
    "epoch",
    "from_epoch",
    "month_of",
    "year_of",
    "hour_of",
    "day_of_week",
    "is_weekend",
    "cpm_to_micros",
    "micros_to_cpm",
    "format_cpm",
    "format_usd",
    "pool_context",
    "resolve_workers",
    "require_positive",
    "require_in_unit_interval",
]
