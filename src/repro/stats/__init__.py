"""Statistics substrate: summaries, CDFs, KS tests, sampling design."""

from repro.stats.descriptive import (
    PAPER_PERCENTILES,
    Cdf,
    PercentileSummary,
    fraction_below,
    summarize,
    summarize_groups,
)
from repro.stats.distributions import LogNormal, median_ratio
from repro.stats.ks import KsResult, ks_two_sample
from repro.stats.textplot import cdf_plot, percentile_box
from repro.stats.sampling import (
    CampaignSizing,
    margin_of_error,
    required_samples,
    z_score,
)

__all__ = [
    "PAPER_PERCENTILES",
    "PercentileSummary",
    "Cdf",
    "summarize",
    "summarize_groups",
    "fraction_below",
    "LogNormal",
    "median_ratio",
    "KsResult",
    "ks_two_sample",
    "CampaignSizing",
    "margin_of_error",
    "required_samples",
    "z_score",
    "cdf_plot",
    "percentile_box",
]
