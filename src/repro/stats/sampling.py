"""Sample-size arithmetic for probe ad-campaign design (paper section 5.2).

The paper sizes its probing campaigns with the classical margin-of-error
formula, ignoring the finite-population correction (a conservative
choice):

    d = z_{alpha/2} * std / sqrt(n)

Analysing the 280 MoPub campaigns found in dataset ``D`` (mean 1.84 CPM,
std 2.15 CPM) they conclude that 144 setups approximate the population
mean to within 0.35 CPM at 95% confidence, and that 185 impressions per
campaign bound the within-campaign error at 0.1 CPM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from repro.util.validation import require_in_unit_interval, require_positive


def z_score(confidence: float) -> float:
    """Two-sided normal critical value for a confidence level.

    >>> round(z_score(0.95), 2)
    1.96
    """
    require_in_unit_interval(confidence, "confidence")
    alpha = 1.0 - confidence
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def margin_of_error(std: float, n: int, confidence: float = 0.95) -> float:
    """Expected error ``d`` on the mean for ``n`` samples (paper formula)."""
    require_positive(std, "std")
    require_positive(n, "n")
    return z_score(confidence) * std / math.sqrt(n)


def required_samples(std: float, margin: float, confidence: float = 0.95) -> int:
    """Smallest ``n`` whose margin of error is at most ``margin``."""
    require_positive(std, "std")
    require_positive(margin, "margin")
    z = z_score(confidence)
    return int(math.ceil((z * std / margin) ** 2))


@dataclass(frozen=True)
class CampaignSizing:
    """A resolved campaign-design decision (paper section 5.2).

    ``n_setups`` experimental setups give a ``setup_margin`` CPM error on
    the across-campaign mean; ``impressions_per_campaign`` impressions
    give a ``impression_margin`` CPM error on each within-campaign mean.
    """

    campaign_mean: float
    campaign_std: float
    n_setups: int
    setup_margin: float
    within_campaign_std: float
    impressions_per_campaign: int
    impression_margin: float
    confidence: float = 0.95

    @classmethod
    def design(
        cls,
        campaign_mean: float,
        campaign_std: float,
        within_campaign_std: float,
        n_setups: int = 144,
        impression_margin: float = 0.1,
        confidence: float = 0.95,
    ) -> "CampaignSizing":
        """Size a probing campaign following the paper's procedure."""
        return cls(
            campaign_mean=campaign_mean,
            campaign_std=campaign_std,
            n_setups=n_setups,
            setup_margin=margin_of_error(campaign_std, n_setups, confidence),
            within_campaign_std=within_campaign_std,
            impressions_per_campaign=required_samples(
                within_campaign_std, impression_margin, confidence
            ),
            impression_margin=impression_margin,
            confidence=confidence,
        )
