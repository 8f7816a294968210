"""Per-user advertiser cost: V_u = C_u + E_u (paper sections 3.1, 6.2).

Given an analyzer pass over a weblog and a trained price model, compute
for every user the cleartext sum C_u, the estimated encrypted sum E_u,
the optional time-corrected cleartext sum, and the total V_u -- the
quantities behind Figures 17, 18 and 19.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.analyzer.pipeline import AnalysisResult, PriceObservation
from repro.core.estimator import Estimator


@dataclass(frozen=True)
class UserCost:
    """One user's advertiser cost over the observation period.

    All sums are in CPM units (divide by 1000 for dollars), following
    the paper's presentation.
    """

    user_id: str
    cleartext_cpm: float
    cleartext_corrected_cpm: float
    encrypted_estimated_cpm: float
    n_cleartext: int
    n_encrypted: int

    @property
    def total_cpm(self) -> float:
        """V_u: time-corrected cleartext plus estimated encrypted."""
        return self.cleartext_corrected_cpm + self.encrypted_estimated_cpm

    @property
    def n_impressions(self) -> int:
        return self.n_cleartext + self.n_encrypted

    @property
    def avg_cleartext_cpm(self) -> float:
        return self.cleartext_cpm / self.n_cleartext if self.n_cleartext else 0.0

    @property
    def avg_encrypted_cpm(self) -> float:
        return (
            self.encrypted_estimated_cpm / self.n_encrypted
            if self.n_encrypted
            else 0.0
        )


def observation_features(obs: PriceObservation) -> dict:
    """The S-feature dict of one observation (model input)."""
    from repro.util.timeutil import day_of_week, hour_of

    return {
        "context": obs.context,
        "device_type": obs.device_type,
        "city": obs.city,
        "time_of_day": hour_of(obs.timestamp) // 4,
        "day_of_week": day_of_week(obs.timestamp),
        "slot_size": obs.slot_size or "unknown",
        "publisher_iab": obs.publisher_iab,
        "adx": obs.adx,
        "os": obs.os,
        "publisher": obs.publisher,
    }


def compute_user_costs(
    analysis: AnalysisResult,
    estimator: Estimator,
    time_correction: float = 1.0,
) -> dict[str, UserCost]:
    """Tally every user's C_u and estimate their E_u.

    Encrypted estimates are batched through one estimate call for
    speed; the time-correction coefficient scales cleartext sums from
    the weblog's year to campaign time (paper section 6.2).
    """
    if time_correction <= 0:
        raise ValueError("time_correction must be positive")

    cleartext_sum: dict[str, float] = defaultdict(float)
    cleartext_n: dict[str, int] = defaultdict(int)
    encrypted_sum: dict[str, float] = defaultdict(float)
    encrypted_n: dict[str, int] = defaultdict(int)

    encrypted_obs = analysis.encrypted()
    if encrypted_obs:
        rows = [observation_features(o) for o in encrypted_obs]
        estimates = estimator.estimate(rows).prices
        for obs, estimate in zip(encrypted_obs, estimates):
            encrypted_sum[obs.user_id] += float(estimate)
            encrypted_n[obs.user_id] += 1

    for obs in analysis.cleartext():
        cleartext_sum[obs.user_id] += obs.price_cpm
        cleartext_n[obs.user_id] += 1

    user_ids = set(cleartext_sum) | set(encrypted_sum)
    return {
        uid: UserCost(
            user_id=uid,
            cleartext_cpm=cleartext_sum[uid],
            cleartext_corrected_cpm=cleartext_sum[uid] * time_correction,
            encrypted_estimated_cpm=encrypted_sum[uid],
            n_cleartext=cleartext_n[uid],
            n_encrypted=encrypted_n[uid],
        )
        for uid in sorted(user_ids)
    }


@dataclass(frozen=True)
class CostDistribution:
    """Population-level summary of user costs (Figure 17's CDFs)."""

    cleartext: np.ndarray
    cleartext_corrected: np.ndarray
    encrypted: np.ndarray
    total: np.ndarray

    @classmethod
    def from_costs(cls, costs: dict[str, UserCost]) -> "CostDistribution":
        values = list(costs.values())
        return cls(
            cleartext=np.array([c.cleartext_cpm for c in values]),
            cleartext_corrected=np.array(
                [c.cleartext_corrected_cpm for c in values]
            ),
            encrypted=np.array([c.encrypted_estimated_cpm for c in values]),
            total=np.array([c.total_cpm for c in values]),
        )

    def median_total(self) -> float:
        return float(np.median(self.total))

    def fraction_below(self, threshold_cpm: float) -> float:
        return float(np.mean(self.total < threshold_cpm))

    def fraction_in(self, low: float, high: float) -> float:
        return float(np.mean((self.total >= low) & (self.total < high)))


@dataclass(frozen=True)
class ExchangeRevenue:
    """One exchange's estimated RTB revenue over the observation window.

    The paper's discussion (section 8) proposes exactly this use:
    "tax auditors could estimate ad-companies' revenues, and detect
    discrepancies from their tax declarations in an independent and
    transparent way".  Sums are CPM units (divide by 1000 for dollars).
    """

    adx: str
    cleartext_cpm: float
    encrypted_estimated_cpm: float
    n_cleartext: int
    n_encrypted: int

    @property
    def total_cpm(self) -> float:
        return self.cleartext_cpm + self.encrypted_estimated_cpm


def exchange_revenue_estimates(
    analysis: AnalysisResult,
    estimator: Estimator,
) -> dict[str, ExchangeRevenue]:
    """Estimate every exchange's revenue from observed notifications.

    Cleartext prices sum directly; encrypted ones are estimated through
    the model -- giving an external auditor a per-company revenue figure
    nobody had to disclose.
    """
    clr_sum: dict[str, float] = defaultdict(float)
    clr_n: dict[str, int] = defaultdict(int)
    enc_sum: dict[str, float] = defaultdict(float)
    enc_n: dict[str, int] = defaultdict(int)

    for obs in analysis.cleartext():
        clr_sum[obs.adx] += obs.price_cpm
        clr_n[obs.adx] += 1

    encrypted_obs = analysis.encrypted()
    if encrypted_obs:
        rows = [observation_features(o) for o in encrypted_obs]
        estimates = estimator.estimate(rows).prices
        for obs, estimate in zip(encrypted_obs, estimates):
            enc_sum[obs.adx] += float(estimate)
            enc_n[obs.adx] += 1

    return {
        adx: ExchangeRevenue(
            adx=adx,
            cleartext_cpm=clr_sum[adx],
            encrypted_estimated_cpm=enc_sum[adx],
            n_cleartext=clr_n[adx],
            n_encrypted=enc_n[adx],
        )
        for adx in sorted(set(clr_sum) | set(enc_sum))
    }


def estimation_accuracy(
    analysis: AnalysisResult,
    estimator: Estimator,
    true_prices_by_token: dict[str, float],
) -> dict[str, float]:
    """Score encrypted estimates against simulator ground truth.

    ``true_prices_by_token`` maps encrypted tokens to the true charge
    price (available in the reproduction because we own the simulator;
    the paper had this only for its own campaign traffic).  Returns the
    class-level accuracy and price-level errors.
    """
    encrypted_obs = [
        o for o in analysis.encrypted() if o.encrypted_token in true_prices_by_token
    ]
    if not encrypted_obs:
        raise ValueError("no encrypted observations with known ground truth")
    rows = [observation_features(o) for o in encrypted_obs]
    result = estimator.estimate(rows)
    estimates = result.prices
    truths = np.array(
        [true_prices_by_token[o.encrypted_token] for o in encrypted_obs]
    )
    true_classes = estimator.binner.assign(truths)
    pred_classes = result.classes
    abs_log_err = np.abs(np.log(estimates) - np.log(truths))
    return {
        "n": len(encrypted_obs),
        "class_accuracy": float(np.mean(true_classes == pred_classes)),
        "median_abs_log_error": float(np.median(abs_log_err)),
        "total_true_cpm": float(truths.sum()),
        "total_estimated_cpm": float(estimates.sum()),
        "total_ratio": float(estimates.sum() / truths.sum()),
    }
