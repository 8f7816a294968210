"""Probe-campaign study: how an auditor prices the encrypted web.

The scenario of the paper's section 5: you can see that an exchange
delivered an ad, but the charge price on the wire is an opaque 28-byte
blob.  This example plays the auditor:

1. design the 144-setup campaign grid (Table 5) and size it with the
   margin-of-error arithmetic of section 5.2;
2. execute campaign A1 on the four encrypting exchanges and campaign
   A2 on MoPub (cleartext) against the simulated market;
3. compare the two price distributions (the ~1.7x finding);
4. train the 4-class Random Forest and report the section-5.4 metrics;
5. demonstrate price estimation for a handful of hypothetical
   impressions.

Run:  python examples/probe_campaign_study.py
"""

from __future__ import annotations

import numpy as np

from repro.core.campaigns import (
    build_probe_setups,
    run_campaign_a1,
    run_campaign_a2,
)
from repro.core.estimator import Estimator
from repro.core.pme import PAPER_FEATURE_SET
from repro.core.price_model import regression_baseline
from repro.rtb.entities import ENCRYPTING_ADXS
from repro.stats.sampling import CampaignSizing
from repro.trace.simulate import build_market, default_config
from repro.util.rng import RngRegistry

AUCTIONS_PER_SETUP = 30   # scaled; the paper's sizing is 185


def main() -> None:
    print("=== 1. campaign design (Table 5 / section 5.2) ===")
    setups = build_probe_setups(tuple(ENCRYPTING_ADXS))
    print(f"  experimental setups: {len(setups)}")
    sizing = CampaignSizing.design(
        campaign_mean=1.84, campaign_std=2.15, within_campaign_std=0.693
    )
    print(f"  margin of error across {sizing.n_setups} setups: "
          f"{sizing.setup_margin:.2f} CPM at 95% CI")
    print(f"  impressions per campaign for a 0.1 CPM margin: "
          f"{sizing.impressions_per_campaign}")

    print()
    print("=== 2. executing campaigns against the simulated market ===")
    config = default_config().scaled(0.1)
    market = build_market(config, RngRegistry(config.seed))
    a1 = run_campaign_a1(market, seed=42, auctions_per_setup=AUCTIONS_PER_SETUP)
    a2 = run_campaign_a2(market, seed=42, auctions_per_setup=AUCTIONS_PER_SETUP)
    print(f"  A1 (DoubleClick/Rubicon/OpenX/PulsePoint, encrypted): "
          f"{len(a1.impressions)} impressions won")
    print(f"  A2 (MoPub, cleartext): {len(a2.impressions)} impressions won")

    print()
    print("=== 3. encrypted vs cleartext price distributions ===")
    for name, prices in (("A1 encrypted", a1.prices()), ("A2 cleartext", a2.prices())):
        p10, p50, p90 = np.percentile(prices, [10, 50, 90])
        print(f"  {name:<13} p10={p10:.2f}  p50={p50:.2f}  p90={p90:.2f} CPM")
    ratio = float(np.median(a1.prices()) / np.median(a2.prices()))
    print(f"  median ratio: {ratio:.2f}x  (paper: ~1.7x; prior work assumed 1.0x)")

    print()
    print("=== 4. training the 4-class price model ===")
    rows = a1.feature_rows()
    names = list(PAPER_FEATURE_SET) + ["os"]
    model = Estimator.train(
        rows, list(a1.prices()), feature_names=names, seed=42
    )
    cv = model.cross_validate(rows, list(a1.prices()), n_folds=5, n_runs=1, seed=42)
    print(f"  class representatives: "
          + ", ".join(f"{r:.2f}" for r in model.binner.representatives) + " CPM")
    print(f"  5-fold CV: accuracy {cv.accuracy:.1%}, precision {cv.precision:.1%}, "
          f"AUCROC {cv.auc_roc:.3f}")
    reg = regression_baseline(rows, list(a1.prices()), seed=42)
    print(f"  regression baseline RMSE: {reg.rmse_cpm:.2f} CPM "
          f"({reg.relative_rmse:.0%} of the mean) -> classification wins")

    print()
    print("=== 5. estimating hypothetical encrypted impressions ===")
    scenarios = [
        ("business site, iOS app, MPU, morning",
         dict(context="app", device_type="smartphone", city="Madrid",
              time_of_day=2, day_of_week=1, slot_size="300x250",
              publisher_iab="IAB3", adx="DoubleClick", os="iOS")),
        ("science site, Android web, banner, night",
         dict(context="web", device_type="smartphone", city="Madrid",
              time_of_day=0, day_of_week=6, slot_size="320x50",
              publisher_iab="IAB15", adx="OpenX", os="Android")),
        ("news site, tablet app, leaderboard, evening",
         dict(context="app", device_type="tablet", city="Barcelona",
              time_of_day=5, day_of_week=3, slot_size="728x90",
              publisher_iab="IAB12", adx="Rubicon", os="iOS")),
    ]
    for label, features in scenarios:
        estimate = model.estimate_one(features)
        print(f"  {label:<45} -> {estimate:.2f} CPM")


if __name__ == "__main__":
    main()
