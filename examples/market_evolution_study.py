"""Market-evolution study: beyond the paper's 2015 snapshot.

Three what-if experiments the paper motivates but could not run:

1. **Retargeting** (section 5.3 defers it): a retargeting DSP joins the
   market and we measure the price lift on its audience -- the
   mechanism hypothesised to explain the encrypted-price premium.
2. **Encryption everywhere** (section 2.4's warning): what happens to
   observable transparency if the big cleartext exchanges flip to
   desktop-level encryption rates?
3. **First-price migration** (the industry's actual post-2017 move):
   does the estimation methodology survive the mechanism change?

Run:  python examples/market_evolution_study.py
"""

from __future__ import annotations

import numpy as np

from repro.core.campaigns import run_campaign_a2
from repro.core.estimator import Estimator
from repro.core.pme import PAPER_FEATURE_SET
from repro.rtb.bidding import Dsp, RetargetingEngine
from repro.rtb.campaign import Campaign
from repro.rtb.cookiesync import synced_uid
from repro.trace.population import build_population
from repro.trace.simulate import (
    build_desktop_policy,
    build_market,
    simulate_period,
    small_config,
)
from repro.trace.weblog import Weblog
from repro.util.rng import RngRegistry

AUDIENCE_IAB = "IAB22"


def retargeting_study() -> None:
    print("=== 1. retargeting (the paper's deferred future work) ===")
    config = small_config(seed=88)
    rngs = RngRegistry(config.seed)
    market = build_market(config, rngs)
    users = build_population(rngs.get("population"), config.n_users)

    # Audience = users whose dominant interest is shopping: the
    # retargeter's "abandoned cart" segment.  (Comparing against the
    # rest of the population includes a composition effect -- shopping
    # pages are dearer -- exactly as real retargeting premiums do.)
    audience = [u for u in users if u.interests.dominant == AUDIENCE_IAB] or users[:8]
    for user in audience:
        for adx in market.exchanges:
            market.sync_registry.sync(user.user_id, adx, "Retargeter")
    retargeter = Dsp(
        "Retargeter",
        RetargetingEngine(
            dsp_name="Retargeter",
            value_model=market.value_model,
            audience_uids=frozenset(synced_uid("Retargeter", u.user_id) for u in audience),
            boost=2.5,
        ),
        rngs.get("retargeter"),
        campaigns=[Campaign("rt", "ShopBrand", max_bid_cpm=60.0)],
    )
    weblog = Weblog(period=config.period, users=users,
                    universe=market.universe, policy=market.policy)
    simulate_period(market, users, config.period, config.target_auctions,
                    rngs, weblog, extra_dsps=[retargeter], config=config)

    audience_ids = {u.user_id for u in audience}
    targeted = [i.charge_price_cpm for i in weblog.impressions if i.user_id in audience_ids]
    others = [i.charge_price_cpm for i in weblog.impressions if i.user_id not in audience_ids]
    print(f"  audience: {len(audience)} shopping-interest users "
          f"({len(targeted)} impressions)")
    print(f"  median price, retargeted users: {np.median(targeted):.3f} CPM")
    print(f"  median price, other users:      {np.median(others):.3f} CPM")
    print(f"  -> retargeting lifts the audience's market price "
          f"{np.median(targeted) / np.median(others):.2f}x\n")


def encryption_everywhere_study() -> None:
    print("=== 2. encryption everywhere (section 2.4's warning) ===")
    config = small_config(seed=99)
    rngs = RngRegistry(config.seed)
    market = build_market(config, rngs)
    market.policy = build_desktop_policy(rngs.get("desktop-policy"))
    users = build_population(rngs.get("population"), config.n_users)
    weblog = Weblog(period=config.period, users=users,
                    universe=market.universe, policy=market.policy)
    simulate_period(market, users, config.period, config.target_auctions,
                    rngs, weblog, config=config)
    encrypted = sum(1 for i in weblog.impressions if i.is_encrypted)
    share = encrypted / max(1, weblog.n_impressions)
    print(f"  with desktop-level adoption, {share:.0%} of impressions hide "
          f"their price (mobile 2015: ~26%)")
    print("  -> cleartext tallying alone would miss most of the spend;")
    print("     the probe-campaign + model pipeline becomes essential.\n")


def first_price_study() -> None:
    print("=== 3. first-price migration (post-2017 industry shift) ===")
    results = {}
    for mechanism in ("second_price", "first_price"):
        config = small_config(seed=77)
        market = build_market(config, RngRegistry(config.seed))
        for exchange in market.exchanges.values():
            exchange.mechanism = mechanism
        campaign = run_campaign_a2(market, seed=77, auctions_per_setup=15)
        rows = campaign.feature_rows()
        model = Estimator.train(
            rows, list(campaign.prices()),
            feature_names=list(PAPER_FEATURE_SET) + ["os"],
            seed=77, n_estimators=20, max_depth=12,
        )
        cv = model.cross_validate(rows, list(campaign.prices()),
                                  n_folds=4, n_runs=1, seed=77)
        results[mechanism] = (float(np.median(campaign.prices())), cv.accuracy)
    for mechanism, (median, acc) in results.items():
        print(f"  {mechanism:<13} median charge {median:.3f} CPM, "
              f"model accuracy {acc:.0%}")
    uplift = results["first_price"][0] / results["second_price"][0]
    print(f"  -> charges rise {uplift:.2f}x without the runner-up discount;")
    print("     the estimation methodology is mechanism-agnostic.")


def main() -> None:
    retargeting_study()
    encryption_everywhere_study()
    first_price_study()


if __name__ == "__main__":
    main()
