"""User cost report: "how much do advertisers pay to reach you?"

The paper's section-6 scenario: given a year-long weblog and a trained
price model, compute every user's advertiser cost V_u = C_u + E_u,
rank the population, and extrapolate to whole-footprint dollar values
the way section 6.3 validates against platform ARPU.

Run:  python examples/user_cost_report.py
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import WeblogAnalyzer
from repro.core.campaigns import run_campaign_a1, run_campaign_a2
from repro.core.cost import (
    CostDistribution,
    compute_user_costs,
    exchange_revenue_estimates,
)
from repro.core.estimator import Estimator
from repro.core.reporting import render_regulator_report
from repro.core.pme import PAPER_FEATURE_SET, mopub_cleartext_prices
from repro.core.validation import REPORTED_ARPU, validate_arpu
from repro.stats.distributions import median_ratio
from repro.trace.simulate import build_market, default_config, simulate_dataset
from repro.util.rng import RngRegistry

SCALE = 0.1


def main() -> None:
    config = default_config().scaled(SCALE)
    print(f"Simulating dataset D at {SCALE:.0%} scale "
          f"({config.n_users} users, ~{config.target_auctions:,} auctions)...")
    dataset = simulate_dataset(config)
    directory = PublisherDirectory.from_universe(dataset.universe)
    analysis = WeblogAnalyzer(directory).analyze(dataset.rows)

    print("Training the price model from probe campaigns...")
    market = build_market(config, RngRegistry(config.seed))
    a1 = run_campaign_a1(market, seed=11, auctions_per_setup=25)
    a2 = run_campaign_a2(market, seed=11, auctions_per_setup=25)
    rows = a1.feature_rows()
    model = Estimator.train(
        rows, list(a1.prices()),
        feature_names=list(PAPER_FEATURE_SET) + ["os"], seed=11,
    )
    correction = median_ratio(a2.prices(), mopub_cleartext_prices(analysis))

    costs = compute_user_costs(analysis, model, correction)
    dist = CostDistribution.from_costs(costs)

    print()
    print("=== population cost distribution (CPM per year) ===")
    for pct in (10, 25, 50, 75, 90, 99):
        print(f"  p{pct:<3} {np.percentile(dist.total, pct):>10.1f}")
    print(f"  max  {dist.total.max():>10.1f}")
    print(f"  users under 100 CPM: {dist.fraction_below(100):.0%}")
    print(f"  users in 1000-10000 CPM: {dist.fraction_in(1000, 10_000):.1%}")

    print()
    print("=== the ten most valuable users ===")
    ranked = sorted(costs.values(), key=lambda c: -c.total_cpm)[:10]
    print(f"  {'user':<10} {'total':>9} {'cleartext':>10} {'encrypted':>10} {'ads':>5}")
    for cost in ranked:
        print(f"  {cost.user_id:<10} {cost.total_cpm:>9.1f} "
              f"{cost.cleartext_corrected_cpm:>10.1f} "
              f"{cost.encrypted_estimated_cpm:>10.1f} {cost.n_impressions:>5}")

    print()
    print("=== extrapolation to whole-footprint value (section 6.3) ===")
    validation = validate_arpu(dist.total)
    print(f"  observed p25-p75: {validation.observed_p25_cpm:.1f}-"
          f"{validation.observed_p75_cpm:.1f} CPM "
          f"-> ${validation.extrapolated_low_usd:.2f}-"
          f"${validation.extrapolated_high_usd:.2f} per user-year "
          f"(multiplier {validation.multiplier:.0f}x)")
    for platform, (low, high) in REPORTED_ARPU.items():
        print(f"  reported ARPU, {platform}: ${low:.0f}-{high:.0f}")
    verdict = "agrees" if validation.agrees_with_market() else "DISAGREES"
    print(f"  -> extrapolation {verdict} with reported platform ARPU "
          "(order of magnitude)")

    print()
    print(render_regulator_report(exchange_revenue_estimates(analysis, model)))


if __name__ == "__main__":
    main()
