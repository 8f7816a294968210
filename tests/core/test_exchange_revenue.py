"""Tests for the exchange-revenue audit (section-8 application)."""

import pytest

from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import WeblogAnalyzer
from repro.core.campaigns import run_campaign_a1
from repro.core.cost import exchange_revenue_estimates
from repro.core.estimator import Estimator
from repro.rtb.entities import ENCRYPTING_ADXS
from repro.trace.simulate import build_market, simulate_dataset, small_config
from repro.util.rng import RngRegistry


@pytest.fixture(scope="module")
def audited():
    config = small_config(seed=61)
    dataset = simulate_dataset(config)
    analysis = WeblogAnalyzer(
        PublisherDirectory.from_universe(dataset.universe)
    ).analyze(dataset.rows)
    market = build_market(config, RngRegistry(config.seed))
    campaign = run_campaign_a1(market, seed=61, auctions_per_setup=20)
    rows = campaign.feature_rows()
    model = Estimator.train(
        rows, list(campaign.prices()),
        feature_names=[k for k in rows[0] if k != "publisher"],
        seed=61, n_estimators=25, max_depth=12,
    )
    estimates = exchange_revenue_estimates(analysis, model)
    truth = {}
    for imp in dataset.impressions:
        adx = imp.record.notification.adx
        truth[adx] = truth.get(adx, 0.0) + imp.charge_price_cpm
    return estimates, truth


class TestExchangeRevenue:
    def test_every_observed_exchange_estimated(self, audited):
        estimates, truth = audited
        assert set(truth) == set(estimates)

    def test_cleartext_exchanges_audit_exactly(self, audited):
        estimates, truth = audited
        for adx, revenue in estimates.items():
            if adx not in ENCRYPTING_ADXS:
                assert revenue.encrypted_estimated_cpm == 0.0
                assert revenue.total_cpm == pytest.approx(truth[adx], rel=1e-4)

    def test_encrypting_exchanges_within_model_error(self, audited):
        estimates, truth = audited
        for adx in ENCRYPTING_ADXS:
            if adx not in estimates or truth.get(adx, 0) <= 0:
                continue
            ratio = estimates[adx].total_cpm / truth[adx]
            assert 0.5 < ratio < 1.8

    def test_counts_consistent(self, audited):
        estimates, _ = audited
        for revenue in estimates.values():
            assert revenue.n_cleartext >= 0
            assert revenue.n_encrypted >= 0
            if revenue.n_encrypted == 0:
                assert revenue.encrypted_estimated_cpm == 0.0
