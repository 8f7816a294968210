"""Tests for per-user cost computation and the ARPU validation."""

import numpy as np
import pytest

from repro.core.cost import (
    CostDistribution,
    UserCost,
    compute_user_costs,
    estimation_accuracy,
)
from repro.core.validation import (
    REPORTED_ARPU,
    MarketFactors,
    extrapolate_user_value_usd,
    validate_arpu,
)


class TestUserCost:
    def make(self, clr=10.0, enc=5.0, tc=1.2):
        return UserCost(
            user_id="u1",
            cleartext_cpm=clr,
            cleartext_corrected_cpm=clr * tc,
            encrypted_estimated_cpm=enc,
            n_cleartext=20,
            n_encrypted=5,
        )

    def test_total_uses_corrected_cleartext(self):
        cost = self.make()
        assert cost.total_cpm == pytest.approx(10.0 * 1.2 + 5.0)

    def test_averages(self):
        cost = self.make()
        assert cost.avg_cleartext_cpm == pytest.approx(0.5)
        assert cost.avg_encrypted_cpm == pytest.approx(1.0)
        assert cost.n_impressions == 25


class TestCostDistribution:
    def make_costs(self):
        costs = {}
        for i, (clr, enc) in enumerate([(10, 2), (50, 20), (200, 90), (1500, 400)]):
            costs[f"u{i}"] = UserCost(f"u{i}", clr, clr, enc, 10, 3)
        return costs

    def test_from_costs_arrays(self):
        dist = CostDistribution.from_costs(self.make_costs())
        assert dist.total.shape == (4,)
        assert dist.median_total() == pytest.approx(np.median(dist.total))

    def test_fractions(self):
        dist = CostDistribution.from_costs(self.make_costs())
        assert dist.fraction_below(100) == pytest.approx(0.5)
        assert dist.fraction_in(1000, 10_000) == pytest.approx(0.25)


class TestMarketFactors:
    def test_default_multiplier_matches_paper(self):
        """8-102 CPM must extrapolate to ~$0.54-6.85 (section 6.3)."""
        factors = MarketFactors()
        low = extrapolate_user_value_usd(8.0, factors)
        high = extrapolate_user_value_usd(102.0, factors)
        assert low == pytest.approx(0.54, abs=0.03)
        assert high == pytest.approx(6.85, abs=0.3)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            MarketFactors(http_fraction=0.0)
        with pytest.raises(ValueError):
            MarketFactors(rtb_overhead=1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_user_value_usd(-1.0)


class TestValidateArpu:
    def test_brackets_reported_platforms(self):
        rng = np.random.default_rng(0)
        costs = rng.lognormal(np.log(25), 1.3, 2000)
        validation = validate_arpu(costs)
        assert validation.observed_p25_cpm < validation.observed_p75_cpm
        assert validation.agrees_with_market()
        for band in REPORTED_ARPU.values():
            assert validation.brackets(band)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_arpu([])


class TestComputeUserCosts:
    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.analyzer.interests import PublisherDirectory
        from repro.analyzer.pipeline import WeblogAnalyzer
        from repro.core.campaigns import run_campaign_a1
        from repro.core.estimator import Estimator
        from repro.trace.simulate import build_market, simulate_dataset, small_config
        from repro.util.rng import RngRegistry

        config = small_config()
        dataset = simulate_dataset(config)
        analyzer = WeblogAnalyzer(PublisherDirectory.from_universe(dataset.universe))
        analysis = analyzer.analyze(dataset.rows)
        market = build_market(config, RngRegistry(config.seed))
        campaign = run_campaign_a1(market, seed=21, auctions_per_setup=20)
        rows = campaign.feature_rows()
        model = Estimator.train(
            rows,
            list(campaign.prices()),
            feature_names=[k for k in rows[0] if k != "publisher"],
            seed=2,
            n_estimators=25,
            max_depth=12,
        )
        return dataset, analysis, model

    def test_costs_cover_active_users(self, pipeline):
        dataset, analysis, model = pipeline
        costs = compute_user_costs(analysis, model, time_correction=1.1)
        observed_users = {o.user_id for o in analysis.observations}
        assert set(costs) == observed_users

    def test_totals_consistent(self, pipeline):
        _, analysis, model = pipeline
        costs = compute_user_costs(analysis, model, time_correction=1.0)
        total_clr = sum(c.cleartext_cpm for c in costs.values())
        assert total_clr == pytest.approx(sum(analysis.cleartext_prices()), rel=1e-9)
        assert all(c.total_cpm >= c.cleartext_cpm for c in costs.values())

    def test_time_correction_scales_cleartext(self, pipeline):
        _, analysis, model = pipeline
        base = compute_user_costs(analysis, model, time_correction=1.0)
        corrected = compute_user_costs(analysis, model, time_correction=1.5)
        for uid in base:
            assert corrected[uid].cleartext_corrected_cpm == pytest.approx(
                1.5 * base[uid].cleartext_cpm
            )

    def test_bad_time_correction_rejected(self, pipeline):
        _, analysis, model = pipeline
        with pytest.raises(ValueError):
            compute_user_costs(analysis, model, time_correction=0.0)

    def test_estimation_accuracy_against_truth(self, pipeline):
        """The end-to-end check: estimated totals track true totals."""
        dataset, analysis, model = pipeline
        truth = {
            i.record.notification.encrypted_price: i.charge_price_cpm
            for i in dataset.impressions
            if i.is_encrypted
        }
        scores = estimation_accuracy(analysis, model, truth)
        assert scores["n"] > 100
        assert scores["class_accuracy"] > 0.5
        assert 0.5 < scores["total_ratio"] < 2.0
