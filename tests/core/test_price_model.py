"""Tests for the encrypted-price model and regression baseline."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.campaigns import run_campaign_a1
from repro.core.estimator import Estimator
from repro.core.price_model import regression_baseline
from repro.trace.simulate import build_market, small_config
from repro.util.rng import RngRegistry


@pytest.fixture(scope="module")
def campaign():
    market = build_market(small_config(), RngRegistry(small_config().seed))
    return run_campaign_a1(market, seed=13, auctions_per_setup=25)


@pytest.fixture(scope="module")
def model(campaign):
    rows = campaign.feature_rows()
    names = [k for k in rows[0] if k != "publisher"]
    return Estimator.train(
        rows, list(campaign.prices()), feature_names=names, seed=5,
        n_estimators=30, max_depth=14,
    )


class TestTraining:
    def test_trains_and_estimates(self, campaign, model):
        rows = campaign.feature_rows()
        estimates = model.estimate(rows[:50]).prices
        assert estimates.shape == (50,)
        assert (estimates > 0).all()

    def test_estimates_are_class_representatives(self, model, campaign):
        rows = campaign.feature_rows()[:100]
        estimates = model.estimate(rows).prices
        assert set(np.round(estimates, 9)) <= set(
            np.round(model.binner.representatives, 9)
        )

    def test_training_accuracy_high(self, campaign, model):
        rows = campaign.feature_rows()
        prices = campaign.prices()
        y = model.binner.assign(prices)
        pred = model.estimate(rows).classes
        assert (pred == y).mean() > 0.8

    def test_estimate_correlates_with_truth(self, campaign, model):
        rows = campaign.feature_rows()
        prices = campaign.prices()
        estimates = model.estimate(rows).prices
        corr = np.corrcoef(np.log(estimates), np.log(prices))[0, 1]
        assert corr > 0.7

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            Estimator.train([{"a": 1}], [1.0])

    def test_length_mismatch_rejected(self, campaign):
        rows = campaign.feature_rows()
        with pytest.raises(ValueError):
            Estimator.train(rows, [1.0])

    def test_oob_score_populated(self, model):
        assert model.forest.oob_score_ is not None
        assert model.forest.oob_score_ > 0.5


class TestPackaging:
    def test_package_roundtrip_preserves_estimates(self, campaign, model):
        package = model.to_package()
        clone = Estimator.from_package(package)
        rows = campaign.feature_rows()[:100]
        assert np.allclose(
            model.estimate(rows).prices,
            clone.estimate(rows).prices,
        )

    def test_package_is_json_serialisable(self, model):
        text = json.dumps(model.to_package())
        assert isinstance(json.loads(text), dict)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            Estimator.from_package({"kind": "nope"})

    def test_package_carries_version(self, model):
        assert model.to_package(version=3)["version"] == 3


@pytest.mark.tier1
class TestTimeCorrectionRoundTrip:
    """Regression: the PME writes ``time_correction`` into the package;
    it must survive ``from_package`` and be applied to estimates (the
    pre-PR-3 bug silently dropped it on load)."""

    def test_fresh_model_is_neutral(self, model):
        assert model.time_correction == 1.0
        assert model.to_package()["time_correction"] == 1.0

    def test_coefficient_survives_the_round_trip(self, model):
        package = model.to_package()
        package["time_correction"] = 1.37          # what the PME stamps
        clone = Estimator.from_package(package)
        assert clone.time_correction == 1.37

    def test_loaded_model_estimates_are_time_corrected(self, campaign, model):
        package = model.to_package()
        package["time_correction"] = 1.37
        clone = Estimator.from_package(package)
        rows = campaign.feature_rows()[:50]
        assert np.allclose(
            clone.estimate(rows).prices,
            model.estimate(rows).prices * 1.37,
        )
        assert clone.estimate_one(rows[0]) == pytest.approx(
            model.estimate_one(rows[0]) * 1.37
        )

    def test_estimate_one_matches_batch_bitwise(self, campaign, model):
        package = model.to_package()
        package["time_correction"] = 1.37
        estimator = Estimator.from_package(package)
        rows = campaign.feature_rows()[:32]
        batch = estimator.estimate(rows).prices
        assert [estimator.estimate_one(r) for r in rows] == list(batch)

    def test_estimate_one_matches_batch_on_unseen_categories(self, campaign,
                                                            model):
        # Values the encoder never saw at fit encode as -1; the lean
        # single-row path must price them exactly as the batch does.
        package = model.to_package()
        package["time_correction"] = 0.83
        estimator = Estimator.from_package(package)
        rows = [
            dict(row, city="Atlantis", slot_size="1x1", adx=None)
            if i % 2 else dict(row, publisher_iab="IAB99", os="Plan9")
            for i, row in enumerate(campaign.feature_rows()[:16])
        ]
        batch = estimator.estimate(rows).prices
        assert [estimator.estimate_one(r) for r in rows] == list(batch)

    def test_estimate_one_records_the_forest_span(self, campaign, model):
        with obs.start_trace("observe") as trace:
            model.estimate_one(campaign.feature_rows()[0])
        names = [record.name for record in trace.records]
        assert "forest.predict_proba" in names
        assert "estimator.estimate" not in names

    def test_legacy_package_defaults_to_neutral(self, model):
        package = model.to_package()
        del package["time_correction"]             # pre-PR-3 artefact
        clone = Estimator.from_package(package)
        assert clone.time_correction == 1.0

    def test_nonpositive_coefficient_rejected(self, model):
        package = model.to_package()
        package["time_correction"] = 0.0
        with pytest.raises(ValueError, match="time_correction"):
            Estimator.from_package(package)

    def test_pme_package_applies_state_coefficient(self, campaign):
        """End to end through the PME: package_model -> from_package."""
        from repro.core.pme import PriceModelingEngine

        pme = PriceModelingEngine(seed=3)
        pme.state.campaign_a1 = campaign
        raw_model = pme.train_model(
            feature_names=[k for k in campaign.feature_rows()[0]],
            evaluate=False,
        )
        pme.state.time_correction = 1.19
        loaded = Estimator.from_package(pme.package_model())
        row = campaign.feature_rows()[0]
        assert loaded.estimate_one(row) == pytest.approx(
            raw_model.estimate_one(row) * 1.19
        )


class TestCrossValidation:
    def test_cv_protocol_scores(self, campaign, model):
        rows = campaign.feature_rows()
        prices = list(campaign.prices())
        result = model.cross_validate(rows, prices, n_folds=4, n_runs=1, seed=2)
        assert len(result.reports) == 4
        assert result.accuracy > 0.6
        assert result.auc_roc > 0.8


class TestRegressionBaseline:
    def test_regression_is_poor(self, campaign):
        """Section 5.4's negative result: regression on raw prices has
        high relative error compared to the classifier's granularity."""
        rows = campaign.feature_rows()
        result = regression_baseline(rows, list(campaign.prices()), seed=4)
        assert result.rmse_cpm > 0
        assert result.relative_rmse > 0.2

    def test_r2_bounded(self, campaign):
        rows = campaign.feature_rows()
        result = regression_baseline(rows, list(campaign.prices()), seed=4)
        assert result.r2 <= 1.0
