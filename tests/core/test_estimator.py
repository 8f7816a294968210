"""Tests for the Estimator facade, the one estimation API.

The central contract is bit-identity: the facade must produce exactly
the arrays of the raw model composition --
``binner.estimate(argmax(forest.predict_proba(encoder.transform(rows))))
* time_correction`` -- for any chunking and for single rows.
"""

import numpy as np
import pytest

from repro.core.campaigns import run_campaign_a1
from repro.core.estimator import EstimateResult, Estimator
from repro.core.price_model import EncryptedPriceModel
from repro.trace.simulate import build_market, small_config
from repro.util.rng import RngRegistry
from repro import obs


@pytest.fixture(scope="module")
def campaign():
    market = build_market(small_config(), RngRegistry(small_config().seed))
    return run_campaign_a1(market, seed=17, auctions_per_setup=20)


@pytest.fixture(scope="module")
def model(campaign):
    rows = campaign.feature_rows()
    names = [k for k in rows[0] if k != "publisher"]
    trained = EncryptedPriceModel.train(
        rows, list(campaign.prices()), feature_names=names, seed=9,
        n_estimators=20, max_depth=10,
    )
    package = trained.to_package()
    package["time_correction"] = 1.23      # non-trivial drift coefficient
    return EncryptedPriceModel.from_package(package)


@pytest.fixture(scope="module")
def rows(campaign):
    return campaign.feature_rows()[:64]


def _raw_proba(model, rows):
    """The forest pass, composed by hand from the model's parts."""
    return model.forest.predict_proba(model.encoder.transform(list(rows)))


def _raw_prices(model, rows):
    classes = np.argmax(_raw_proba(model, rows), axis=1)
    return model.binner.estimate(classes) * model.time_correction


@pytest.mark.tier1
class TestBitIdentity:
    """Facade outputs == the raw model composition, bit for bit."""

    def test_estimate_matches_legacy_batch(self, model, rows):
        facade = Estimator(model).estimate(rows)
        assert np.array_equal(facade.prices, _raw_prices(model, rows))

    def test_estimate_one_matches_legacy_scalar(self, model, rows):
        estimator = Estimator(model)
        for row in rows[:8]:
            assert estimator.estimate_one(row) == float(
                _raw_prices(model, [row])[0]
            )

    def test_proba_matches_legacy_predict_proba(self, model, rows):
        facade = Estimator(model).estimate(rows)
        assert np.array_equal(facade.proba, _raw_proba(model, rows))

    def test_classes_are_argmax_of_proba(self, model, rows):
        result = Estimator(model).estimate(rows)
        assert np.array_equal(result.classes, np.argmax(result.proba, axis=1))

    def test_chunked_estimation_identical(self, model, rows):
        estimator = Estimator(model)
        whole = estimator.estimate(rows)
        for chunk_size in (1, 7, 64, 1000):
            chunked = estimator.estimate(rows, chunk_size=chunk_size)
            assert np.array_equal(whole.prices, chunked.prices)
            assert np.array_equal(whole.proba, chunked.proba)

    def test_explain_matches_legacy_explain_one(self, model, rows):
        """``explain`` reports the same numbers the estimate path does."""
        explanation = Estimator(model).explain(rows[0])
        result = Estimator(model).estimate(rows[:1])
        assert explanation["predicted_class"] == int(result.classes[0])
        assert explanation["estimated_cpm"] == result.price_of(0)
        assert explanation["class_probabilities"] == result.proba[0].tolist()

    def test_time_correction_is_applied(self, model, rows):
        result = Estimator(model).estimate(rows)
        assert result.time_correction == model.time_correction == 1.23
        raw = model.binner.estimate(result.classes)
        assert np.array_equal(result.prices, raw * 1.23)


class TestEstimateResult:
    def test_len_and_price_of(self, model, rows):
        result = Estimator(model).estimate(rows[:5])
        assert len(result) == 5
        assert result.price_of(2) == float(result.prices[2])

    def test_empty_batch(self, model):
        result = Estimator(model).estimate([])
        assert len(result) == 0
        assert result.prices.shape == (0,)
        assert result.proba.shape == (0, model.binner.n_classes)

    def test_to_dict_is_json_shaped(self, model, rows):
        import json

        payload = json.loads(json.dumps(Estimator(model).estimate(rows[:3]).to_dict()))
        assert set(payload) == {"prices", "classes", "proba", "time_correction"}
        assert len(payload["prices"]) == 3

    def test_spans_empty_without_trace(self, model, rows):
        assert obs.active_trace() is None
        assert Estimator(model).estimate(rows[:3]).spans == ()

    def test_spans_captured_under_trace(self, model, rows):
        with obs.start_trace("request"):
            result = Estimator(model).estimate(rows[:3])
        names = [s["name"] for s in result.spans]
        assert "estimator.encode" in names
        assert "forest.inference" in names
        assert "estimator.time_correction" in names


class TestFacadeApi:
    def test_wraps_only_price_models(self):
        with pytest.raises(TypeError, match="EncryptedPriceModel"):
            Estimator(object())

    def test_from_package_round_trip(self, model, rows):
        via_package = Estimator.from_package(model.to_package())
        direct = Estimator(model)
        assert via_package.time_correction == direct.time_correction
        assert np.array_equal(
            via_package.estimate(rows).prices, direct.estimate(rows).prices
        )

    def test_passthrough_properties(self, model):
        estimator = Estimator(model)
        assert estimator.feature_names == model.feature_names
        assert estimator.to_package()["kind"] == model.to_package()["kind"]

    def test_bad_chunk_size_rejected(self, model, rows):
        with pytest.raises(ValueError, match="chunk_size"):
            Estimator(model).estimate(rows, chunk_size=0)

    def test_legacy_kwargs_rejected_with_guidance(self, model, rows):
        with pytest.raises(TypeError, match="chunksize"):
            Estimator(model).estimate(rows, chunksize=10)


class TestLegacyKwargRejection:
    """Old parallelism kwarg spellings fail loudly: every layer that
    grew ``workers=`` / ``chunk_size=`` takes exactly those names, and
    Python's own TypeError names the stale keyword."""

    def test_forest_rejects_n_jobs(self):
        from repro.ml.forest import RandomForestClassifier

        with pytest.raises(TypeError, match="n_jobs"):
            RandomForestClassifier(n_jobs=4)

    def test_analyze_rejects_n_jobs(self, model):
        from repro.analyzer.interests import PublisherDirectory
        from repro.analyzer.pipeline import WeblogAnalyzer

        analyzer = WeblogAnalyzer(PublisherDirectory({}))
        with pytest.raises(TypeError, match="n_jobs"):
            analyzer.analyze([], n_jobs=2)

    def test_analyze_parallel_rejects_chunksize(self):
        from repro.analyzer.interests import PublisherDirectory
        from repro.analyzer.parallel import analyze_parallel

        with pytest.raises(TypeError, match="chunksize"):
            analyze_parallel([], PublisherDirectory({}), chunksize=100)

    def test_pme_train_rejects_num_workers(self):
        from repro.core.pme import PriceModelingEngine

        with pytest.raises(TypeError, match="num_workers"):
            PriceModelingEngine().train_model(num_workers=2)

    def test_pme_retrain_rejects_retrain_workers(self):
        from repro.core.pme import PriceModelingEngine

        with pytest.raises(TypeError, match="retrain_workers"):
            PriceModelingEngine().retrain_with_contributions(
                [], [], retrain_workers=2
            )

    def test_server_rejects_retrain_workers(self, model):
        from repro.serve.app import PmeServer

        with pytest.raises(TypeError, match="retrain_workers"):
            PmeServer(package=model.to_package(), retrain_workers=2)

    def test_unknown_kwarg_still_a_type_error(self, model, rows):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Estimator(model).estimate(rows, frobnicate=1)


class TestClientMetadataResilience:
    def test_client_estimates_with_unknown_metadata(self):
        """A nURL from an unknown city / unseen slot must still produce a
        finite positive estimate (the encoder maps unseen to -1)."""
        rows = [
            {
                "context": "app" if i % 2 else "web",
                "city": ["Madrid", "Barcelona"][i % 2],
                "slot_size": ["300x250", "320x50"][i % 2],
            }
            for i in range(120)
        ]
        prices = [0.3 * (3.0 if i % 2 else 1.0) * (1 + 0.001 * (i % 9))
                  for i in range(120)]
        model = EncryptedPriceModel.train(
            rows, prices, feature_names=["context", "city", "slot_size"],
            n_estimators=5, max_depth=4, seed=0,
        )
        estimate = Estimator(model).estimate_one(
            {"context": "hologram", "city": "Atlantis", "slot_size": "999x1"}
        )
        assert np.isfinite(estimate)
        assert estimate > 0
        assert min(prices) <= estimate <= max(prices)
