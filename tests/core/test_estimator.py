"""Tests for the Estimator, the one price model and estimation API.

The central contract is bit-identity: batch and single-row estimates
must equal the raw composition of the model's parts --
``binner.estimate(argmax(forest.predict_proba(encoder.transform(rows))))
* time_correction``.
"""

import numpy as np
import pytest

from repro.core.campaigns import run_campaign_a1
from repro.core.estimator import Estimator
from repro.ml.flat import _BLOCK_ROWS
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
    trained = Estimator.train(
        rows, list(campaign.prices()), feature_names=names, seed=9,
        n_estimators=20, max_depth=10,
    )
    package = trained.to_package()
    package["time_correction"] = 1.23      # non-trivial drift coefficient
    return Estimator.from_package(package)


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
    """Estimator outputs == the raw model composition, bit for bit."""

    def test_estimate_matches_legacy_batch(self, model, rows):
        result = model.estimate(rows)
        assert np.array_equal(result.prices, _raw_prices(model, rows))

    def test_estimate_one_matches_legacy_scalar(self, model, rows):
        for row in rows[:8]:
            assert model.estimate_one(row) == float(
                _raw_prices(model, [row])[0]
            )

    def test_batch_equals_per_row_and_raw_composition(self, model, campaign):
        """Across the forest arena's block edge, at ``time_correction``
        1.23: one batch, the per-row path and the raw composition agree."""
        rows = campaign.feature_rows()[: _BLOCK_ROWS + 1]
        assert len(rows) == 1025 and model.time_correction == 1.23
        prices = model.estimate(rows).prices
        raw = model.binner.estimate(
            np.argmax(
                model.forest.predict_proba(model.encoder.transform(rows)), axis=1
            )
        ) * model.time_correction
        assert np.array_equal(prices, raw)
        assert prices.tolist() == [model.estimate_one(r) for r in rows]

    def test_classes_are_argmax_of_proba(self, model, rows):
        result = model.estimate(rows)
        assert np.array_equal(
            result.classes, np.argmax(_raw_proba(model, rows), axis=1)
        )

    def test_time_correction_is_applied(self, model, rows):
        result = model.estimate(rows)
        assert model.time_correction == 1.23
        raw = model.binner.estimate(result.classes)
        assert np.array_equal(result.prices, raw * 1.23)


class TestEstimateResult:
    def test_len(self, model, rows):
        assert len(model.estimate(rows[:5])) == 5

    def test_empty_batch(self, model):
        result = model.estimate([])
        assert len(result) == 0
        assert result.prices.shape == (0,)
        assert result.classes.shape == (0,)

    def test_spans_captured_under_trace(self, model, rows):
        with obs.start_trace("request") as trace:
            model.estimate(rows[:3])
        names = [r.name for r in trace.records]
        assert "estimator.estimate" in names
        assert "estimator.encode" in names
        assert "forest.inference" in names
        assert "estimator.time_correction" in names


class TestFacadeApi:
    def test_from_package_round_trip(self, model, rows):
        via_package = Estimator.from_package(model.to_package())
        assert via_package.time_correction == model.time_correction
        assert np.array_equal(
            via_package.estimate(rows).prices, model.estimate(rows).prices
        )

    def test_legacy_kwargs_rejected_with_guidance(self, model, rows):
        with pytest.raises(TypeError, match="chunksize"):
            model.estimate(rows, chunksize=10)


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
            model.estimate(rows, frobnicate=1)


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
        model = Estimator.train(
            rows, prices, feature_names=["context", "city", "slot_size"],
            n_estimators=5, max_depth=4, seed=0,
        )
        estimate = model.estimate_one(
            {"context": "hologram", "city": "Atlantis", "slot_size": "999x1"}
        )
        assert np.isfinite(estimate)
        assert estimate > 0
        assert min(prices) <= estimate <= max(prices)
