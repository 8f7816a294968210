"""Tests for PCA and model serialisation."""

import json

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.pca import PCA
from repro.ml.serialize import (
    dumps,
    forest_from_dict,
    forest_to_dict,
    loads,
    tree_from_dict,
    tree_to_dict,
)
from repro.ml.tree import DecisionTreeClassifier


class TestPCA:
    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=1000)
        x = np.column_stack([t, 2 * t + rng.normal(0, 0.01, 1000), rng.normal(0, 0.01, 1000)])
        pca = PCA(n_components=1).fit(x)
        direction = pca.components_[0] / np.linalg.norm(pca.components_[0])
        expected = np.array([1.0, 2.0, 0.0]) / np.sqrt(5)
        assert abs(abs(direction @ expected) - 1.0) < 1e-3

    def test_explained_variance_ratio_sums_below_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 5))
        pca = PCA(n_components=3).fit(x)
        assert 0 < pca.explained_variance_ratio_.sum() <= 1.0 + 1e-9

    def test_transform_shape(self):
        x = np.random.default_rng(2).normal(size=(50, 4))
        z = PCA(n_components=2).fit_transform(x)
        assert z.shape == (50, 2)

    def test_inverse_transform_approximates(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(200, 2))
        x = np.column_stack([t[:, 0], t[:, 1], t[:, 0] + t[:, 1]])
        pca = PCA(n_components=2).fit(x)
        recon = pca.inverse_transform(pca.transform(x))
        assert np.allclose(recon, x, atol=1e-8)

    def test_too_many_components_raises(self):
        with pytest.raises(ValueError):
            PCA(n_components=10).fit(np.zeros((5, 3)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PCA(n_components=1).transform(np.zeros((2, 2)))


class TestSerialization:
    def _fitted_tree(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(150, 4))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 1).astype(int)
        return DecisionTreeClassifier(max_depth=6).fit(x, y), x

    def test_tree_roundtrip_preserves_predictions(self):
        tree, x = self._fitted_tree()
        clone = tree_from_dict(tree_to_dict(tree))
        assert np.array_equal(tree.predict(x), clone.predict(x))
        assert np.allclose(tree.predict_proba(x), clone.predict_proba(x))

    def test_tree_json_roundtrip(self):
        tree, x = self._fitted_tree()
        payload = loads(dumps(tree_to_dict(tree)))
        clone = tree_from_dict(payload)
        assert np.array_equal(tree.predict(x), clone.predict(x))

    def test_unfitted_tree_rejected(self):
        with pytest.raises(ValueError):
            tree_to_dict(DecisionTreeClassifier())

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            tree_from_dict({"kind": "pickle"})
        with pytest.raises(ValueError):
            forest_from_dict({"kind": "tree"})

    def test_forest_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=7, max_depth=5, seed=2).fit(x, y)
        clone = forest_from_dict(forest_to_dict(forest))
        assert np.array_equal(forest.predict(x), clone.predict(x))
        assert np.allclose(forest.predict_proba(x), clone.predict_proba(x))

    def test_serialised_forest_is_pure_json(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=3, max_depth=3, seed=1).fit(x, y)
        text = dumps(forest_to_dict(forest))
        assert isinstance(json.loads(text), dict)


class TestSerializationV2:
    """Version-2 payloads round-trip fitted state and hyperparameters."""

    def _fitted_forest(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(250, 4))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5).astype(int)
        forest = RandomForestClassifier(
            n_estimators=6,
            max_depth=7,
            min_samples_leaf=2,
            min_samples_split=3,
            max_features="sqrt",
            criterion="entropy",
            oob_score=True,
            seed=42,
        ).fit(x, y)
        return forest, x

    def test_payload_declares_version_2(self):
        forest, _ = self._fitted_forest()
        payload = forest_to_dict(forest)
        assert payload["format"] == 2
        assert payload["trees"][0]["format"] == 2

    def test_hyperparameters_roundtrip(self):
        forest, _ = self._fitted_forest()
        clone = forest_from_dict(loads(dumps(forest_to_dict(forest))))
        for key in ("n_estimators", "max_depth", "min_samples_leaf",
                    "min_samples_split", "max_features", "criterion",
                    "bootstrap", "oob_score", "seed"):
            assert getattr(clone, key) == getattr(forest, key), key

    def test_fitted_state_roundtrip(self):
        forest, x = self._fitted_forest()
        clone = forest_from_dict(loads(dumps(forest_to_dict(forest))))
        assert clone.oob_score_ == forest.oob_score_
        assert np.array_equal(clone.feature_importances_,
                              forest.feature_importances_)
        # serialise -> deserialise -> predict is bit-identical
        assert np.array_equal(clone.predict_proba(x), forest.predict_proba(x))

    def test_refit_after_roundtrip_matches_original(self):
        # Because hyperparameters (incl. seed) survive, refitting the
        # clone on the same data reproduces the original forest.
        forest, x = self._fitted_forest()
        rng = np.random.default_rng(5)
        x2 = rng.normal(size=(250, 4))
        y2 = (x2[:, 0] > 0).astype(int) + (x2[:, 1] > 0.5).astype(int)
        clone = forest_from_dict(forest_to_dict(forest))
        clone.fit(x2, y2)
        assert dumps(forest_to_dict(clone)) == dumps(forest_to_dict(forest))

    def test_version_1_payload_still_loads(self):
        forest, x = self._fitted_forest()
        payload = forest_to_dict(forest)
        # Strip everything version 2 added, emulating an old artefact.
        legacy = {
            "format": 1,
            "kind": payload["kind"],
            "n_classes": payload["n_classes"],
            "n_features": payload["n_features"],
            "trees": [
                {k: v for k, v in t.items() if k != "format"} | {"format": 1}
                for t in payload["trees"]
            ],
        }
        clone = forest_from_dict(legacy)
        assert clone.feature_importances_ is None
        assert clone.oob_score_ is None
        assert np.array_equal(clone.predict_proba(x), forest.predict_proba(x))

    def test_future_format_rejected(self):
        forest, _ = self._fitted_forest()
        payload = forest_to_dict(forest)
        payload["format"] = 99
        with pytest.raises(ValueError, match="unsupported"):
            forest_from_dict(payload)

    def test_unknown_params_rejected(self):
        forest, _ = self._fitted_forest()
        payload = forest_to_dict(forest)
        payload["params"]["workers"] = 8  # runtime knob must not sneak in
        with pytest.raises(ValueError, match="unknown forest params"):
            forest_from_dict(payload)


class TestPayloadFeatureValidation:
    """A node ``feature`` outside ``0..n_features-1`` is rejected at load.

    Unchecked, ``-1`` loads and silently routes on the last column
    (numpy wraps negative indices), and ``>= n_features`` loads, then
    raises ``IndexError`` on the first estimate -- a 500 on
    ``/estimate`` and a crash in the YourAdValue client.
    """

    def _forest_payload(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(120, 3))
        y = (x[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=2, max_depth=4, seed=3).fit(x, y)
        payload = forest_to_dict(forest)
        assert payload["trees"][0]["root"]["leaf"] is False
        return payload

    @pytest.mark.parametrize("feature", [-1, 3, 99])
    def test_out_of_range_feature_rejected(self, feature):
        payload = self._forest_payload()
        payload["trees"][0]["root"]["feature"] = feature
        with pytest.raises(ValueError, match="out of range"):
            tree_from_dict(payload["trees"][0])
        with pytest.raises(ValueError, match="out of range"):
            forest_from_dict(payload)

    def test_deep_out_of_range_feature_rejected(self):
        payload = self._forest_payload()
        node = payload["trees"][1]["root"]
        while not node["right"]["leaf"]:
            node = node["right"]
        node["feature"] = -1
        with pytest.raises(ValueError, match="out of range"):
            forest_from_dict(payload)

    def test_tree_wider_than_forest_rejected(self):
        payload = self._forest_payload()
        payload["trees"][0]["n_features"] = 4
        with pytest.raises(ValueError, match="features"):
            forest_from_dict(payload)
