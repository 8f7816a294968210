"""Tests for PCA and model serialisation."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: A format-2 forest payload (5 features, 3 classes), see test_model_golden.
FIXTURE_V2 = Path(__file__).parent / "data" / "forest_v2.json"

_COLUMNS = ("feature", "threshold", "left", "right", "leaf_counts")


def _fixture_v2() -> dict:
    return json.loads(FIXTURE_V2.read_text())


class TestSerializationV2:
    """Payloads round-trip fitted state and hyperparameters (since v2)."""

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

    def test_payload_declares_version_3(self):
        forest, _ = self._fitted_forest()
        payload = forest_to_dict(forest)
        assert payload["format"] == 3
        tree = payload["trees"][0]
        assert tree["format"] == 3
        assert "root" not in tree
        n_nodes = len(tree["feature"])
        for key in ("threshold", "left", "right"):
            assert len(tree[key]) == n_nodes
        n_leaves = sum(f < 0 for f in tree["feature"])
        assert len(tree["leaf_counts"]) == n_leaves
        assert all(isinstance(c, int) for row in tree["leaf_counts"] for c in row)
        assert all(t is None for f, t in zip(tree["feature"], tree["threshold"])
                   if f < 0)

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
        payload = _fixture_v2()
        forest = forest_from_dict(payload)
        # Strip everything version 2 added, emulating an old artefact.
        legacy = {
            "format": 1,
            "kind": payload["kind"],
            "n_classes": payload["n_classes"],
            "n_features": payload["n_features"],
            "trees": [t | {"format": 1} for t in payload["trees"]],
        }
        clone = forest_from_dict(legacy)
        assert clone.feature_importances_ is None
        assert clone.oob_score_ is None
        x = np.random.default_rng(3).normal(size=(60, payload["n_features"]))
        assert np.array_equal(clone.predict_proba(x), forest.predict_proba(x))

    def test_version_2_payload_resaves_as_version_3(self):
        v2 = forest_from_dict(_fixture_v2())
        v3 = forest_from_dict(loads(dumps(forest_to_dict(v2))))
        x = np.random.default_rng(4).normal(size=(60, 5))
        assert np.array_equal(v3.predict_proba(x), v2.predict_proba(x))
        assert np.array_equal(v3.apply(x), v2.apply(x))
        assert dumps(forest_to_dict(v3)) == dumps(forest_to_dict(v2))

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


def _forest_payload() -> dict:
    """A fitted 3-feature, 2-tree forest as a format-3 payload."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(120, 3))
    y = (x[:, 0] > 0).astype(int)
    forest = RandomForestClassifier(n_estimators=2, max_depth=4, seed=3).fit(x, y)
    payload = forest_to_dict(forest)
    assert payload["trees"][0]["feature"][0] >= 0
    return payload


class TestPayloadFeatureValidation:
    """A node ``feature`` outside ``0..n_features-1`` is rejected at load.

    Unchecked, a negative index loads and silently routes on a wrapped
    column (numpy wraps negative indices), and ``>= n_features`` loads,
    then raises ``IndexError`` on the first estimate -- a 500 on
    ``/estimate`` and a crash in the YourAdValue client.  In format 3,
    ``-1`` is the leaf marker, so the smallest bad value is ``-2``; in
    the nested formats any negative index at an internal node is bad.
    """

    @pytest.mark.parametrize("version, feature", [
        (3, -2), (3, 3), (3, 99), (2, -1), (2, 5), (2, 99),
    ])
    def test_out_of_range_feature_rejected(self, version, feature):
        if version == 3:
            payload = _forest_payload()
            payload["trees"][0]["feature"][0] = feature
        else:
            payload = _fixture_v2()
            payload["trees"][0]["root"]["feature"] = feature
        with pytest.raises(ValueError, match="out of range"):
            tree_from_dict(payload["trees"][0])
        with pytest.raises(ValueError, match="out of range"):
            forest_from_dict(payload)

    def test_deep_out_of_range_feature_rejected(self):
        payload = _forest_payload()
        features = payload["trees"][1]["feature"]
        deepest = max(i for i, f in enumerate(features) if f >= 0)
        features[deepest] = 3
        with pytest.raises(ValueError, match="out of range"):
            forest_from_dict(payload)
        legacy = _fixture_v2()
        node = legacy["trees"][1]["root"]
        while not node["right"]["leaf"]:
            node = node["right"]
        node["feature"] = -1
        with pytest.raises(ValueError, match="out of range"):
            forest_from_dict(legacy)

    def test_tree_wider_than_forest_rejected(self):
        payload = _forest_payload()
        payload["trees"][0]["n_features"] = 4
        with pytest.raises(ValueError, match="features"):
            forest_from_dict(payload)


class TestMalformedPayloads:
    """Malformed payloads fail at load with ``ValueError``.

    Never later: a model that loads must estimate, and the serving loop
    and the YourAdValue client both turn ``ValueError`` at load into a
    refused model.
    """

    @pytest.mark.parametrize("source", ["v3", "v2"])
    def test_empty_forest_rejected(self, source):
        payload = _forest_payload() if source == "v3" else _fixture_v2()
        payload["trees"] = []
        with pytest.raises(ValueError, match="tree"):
            forest_from_dict(payload)

    @pytest.mark.parametrize("source", ["v3", "v2"])
    def test_tree_count_must_match_n_estimators(self, source):
        """A truncated payload would otherwise load with its old
        ``n_estimators``, and a refit from the loaded params would build
        a different forest than the one shipped."""
        payload = _forest_payload() if source == "v3" else _fixture_v2()
        assert payload["params"]["n_estimators"] == len(payload["trees"])
        payload["trees"] = payload["trees"][:1]
        with pytest.raises(ValueError, match="n_estimators"):
            forest_from_dict(payload)

    def test_v2_node_without_left_rejected(self):
        payload = _fixture_v2()
        del payload["trees"][0]["root"]["left"]
        with pytest.raises(ValueError, match="missing key"):
            forest_from_dict(payload)

    def test_v2_shared_node_rejected(self):
        payload = _fixture_v2()
        root = payload["trees"][0]["root"]
        root["right"] = root["left"]
        with pytest.raises(ValueError, match="more than once"):
            forest_from_dict(payload)

    @pytest.mark.parametrize("key", _COLUMNS + ("n_classes",))
    def test_v3_missing_key_rejected(self, key):
        payload = _forest_payload()
        del payload["trees"][0][key]
        with pytest.raises(ValueError, match="missing key"):
            forest_from_dict(payload)

    def test_v3_cycle_rejected(self):
        payload = _forest_payload()
        tree = payload["trees"][0]
        tree["left"][0] = 0
        with pytest.raises(ValueError, match="greater than its parent"):
            forest_from_dict(payload)

    def test_v3_back_edge_rejected(self):
        payload = _forest_payload()
        tree = payload["trees"][0]
        inner = max(i for i, f in enumerate(tree["feature"]) if f >= 0 and i)
        tree["right"][inner] = 0
        with pytest.raises(ValueError, match="greater than its parent"):
            forest_from_dict(payload)

    @pytest.mark.parametrize("child", [-1, 10_000])
    def test_v3_child_out_of_range_rejected(self, child):
        payload = _forest_payload()
        payload["trees"][0]["right"][0] = child
        with pytest.raises(ValueError, match="out of range"):
            forest_from_dict(payload)

    def test_v3_node_reached_twice_rejected(self):
        payload = _forest_payload()
        tree = payload["trees"][0]
        tree["right"][0] = tree["left"][0]
        with pytest.raises(ValueError, match="more than once"):
            forest_from_dict(payload)

    @pytest.mark.parametrize("key", ["feature", "threshold", "left", "right"])
    def test_v3_mismatched_lengths_rejected(self, key):
        payload = _forest_payload()
        payload["trees"][0][key].pop()
        with pytest.raises(ValueError):
            forest_from_dict(payload)

    @pytest.mark.parametrize("row", [
        [-1, 3], [float("nan"), 1], [float("inf"), 0], [0.5, 1], [1, 2, 3],
        [2.0 ** 60, 1], [],
    ])
    def test_v3_bad_leaf_counts_rejected(self, row):
        payload = _forest_payload()
        payload["trees"][0]["leaf_counts"][0] = row
        with pytest.raises(ValueError):
            forest_from_dict(payload)

    def test_v3_missing_leaf_row_rejected(self):
        payload = _forest_payload()
        payload["trees"][0]["leaf_counts"].pop()
        with pytest.raises(ValueError, match="one row per leaf"):
            forest_from_dict(payload)


_N_FEATURES = 3


@st.composite
def _tree_dicts(draw) -> dict:
    """A valid format-3 tree, then (half the time) one corrupted entry."""
    feature, threshold, left, right = [-1], [None], [-1], [-1]
    for _ in range(draw(st.integers(0, 6))):
        node = draw(st.sampled_from([i for i, f in enumerate(feature) if f < 0]))
        feature[node] = draw(st.integers(0, _N_FEATURES - 1))
        threshold[node] = draw(st.floats(-2, 2))
        left[node], right[node] = len(feature), len(feature) + 1
        feature += [-1, -1]
        threshold += [None, None]
        left += [-1, -1]
        right += [-1, -1]
    width = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 9), min_size=width, max_size=width)
    n_leaves = feature.count(-1)
    payload = {
        "format": 3, "kind": "decision_tree_classifier", "n_classes": 3,
        "n_features": _N_FEATURES, "feature": feature, "threshold": threshold,
        "left": left, "right": right,
        "leaf_counts": draw(st.lists(row, min_size=n_leaves, max_size=n_leaves)),
    }
    if draw(st.booleans()):
        column = payload[draw(st.sampled_from(_COLUMNS))]
        junk = st.one_of(
            st.integers(-3, len(feature) + 2), st.floats(), st.none(),
            st.lists(st.integers(-2, 9), max_size=4),
        )
        action = draw(st.sampled_from(["set", "pop", "append"]))
        if action == "set":
            column[draw(st.integers(0, len(column) - 1))] = draw(junk)
        elif action == "pop":
            column.pop(draw(st.integers(0, len(column) - 1)))
        else:
            column.append(draw(junk))
    return payload


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_tree_dicts())
    def test_loads_a_sound_tree_or_raises_value_error(self, payload):
        original = copy.deepcopy(payload)
        try:
            tree = tree_from_dict(payload)
        except ValueError:
            return
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, size=(40, _N_FEATURES))
        x[0] = np.nan
        probs = tree.predict_proba(x)
        assert probs.shape == (40, 3)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert tree_to_dict(tree)["leaf_counts"] == original["leaf_counts"]
