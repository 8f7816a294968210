"""Tests for the CART decision trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


def _separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(int)
    return x, y


class TestClassifierBasics:
    def test_fits_separable_data_perfectly(self):
        x, y = _separable_data()
        tree = DecisionTreeClassifier().fit(x, y)
        assert np.array_equal(tree.predict(x), y)

    def test_single_class_is_one_leaf(self):
        x = np.random.default_rng(0).normal(size=(30, 3))
        y = np.zeros(30, dtype=int)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.n_leaves() == 1
        assert tree.depth() == 0

    def test_max_depth_respected(self):
        x, y = _separable_data(400, 1)
        y = ((x[:, 0] > 0) & (x[:, 1] > 0)).astype(int) + (x[:, 2] > 0.5)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.depth() <= 2

    def test_min_samples_leaf_respected(self):
        x, y = _separable_data(100, 2)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(x, y)
        # Every training row reaches a leaf, so each leaf's row count is
        # its training sample count.
        reached = np.bincount(tree.apply(x), minlength=tree.flat_.n_nodes)
        leaves = tree.flat_.feature < 0
        assert tree.n_leaves() > 1
        assert np.all(reached[leaves] >= 20)

    def test_predict_proba_rows_sum_to_one(self):
        x, y = _separable_data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        probs = tree.predict_proba(x)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_constant_features_yield_single_leaf(self):
        x = np.ones((50, 3))
        y = np.array([0, 1] * 25)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.n_leaves() == 1

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(4, dtype=int))

    def test_zero_samples_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_negative_labels_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((2, 1)), np.array([-1, 0]))

    def test_bad_criterion_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="chaos")

    def test_entropy_criterion_works(self):
        x, y = _separable_data()
        tree = DecisionTreeClassifier(criterion="entropy").fit(x, y)
        assert np.array_equal(tree.predict(x), y)

    def test_feature_importances_sum_to_one(self):
        x, y = _separable_data()
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_importance_concentrated_on_informative_feature(self):
        x, y = _separable_data(500, 3)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert np.argmax(tree.feature_importances_) == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5))
    def test_multiclass_labels_covered(self, n_classes):
        rng = np.random.default_rng(n_classes)
        x = rng.normal(size=(200, 3))
        y = (np.abs(x[:, 0]) * n_classes / 4).astype(int).clip(0, n_classes - 1)
        tree = DecisionTreeClassifier(max_depth=8).fit(x, y)
        assert set(np.unique(tree.predict(x))) <= set(range(n_classes))

    def test_batch_prediction_matches_single(self):
        x, y = _separable_data(300, 5)
        y = ((x[:, 0] + x[:, 1]) > 0.3).astype(int) * 2
        tree = DecisionTreeClassifier(max_depth=6).fit(x, y)
        batch = tree.predict(x)
        singles = np.array([tree.predict(row[None, :])[0] for row in x[:40]])
        assert np.array_equal(batch[:40], singles)


class TestRegressor:
    def test_fits_step_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(300, 2))
        y = np.where(x[:, 0] > 0, 5.0, -5.0)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        pred = tree.predict(x)
        assert np.abs(pred - y).max() < 1.0

    def test_constant_target_one_leaf(self):
        x = np.random.default_rng(1).normal(size=(40, 2))
        y = np.full(40, 3.3)
        tree = DecisionTreeRegressor().fit(x, y)
        assert np.allclose(tree.predict(x), 3.3)

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 3))
        y = rng.uniform(2.0, 9.0, 200)
        tree = DecisionTreeRegressor(max_depth=6).fit(x, y)
        pred = tree.predict(x)
        assert pred.min() >= 2.0 - 1e-9
        assert pred.max() <= 9.0 + 1e-9

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))
