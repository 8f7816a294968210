"""Unit tests for the flattened tree representation (repro.ml.flat)."""

import numpy as np
import pytest

from repro.ml.flat import (
    FlatTree,
    flatten_classifier_tree,
    flatten_regressor_tree,
)
from repro.ml.serialize import dumps, loads, tree_from_dict, tree_to_dict
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    TreeNode,
)
from tests.ml.reference import (
    leaf_for,
    proba_nodes,
    proba_per_row,
    regressor_predict_nodes,
)


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] > 0.2).astype(int))
    return x, y


class TestCompilation:
    def test_node_count_matches_tree(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=6).fit(x, y)
        flat = tree.flat_
        assert isinstance(flat, FlatTree)
        assert flat.n_nodes == 2 * tree.n_leaves() - 1
        assert flat.n_outputs == tree.n_classes_
        # Leaves carry no children; internals always carry both.
        leaves = flat.feature < 0
        assert np.all(flat.left[leaves] == -1)
        assert np.all(flat.right[leaves] == -1)
        assert np.all(flat.left[~leaves] >= 0)
        assert np.all(flat.right[~leaves] >= 0)
        assert np.all(np.isnan(flat.threshold[leaves]))

    def test_recompilation_is_deterministic(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=8).fit(x, y)
        first = tree.flat_
        second = tree.compile_flat()
        for field in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(first, field), getattr(second, field)
            assert np.array_equal(a, b, equal_nan=True)

    def test_single_leaf_tree(self):
        x = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.flat_.n_nodes == 1
        probs = tree.predict_proba(np.ones((3, 2)))
        assert probs.shape == (3, 1)
        assert np.all(probs == 1.0)

    def test_leaf_probabilities_bit_identical_to_recursive(self):
        x, y = _data(500, seed=3)
        tree = DecisionTreeClassifier(max_depth=10).fit(x, y)
        fresh = np.random.default_rng(11).normal(size=(200, 4))
        assert np.array_equal(
            tree.flat_.predict_value(fresh), proba_nodes(tree, fresh)
        )
        assert np.array_equal(
            tree.flat_.predict_value(fresh[:30]),
            proba_per_row(tree, fresh[:30]),
        )

    def test_wider_class_space_alignment(self):
        # Compiling into a wider forest class space scatters by label.
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        wide = flatten_classifier_tree(tree.root_, tree.n_classes_ + 2)
        probs = wide.predict_value(x[:10])
        assert probs.shape == (10, tree.n_classes_ + 2)
        assert np.array_equal(probs[:, : tree.n_classes_],
                              tree.predict_proba(x[:10]))
        assert np.all(probs[:, tree.n_classes_:] == 0.0)

    def test_narrower_class_space_rejected(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        with pytest.raises(ValueError):
            flatten_classifier_tree(tree.root_, tree.n_classes_ - 1)


class TestApply:
    def test_apply_returns_leaf_ids(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=7).fit(x, y)
        leaves = tree.apply(x)
        assert leaves.shape == (len(x),)
        assert np.all(tree.flat_.feature[leaves] == -1)

    def test_apply_agrees_with_per_row_walk(self):
        x, y = _data(200, seed=9)
        tree = DecisionTreeClassifier(max_depth=9).fit(x, y)
        flat = tree.flat_
        for i in range(0, 200, 17):
            leaf_node = leaf_for(tree.root_, x[i])
            flat_leaf = flat.apply(x[i : i + 1])[0]
            counts = leaf_node.value
            assert np.array_equal(flat.value[flat_leaf], counts / counts.sum())

    def test_nan_routes_right_like_recursive(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)
        probe = np.full((1, x.shape[1]), np.nan)
        assert np.array_equal(
            tree.predict_proba(probe), proba_nodes(tree, probe)
        )


class TestRegressorFlat:
    def test_flat_vs_nodes_exact(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(400, 3))
        y = x[:, 0] ** 2 + x[:, 1]
        tree = DecisionTreeRegressor(max_depth=8).fit(x, y)
        fresh = rng.uniform(-2, 2, size=(150, 3))
        assert np.array_equal(
            tree.predict(fresh), regressor_predict_nodes(tree, fresh)
        )

    def test_flatten_regressor_single_output(self):
        root = TreeNode(value=1.5, n_samples=3, impurity=0.0)
        flat = flatten_regressor_tree(root)
        assert flat.n_outputs == 1
        assert flat.predict_value(np.zeros((2, 1)))[0, 0] == 1.5


class TestSerializeRoundTrip:
    def test_deserialised_tree_predicts_bit_identically(self):
        x, y = _data(350, seed=6)
        tree = DecisionTreeClassifier(max_depth=9).fit(x, y)
        clone = tree_from_dict(loads(dumps(tree_to_dict(tree))))
        assert clone.flat_ is not None  # recompiled on load
        fresh = np.random.default_rng(21).normal(size=(120, 4))
        assert np.array_equal(clone.predict_proba(fresh),
                              tree.predict_proba(fresh))
        assert np.array_equal(clone.apply(fresh), tree.apply(fresh))
