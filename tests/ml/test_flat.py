"""Unit tests for the flat-array tree representation (repro.ml.flat)."""

from pathlib import Path

import numpy as np
import pytest

from repro.ml.flat import _BLOCK_ROWS, FlatForest, FlatTree
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.serialize import (
    dumps,
    forest_from_dict,
    loads,
    tree_from_dict,
    tree_to_dict,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.ml.reference import (
    decision_path,
    forest_proba,
    leaf_counts,
    leaf_for,
    proba_nodes,
    proba_per_row,
    regressor_predict_nodes,
)

_FIELDS = ("feature", "threshold", "left", "right", "value")

#: A committed format-2 forest payload (4 trees, 3 classes, 5 features).
_FOREST_V2 = Path(__file__).parent / "data" / "forest_v2.json"


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] > 0.2).astype(int))
    return x, y


def _same_arrays(a: FlatTree, b: FlatTree) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
        for f in _FIELDS
    )


class TestCompilation:
    def test_node_count_matches_tree(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=6).fit(x, y)
        flat = tree.flat_
        assert isinstance(flat, FlatTree)
        assert flat.n_nodes == 2 * tree.n_leaves() - 1
        assert flat.value.shape[1] == tree.n_classes_
        # Leaves carry no children; internals always carry both, with
        # ids greater than their own.
        leaves = flat.feature < 0
        assert np.all(flat.left[leaves] == -1)
        assert np.all(flat.right[leaves] == -1)
        internal = np.flatnonzero(~leaves)
        assert np.all(flat.left[internal] > internal)
        assert np.all(flat.right[internal] > internal)
        assert np.all(np.isnan(flat.threshold[leaves]))
        assert tree.leaf_counts_.shape == (tree.n_leaves(), tree.n_classes_)

    def test_recompilation_is_deterministic(self):
        # Building the arrays again -- a refit, or a serialise/load
        # round trip -- yields the same arrays.
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=8).fit(x, y)
        refit = DecisionTreeClassifier(max_depth=8).fit(x, y)
        loaded = tree_from_dict(loads(dumps(tree_to_dict(tree))))
        assert _same_arrays(tree.flat_, refit.flat_)
        assert _same_arrays(tree.flat_, loaded.flat_)
        assert np.array_equal(tree.leaf_counts_, loaded.leaf_counts_)

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
        # Loading into a wider forest class space scatters by label.
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        wide = tree_from_dict(tree_to_dict(tree), tree.n_classes_ + 2)
        probs = wide.predict_proba(x[:10])
        assert probs.shape == (10, tree.n_classes_ + 2)
        assert np.array_equal(probs[:, : tree.n_classes_],
                              tree.predict_proba(x[:10]))
        assert np.all(probs[:, tree.n_classes_:] == 0.0)

    def test_narrower_class_space_rejected(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        with pytest.raises(ValueError):
            tree_from_dict(tree_to_dict(tree), tree.n_classes_ - 1)


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
        counts = leaf_counts(tree)
        for i in range(0, 200, 17):
            leaf = leaf_for(tree, x[i])
            assert flat.apply(x[i : i + 1])[0] == leaf
            assert np.array_equal(flat.value[leaf],
                                  counts[leaf] / counts[leaf].sum())

    def test_nan_routes_right_like_recursive(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)
        probe = np.full((1, x.shape[1]), np.nan)
        assert np.array_equal(
            tree.predict_proba(probe), proba_nodes(tree, probe)
        )


class TestIntrospection:
    def test_depth_and_paths_match_pointer_chase(self):
        x, y = _data(400, seed=12)
        tree = DecisionTreeClassifier(max_depth=7).fit(x, y)
        flat = tree.flat_
        # Depth of every node, parents before children (ids grow down).
        depth = np.zeros(flat.n_nodes, dtype=int)
        for node in range(flat.n_nodes):
            if flat.feature[node] >= 0:
                depth[flat.left[node]] = depth[flat.right[node]] = depth[node] + 1
        assert tree.depth() == depth.max()
        assert tree.n_leaves() == int(np.sum(flat.feature < 0))
        for row in x[:25]:
            path = decision_path(flat, row)
            assert len(path) == depth[leaf_for(tree, row)]
            node = 0
            for feature, threshold, went_left in path:
                assert (feature, threshold) == (flat.feature[node],
                                                flat.threshold[node])
                node = flat.left[node] if went_left else flat.right[node]
            assert node == leaf_for(tree, row)


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
        tree = DecisionTreeRegressor().fit(np.zeros((3, 1)), np.full(3, 1.5))
        flat = tree.flat_
        assert flat.n_nodes == 1
        assert flat.value.shape[1] == 1
        assert flat.predict_value(np.zeros((2, 1)))[0, 0] == 1.5


class TestSerializeRoundTrip:
    def test_deserialised_tree_predicts_bit_identically(self):
        x, y = _data(350, seed=6)
        tree = DecisionTreeClassifier(max_depth=9).fit(x, y)
        clone = tree_from_dict(loads(dumps(tree_to_dict(tree))))
        fresh = np.random.default_rng(21).normal(size=(120, 4))
        assert np.array_equal(clone.predict_proba(fresh),
                              tree.predict_proba(fresh))
        assert np.array_equal(clone.apply(fresh), tree.apply(fresh))


# -- the whole-forest arena ----------------------------------------------------

def _per_tree(tree, x):
    """The production per-tree walk, as a ``forest_proba`` tree scorer."""
    return tree.predict_proba(x)


def _queries(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 4))


@pytest.fixture(scope="module")
def forest():
    x, y = _data(600, seed=8)
    return RandomForestClassifier(n_estimators=12, max_depth=10,
                                  seed=5).fit(x, y)


@pytest.mark.tier1
class TestForestArena:
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                   _BLOCK_ROWS + 1, 3000])
    def test_proba_bit_identical_to_per_tree_loop(self, forest, n):
        x = _queries(n, seed=n)
        proba = forest.predict_proba(x)
        assert proba.shape == (n, forest.n_classes_)
        assert np.array_equal(proba, forest_proba(forest, x, _per_tree))
        assert np.array_equal(proba, forest_proba(forest, x, proba_per_row))

    def test_all_nan_rows_route_right(self, forest):
        x = _queries(6, seed=1)
        x[::2] = np.nan
        x[1, 2] = np.nan
        proba = forest.predict_proba(x)
        assert np.array_equal(proba, forest_proba(forest, x, _per_tree))
        assert np.array_equal(proba, forest_proba(forest, x, proba_per_row))
        assert np.array_equal(proba[0], proba[2])

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS + 1])
    def test_apply_is_per_tree_apply_stacked(self, forest, n):
        x = _queries(n, seed=3)
        leaves = forest.apply(x)
        assert leaves.shape == (n, len(forest.trees_))
        expected = np.column_stack([tree.apply(x) for tree in forest.trees_])
        assert leaves.dtype == expected.dtype
        assert np.array_equal(leaves, expected)

    def test_format1_payload_with_narrower_trees(self):
        # Every member tree knows one class fewer than the forest; the
        # arena gathers their leaf rows, widened at load.
        payload = loads(_FOREST_V2.read_text())
        v1 = {
            "format": 1, "kind": payload["kind"],
            "n_classes": payload["n_classes"] + 1,
            "n_features": payload["n_features"],
            "trees": [t | {"format": 1} for t in payload["trees"]],
        }
        loaded = forest_from_dict(v1)
        x = np.random.default_rng(4).normal(size=(_BLOCK_ROWS + 7,
                                                  payload["n_features"]))
        x[-1] = np.nan
        proba = loaded.predict_proba(x)
        assert proba.shape[1] == payload["n_classes"] + 1
        assert np.all(proba[:, -1] == 0.0)
        assert np.array_equal(proba, forest_proba(loaded, x, _per_tree))

    def test_regressor_forest(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(300, 3))
        y = x[:, 0] ** 2 + x[:, 1]
        regressor = RandomForestRegressor(n_estimators=9, max_depth=7,
                                          seed=2).fit(x, y)
        for n in (0, 1, _BLOCK_ROWS + 1):
            fresh = rng.uniform(-2, 2, size=(n, 3))
            total = np.zeros(n)
            for tree in regressor.trees_:
                total += regressor_predict_nodes(tree, fresh)
            assert np.array_equal(regressor.predict(fresh),
                                  total / len(regressor.trees_))

    @pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS + 1])
    def test_one_class_classifier(self, n):
        # One output column: at one row each tree holds one value, the
        # case that cannot use a reduction over the tree axis.
        x, _ = _data(200, seed=2)
        one_class = RandomForestClassifier(n_estimators=9, max_depth=5,
                                           seed=4).fit(x, np.zeros(200, int))
        fresh = _queries(n, seed=n)
        proba = one_class.predict_proba(fresh)
        assert proba.shape == (n, 1)
        assert np.array_equal(proba, forest_proba(one_class, fresh, _per_tree))
        assert np.array_equal(proba,
                              forest_proba(one_class, fresh, proba_per_row))

    def test_one_value_per_tree_adds_in_tree_order(self):
        # 60 lone-leaf trees whose values span many magnitudes, so a
        # pairwise sum of the tree axis gives other bits than adding
        # one tree after another.
        rng = np.random.default_rng(11)
        values = rng.random(60) * 10.0 ** rng.integers(-8, 9, size=60)
        arena = FlatForest.from_trees([
            FlatTree.build([-1], [np.nan], [-1], [-1], np.array([[v]]))
            for v in values
        ])
        total = 0.0
        for v in values:
            total += v
        assert np.add.reduce(values) != total   # the data tells them apart
        assert arena.predict_value(np.zeros((1, 2))).tolist() == [[total / 60]]

    def test_arena_is_built_with_the_trees(self, forest):
        arena = forest.flat_
        assert isinstance(arena, FlatForest)
        assert arena.n_trees == len(forest.trees_)
        assert arena.feature.size == sum(t.flat_.n_nodes for t in forest.trees_)
        for t, tree in enumerate(forest.trees_):
            root = arena.roots[t]
            span = slice(root, root + tree.flat_.n_nodes)
            assert np.array_equal(arena.value[span], tree.flat_.value)
            internal = tree.flat_.feature >= 0
            assert np.array_equal(arena.left[span][internal],
                                  tree.flat_.left[internal] + root)
            # The tree's other columns are views into the arena.
            for field in ("feature", "threshold", "value"):
                assert np.shares_memory(getattr(tree.flat_, field),
                                        getattr(arena, field))
        # The trees cannot be swapped out from under the arena.
        with pytest.raises(AttributeError):
            forest.trees_ = ()
        with pytest.raises(AttributeError):
            forest.trees_.append(forest.trees_[0])

    def test_forest_of_single_leaf_trees(self):
        # Every root is a leaf, so the walk takes no step at all.
        single = RandomForestClassifier(n_estimators=3, seed=1).fit(
            np.zeros((8, 2)), np.zeros(8, dtype=int))
        x = _queries(5)[:, :2]
        assert np.array_equal(single.apply(x), np.zeros((5, 3), dtype=np.int64))
        assert np.array_equal(single.predict_proba(x), np.ones((5, 1)))

    def test_single_row_bit_identical_across_rows(self, forest):
        x = _queries(200, seed=9)
        batched = forest.predict_proba(x)
        for i in range(0, 200, 7):
            assert np.array_equal(forest.predict_proba(x[i]), batched[i:i + 1])


# -- the fixed-depth walk against the per-row oracle -------------------------

def _per_row_leaves(forest, x):
    """Each tree's leaf id per row by pointer chasing: ``(rows, trees)``."""
    return np.array([[leaf_for(tree, row) for tree in forest.trees_]
                     for row in x], dtype=np.int64)


@pytest.fixture(scope="module")
def mixed_forest():
    # Deep trees interleaved with lone leaves, so most (row, tree) pairs
    # sit at their leaf for most of the walk's steps.
    x, y = _data(800, seed=13)
    mixed = RandomForestClassifier(n_estimators=5, seed=7).fit(x, y)
    deep = list(mixed.trees_)
    lone = [DecisionTreeClassifier().fit(x, np.full(len(x), label),
                                         n_classes=mixed.n_classes_)
            for label in (1, 0, 2)]
    mixed._set_trees([lone[0], deep[0], deep[1], lone[1], deep[2],
                      deep[3], deep[4], lone[2]])
    return mixed


def _on_thresholds(model, x, seed):
    """``x`` with about half its cells moved onto a split threshold of
    their feature, so the walk meets ``x == threshold`` ties."""
    arena = model.flat_
    rng = np.random.default_rng(seed)
    x = x.copy()
    for f in range(x.shape[1]):
        cuts = arena.threshold[arena.feature == f]
        hit = rng.random(x.shape[0]) < 0.5
        x[hit, f] = rng.choice(cuts, size=int(hit.sum()))
    return x


@pytest.mark.tier1
class TestFixedDepthWalk:
    @pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_leaves_match_per_row_descent(self, forest, n):
        x = _on_thresholds(forest, _queries(n, seed=40 + n), n)
        assert np.array_equal(forest.apply(x), _per_row_leaves(forest, x))
        assert np.array_equal(forest.predict_proba(x),
                              forest_proba(forest, x, proba_per_row))

    @pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS + 1])
    def test_lone_leaves_beside_deep_trees(self, mixed_forest, n):
        depths = [tree.depth() for tree in mixed_forest.trees_]
        assert min(depths) == 0 and max(depths) >= 8
        x = _queries(n, seed=50 + n)
        leaves = mixed_forest.apply(x)
        assert np.array_equal(leaves, _per_row_leaves(mixed_forest, x))
        assert np.all(leaves[:, [0, 3, 7]] == 0)
        assert np.array_equal(mixed_forest.predict_proba(x),
                              forest_proba(mixed_forest, x, proba_per_row))

    @pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS + 1])
    def test_nan_inputs_match_per_row_descent(self, mixed_forest, n):
        x = _queries(n, seed=60 + n)
        rng = np.random.default_rng(n)
        x[rng.random(x.shape) < 0.3] = np.nan
        x[0] = np.nan
        assert np.array_equal(mixed_forest.apply(x),
                              _per_row_leaves(mixed_forest, x))
        assert np.array_equal(mixed_forest.predict_proba(x),
                              forest_proba(mixed_forest, x, proba_per_row))

    @pytest.mark.parametrize("name", ["forest", "mixed_forest"])
    def test_depth_and_self_looping_leaves(self, request, name):
        model = request.getfixturevalue(name)
        arena = model.flat_
        assert arena.depth == max(tree.depth() for tree in model.trees_)
        leaves = np.flatnonzero(arena.feature < 0)
        assert np.array_equal(arena.left[leaves], leaves)
        assert np.array_equal(arena.right[leaves], leaves)
        internal = np.flatnonzero(arena.feature >= 0)
        assert np.all(arena.left[internal] > internal)
        assert np.all(arena.right[internal] > internal)
        assert arena.split.dtype == np.intp
        assert np.array_equal(arena.split[internal], arena.feature[internal])
