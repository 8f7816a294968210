"""Tests for the Random Forest ensembles."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.serialize import forest_from_dict, forest_to_dict
from repro.util.rng import derive_seed


def _data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5).astype(int))
    return x, y


def _skewed_data(n=60, seed=3):
    """Four classes, the top one carried by a single sample.

    A bootstrap of size ``n`` misses that sample with probability
    ``(1 - 1/n)**n ~ 0.36`` per tree, so a modest forest is all but
    guaranteed to contain trees whose bootstrap dropped the top class.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = rng.integers(0, 3, size=n)
    y[0] = 3
    x[0] += 10.0  # make the lone top-class sample separable
    return x, y


def _dropped_top_class_trees(forest, y, n):
    """Indices of member trees whose bootstrap missed the top label.

    Replays each tree's seeded bootstrap draw (the generator is fully
    determined by ``derive_seed(seed, "tree-t")``), independent of the
    forest implementation under test.
    """
    top = int(y.max())
    dropped = []
    for t in range(forest.n_estimators):
        rng = np.random.default_rng(derive_seed(forest.seed, f"tree-{t}"))
        indices = rng.integers(0, n, size=n)
        if top not in y[indices]:
            dropped.append(t)
    return dropped


class TestForestClassifier:
    def test_beats_chance_on_structured_data(self):
        x, y = _data()
        forest = RandomForestClassifier(n_estimators=15, seed=1).fit(x, y)
        assert (forest.predict(x) == y).mean() > 0.85

    def test_deterministic_given_seed(self):
        x, y = _data()
        a = RandomForestClassifier(n_estimators=8, seed=5).fit(x, y).predict(x)
        b = RandomForestClassifier(n_estimators=8, seed=5).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        x, y = _data()
        a = RandomForestClassifier(n_estimators=5, max_depth=3, seed=1).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, max_depth=3, seed=2).fit(x, y)
        assert not np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_oob_score_reasonable(self):
        x, y = _data(600)
        forest = RandomForestClassifier(n_estimators=25, oob_score=True, seed=3)
        forest.fit(x, y)
        assert forest.oob_score_ is not None
        assert 0.7 < forest.oob_score_ <= 1.0

    def test_oob_none_without_flag(self):
        x, y = _data(100)
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(x, y)
        assert forest.oob_score_ is None

    def test_feature_importances_normalised(self):
        x, y = _data()
        forest = RandomForestClassifier(n_estimators=10, seed=1).fit(x, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)
        top_two = set(np.argsort(forest.feature_importances_)[-2:])
        assert top_two == {0, 1}

    def test_predict_proba_shape_and_sums(self):
        x, y = _data()
        forest = RandomForestClassifier(n_estimators=6, seed=1).fit(x, y)
        probs = forest.predict_proba(x[:10])
        assert probs.shape == (10, forest.n_classes_)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_zero_estimators_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_no_bootstrap_mode(self):
        x, y = _data(150)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, max_features=None, seed=0
        ).fit(x, y)
        assert (forest.predict(x) == y).mean() > 0.9


class TestClassSpaceAlignment:
    """Regression tests for the missing-class bootstrap bug.

    Pre-fix, ``RandomForestClassifier.fit`` promised to "re-align tree
    output to the forest's class space" but never did: a bootstrap that
    missed the highest price class produced a member tree with fewer
    ``predict_proba`` columns than ``n_classes_``.
    """

    def test_bootstrap_drops_top_class_premise(self):
        # The scenario must actually occur for the regression test to
        # mean anything: at least one member bootstrap misses class 3.
        x, y = _skewed_data()
        forest = RandomForestClassifier(n_estimators=25, seed=11).fit(x, y)
        assert _dropped_top_class_trees(forest, y, len(y)), (
            "test premise broken: no bootstrap dropped the top class; "
            "re-tune _skewed_data"
        )

    def test_member_trees_span_forest_class_space(self):
        # Pre-fix this fails: trees whose bootstrap missed class 3 had
        # n_classes_ == 3 and emitted 3-column probabilities.
        x, y = _skewed_data()
        forest = RandomForestClassifier(n_estimators=25, seed=11).fit(x, y)
        dropped = _dropped_top_class_trees(forest, y, len(y))
        for t in dropped:
            tree = forest.trees_[t]
            assert tree.n_classes_ == forest.n_classes_ == 4
            assert tree.predict_proba(x[:5]).shape == (5, 4)
            assert np.array_equal(tree.classes_, np.arange(4))

    def test_forest_proba_well_formed_under_skew(self):
        x, y = _skewed_data()
        forest = RandomForestClassifier(n_estimators=25, seed=11).fit(x, y)
        probs = forest.predict_proba(x)
        assert probs.shape == (len(y), 4)
        assert np.allclose(probs.sum(axis=1), 1.0)
        # The separable lone sample must still receive top-class mass
        # from the trees that did see it.
        assert probs[0, 3] > 0

    def test_oob_votes_aligned_under_skew(self):
        x, y = _skewed_data(n=80, seed=5)
        forest = RandomForestClassifier(
            n_estimators=30, oob_score=True, seed=7
        ).fit(x, y)
        assert forest.oob_score_ is not None
        assert 0.0 <= forest.oob_score_ <= 1.0

    def test_alignment_is_by_label_not_column_count(self):
        # A member tree living in a *gappy* class space (a serialised
        # payload whose labels were {0, 2}: bincount-indexed counts
        # [a, 0, b]) must score its probabilities at the labels it
        # knows, zero elsewhere -- alignment happens once, at load.
        x, y = _data(200)
        forest = RandomForestClassifier(n_estimators=4, seed=2).fit(x, y)
        payload = forest_to_dict(forest)
        payload["n_classes"] = 4
        narrow = payload["trees"][0]
        narrow.update(n_classes=3, feature=[-1], threshold=[None], left=[-1],
                      right=[-1], leaf_counts=[[1, 0, 3]])
        loaded = forest_from_dict(payload)
        probs = loaded.trees_[0].predict_proba(x[:1])
        assert probs.tolist() == [[0.25, 0.0, 0.75, 0.0]]
        # Full-width member trees load unchanged, padded to the wider
        # forest space with a zero column.
        full = loaded.trees_[1].predict_proba(x[:3])
        assert np.array_equal(full[:, :3], forest.trees_[1].predict_proba(x[:3]))
        assert np.all(full[:, 3] == 0.0)
        assert loaded.predict_proba(x[:3]).shape == (3, 4)

    def test_wider_tree_than_forest_rejected(self):
        x, y = _data(200)
        forest = RandomForestClassifier(n_estimators=2, seed=0).fit(x, y)
        payload = forest_to_dict(forest)
        payload["n_classes"] = forest.n_classes_ - 1
        with pytest.raises(ValueError):
            forest_from_dict(payload)


class TestLabelValidation:
    """`n_classes_ = y.max() + 1` must not silently allocate phantoms."""

    def test_negative_labels_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="non-negative"):
            RandomForestClassifier(n_estimators=1).fit(x, [-1, 0, 1, 1])

    def test_non_contiguous_labels_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="contiguous"):
            RandomForestClassifier(n_estimators=1).fit(x, [0, 2, 2, 0])

    def test_labels_missing_zero_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="contiguous"):
            RandomForestClassifier(n_estimators=1).fit(x, [1, 2, 1, 2])

    def test_contiguous_labels_accepted(self):
        x, y = _data(100)
        forest = RandomForestClassifier(n_estimators=3, seed=0).fit(x, y)
        assert forest.n_classes_ == int(y.max()) + 1

    def test_single_class_accepted(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        forest = RandomForestClassifier(n_estimators=2, seed=0).fit(
            x, np.zeros(30, dtype=int)
        )
        assert forest.n_classes_ == 1
        assert np.all(forest.predict(x) == 0)


class TestForestRegressor:
    def test_fits_smooth_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(500, 2))
        y = 3.0 * x[:, 0] + x[:, 1]
        forest = RandomForestRegressor(n_estimators=20, seed=1).fit(x, y)
        pred = forest.predict(x)
        rmse = np.sqrt(np.mean((pred - y) ** 2))
        assert rmse < 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3))
        y = x[:, 0] ** 2
        a = RandomForestRegressor(n_estimators=5, seed=9).fit(x, y).predict(x)
        b = RandomForestRegressor(n_estimators=5, seed=9).fit(x, y).predict(x)
        assert np.allclose(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))


class TestInputWidth:
    """Inference refuses a matrix that is not ``n_features_`` wide."""

    @pytest.fixture(scope="class")
    def forests(self):
        x, y = _data(200)
        return (
            RandomForestClassifier(n_estimators=3, seed=1).fit(x, y),
            RandomForestRegressor(n_estimators=3, seed=1).fit(x, y.astype(float)),
        )

    @pytest.mark.parametrize("width", [4, 6])
    def test_wrong_width_raises(self, forests, width):
        classifier, regressor = forests
        x = np.zeros((3, width))
        for method in (classifier.predict_proba, classifier.predict,
                       classifier.apply, regressor.predict):
            with pytest.raises(ValueError, match="5 features"):
                method(x)

    def test_right_width_and_single_row_accepted(self, forests):
        classifier, regressor = forests
        assert classifier.predict_proba(np.zeros((3, 5))).shape[0] == 3
        assert classifier.apply(np.zeros(5)).shape == (1, 3)
        assert regressor.predict(np.zeros(5)).shape == (1,)
