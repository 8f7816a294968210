"""Equivalence suite: parallel training and flattened inference.

The scale contract of the ML layer (ISSUE 2) is that neither knob
changes a single bit of output:

* ``workers=N`` training must be **bit-identical** to sequential --
  same serialised trees, same ``predict_proba``, same OOB votes, same
  importances (every tree's randomness derives from
  ``derive_seed(seed, "tree-t")`` and per-tree results merge in tree
  order);
* flattened batch traversal -- the only inference path -- must agree
  **exactly** with the index-partition node walk and the naive per-row
  recursion kept as oracles in ``tests/ml/reference.py``.

The sequential-vs-parallel identity is a ``tier1`` gate, like the
analyzer's: a merge-order or seeding regression must fail fast.
"""

import numpy as np
import pytest

from repro.core.estimator import Estimator
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.serialize import dumps, forest_to_dict
from tests.ml.reference import forest_proba, proba_nodes, proba_per_row


def _data(n=300, n_features=6, n_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    y = (
        (x[:, 0] > 0).astype(int)
        + (x[:, 1] > 0.3).astype(int)
        + (x[:, 2] > 0.8).astype(int)
    )
    return x, np.clip(y, 0, n_classes - 1)


def _feature_rows(n=120, seed=1):
    rng = np.random.default_rng(seed)
    cities = ["athens", "madrid", "berlin"]
    rows = [
        {
            "city": cities[int(rng.integers(0, 3))],
            "device_type": ["phone", "tablet"][int(rng.integers(0, 2))],
            "time_of_day": int(rng.integers(0, 4)),
        }
        for _ in range(n)
    ]
    prices = (rng.lognormal(0.0, 0.8, size=n) + 0.01).tolist()
    return rows, prices


class TestParallelTrainingIdentity:
    @pytest.mark.tier1
    def test_sequential_vs_two_workers_bit_identical(self):
        """The tier-1 gate: workers=2 is indistinguishable from workers=1."""
        x, y = _data()
        seq = RandomForestClassifier(
            n_estimators=12, max_depth=8, oob_score=True, seed=9, workers=1
        ).fit(x, y)
        par = RandomForestClassifier(
            n_estimators=12, max_depth=8, oob_score=True, seed=9, workers=2
        ).fit(x, y)
        # Same serialised trees (structure, thresholds, leaf counts)...
        assert dumps(forest_to_dict(seq)) == dumps(forest_to_dict(par))
        # ...same probabilities to the last bit...
        assert np.array_equal(seq.predict_proba(x), par.predict_proba(x))
        # ...and same fitted state merged in tree order.
        assert seq.oob_score_ == par.oob_score_
        assert np.array_equal(seq.feature_importances_, par.feature_importances_)

    def test_worker_count_does_not_matter(self):
        x, y = _data(200)
        reference = None
        for workers in (1, 2, 4, None):
            forest = RandomForestClassifier(
                n_estimators=7, max_depth=6, seed=3, workers=workers
            ).fit(x, y)
            payload = dumps(forest_to_dict(forest))
            if reference is None:
                reference = payload
            assert payload == reference, f"workers={workers} diverged"

    def test_more_workers_than_trees(self):
        x, y = _data(150)
        a = RandomForestClassifier(n_estimators=3, seed=1, workers=1).fit(x, y)
        b = RandomForestClassifier(n_estimators=3, seed=1, workers=8).fit(x, y)
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_regressor_parallel_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(250, 4))
        y = 2.0 * x[:, 0] - x[:, 1] + rng.normal(0, 0.1, size=250)
        seq = RandomForestRegressor(n_estimators=10, seed=4, workers=1).fit(x, y)
        par = RandomForestRegressor(n_estimators=10, seed=4, workers=2).fit(x, y)
        assert np.array_equal(seq.predict(x), par.predict(x))

    def test_price_model_workers_identical_package(self):
        rows, prices = _feature_rows()
        one = Estimator.train(rows, prices, n_estimators=8, seed=5, workers=1)
        two = Estimator.train(rows, prices, n_estimators=8, seed=5, workers=2)
        assert one.to_package() == two.to_package()
        assert np.array_equal(
            one.estimate(rows).prices,
            two.estimate(rows).prices,
        )


class TestTraversalEquivalence:
    def test_flat_vs_nodes_vs_per_row_exact(self):
        x, y = _data(400, seed=7)
        forest = RandomForestClassifier(
            n_estimators=10, max_depth=10, seed=13
        ).fit(x, y)
        rng = np.random.default_rng(99)
        fresh = rng.normal(size=(200, x.shape[1]))
        flat = forest.predict_proba(fresh)
        nodes = forest_proba(forest, fresh, proba_nodes)
        per_row = forest_proba(forest, fresh[:40], proba_per_row)
        assert np.array_equal(flat, nodes)
        assert np.array_equal(flat[:40], per_row)
        assert np.array_equal(
            forest.predict(fresh), np.argmax(nodes, axis=1)
        )

    def test_rows_exactly_on_thresholds(self):
        """x[feature] == threshold must route left in every traversal."""
        x, y = _data(300, seed=5)
        forest = RandomForestClassifier(n_estimators=6, seed=21).fit(x, y)
        # Build probe rows that sit exactly on fitted thresholds.
        probes = []
        for tree in forest.trees_:
            flat = tree.flat_
            internal = np.flatnonzero(flat.feature >= 0)[:5]
            for idx in internal:
                row = x[0].copy()
                row[flat.feature[idx]] = flat.threshold[idx]
                probes.append(row)
        probes = np.asarray(probes)
        assert np.array_equal(
            forest.predict_proba(probes),
            forest_proba(forest, probes, proba_nodes),
        )
        assert np.array_equal(
            forest.predict_proba(probes),
            forest_proba(forest, probes, proba_per_row),
        )

    def test_unknown_traversal_rejected(self):
        """The flat walk is the only inference path: no knob selects
        another one."""
        x, y = _data(100)
        forest = RandomForestClassifier(n_estimators=2, seed=0).fit(x, y)
        with pytest.raises(TypeError, match="traversal"):
            forest.predict_proba(x, traversal="nodes")
        with pytest.raises(TypeError, match="traversal"):
            forest.predict(x, traversal="per-row")

    def test_apply_reaches_leaves(self):
        x, y = _data(200)
        forest = RandomForestClassifier(n_estimators=5, seed=2).fit(x, y)
        leaves = forest.apply(x[:50])
        assert leaves.shape == (50, 5)
        for column, tree in zip(leaves.T, forest.trees_):
            assert np.all(tree.flat_.feature[column] == -1)
