"""CART decision trees (classification and regression), from scratch.

The paper's price model is a Random Forest whose member trees are CART
trees over mixed (ordinally encoded) auction features; the model that
ships to YourAdValue clients is a single decision tree.  scikit-learn is
not available in the reproduction environment, so this is a complete
numpy implementation: Gini or entropy impurity, optional feature
subsampling per split (the Random Forest hook).  The classifier grows
with the histogram engine of :mod:`repro.ml.histsplit`; the regressor
with an exhaustive threshold search per feature over cumulative sums.
Both growers write node rows straight into the arrays of one
:class:`repro.ml.flat.FlatTree`, the only representation of a fitted
tree: it scores, it answers ``depth``/``n_leaves``, and (with the
classifier's integer leaf class counts) it is what
:mod:`repro.ml.serialize` stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.flat import FlatTree, leaf_probabilities

_EPS = 1e-12


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector.

    Short vectors take a pure-Python path: below 8 elements numpy's
    ``add.reduce`` accumulates sequentially from the first element, so
    the Python loop performs the *same* float64 operations in the same
    order and the result is bit-identical -- while skipping ~5 numpy
    dispatches per call, which matters because growth evaluates this
    once per node (tens of thousands of times per fitted tree).
    """
    if counts.shape[0] < 8:
        c = counts.tolist()
        total = c[0]
        for v in c[1:]:
            total += v
        if total == 0:
            return 0.0
        first = c[0] / total
        s = first * first
        for v in c[1:]:
            p = v / total
            s += p * p
        return 1.0 - s
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _variance(y: np.ndarray) -> float:
    """Population variance (regression impurity)."""
    if y.size == 0:
        return 0.0
    return float(y.var())


def _best_regression_split(x_col: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Best (threshold, weighted child variance) for one feature.

    Returns ``None`` when the column is constant.
    """
    order = np.argsort(x_col, kind="mergesort")
    xs = x_col[order]
    ys = y[order]
    n = xs.size
    distinct = np.nonzero(np.diff(xs) > _EPS)[0]
    if distinct.size == 0:
        return None

    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    nl = (distinct + 1).astype(float)
    nr = n - nl
    sum_l = csum[distinct]
    sum_r = csum[-1] - sum_l
    sum2_l = csum2[distinct]
    sum2_r = csum2[-1] - sum2_l
    var_l = np.maximum(sum2_l / nl - (sum_l / nl) ** 2, 0.0)
    var_r = np.maximum(sum2_r / nr - (sum_r / nr) ** 2, 0.0)
    weighted = (nl * var_l + nr * var_r) / n
    best = int(np.argmin(weighted))
    idx = distinct[best]
    threshold = (xs[idx] + xs[idx + 1]) / 2.0
    return float(threshold), float(weighted[best])


@dataclass
class _GrowthParams:
    max_depth: int | None
    min_samples_split: int
    min_samples_leaf: int
    min_impurity_decrease: float
    max_features: int | None
    rng: np.random.Generator | None


def _growth_params(tree, n_features: int,
                   min_impurity_decrease: float = 0.0) -> _GrowthParams:
    """Resolve a tree's hyperparameters against the fitted width."""
    max_features: int | None
    if tree.max_features is None:
        max_features = None
    elif tree.max_features == "sqrt":
        max_features = max(1, int(np.sqrt(n_features)))
    elif isinstance(tree.max_features, (int, np.integer)):
        max_features = max(1, min(int(tree.max_features), n_features))
    else:
        raise ValueError(f"bad max_features {tree.max_features!r}")
    rng = tree.rng
    if max_features is not None and rng is None:
        rng = np.random.default_rng(0)
    return _GrowthParams(
        max_depth=tree.max_depth,
        min_samples_split=tree.min_samples_split,
        min_samples_leaf=tree.min_samples_leaf,
        min_impurity_decrease=min_impurity_decrease,
        max_features=max_features,
        rng=rng,
    )


def _check_flat(tree):
    if tree.flat_ is None:
        raise RuntimeError("tree is not fitted")
    return tree.flat_


class DecisionTreeClassifier:
    """CART classifier, grown by the histogram engine.

    Parameters mirror the scikit-learn names so readers can orient
    themselves; ``max_features``/``rng`` enable the per-split feature
    subsampling used by :class:`repro.ml.forest.RandomForestClassifier`.
    Splits are searched level-wise over a pre-binned copy of the matrix
    (:class:`repro.ml.histsplit.HistClassifierGrower`); on columns with
    at most 256 distinct values the bin boundaries are exactly the
    adjacent-value midpoints an exhaustive threshold scan would try.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        criterion: str = "gini",
        max_features: int | str | None = None,
        rng: np.random.Generator | None = None,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.min_impurity_decrease = float(min_impurity_decrease)
        self.criterion = criterion
        self.max_features = max_features
        self.rng = rng
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self.flat_: FlatTree | None = None
        #: ``(n_leaves, n_classes_)`` integer class counts of the
        #: leaves in node-id order -- what the serialiser stores.
        self.leaf_counts_: np.ndarray | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray,
            sample_indices: np.ndarray | None = None,
            n_classes: int | None = None,
            binned=None) -> "DecisionTreeClassifier":
        """Fit on ``x`` (n_samples, n_features) and integer labels ``y``.

        ``sample_indices`` is the row-index (multi)set to grow over
        (a bootstrap sample); left ``None``, every row is used once.

        ``n_classes`` pins the tree's class space to an enclosing
        ensemble's (a bootstrap sample can miss the highest labels; the
        forest passes its own class count so every member tree carries
        full-width leaf count vectors).  Left ``None``, the class space
        is inferred from ``y``.

        ``binned`` is a pre-built
        :class:`repro.ml.histsplit.BinnedDataset` over the *full* ``x``
        -- the forest quantises once and shares it read-only across
        member trees (and fork-pool workers), so bootstrap resamples
        never re-bin the matrix.  Left ``None``, the tree bins ``x``
        itself.  Growth walks **index subsets** of the shared code
        matrix instead of copying ``x[mask]``/``y[mask]`` at every node.
        """
        from repro import obs
        from repro.ml.histsplit import BinnedDataset, HistClassifierGrower

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        if np.any(y < 0):
            raise ValueError("labels must be non-negative integers")

        idx = (
            np.arange(x.shape[0], dtype=np.intp)
            if sample_indices is None
            else np.asarray(sample_indices, dtype=np.intp)
        )
        observed = int(y[idx].max()) + 1
        if n_classes is not None:
            if n_classes < observed:
                raise ValueError(
                    f"n_classes={n_classes} smaller than max label {observed - 1}"
                )
            self.n_classes_ = int(n_classes)
        else:
            self.n_classes_ = observed
        self.n_features_ = x.shape[1]
        # Leaf count vectors index by label (np.bincount with minlength
        # n_classes_), so column j of any output is class label j.
        self.classes_ = np.arange(self.n_classes_)
        importance_acc = np.zeros(self.n_features_)
        if binned is None:
            with obs.stage("tree.bin", rows=x.shape[0], features=x.shape[1]):
                binned = BinnedDataset.from_matrix(x)
        binned.check_matches(x)
        with obs.stage("tree.hist_split", rows=int(idx.size)):
            grower = HistClassifierGrower(
                binned=binned,
                y=y,
                n_classes=self.n_classes_,
                criterion=self.criterion,
                params=_growth_params(
                    self, self.n_features_, self.min_impurity_decrease
                ),
                importance_acc=importance_acc,
            )
            columns = grower.grow(idx)
        total = importance_acc.sum()
        self.feature_importances_ = (
            importance_acc / total if total > 0 else importance_acc
        )
        self._set_tree(*columns)
        return self

    def _set_tree(self, feature, threshold, left, right,
                  leaf_counts: np.ndarray, n_classes: int | None = None):
        """Install node columns and leaf class counts as the fitted tree.

        Called at the end of ``fit`` and by the deserialiser.
        ``n_classes`` scores in a wider class space than the tree's own
        -- a forest's, for a member tree loaded from a narrower payload
        -- so output columns are forest class labels.
        """
        width = self.n_classes_ if n_classes is None else n_classes
        self.leaf_counts_ = leaf_counts
        self.flat_ = FlatTree.build(
            feature, threshold, left, right,
            leaf_probabilities(leaf_counts, width),
        )

    # -- prediction --------------------------------------------------------

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-frequency probabilities of the reached leaf, per row.

        A level-synchronous vectorised walk over the flat arrays, whose
        interpreter cost is ``O(depth)``.
        """
        flat = _check_flat(self)
        return flat.predict_value(np.atleast_2d(np.asarray(x, dtype=float)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Flat-tree leaf node id per row."""
        flat = _check_flat(self)
        return flat.apply(np.atleast_2d(np.asarray(x, dtype=float)))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return np.argmax(self.predict_proba(x), axis=1)

    # -- introspection -----------------------------------------------------

    def depth(self) -> int:
        return _check_flat(self).depth()

    def n_leaves(self) -> int:
        return _check_flat(self).n_leaves()


class DecisionTreeRegressor:
    """CART regressor (variance reduction splits, exhaustive search).

    Used by the regression baseline the paper tried first and rejected
    for the high-variance charge prices.  That baseline trains on
    ``publisher`` (hundreds of distinct values), where binning would
    coarsen the candidate thresholds, so the regressor keeps the exact
    recursive grower.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.max_features = max_features
        self.rng = rng
        self.n_features_: int = 0
        self.flat_: FlatTree | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit on ``x`` and float targets ``y``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("bad shapes for x/y")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        self.n_features_ = x.shape[1]
        rows: list[list] = []
        self._grow(x, y, 0, _growth_params(self, self.n_features_), rows)
        feature, threshold, left, right, value = zip(*rows)
        feature = np.asarray(feature, dtype=np.int32)
        leaf_values = np.asarray(value, dtype=np.float64)[feature < 0, None]
        self.flat_ = FlatTree.build(feature, threshold, left, right,
                                    leaf_values)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int,
              params: _GrowthParams, rows: list[list]) -> int:
        """Grow the subtree over ``(x, y)``; returns its root's node id.

        Appends one ``[feature, threshold, left, right, mean]`` row per
        node to ``rows``, in pre-order (a node, then its left subtree,
        then its right), so every child id exceeds its parent's.
        """
        node = len(rows)
        rows.append([-1, np.nan, -1, -1, float(y.mean())])
        impurity = _variance(y)
        if (
            impurity <= _EPS
            or y.size < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return node

        feature_ids = np.arange(self.n_features_)
        if params.max_features is not None and params.max_features < self.n_features_:
            assert params.rng is not None
            feature_ids = params.rng.choice(
                self.n_features_, size=params.max_features, replace=False
            )

        best_feature = -1
        best_threshold = 0.0
        best_score = np.inf
        for j in feature_ids:
            found = _best_regression_split(x[:, j], y)
            if found is None:
                continue
            threshold, score = found
            if score < best_score - _EPS:
                best_feature, best_threshold, best_score = int(j), threshold, score

        if best_feature < 0 or best_score >= impurity - _EPS:
            return node

        mask = x[:, best_feature] <= best_threshold
        if mask.sum() < params.min_samples_leaf or (~mask).sum() < params.min_samples_leaf:
            return node

        left = self._grow(x[mask], y[mask], depth + 1, params, rows)
        right = self._grow(x[~mask], y[~mask], depth + 1, params, rows)
        rows[node][:4] = [best_feature, best_threshold, left, right]
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        flat = _check_flat(self)
        return flat.predict_value(np.atleast_2d(np.asarray(x, dtype=float)))[:, 0]
