"""Reference implementations kept as test oracles.

``src/`` has one training engine per task and one inference path: the
classifier grows with the histogram engine (:mod:`repro.ml.histsplit`)
and a forest scores through one :class:`repro.ml.flat.FlatForest` arena.
The slower, simpler alternates those replaced live here, where tests and
benchmarks can hold the production paths against them:

* :func:`best_classification_split` -- the exhaustive single-column
  CART threshold search (every midpoint between adjacent distinct
  values);
* :func:`grow_classifier_tree` -- a plain recursive grower over that
  search, building a graph of :class:`Node` objects (a class that
  exists only here), and :func:`reference_forest`, a forest of such
  trees drawn with the production forest's bootstrap seeds;
* :func:`leaf_for`, :func:`proba_per_row`, :func:`proba_nodes`,
  :func:`regressor_predict_nodes` and :func:`forest_proba` -- per-row
  pointer chasing and index-partition walks over a fitted tree's node
  columns.  They never call ``FlatTree.apply``, and classifier leaf
  probabilities come from the tree's integer ``leaf_counts_``, not from
  the production ``value`` rows.  :func:`forest_proba` is also the
  per-tree forest loop the whole-forest arena replaced: given the
  production per-tree ``predict_proba`` it sums one tree at a time;
* :func:`decision_path` -- the ``(feature, threshold, went_left)``
  steps one row takes through a flat tree, which the model golden
  digests pin;
* :func:`frame_encoder_transform` -- ``FrameEncoder.transform`` as it
  was before it built its matrix in one call: column lists, an
  ``OrdinalEncoder`` matrix of the categorical columns, then one slice
  assignment per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.preprocessing import FrameEncoder, OrdinalEncoder
from repro.ml.serialize import tree_from_dict
from repro.ml.tree import DecisionTreeClassifier, _entropy, _gini
from repro.util.rng import derive_seed

_EPS = 1e-12


@dataclass
class Node:
    """A node of a reference-grown tree: class counts, then a split."""

    counts: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None


# -- exact split search and recursive growth ---------------------------------

def best_classification_split(
    x_col: np.ndarray, y: np.ndarray, n_classes: int, criterion: str
) -> tuple[float, float] | None:
    """Best ``(threshold, weighted child impurity)`` for one feature.

    Every midpoint between adjacent distinct values is a candidate;
    returns ``None`` for a constant column.  Cumulative class counts
    come from one segment ``bincount`` (rows between consecutive
    candidate boundaries share a segment id).
    """
    order = np.argsort(x_col)
    xs = x_col[order]
    distinct = np.nonzero(np.diff(xs) > _EPS)[0]
    if distinct.size == 0:
        return None
    n = xs.size
    m = distinct.size
    seg = np.zeros(n, dtype=np.int64)
    seg[distinct + 1] = 1
    np.cumsum(seg, out=seg)
    seg *= n_classes
    seg += y[order]
    csc = np.cumsum(
        np.bincount(seg, minlength=(m + 1) * n_classes).reshape(m + 1, n_classes),
        axis=0,
    )
    lc = csc[:-1]
    rc = csc[-1][None, :] - lc
    nl = lc.sum(axis=1)
    nr = rc.sum(axis=1)
    pl = lc / np.maximum(nl[:, None], _EPS)
    pr = rc / np.maximum(nr[:, None], _EPS)
    if criterion == "gini":
        il = 1.0 - np.sum(pl * pl, axis=1)
        ir = 1.0 - np.sum(pr * pr, axis=1)
    elif criterion == "entropy":
        with np.errstate(divide="ignore", invalid="ignore"):
            il = -np.sum(np.where(pl > 0, pl * np.log(pl), 0.0), axis=1)
            ir = -np.sum(np.where(pr > 0, pr * np.log(pr), 0.0), axis=1)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    weighted = (nl * il + nr * ir) / n
    best = int(np.argmin(weighted))
    idx = distinct[best]
    return float((xs[idx] + xs[idx + 1]) / 2.0), float(weighted[best])


def grow_classifier_tree(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    criterion: str = "gini",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    min_impurity_decrease: float = 0.0,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    depth: int = 0,
) -> Node:
    """Grow a CART classification tree depth-first with the exact search.

    ``max_features`` features are drawn per node with ``rng.choice``
    (without replacement) when set.
    """
    counts = np.bincount(y, minlength=n_classes).astype(float)
    impurity = _gini(counts) if criterion == "gini" else _entropy(counts)
    node = Node(counts)
    if (
        impurity <= _EPS
        or y.size < min_samples_split
        or (max_depth is not None and depth >= max_depth)
    ):
        return node

    n_features = x.shape[1]
    feature_ids = np.arange(n_features)
    if max_features is not None and max_features < n_features:
        feature_ids = rng.choice(n_features, size=max_features, replace=False)

    best_feature, best_threshold, best_score = -1, 0.0, np.inf
    for j in feature_ids.tolist():
        found = best_classification_split(x[:, j], y, n_classes, criterion)
        if found is not None and found[1] < best_score - _EPS:
            best_feature, (best_threshold, best_score) = j, found
    if best_feature < 0:
        return node

    mask = x[:, best_feature] <= best_threshold
    n_left = int(mask.sum())
    if n_left < min_samples_leaf or y.size - n_left < min_samples_leaf:
        return node
    if impurity - best_score < min_impurity_decrease:
        return node

    node.feature = best_feature
    node.threshold = best_threshold
    kw = dict(
        n_classes=n_classes, criterion=criterion, max_depth=max_depth,
        min_samples_split=min_samples_split, min_samples_leaf=min_samples_leaf,
        min_impurity_decrease=min_impurity_decrease,
        max_features=max_features, rng=rng, depth=depth + 1,
    )
    node.left = grow_classifier_tree(x[mask], y[mask], **kw)
    node.right = grow_classifier_tree(x[~mask], y[~mask], **kw)
    return node


def tree_payload(root: Node, n_classes: int, n_features: int,
                 criterion: str = "gini") -> dict:
    """A reference tree as a format-3 payload (pre-order node ids)."""
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(root, None, None)]
    while stack:
        node, parent, side = stack.pop()
        idx = len(feature)
        if parent is not None:
            side[parent] = idx
        if node.feature is None:
            feature.append(-1)
            threshold.append(None)
            counts.append([int(c) for c in node.counts])
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            stack.append((node.right, idx, right))
            stack.append((node.left, idx, left))
        left.append(-1)
        right.append(-1)
    return {
        "format": 3, "kind": "decision_tree_classifier",
        "n_classes": n_classes, "n_features": n_features,
        "criterion": criterion, "feature": feature, "threshold": threshold,
        "left": left, "right": right, "leaf_counts": counts,
    }


def reference_forest(
    x: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    criterion: str = "gini",
    seed: int = 0,
) -> RandomForestClassifier:
    """A ``sqrt``-feature bootstrap forest of :func:`grow_classifier_tree` trees.

    Bootstrap draws use the production forest's per-tree seeds
    (``derive_seed(seed, "tree-t")``), so the two forests see the same
    resamples and differ only in how they grow trees.  The result is a
    :class:`RandomForestClassifier` whose member trees are loaded
    through :func:`repro.ml.serialize.tree_from_dict`, so it scores
    through the production inference path.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    n, n_features = x.shape
    n_classes = int(y.max()) + 1
    max_features = max(1, int(np.sqrt(n_features)))
    forest = RandomForestClassifier(
        n_estimators=n_estimators, max_depth=max_depth,
        min_samples_leaf=min_samples_leaf, criterion=criterion, seed=seed,
    )
    forest.n_classes_ = n_classes
    forest.n_features_ = n_features
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng(derive_seed(seed, f"tree-{t}"))
        idx = rng.integers(0, n, size=n)
        root = grow_classifier_tree(
            x[idx], y[idx], n_classes, criterion=criterion,
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            max_features=max_features, rng=rng,
        )
        trees.append(tree_from_dict(
            tree_payload(root, n_classes, n_features, criterion)
        ))
    forest._set_trees(trees)
    return forest


# -- per-row and index-partition walks ---------------------------------------

def _columns(tree) -> tuple[list, list, list, list]:
    """A fitted tree's node columns as plain Python lists."""
    flat = tree.flat_
    return (flat.feature.tolist(), flat.threshold.tolist(),
            flat.left.tolist(), flat.right.tolist())


def _descend(columns, row: np.ndarray) -> int:
    feature, threshold, left, right = columns
    node = 0
    while feature[node] >= 0:
        # NaN compares false and routes right.
        node = left[node] if row[feature[node]] <= threshold[node] else right[node]
    return node


def leaf_for(tree, row: np.ndarray) -> int:
    """The leaf node id one row reaches, by pointer chasing."""
    return _descend(_columns(tree), row)


def decision_path(flat, row: np.ndarray) -> list[tuple[int, float, bool]]:
    """The ``(feature, threshold, went_left)`` steps of one row through
    a :class:`repro.ml.flat.FlatTree`."""
    path: list[tuple[int, float, bool]] = []
    node = 0
    while flat.feature[node] >= 0:
        feature = int(flat.feature[node])
        threshold = float(flat.threshold[node])
        went_left = bool(row[feature] <= threshold)
        path.append((feature, threshold, went_left))
        node = flat.left[node] if went_left else flat.right[node]
    return path


def _leaf_proba(counts: np.ndarray, n_classes: int) -> np.ndarray:
    total = counts.sum()
    if total > 0:
        return counts / total
    return np.full(n_classes, 1.0 / n_classes)


def leaf_counts(tree: DecisionTreeClassifier) -> dict[int, np.ndarray]:
    """``{leaf node id: float class counts}`` from ``tree.leaf_counts_``."""
    leaves = np.flatnonzero(tree.flat_.feature < 0).tolist()
    return dict(zip(leaves, tree.leaf_counts_.astype(np.float64)))


def proba_per_row(tree: DecisionTreeClassifier, x: np.ndarray) -> np.ndarray:
    """Row-at-a-time descent: one pointer chase and one divide per row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    columns = _columns(tree)
    counts = leaf_counts(tree)
    out = np.empty((x.shape[0], tree.n_classes_), dtype=float)
    for i in range(x.shape[0]):
        out[i] = _leaf_proba(counts[_descend(columns, x[i])], tree.n_classes_)
    return out


def _partition_walk(tree, x: np.ndarray, out: np.ndarray, leaf_value):
    feature, threshold, left, right = _columns(tree)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, indices = stack.pop()
        if indices.size == 0:
            continue
        if feature[node] < 0:
            out[indices] = leaf_value(node)
            continue
        mask = x[indices, feature[node]] <= threshold[node]
        stack.append((left[node], indices[mask]))
        stack.append((right[node], indices[~mask]))
    return out


def proba_nodes(tree: DecisionTreeClassifier, x: np.ndarray) -> np.ndarray:
    """Index-partition batch walk: one mask per visited node."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((x.shape[0], tree.n_classes_), dtype=float)
    counts = leaf_counts(tree)
    return _partition_walk(
        tree, x, out, lambda leaf: _leaf_proba(counts[leaf], tree.n_classes_)
    )


def regressor_predict_nodes(tree, x: np.ndarray) -> np.ndarray:
    """Index-partition batch walk of a regression tree."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0], dtype=float)
    value = tree.flat_.value[:, 0].tolist()
    return _partition_walk(tree, x, out, value.__getitem__)


def forest_proba(forest: RandomForestClassifier, x: np.ndarray,
                 tree_proba=proba_nodes) -> np.ndarray:
    """Forest average of ``tree_proba`` over member trees, in tree order."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros((x.shape[0], forest.n_classes_), dtype=float)
    for tree in forest.trees_:
        total += tree_proba(tree, x)
    return total / len(forest.trees_)


def frame_encoder_transform(encoder: FrameEncoder, rows) -> np.ndarray:
    """Column-wise encoding of feature dicts with a fitted encoder."""
    numeric_mask = [codes is None for _, codes in encoder._schema]
    ordinal = OrdinalEncoder()
    ordinal.categories_ = [codes for _, codes in encoder._schema if codes is not None]
    columns = [[row.get(name) for row in rows] for name in encoder.feature_names]
    categorical = [c for c, num in zip(columns, numeric_mask) if not num]
    encoded = (
        ordinal.transform(categorical)
        if categorical
        else np.empty((len(rows), 0))
    )
    out = np.empty((len(rows), len(encoder.feature_names)), dtype=float)
    cat_j = 0
    for j, (col, is_numeric) in enumerate(zip(columns, numeric_mask)):
        if is_numeric:
            out[:, j] = [float(v) if v is not None else -1.0 for v in col]
        else:
            out[:, j] = encoded[:, cat_j]
            cat_j += 1
    return out
