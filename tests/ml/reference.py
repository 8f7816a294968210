"""Reference implementations kept as test oracles.

``src/`` has one training engine per task and one inference path: the
classifier grows with the histogram engine (:mod:`repro.ml.histsplit`)
and every tree scores through :class:`repro.ml.flat.FlatTree`.  The
slower, simpler alternates those replaced live here, where tests and
benchmarks can hold the production paths against them:

* :func:`best_classification_split` -- the exhaustive single-column
  CART threshold search (every midpoint between adjacent distinct
  values);
* :func:`grow_classifier_tree` -- a plain recursive grower over that
  search, and :func:`reference_forest`, a forest of such trees drawn
  with the production forest's bootstrap seeds;
* :func:`leaf_for`, :func:`proba_per_row`, :func:`proba_nodes`,
  :func:`regressor_predict_nodes` and :func:`forest_proba` -- recursive
  and index-partition walks over the ``TreeNode`` graph.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, TreeNode, _entropy, _gini
from repro.util.rng import derive_seed

_EPS = 1e-12


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
) -> TreeNode:
    """Grow a CART classification tree depth-first with the exact search.

    ``max_features`` features are drawn per node with ``rng.choice``
    (without replacement) when set.
    """
    counts = np.bincount(y, minlength=n_classes).astype(float)
    impurity = _gini(counts) if criterion == "gini" else _entropy(counts)
    node = TreeNode(value=counts, n_samples=y.size, impurity=impurity)
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
    :class:`RandomForestClassifier` with flat-compiled member trees, so
    it scores through the production inference path.
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
    for t in range(n_estimators):
        rng = np.random.default_rng(derive_seed(seed, f"tree-{t}"))
        idx = rng.integers(0, n, size=n)
        tree = DecisionTreeClassifier(criterion=criterion)
        tree.n_classes_ = n_classes
        tree.n_features_ = n_features
        tree.classes_ = np.arange(n_classes)
        tree.root_ = grow_classifier_tree(
            x[idx], y[idx], n_classes, criterion=criterion,
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            max_features=max_features, rng=rng,
        )
        tree.compile_flat()
        forest.trees_.append(tree)
    return forest


# -- recursive and node-partition walks --------------------------------------

def leaf_for(root: TreeNode, row: np.ndarray) -> TreeNode:
    """The leaf one row reaches, by pointer chasing."""
    node = root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def _leaf_proba(counts: np.ndarray, n_classes: int) -> np.ndarray:
    total = counts.sum()
    if total > 0:
        return counts / total
    return np.full(n_classes, 1.0 / n_classes)


def proba_per_row(tree: DecisionTreeClassifier, x: np.ndarray) -> np.ndarray:
    """Row-at-a-time recursive descent: one pointer chase per row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((x.shape[0], tree.n_classes_), dtype=float)
    for i in range(x.shape[0]):
        out[i] = _leaf_proba(leaf_for(tree.root_, x[i]).value, tree.n_classes_)
    return out


def _partition_walk(root: TreeNode, x: np.ndarray, out: np.ndarray, leaf_value):
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, indices = stack.pop()
        if indices.size == 0:
            continue
        if node.is_leaf:
            out[indices] = leaf_value(node)
            continue
        mask = x[indices, node.feature] <= node.threshold
        stack.append((node.left, indices[mask]))
        stack.append((node.right, indices[~mask]))
    return out


def proba_nodes(tree: DecisionTreeClassifier, x: np.ndarray) -> np.ndarray:
    """Index-partition batch walk over the ``TreeNode`` graph."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((x.shape[0], tree.n_classes_), dtype=float)
    return _partition_walk(
        tree.root_, x, out, lambda node: _leaf_proba(node.value, tree.n_classes_)
    )


def regressor_predict_nodes(tree, x: np.ndarray) -> np.ndarray:
    """Index-partition batch walk of a regression tree."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0], dtype=float)
    return _partition_walk(tree.root_, x, out, lambda node: node.value)


def forest_proba(forest: RandomForestClassifier, x: np.ndarray,
                 tree_proba=proba_nodes) -> np.ndarray:
    """Forest average of ``tree_proba`` over member trees, in tree order."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros((x.shape[0], forest.n_classes_), dtype=float)
    for tree in forest.trees_:
        total += tree_proba(tree, x)
    return total / len(forest.trees_)
