"""Model serialisation.

The PME ships its fitted model to YourAdValue clients "in the form of a
decision tree" (paper section 3.2).  We serialise trees and forests to
plain JSON-compatible dicts: the client needs no training code, only
the traversal logic, mirroring how a browser extension would embed the
model.

A format-3 tree is columnar: the node arrays of its
:class:`repro.ml.flat.FlatTree` (``feature``, ``threshold`` -- ``null``
at leaves, since JSON has no NaN -- ``left``, ``right``) and the
integer class counts of its leaves in node-id order (``leaf_counts``).
Leaf probabilities are derived on load.  Format-1 and format-2 trees
are nested ``root`` dicts; one explicit-stack converter turns them into
the same columns, so every format passes the same validation and
builds the same arrays.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier

#: Version 2 added fitted state (``feature_importances_``,
#: ``oob_score_``) and the constructor hyperparameters to forest
#: payloads, so a loaded forest is a faithful clone, not just a bag of
#: trees.  Version 3 stores each tree as columns instead of nested node
#: dicts.  Version-1 and version-2 payloads still load (version 1 with
#: default hyperparameters, as before).
FORMAT_VERSION = 3

#: Forest constructor hyperparameters round-tripped by version-2+
#: payloads.  ``workers`` is deliberately absent: it is a runtime
#: execution knob, not part of the model.
_FOREST_PARAM_KEYS = (
    "n_estimators",
    "max_depth",
    "min_samples_leaf",
    "min_samples_split",
    "max_features",
    "criterion",
    "bootstrap",
    "oob_score",
    "seed",
)


def _check_format(payload: dict[str, Any]) -> int:
    version = int(payload.get("format", 1))
    if version < 1 or version > FORMAT_VERSION:
        raise ValueError(
            f"unsupported serialisation format {version} "
            f"(this build reads 1..{FORMAT_VERSION})"
        )
    return version


def _nested_columns(root: dict[str, Any], n_features: int) -> tuple:
    """Columns of a format-1/2 nested tree, without recursion.

    A node's two children take the next two ids the moment it is
    visited, left first -- the order earlier releases compiled these
    trees in, so ``apply`` leaf ids of an old payload are unchanged.
    """
    rows: list = [None]
    seen: set[int] = set()
    stack = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        if id(node) in seen:
            raise ValueError("tree node reached more than once")
        seen.add(id(node))
        if node["leaf"]:
            rows[idx] = (-1, np.nan, -1, -1, node["value"])
            continue
        # A negative index would otherwise read as the leaf marker.
        f = int(node["feature"])
        if not 0 <= f < n_features:
            raise ValueError(
                f"node feature {f} out of range for {n_features} features"
            )
        n = len(rows)
        rows[idx] = (f, float(node["threshold"]), n, n + 1, None)
        rows += [None, None]
        stack += [(node["right"], n + 1), (node["left"], n)]
    feature, threshold, left, right, values = zip(*rows)
    return feature, threshold, left, right, [v for v in values if v is not None]


def _int_column(values, name: str) -> np.ndarray:
    column = np.asarray(values)
    if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
        raise ValueError(f"tree {name} must be a list of integers")
    return column.astype(np.int64)


def _tree_columns(payload: dict[str, Any],
                  n_features: int) -> tuple[np.ndarray, ...]:
    """Validated ``(feature, threshold, left, right, leaf_counts)``.

    Rejects, with :class:`ValueError`, anything that could load and
    then misroute, crash or loop on the first estimate: unequal column
    lengths, a feature index outside ``0..n_features-1``, a child id
    out of range or not greater than its parent's (so ``apply`` always
    moves down), a node reached more than once, and a leaf count row
    that is negative, non-finite or fractional (one wider than
    ``n_classes`` is refused by :func:`repro.ml.flat.leaf_probabilities`).
    """
    if _check_format(payload) < 3:
        columns = _nested_columns(payload["root"], n_features)
    else:
        columns = tuple(payload[key] for key in
                        ("feature", "threshold", "left", "right", "leaf_counts"))
    feature = _int_column(columns[0], "feature")
    left = _int_column(columns[2], "left")
    right = _int_column(columns[3], "right")
    try:
        threshold = np.asarray(columns[1], dtype=np.float64)
        counts = np.asarray(columns[4], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("tree thresholds and leaf counts must be numbers") from None
    n = feature.size
    if n == 0:
        raise ValueError("tree has no nodes")
    if threshold.ndim != 1 or not threshold.size == left.size == right.size == n:
        raise ValueError("tree columns have unequal lengths")

    bad = feature[(feature < -1) | (feature >= n_features)]
    if bad.size:
        raise ValueError(
            f"node feature {bad[0]} out of range for {n_features} features"
        )
    leaf = feature < 0
    parents = np.flatnonzero(~leaf)
    children = np.concatenate((left[~leaf], right[~leaf]))
    if np.any(children >= n) or np.any(children <= np.tile(parents, 2)):
        raise ValueError(
            "child id out of range or not greater than its parent's id"
        )
    if np.any(np.bincount(children) > 1):
        raise ValueError("tree node reached more than once")

    n_leaves = int(leaf.sum())
    if counts.ndim != 2 or counts.shape[0] != n_leaves or counts.shape[1] < 1:
        raise ValueError(
            f"leaf_counts must be one row per leaf ({n_leaves}), got shape "
            f"{counts.shape}"
        )
    # Above 2**53 a float64 count is no longer an exact integer.
    if not np.all((counts >= 0) & (counts <= 2.0 ** 53)
                  & (counts == np.floor(counts))):
        raise ValueError("leaf counts must be non-negative integers")
    return feature, threshold, left, right, counts.astype(np.int64)


def tree_to_dict(tree: DecisionTreeClassifier) -> dict[str, Any]:
    """Serialise a fitted classifier tree to a JSON-compatible dict."""
    flat = tree.flat_
    if flat is None:
        raise ValueError("cannot serialise an unfitted tree")
    feature = flat.feature.tolist()
    return {
        "format": FORMAT_VERSION,
        "kind": "decision_tree_classifier",
        "n_classes": tree.n_classes_,
        "n_features": tree.n_features_,
        "criterion": tree.criterion,
        "feature": feature,
        "threshold": [
            None if f < 0 else t
            for f, t in zip(feature, flat.threshold.tolist())
        ],
        "left": flat.left.tolist(),
        "right": flat.right.tolist(),
        "leaf_counts": tree.leaf_counts_.tolist(),
    }


def tree_from_dict(
    payload: dict[str, Any], n_classes: int | None = None
) -> DecisionTreeClassifier:
    """Rebuild a classifier tree from :func:`tree_to_dict` output.

    Reads formats 1 to 3.  Leaf probabilities are derived on load, so a
    deserialised tree scores at full speed immediately.  ``n_classes``
    builds them in a wider class space than the tree's own (its
    forest's).  A malformed tree raises :class:`ValueError`.
    """
    if payload.get("kind") != "decision_tree_classifier":
        raise ValueError(f"not a serialised tree: kind={payload.get('kind')!r}")
    try:
        tree = DecisionTreeClassifier(criterion=payload.get("criterion", "gini"))
        tree.n_classes_ = int(payload["n_classes"])
        tree.n_features_ = int(payload["n_features"])
        tree.classes_ = np.arange(tree.n_classes_)
        columns = _tree_columns(payload, tree.n_features_)
    except KeyError as exc:
        raise ValueError(f"serialised tree is missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed serialised tree: {exc}") from None
    tree._set_tree(*columns, n_classes=n_classes)
    return tree


def forest_to_dict(forest: RandomForestClassifier) -> dict[str, Any]:
    """Serialise a fitted forest: member trees, fitted state, params."""
    if not forest.trees_:
        raise ValueError("cannot serialise an unfitted forest")
    importances = forest.feature_importances_
    return {
        "format": FORMAT_VERSION,
        "kind": "random_forest_classifier",
        "n_classes": forest.n_classes_,
        "n_features": forest.n_features_,
        "params": {key: getattr(forest, key) for key in _FOREST_PARAM_KEYS},
        "feature_importances": (
            None if importances is None else [float(v) for v in importances]
        ),
        "oob_score": (
            None if forest.oob_score_ is None else float(forest.oob_score_)
        ),
        "trees": [tree_to_dict(t) for t in forest.trees_],
    }


def forest_from_dict(payload: dict[str, Any]) -> RandomForestClassifier:
    """Rebuild a forest from :func:`forest_to_dict` output.

    Version-2+ payloads restore the constructor hyperparameters and the
    fitted state (``feature_importances_``, ``oob_score_``); version-1
    payloads (which carried neither) load with default hyperparameters,
    matching their historical behaviour.  Every member tree is built
    straight into the forest's class space, so a narrower tree (a
    version-1 tree whose bootstrap missed the top labels) scores with
    zero probability at the labels it never saw.  A payload with no
    trees, with any malformed tree, or (version 2+) whose
    ``params.n_estimators`` differs from its tree count raises
    :class:`ValueError`.
    """
    if payload.get("kind") != "random_forest_classifier":
        raise ValueError(f"not a serialised forest: kind={payload.get('kind')!r}")
    version = _check_format(payload)
    try:
        trees = payload["trees"]
        if not isinstance(trees, list) or not trees:
            raise ValueError("forest payload must carry a non-empty tree list")
        if version >= 2:
            params = dict(payload["params"])
            unknown = set(params) - set(_FOREST_PARAM_KEYS)
            if unknown:
                raise ValueError(
                    f"unknown forest params in payload: {sorted(unknown)}"
                )
            forest = RandomForestClassifier(**params)
            if forest.n_estimators != len(trees):
                raise ValueError(
                    f"forest payload declares n_estimators="
                    f"{forest.n_estimators} but carries {len(trees)} trees"
                )
        else:
            forest = RandomForestClassifier(n_estimators=len(trees))
        forest.n_classes_ = int(payload["n_classes"])
        forest.n_features_ = int(payload["n_features"])
        for t in trees:
            if int(t["n_features"]) != forest.n_features_:
                raise ValueError(
                    f"tree has {t['n_features']} features, "
                    f"forest has {forest.n_features_}"
                )
    except KeyError as exc:
        raise ValueError(f"serialised forest is missing key {exc}") from None
    forest._set_trees([tree_from_dict(t, forest.n_classes_) for t in trees])
    importances = payload.get("feature_importances")
    if importances is not None:
        forest.feature_importances_ = np.asarray(importances, dtype=float)
    oob = payload.get("oob_score")
    if oob is not None:
        forest.oob_score_ = float(oob)
    return forest


def dumps(payload: dict[str, Any]) -> str:
    """JSON-encode a serialised model."""
    return json.dumps(payload, separators=(",", ":"))


def loads(text: str) -> dict[str, Any]:
    """Decode a JSON-encoded serialised model."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("serialised model must be a JSON object")
    return payload
