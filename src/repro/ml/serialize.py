"""Model serialisation.

The PME ships its fitted model to YourAdValue clients "in the form of a
decision tree" (paper section 3.2).  We serialise trees and forests to
plain JSON-compatible dicts: the client needs no training code, only
the traversal logic, mirroring how a browser extension would embed the
model.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, TreeNode

#: Version 2 adds fitted state (``feature_importances_``, ``oob_score_``)
#: and the constructor hyperparameters to forest payloads, so a loaded
#: forest is a faithful clone, not just a bag of trees.  Version-1
#: payloads still load (with default hyperparameters, as before).
FORMAT_VERSION = 2

#: Forest constructor hyperparameters round-tripped by version-2
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


def _node_to_dict(node: TreeNode) -> dict[str, Any]:
    if node.is_leaf:
        value = node.value
        if isinstance(value, np.ndarray):
            payload: Any = [float(v) for v in value]
        else:
            payload = float(value)
        return {
            "leaf": True,
            "value": payload,
            "n": node.n_samples,
            "impurity": node.impurity,
        }
    assert node.left is not None and node.right is not None
    return {
        "leaf": False,
        "feature": node.feature,
        "threshold": node.threshold,
        "n": node.n_samples,
        "impurity": node.impurity,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(payload: dict[str, Any], n_features: int) -> TreeNode:
    if payload["leaf"]:
        value = payload["value"]
        if isinstance(value, list):
            value = np.asarray(value, dtype=float)
        return TreeNode(
            value=value, n_samples=int(payload["n"]), impurity=float(payload["impurity"])
        )
    # An out-of-range index would load fine and then misroute (negative
    # indices wrap) or raise IndexError on the first estimate.
    feature = int(payload["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(
            f"node feature {feature} out of range for {n_features} features"
        )
    return TreeNode(
        value=np.zeros(0),
        n_samples=int(payload["n"]),
        impurity=float(payload["impurity"]),
        feature=feature,
        threshold=float(payload["threshold"]),
        left=_node_from_dict(payload["left"], n_features),
        right=_node_from_dict(payload["right"], n_features),
    )


def tree_to_dict(tree: DecisionTreeClassifier) -> dict[str, Any]:
    """Serialise a fitted classifier tree to a JSON-compatible dict."""
    if tree.root_ is None:
        raise ValueError("cannot serialise an unfitted tree")
    return {
        "format": FORMAT_VERSION,
        "kind": "decision_tree_classifier",
        "n_classes": tree.n_classes_,
        "n_features": tree.n_features_,
        "criterion": tree.criterion,
        "root": _node_to_dict(tree.root_),
    }


def tree_from_dict(
    payload: dict[str, Any], n_classes: int | None = None
) -> DecisionTreeClassifier:
    """Rebuild a classifier tree from :func:`tree_to_dict` output.

    The flattened inference arrays are recompiled on load (they are
    derived state and never serialised), so a deserialised tree scores
    at full speed immediately.  ``n_classes`` compiles them into a
    wider class space than the tree's own (its forest's).  A node whose
    ``feature`` is outside ``0..n_features-1`` is rejected with
    :class:`ValueError`.
    """
    if payload.get("kind") != "decision_tree_classifier":
        raise ValueError(f"not a serialised tree: kind={payload.get('kind')!r}")
    _check_format(payload)
    tree = DecisionTreeClassifier(criterion=payload.get("criterion", "gini"))
    tree.n_classes_ = int(payload["n_classes"])
    tree.n_features_ = int(payload["n_features"])
    tree.classes_ = np.arange(tree.n_classes_)
    tree.root_ = _node_from_dict(payload["root"], tree.n_features_)
    tree.compile_flat(n_classes)
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

    Version-2 payloads restore the constructor hyperparameters and the
    fitted state (``feature_importances_``, ``oob_score_``); version-1
    payloads (which carried neither) load with default hyperparameters,
    matching their historical behaviour.  Every member tree is compiled
    straight into the forest's class space, so a narrower tree (a
    version-1 tree whose bootstrap missed the top labels) scores with
    zero probability at the labels it never saw.
    """
    if payload.get("kind") != "random_forest_classifier":
        raise ValueError(f"not a serialised forest: kind={payload.get('kind')!r}")
    version = _check_format(payload)
    if version >= 2:
        params = dict(payload["params"])
        unknown = set(params) - set(_FOREST_PARAM_KEYS)
        if unknown:
            raise ValueError(f"unknown forest params in payload: {sorted(unknown)}")
        forest = RandomForestClassifier(**params)
    else:
        forest = RandomForestClassifier(n_estimators=max(1, len(payload["trees"])))
    forest.n_classes_ = int(payload["n_classes"])
    forest.n_features_ = int(payload["n_features"])
    for t in payload["trees"]:
        if int(t["n_features"]) != forest.n_features_:
            raise ValueError(
                f"tree has {t['n_features']} features, "
                f"forest has {forest.n_features_}"
            )
    forest.trees_ = [
        tree_from_dict(t, forest.n_classes_) for t in payload["trees"]
    ]
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
