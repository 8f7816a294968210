"""Flattened (array-of-struct) tree representation for fast inference.

:class:`repro.ml.tree.TreeNode` is the right structure for *fitting* --
growth is naturally recursive and nodes are born one at a time -- but it
is the wrong structure for *scoring*: traversing a linked object graph
costs a Python attribute lookup per node per batch partition, and the
PME has to score every encrypted impression in dataset D (hundreds of
thousands of rows through a 60-tree forest).

:class:`FlatTree` compiles a fitted ``TreeNode`` graph into five
contiguous numpy arrays (``feature``/``threshold``/``left``/``right``/
``value``) indexed by node id.  Batch traversal then becomes a
*level-synchronous* vectorised walk: one fancy-indexing step advances
every still-active row by one level, so the Python-interpreter cost is
``O(depth)`` instead of ``O(rows x depth)`` (per-row recursion) or
``O(nodes)`` (an index-partition node walk).  It is the only inference
path; the recursive walks live on in ``tests/ml/reference.py`` as
oracles, and probabilities are identical to theirs bit for bit: leaf
class frequencies are normalised once at compile time with exactly the
division a recursive walk performs at every visit.

The flat form is derived state -- it is recompiled after ``fit`` and
after deserialisation, never serialised itself, so the JSON model
package format is unchanged by its existence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.ml.tree import TreeNode

__all__ = ["FlatTree", "flatten_classifier_tree", "flatten_regressor_tree"]

#: Sentinel node id / feature id for "no child" / "is a leaf".
_NO_NODE = -1


@dataclass
class FlatTree:
    """A fitted tree compiled to contiguous arrays.

    ``feature[i] == -1`` marks node ``i`` as a leaf; internal nodes
    carry a feature index, threshold and child node ids.  ``value`` has
    one row per node: the normalised class-probability vector for
    classifier leaves (aligned to the owning forest's class space) or a
    single-column mean target for regressor leaves.  Internal-node rows
    are zero -- only leaf rows are ever gathered.
    """

    feature: np.ndarray      # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray    # (n_nodes,) float64, nan at leaves
    left: np.ndarray         # (n_nodes,) int32, -1 at leaves
    right: np.ndarray        # (n_nodes,) int32, -1 at leaves
    value: np.ndarray        # (n_nodes, n_outputs) float64

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_outputs(self) -> int:
        return int(self.value.shape[1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id reached by every row of ``x`` (vectorised).

        The walk is level-synchronous: each iteration advances all rows
        that have not yet reached a leaf by one tree level, comparing
        ``x[row, feature] <= threshold`` exactly as the recursive
        traversal does (NaN compares false and routes right, matching
        the per-row walk).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        feature = self.feature
        threshold = self.threshold
        left = self.left
        right = self.right
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = x[active, feature[current]] <= threshold[current]
            nxt = np.where(go_left, left[current], right[current])
            node[active] = nxt
            active = active[feature[nxt] >= 0]
        return node

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        """Gather the leaf ``value`` row for every row of ``x``."""
        return self.value[self.apply(x)]


def _flatten(root: TreeNode, n_outputs: int, leaf_rows) -> FlatTree:
    """Compile ``root`` to arrays; ``leaf_rows(nodes)`` yields value rows.

    Uses an explicit stack (a deep fitted tree must not be bounded by
    the interpreter recursion limit) and assigns node ids in pre-order,
    left child first, so recompiling the same tree always produces the
    same arrays.  The single walk collects plain Python lists (cheap
    per node) and materialises every array in one vectorised shot at
    the end -- ``leaf_rows`` receives the *list* of leaf nodes in id
    order and returns their stacked ``(n_leaves, n_outputs)`` value
    block, so per-leaf numpy calls never happen.
    """
    ids: list[int] = []
    features: list[int] = []
    thresholds: list[float] = []
    lefts: list[int] = []
    rights: list[int] = []
    leaf_ids: list[int] = []
    leaves: list[TreeNode] = []

    # Single walk, ids assigned exactly as before (a node's children
    # get the next two ids the moment their parent is visited); rows
    # are collected in visit order and scattered to id order in one
    # fancy-indexing shot per array below.  Parallel node/id stacks and
    # locally-bound list methods keep the per-node interpreter cost to
    # a handful of bytecodes -- this walk runs once per tree of a
    # 60-tree forest with tens of thousands of nodes each.
    next_id = 1
    node_stack: list[TreeNode] = [root]
    id_stack: list[int] = [0]
    nan = float("nan")
    pop_node, pop_id = node_stack.pop, id_stack.pop
    push_node, push_id = node_stack.append, id_stack.append
    add_id, add_feature = ids.append, features.append
    add_threshold = thresholds.append
    add_left, add_right = lefts.append, rights.append
    add_leaf_id, add_leaf = leaf_ids.append, leaves.append
    while node_stack:
        node = pop_node()
        idx = pop_id()
        add_id(idx)
        feature = node.feature
        if feature is None:
            add_feature(_NO_NODE)
            add_threshold(nan)
            add_left(_NO_NODE)
            add_right(_NO_NODE)
            add_leaf_id(idx)
            add_leaf(node)
            continue
        left, right, threshold = node.left, node.right, node.threshold
        assert left is not None and right is not None
        assert threshold is not None
        add_feature(feature)
        add_threshold(threshold)
        left_id = next_id
        right_id = next_id + 1
        next_id += 2
        add_left(left_id)
        add_right(right_id)
        # Push right first so the left subtree is processed (and hence
        # filled) first; ids are already fixed either way.
        push_node(right)
        push_id(right_id)
        push_node(left)
        push_id(left_id)

    n_nodes = len(features)
    order = np.asarray(ids, dtype=np.int64)
    feature = np.empty(n_nodes, dtype=np.int32)
    feature[order] = features
    threshold = np.empty(n_nodes, dtype=np.float64)
    threshold[order] = thresholds
    left = np.empty(n_nodes, dtype=np.int32)
    left[order] = lefts
    right = np.empty(n_nodes, dtype=np.int32)
    right[order] = rights
    value = np.zeros((n_nodes, n_outputs), dtype=np.float64)
    if leaves:
        value[np.asarray(leaf_ids, dtype=np.int64)] = leaf_rows(leaves)
    # Compile-time bookkeeping (once per tree per fit/deserialise --
    # never on the per-batch inference path).
    reg = obs.registry()
    reg.counter("flat.trees_compiled", "trees compiled to flat arrays").inc()
    reg.counter("flat.nodes_compiled", "total flat nodes allocated").inc(n_nodes)
    return FlatTree(
        feature=feature, threshold=threshold, left=left, right=right, value=value
    )


def flatten_classifier_tree(root: TreeNode, n_classes: int) -> FlatTree:
    """Compile a classifier tree; leaf rows are class probabilities.

    Leaf class-count vectors are normalised here, once, with the same
    ``counts / total`` (or uniform fallback for an empty leaf) a
    recursive walk computes per visit -- so flat and recursive
    probabilities are bit-identical.  Counts from a tree fitted in a
    smaller class space (a narrower serialised tree) are aligned by
    class label into the forest's ``n_classes`` columns.  All leaves of one tree share a class space,
    so the whole normalisation is one stacked divide instead of a
    numpy round-trip per leaf.
    """

    def leaf_rows(leaves: list[TreeNode]) -> np.ndarray:
        counts = np.stack([node.value for node in leaves]).astype(np.float64)
        m = counts.shape[1]
        if m > n_classes:
            raise ValueError(
                f"leaf has {m} classes, forest space is {n_classes}"
            )
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.full_like(counts, 1.0 / max(1, m))      # empty-leaf fallback
        np.divide(counts, totals, out=probs, where=totals > 0)
        if m == n_classes:
            return probs
        # Tree class-count vectors index by label (np.bincount), so
        # column j *is* class label j: aligning is a label scatter.
        rows = np.zeros((counts.shape[0], n_classes), dtype=np.float64)
        rows[:, :m] = probs
        return rows

    return _flatten(root, n_classes, leaf_rows)


def flatten_regressor_tree(root: TreeNode) -> FlatTree:
    """Compile a regressor tree; leaf rows are the single mean target."""

    def leaf_rows(leaves: list[TreeNode]) -> np.ndarray:
        return np.asarray(
            [node.value for node in leaves], dtype=np.float64
        )[:, None]

    return _flatten(root, 1, leaf_rows)
