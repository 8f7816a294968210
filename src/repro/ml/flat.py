"""Flat arrays: the one representation of a fitted tree.

A fitted tree is five contiguous numpy arrays indexed by node id
(``feature``/``threshold``/``left``/``right``/``value``).  Both growers
-- the histogram engine of :mod:`repro.ml.histsplit` for the classifier
and the exact regressor grower in :mod:`repro.ml.tree` -- write node
rows straight into them and build one :class:`FlatTree` at the end of
``fit``; :mod:`repro.ml.serialize` stores the same arrays (payload
format 3) and loads every older format into them.  The root is node 0
and every child id is greater than its parent's id, which the loader
enforces, so no payload can make a walk loop.

Batch traversal is a *level-synchronous* vectorised walk: one
fancy-indexing step advances every still-active row by one level, so
the Python-interpreter cost is ``O(depth)`` instead of ``O(rows x
depth)`` (per-row descent) or ``O(nodes)`` (an index-partition node
walk).  It is the only inference path; the per-row and index-partition
walks live on in ``tests/ml/reference.py`` as oracles, and
probabilities are identical to theirs bit for bit: leaf class counts
are normalised once, when the tree is built, with exactly the division
a per-row walk performs at every visit (:func:`leaf_probabilities`).

A forest scores through one :class:`FlatForest` arena: every member
tree's arrays concatenated, with child ids offset and one root id per
tree.  Each arena leaf's ``left`` and ``right`` point at the leaf
itself, so a ``(row, tree)`` pair that has reached its leaf stays there
whatever its comparison gives (NaN thresholds included).  The walk
therefore needs no active set: it takes exactly ``depth`` steps -- the
deepest tree's depth, found once when the arena is built -- and each
step advances every pair with one gather-compare-select.  A forest call
costs ``O(depth)`` interpreter steps instead of ``O(trees x depth)``;
at one row -- the YourAdValue client's case -- numpy dispatch is the
whole cost, and the arena cuts it by the tree count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs

__all__ = ["FlatForest", "FlatTree", "leaf_probabilities"]

#: Rows per arena walk.  A block of ``1024 x trees`` pairs keeps the
#: walk's index arrays small enough to stay cache-resident; without
#: blocks, large batches walk slower than one tree at a time.
_BLOCK_ROWS = 1024


@dataclass
class FlatTree:
    """A fitted tree as contiguous arrays.

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

    @classmethod
    def build(cls, feature, threshold, left, right,
              leaf_values: np.ndarray) -> "FlatTree":
        """Assemble a tree from per-node columns and its leaf rows.

        ``leaf_values`` holds one ``value`` row per leaf, in node-id
        order; internal nodes get zero rows.
        """
        feature = np.asarray(feature, dtype=np.int32)
        value = np.zeros((feature.shape[0], leaf_values.shape[1]),
                         dtype=np.float64)
        value[feature < 0] = leaf_values
        # Once per tree per fit/load -- never on the inference path.
        reg = obs.registry()
        reg.counter("flat.trees_compiled", "trees built as flat arrays").inc()
        reg.counter("flat.nodes_compiled",
                    "total flat nodes allocated").inc(feature.shape[0])
        return cls(
            feature=feature,
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=value,
        )

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def depth(self) -> int:
        """Longest root-to-leaf edge count (a lone leaf has depth 0)."""
        return _depth(self.feature, self.left, self.right,
                      np.zeros(1, dtype=np.intp))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id reached by every row of ``x`` (vectorised).

        The walk is level-synchronous: each iteration advances all rows
        that have not yet reached a leaf by one tree level, comparing
        ``x[row, feature] <= threshold`` exactly as a per-row descent
        does (NaN compares false and routes right).
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


@dataclass
class FlatForest:
    """Every member tree of a forest in one set of node arrays.

    Tree ``t``'s nodes occupy ids ``roots[t]`` up to (not including)
    ``roots[t + 1]``; child ids are offset by the same amount, so one
    walk can follow any tree, and a leaf's children are the leaf
    itself.  Built once per fit or load, from the trees'
    :class:`FlatTree` arrays, and never mutated; the owning forest then
    points each tree's ``feature``, ``threshold`` and ``value`` at its
    slice, so those columns are stored once.
    """

    feature: np.ndarray      # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray    # (n_nodes,) float64, nan at leaves
    left: np.ndarray         # (n_nodes,) intp, offset ids; a leaf's own id
    right: np.ndarray        # (n_nodes,) intp, likewise
    value: np.ndarray        # (n_nodes, n_outputs) float64
    roots: np.ndarray        # (n_trees,) intp, root id of each tree
    split: np.ndarray        # (n_nodes,) intp copy of ``feature``, 0 at leaves
    depth: int               # deepest member tree's depth

    @classmethod
    def from_trees(cls, trees: Sequence[FlatTree]) -> "FlatForest":
        """Concatenate the trees' arrays, offsetting child ids."""
        sizes = np.array([tree.n_nodes for tree in trees], dtype=np.intp)
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        offset = np.repeat(roots, sizes)
        feature = np.concatenate([tree.feature for tree in trees])
        internal = feature >= 0
        own = np.arange(feature.shape[0], dtype=np.intp)

        def children(side: str) -> np.ndarray:
            ids = np.concatenate([getattr(tree, side) for tree in trees])
            return np.where(internal, ids + offset, own).astype(np.intp)

        left = children("left")
        right = children("right")
        return cls(
            feature=feature,
            threshold=np.concatenate([tree.threshold for tree in trees]),
            left=left,
            right=right,
            value=np.concatenate([tree.value for tree in trees]),
            roots=roots,
            # Gathering with an intp index skips the conversion numpy
            # makes of an int32 one at every walk step.
            split=np.maximum(feature, 0).astype(np.intp),
            depth=_depth(feature, left, right, roots),
        )

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    def _leaves(self, x: np.ndarray) -> np.ndarray:
        """Arena leaf id per ``(tree, row)`` of one block: ``(trees, rows)``.

        Exactly :attr:`depth` steps of ``x[row, split] <= threshold``,
        the comparison a per-row descent makes (NaN compares false and
        routes right); a pair already at its leaf loops back to it.
        ``x`` is indexed flat, by ``row * n_features + feature``, and
        the row offset is added only when the block has two or more
        rows.  Pairs are laid out tree by tree, so consecutive gathers
        hit one tree's nodes (~10% faster than row by row at 1,024
        rows).
        """
        n_rows, n_features = x.shape
        split = self.split
        threshold = self.threshold
        left = self.left
        right = self.right
        flat_x = x.ravel()
        node = np.repeat(self.roots, n_rows)
        row_base = (np.tile(np.arange(0, n_rows * n_features, n_features),
                            self.n_trees) if n_rows > 1 else None)
        for _ in range(self.depth):
            index = split[node]
            if row_base is not None:
                index += row_base
            node = np.where(flat_x[index] <= threshold[node],
                            left[node], right[node])
        return node.reshape(-1, n_rows)

    def _blocks(self, x: np.ndarray):
        """``(row slice, leaves)`` per block of ``_BLOCK_ROWS`` rows."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        for lo in range(0, x.shape[0], _BLOCK_ROWS):
            block = x[lo:lo + _BLOCK_ROWS]
            yield slice(lo, lo + block.shape[0]), self._leaves(block)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Each tree's own leaf id per row: shape ``(rows, trees)``."""
        out = np.empty((x.shape[0], self.n_trees), dtype=np.int64)
        for rows, leaves in self._blocks(x):
            out[rows] = (leaves - self.roots[:, None]).T
        return out

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        """Mean leaf ``value`` row over the trees, per row of ``x``.

        Leaf rows are added in tree order, then divided by the tree
        count -- the same float operations, in the same order, as
        summing per-tree outputs one tree at a time, so the result is
        bit-identical to that.  When a block holds two or more values
        per tree, ``np.add.reduce`` over the tree axis adds whole
        ``(rows, outputs)`` slabs one tree after another, in one call.
        With one value per tree (one row of a single-output forest) the
        tree axis is the only axis left and numpy would sum it
        pairwise, so that case takes the sequential running sum.
        """
        n_trees = self.n_trees
        out = np.empty((x.shape[0], self.value.shape[1]), dtype=np.float64)
        for rows, leaves in self._blocks(x):
            leaf_rows = self.value[leaves]       # (trees, rows, outputs)
            if leaf_rows[0].size > 1:
                total = np.add.reduce(leaf_rows, axis=0)
            else:
                total = np.add.accumulate(leaf_rows, axis=0)[-1]
            out[rows] = total / n_trees
        return out


def _depth(feature: np.ndarray, left: np.ndarray, right: np.ndarray,
           roots: np.ndarray) -> int:
    """Longest root-to-leaf edge count below any of ``roots``.

    One level-synchronous pass: each level keeps its internal nodes and
    steps to their children, so a lone leaf has depth 0.
    """
    level = roots
    depth = 0
    while True:
        level = level[feature[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate((left[level], right[level]))
        depth += 1


def leaf_probabilities(counts: np.ndarray, n_classes: int) -> np.ndarray:
    """Class-probability rows of leaf class-count rows.

    Each row is ``counts / total``, or uniform over the row's own width
    for an empty leaf.  Count rows narrower than ``n_classes`` (a tree
    from a version-1 payload whose bootstrap missed the top labels) are
    aligned by label: count column ``j`` is class label ``j``, so the
    missing top labels get probability zero.
    """
    counts = np.asarray(counts, dtype=np.float64)
    m = counts.shape[1]
    if m > n_classes:
        raise ValueError(f"leaf has {m} classes, forest space is {n_classes}")
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.full_like(counts, 1.0 / max(1, m))      # empty-leaf fallback
    np.divide(counts, totals, out=probs, where=totals > 0)
    if m == n_classes:
        return probs
    rows = np.zeros((counts.shape[0], n_classes), dtype=np.float64)
    rows[:, :m] = probs
    return rows
