"""Histogram-based split finding over a pre-binned columnar dataset.

The price forest's only training engine.  An exhaustive CART splitter
re-argsorts every candidate column at every node -- ``O(n log n)`` per
(node, feature), float comparisons.  The paper's feature set S
(context, device, city, time-of-day, day-of-week, slot size, IAB
category, ADX -- section 5.1) is almost entirely categorical or ordinal
with tiny cardinalities, which is the best possible case for the
histogram training used by modern GBDT/RTB-CTR systems: quantise each
feature **once** per forest into at most 256 ordinal bins, then find
every split with integer ``bincount`` histograms over the codes.  On a
column with at most 256 distinct values the bin boundaries are exactly
the adjacent-value midpoints the exhaustive scan would try, so nothing
is lost on feature set S.

Four structural choices:

* **Pre-binned columnar codes.**  :class:`BinnedDataset` maps each
  column to ``uint8`` codes against a monotone threshold ladder, built
  once from the full training matrix and shared *read-only* across
  member trees and fork-pool workers (copy-on-write pages -- the code
  matrix is never re-binned or re-pickled per tree).  Bin boundaries
  map back to real feature-space thresholds, so a fitted tree is an
  ordinary :class:`~repro.ml.flat.FlatTree`: serialisation and serving
  never see codes.
* **Level-wise vectorised growth.**  Nodes are grown breadth-first: at
  each depth the class histograms of *every* frontier node land in one
  flattened ``np.bincount`` (histogram address of row ``i`` under node
  ``j`` at feature ``f`` is
  ``j*stride + (code + offsets[f])*n_classes + y[i]``), every
  (node, feature, bin-boundary) candidate is scored in one broadcast
  pass, and the row partition for the whole level is a single stable
  ``argsort`` on ``(node, side)`` keys.  Per-node Python work collapses
  to queueing the two children -- the deep, many-thousand-node trees
  the price model grows (depth 18, leaf size 2) stop paying a fixed
  ~25-numpy-call toll per node.
* **Node rows, not node objects.**  Each level records its splits as
  array slices (parent ids, features, thresholds, child class counts);
  children take ids in split order, so the tree's columns are
  assembled in a few vectorised steps when growth ends.
* **Sibling-histogram subtraction.**  When a node splits, only the
  **smaller** child is re-scanned (all scans of a level share one
  ``bincount``) and the other child's histogram is derived as
  ``parent - sibling`` -- per level, at most half the rows are
  re-histogrammed.
* **Index-subset growth.**  Nodes carry ``intp`` row-index arrays into
  the shared code matrix instead of copying ``x[mask]`` / ``y[mask]``
  at every level (bootstrap resamples are just index multisets).

Everything here is deterministic given the data and the tree's own
``rng``: the breadth-first frontier order is a pure function of the
data, feature subsets are drawn once per frontier node in that order,
and ties in the vectorised score surface break toward the lowest flat
bin address (lowest feature index, then lowest bin).  Forest training
is therefore bit-identical across ``workers=1/N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.tree import _entropy, _EPS, _gini, _GrowthParams

__all__ = [
    "MAX_BINS",
    "BinnedDataset",
    "HistClassifierGrower",
    "bin_thresholds",
    "column_codes",
]

#: Hard cap on bins per feature: codes must fit ``uint8``.
MAX_BINS = 256

#: Soft cap on ``frontier_nodes * total_bins * n_classes`` entries per
#: level-wise scoring pass; frontiers larger than this are chunked so the
#: broadcast score arrays stay within a few tens of megabytes.
_CHUNK_ENTRIES = 2_000_000


# -- quantisation ------------------------------------------------------------

def bin_thresholds(col: np.ndarray, max_bins: int = MAX_BINS) -> np.ndarray:
    """Strictly increasing real-valued bin boundaries for one column.

    At most ``max_bins - 1`` thresholds (so at most ``max_bins`` bins).
    Columns with ``<= max_bins`` distinct values get one bin per
    distinct value with boundaries at adjacent-value midpoints --
    i.e. exactly the candidate thresholds an exhaustive search would
    consider, which makes hist lossless for the low-cardinality
    feature set S.  Higher-cardinality columns are cut at equally
    spaced ranks of the (duplicate-weighted) sorted column, with a
    distinct-value-space fallback when the mass is so concentrated
    that every rank lands on one value.  NaNs are ignored here and
    coded into the top bin (so they route right at inference, matching
    ``FlatTree``'s IEEE semantics).
    """
    col = np.asarray(col, dtype=float)
    if not 2 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [2, {MAX_BINS}], got {max_bins}")
    uniques = np.unique(col)
    if uniques.size and np.isnan(uniques[-1]):
        uniques = uniques[~np.isnan(uniques)]
    m = uniques.size
    if m <= 1:
        return np.empty(0, dtype=float)  # constant column: never splittable
    if m <= max_bins:
        thr = 0.5 * uniques[:-1] + 0.5 * uniques[1:]
    else:
        svals = np.sort(col[~np.isnan(col)])
        pos = (np.arange(1, max_bins) * svals.size) // max_bins
        cut_vals = np.unique(svals[pos])
        iu = np.searchsorted(uniques, cut_vals)
        iu = iu[iu < m - 1]  # a cut at the max value cannot split
        if iu.size == 0:
            # Degenerate concentration (almost all mass on one value):
            # fall back to equally spaced distinct-value boundaries.
            ks = np.unique((np.arange(1, max_bins) * m) // max_bins)
            ks = ks[(ks >= 1) & (ks <= m - 1)]
            return np.unique(0.5 * uniques[ks - 1] + 0.5 * uniques[ks])
        thr = 0.5 * uniques[iu] + 0.5 * uniques[iu + 1]
    # 0.5*a + 0.5*b never overflows, but may round onto a or b for
    # adjacent representables; collapse any degenerate duplicates so the
    # ladder stays strictly increasing.
    return np.unique(thr)


def column_codes(col: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``uint8`` ordinal codes for one column against its ladder.

    ``code(v) = searchsorted(thresholds, v, side="left")`` makes the
    round-trip exact by construction: ``code(v) <= b`` if and only if
    ``v <= thresholds[b]``, so a split chosen in code space induces the
    identical row partition when replayed as a real-valued threshold
    (the property-test suite pins this).  NaN sorts past every
    threshold and lands in the top bin.
    """
    codes = np.searchsorted(thresholds, np.asarray(col, dtype=float),
                            side="left")
    return codes.astype(np.uint8)


@dataclass(frozen=True)
class BinnedDataset:
    """Quantised view of a training matrix, built once per forest.

    ``codes`` is the ``(n_rows, n_features)`` ``uint8`` matrix (C
    order, 8x smaller than the float matrix); ``thresholds[f]`` maps
    code boundary ``b`` of feature ``f`` back to the real threshold
    ``x[:, f] <= thresholds[f][b]``.  ``offsets``/``total_bins`` lay
    every feature's bins out in one flat histogram address space so a
    node's full histogram is a single ``np.bincount``.
    """

    codes: np.ndarray
    thresholds: tuple[np.ndarray, ...]
    n_bins: np.ndarray
    offsets: np.ndarray
    total_bins: int

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    @classmethod
    def from_matrix(cls, x: np.ndarray, max_bins: int = MAX_BINS) -> "BinnedDataset":
        """Quantise ``x`` column by column (one pass, done once)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        n, f = x.shape
        codes = np.empty((n, f), dtype=np.uint8, order="C")
        thresholds: list[np.ndarray] = []
        n_bins = np.empty(f, dtype=np.int64)
        for j in range(f):
            thr = bin_thresholds(x[:, j], max_bins)
            thresholds.append(thr)
            codes[:, j] = column_codes(x[:, j], thr)
            n_bins[j] = thr.size + 1
        offsets = np.zeros(f, dtype=np.int64)
        if f:
            np.cumsum(n_bins[:-1], out=offsets[1:])
        return cls(
            codes=codes,
            thresholds=tuple(thresholds),
            n_bins=n_bins,
            offsets=offsets,
            total_bins=int(n_bins.sum()) if f else 0,
        )

    def check_matches(self, x: np.ndarray) -> None:
        """Guard against pairing codes with a differently shaped matrix."""
        if tuple(x.shape) != tuple(self.codes.shape):
            raise ValueError(
                f"binned dataset was built for shape {self.codes.shape}, "
                f"got x of shape {tuple(x.shape)}"
            )


# -- level-wise growth machinery --------------------------------------------

def _boundary_mask(binned: BinnedDataset) -> np.ndarray:
    """Flat-bin positions that are legal split boundaries.

    The last bin of every feature is not a boundary (nothing to its
    right); features with a single bin (constant columns) contribute no
    boundaries at all.
    """
    ok = np.ones(binned.total_bins, dtype=bool)
    if binned.n_features:
        ok[binned.offsets + binned.n_bins - 1] = False
    return ok


def _chunked(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]


class HistClassifierGrower:
    """Grows one classification tree over a shared :class:`BinnedDataset`.

    Nodes grow breadth-first.  A *frontier entry* is ``(node_id,
    impurity, idx, hist)``: a still-splittable node, its impurity, its
    row-index multiset into the shared code matrix, and -- in
    full-feature growth -- its flat ``(bin, class)`` histogram.  With
    feature subsampling on (the Random Forest configuration) each level
    histograms only the sampled blocks, addressed compactly as ``(node,
    sampled slot, class, bin)``, and frontier entries carry no
    histogram; without it, full-space histograms flow down the tree
    under sibling subtraction.  Stop conditions: zero impurity, fewer
    than ``min_samples_split`` rows, ``max_depth``; a split must leave
    ``min_samples_leaf`` rows per side and decrease impurity by
    ``min_impurity_decrease``.
    """

    def __init__(
        self,
        binned: BinnedDataset,
        y: np.ndarray,
        n_classes: int,
        criterion: str,
        params: _GrowthParams,
        importance_acc: np.ndarray,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.binned = binned
        self.params = params
        self.n_classes = int(n_classes)
        self.y32 = np.ascontiguousarray(y, dtype=np.int64)
        self.criterion = criterion
        self.importance_acc = importance_acc
        self._impurity = _gini if criterion == "gini" else _entropy
        self.boundary_ok = _boundary_mask(binned)
        self.offsets = binned.offsets
        self.n_bins = binned.n_bins
        nf = binned.n_features
        self.max_nb = int(binned.n_bins.max()) if nf else 0
        # Concatenated per-feature bin-edge arrays + offsets, so the
        # real-space threshold of every winning (feature, boundary) pair
        # is one fancy-indexed gather instead of a per-node lookup.
        # (Per-feature edge counts are n_bins - 1, hence a separate
        # offset vector from the flat *bin* offsets.)
        if nf:
            self._flat_thresholds = np.concatenate(binned.thresholds)
            self._thr_offsets = np.concatenate(
                ([0], np.cumsum(binned.n_bins[:-1] - 1))
            )
        else:  # pragma: no cover - empty feature space
            self._flat_thresholds = np.empty(0, dtype=np.float64)
            self._thr_offsets = np.empty(0, dtype=np.int64)
        self.use_sampled = (
            params.max_features is not None and params.max_features < nf
        )
        c = self.n_classes
        if self.use_sampled:
            width = params.max_features * self.max_nb * c
        else:
            width = binned.total_bins * c
            # addr[i, f]: flat (bin, class) histogram address of row i
            # under feature f -- computed once, reused at every level.
            addr = binned.codes.astype(np.int64) * c
            addr += (binned.offsets * c)[None, :]
            addr += self.y32[:, None]
            self.addr = addr
        self.chunk_nodes = max(1, _CHUNK_ENTRIES // max(1, width))

    def grow(self, idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """Grow the tree over the row-index (multi)set ``idx``.

        Returns the node columns ``(feature, threshold, left, right)``
        and the ``(n_leaves, n_classes)`` integer class counts of the
        leaves in node-id order.  Ids are breadth-first: the root is
        node 0, and the ``k``-th split made gets children ``2k + 1``
        (left) and ``2k + 2`` (right).
        """
        # Sorted bootstrap indices keep every level's gathers monotone
        # in memory; class counts are order-free, so the fitted tree is
        # unchanged by the reordering.
        idx = np.sort(np.asarray(idx, dtype=np.intp), kind="stable")
        counts = np.bincount(self.y32[idx], minlength=self.n_classes)
        counts = counts.astype(float)
        impurity = self._impurity(counts)
        # Per chunk that splits: parent ids, features, thresholds and
        # the children's class counts (left, right interleaved); the
        # root enters as a split of nothing that creates node 0.
        self._splits = [(np.empty(0, np.int64), np.empty(0, np.int64),
                         np.empty(0), counts[None])]
        self._n_nodes = 1
        p = self.params
        if (
            self.boundary_ok.any()
            and impurity > _EPS
            and idx.size >= p.min_samples_split
            and (p.max_depth is None or p.max_depth > 0)
        ):
            root_hist = None if self.use_sampled else self._scan_many([idx])[0]
            frontier = [(0, impurity, idx, root_hist)]
            depth = 0
            while frontier:
                nxt: list = []
                for chunk in _chunked(frontier, self.chunk_nodes):
                    nxt.extend(self._split_chunk(chunk, depth))
                frontier = nxt
                depth += 1
        return self._columns()

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The grown tree's node columns and leaf class counts."""
        parents, features, thresholds, counts = map(
            np.concatenate, zip(*self._splits)
        )
        n_nodes = self._n_nodes
        feature = np.full(n_nodes, -1, dtype=np.int32)
        feature[parents] = features
        threshold = np.full(n_nodes, np.nan)
        threshold[parents] = thresholds
        left = np.full(n_nodes, -1, dtype=np.int32)
        left[parents] = np.arange(1, n_nodes, 2)
        right = np.full(n_nodes, -1, dtype=np.int32)
        right[parents] = np.arange(2, n_nodes + 1, 2)
        leaf_counts = counts[feature < 0].astype(np.int64)
        return feature, threshold, left, right, leaf_counts

    def _scan_many(self, idx_list: list[np.ndarray]) -> np.ndarray:
        """Stacked full-space histograms, one flattened ``bincount``."""
        k = len(idx_list)
        stride = self.binned.total_bins * self.n_classes
        if k == 1:
            flat = self.addr[idx_list[0]]
        else:
            nid = np.repeat(
                np.arange(k),
                np.fromiter((a.size for a in idx_list), np.int64, count=k),
            )
            flat = self.addr[np.concatenate(idx_list)] + (nid * stride)[:, None]
        return np.bincount(flat.ravel(), minlength=k * stride).reshape(
            k, self.binned.total_bins, self.n_classes
        )

    def _sampled_features(self, k: int) -> np.ndarray | None:
        """(k, max_features) sorted sampled feature ids, one batched draw.

        Each frontier node samples ``max_features`` features without
        replacement via one ``rng.random((k, n_features))`` key matrix
        and a per-row partial sort (the smallest keys win) -- a single
        generator call per frontier chunk instead of one ``rng.choice``
        per node.  Chunk boundaries are a pure function of the data, so
        the draw stream -- and therefore the fitted tree -- is a pure
        function of the tree seed, and identical across ``workers=1/N``.
        Returns ``None`` when every feature is in play.
        """
        p = self.params
        nf = self.binned.n_features
        if p.max_features is None or p.max_features >= nf:
            return None
        assert p.rng is not None
        keys = p.rng.random((k, nf))
        picked = np.argpartition(keys, p.max_features - 1, axis=1)
        return np.sort(picked[:, :p.max_features], axis=1)

    def _split_chunk(self, chunk: list, depth: int) -> list:
        """Split every node of one frontier chunk; return the next frontier."""
        k = len(chunk)
        sizes = np.fromiter((e[2].size for e in chunk), np.int64, count=k)
        big = (
            chunk[0][2] if k == 1
            else np.concatenate([e[2] for e in chunk])
        )
        node_ids = np.repeat(np.arange(k), sizes)
        ok, f_best, b_best, nl_best, lcf, il_l, rcf, ir_l = self._score_chunk(
            chunk, sizes, big, node_ids
        )
        if not ok.any():
            return []

        # One stable argsort partitions every splitting node's rows into
        # (left, right) runs at once: key = 2*node + went_right, stable
        # so rows keep their ancestral order inside each run.
        sel = ok[node_ids]
        rows = big[sel]
        nid = node_ids[sel]
        went_right = self.binned.codes[rows, f_best[nid]] > b_best[nid]
        rows = rows[np.argsort(nid * 2 + went_right, kind="stable")]

        split_ids = np.nonzero(ok)[0]
        child_sizes = np.empty(2 * split_ids.size, dtype=np.int64)
        child_sizes[0::2] = nl_best[split_ids]
        child_sizes[1::2] = sizes[split_ids] - nl_best[split_ids]
        bounds = np.concatenate(([0], np.cumsum(child_sizes)))

        # Record the level's splits as node rows.  Real-space thresholds
        # are gathered for all winners in one fancy-indexing step over
        # the concatenated edge array; children take the next ids in
        # split order, left then right.
        base = self._n_nodes
        self._n_nodes += 2 * split_ids.size
        chunk_ids = np.fromiter((e[0] for e in chunk), np.int64, count=k)
        self._splits.append((
            chunk_ids[split_ids],
            f_best[split_ids],
            self._flat_thresholds[
                self._thr_offsets[f_best[split_ids]] + b_best[split_ids]
            ],
            np.stack((lcf[split_ids], rcf[split_ids]), axis=1).reshape(
                -1, self.n_classes
            ),
        ))

        # Plain-int/float views for the frontier loop below: indexing
        # Python lists beats numpy scalar extraction when the loop runs
        # once per split node of a many-thousand-node level.
        cs_l = child_sizes.tolist()
        bounds_l = bounds.tolist()
        depth1 = depth + 1
        sampled = self.use_sampled
        p = self.params
        min_split = p.min_samples_split
        depth_ok = p.max_depth is None or depth1 < p.max_depth

        nxt: list = []
        scan_entries: list[tuple[int | None, float, np.ndarray]] = []
        derive: list[tuple[int, np.ndarray, int, float, np.ndarray]] = []
        for s, i in enumerate(split_ids.tolist()):
            hist = chunk[i][3]
            left = base + 2 * s
            right = left + 1
            li = il_l[i]
            ri = ir_l[i]
            ln = cs_l[2 * s]
            rn = cs_l[2 * s + 1]
            li_idx = rows[bounds_l[2 * s]:bounds_l[2 * s + 1]]
            ri_idx = rows[bounds_l[2 * s + 1]:bounds_l[2 * s + 2]]
            # The stop conditions, inlined: the call + attribute traffic
            # is measurable at two checks per split of a deep level.
            lgrow = depth_ok and li > _EPS and ln >= min_split
            rgrow = depth_ok and ri > _EPS and rn >= min_split
            if sampled:
                # Compact sampled scoring re-histograms each level
                # directly; no per-node histogram flows down.
                if lgrow:
                    nxt.append((left, li, li_idx, None))
                if rgrow:
                    nxt.append((right, ri, ri_idx, None))
                continue
            if not (lgrow or rgrow):
                continue
            (small, small_imp, small_idx, small_grow,
             large, large_imp, large_idx, large_grow) = (
                (left, li, li_idx, lgrow, right, ri, ri_idx, rgrow)
                if li_idx.size <= ri_idx.size
                else (right, ri, ri_idx, rgrow, left, li, li_idx, lgrow)
            )
            # Sibling subtraction: re-scan only the smaller child (all
            # scans of the level share one bincount below); a growing
            # larger child takes parent-minus-sibling instead.  A small
            # child that stops growing is scanned purely to derive its
            # sibling and leaves the frontier after the subtraction.
            scan_pos = len(scan_entries)
            scan_entries.append(
                (small if small_grow else None, small_imp, small_idx)
            )
            if large_grow:
                derive.append((scan_pos, hist, large, large_imp, large_idx))

        if sampled or not scan_entries:
            return nxt
        scanned = self._scan_many([e[2] for e in scan_entries])
        for pos, (node, impurity, node_idx) in enumerate(scan_entries):
            if node is not None:
                nxt.append((node, impurity, node_idx, scanned[pos]))
        for pos, parent_hist, node, impurity, node_idx in derive:
            nxt.append((node, impurity, node_idx, parent_hist - scanned[pos]))
        return nxt

    def _score_chunk(self, chunk: list, sizes: np.ndarray,
                     big: np.ndarray, node_ids: np.ndarray) -> tuple:
        """Score every (node, feature, boundary) candidate of a chunk.

        Returns ``(ok, f_best, b_best, nl_best, left_counts,
        left_impurity, right_counts, right_impurity)``: ``ok`` marks
        nodes that split, ``f_best``/``b_best`` are the winning feature
        and bin boundary per node, and the last four give each node's
        child leaf values and impurities.  ``big``/``node_ids`` are the
        chunk's concatenated row indices and their node ownership (the
        compact sampled scan histograms them directly).
        """
        k = len(chunk)
        c = self.n_classes
        n_node = sizes
        feat = self._sampled_features(k) if self.use_sampled else None
        if feat is None:
            # Every feature in play: cumsum the frontier histograms
            # along the full flat bin axis.
            hist = (
                chunk[0][3][None] if k == 1
                else np.stack([e[3] for e in chunk])
            )
            csum = np.cumsum(hist, axis=1)
            totals = csum[:, self.n_bins[0] - 1, :]        # every row, once
            pe = np.zeros((k, self.binned.n_features, c), dtype=csum.dtype)
            if self.binned.n_features > 1:
                pe[:, 1:, :] = csum[:, self.offsets[1:] - 1, :]
            lc = csum - np.repeat(pe, self.n_bins, axis=1)
            lc4 = None
            valid = np.broadcast_to(
                self.boundary_ok, (k, lc.shape[1])
            ).copy()
            max_nb = 0
        else:
            # Feature subsampling: one bincount histograms every
            # (node, sampled slot, class, bin) cell of the level at
            # once -- rows are scanned per *sampled* feature (mf of F),
            # and the broadcast score arrays shrink to the padded
            # compact layout.  Bins are the innermost axis so the
            # per-slot cumsum runs over contiguous memory.
            mf = feat.shape[1]
            max_nb = self.max_nb
            stride = mf * max_nb * c
            codes_rows = self.binned.codes[big[:, None], feat[node_ids]]
            a = codes_rows.astype(np.int64)
            a += (node_ids * stride)[:, None]
            a += (np.arange(mf) * (max_nb * c))[None, :]
            a += (self.y32[big] * max_nb)[:, None]
            ch = np.bincount(a.ravel(), minlength=k * stride).reshape(
                k, mf, c, max_nb
            )
            lc4 = np.cumsum(ch, axis=3)
            totals = lc4[:, 0, :, -1]                      # every row, once
            lc = None
            nbf = self.n_bins[feat]                        # (k, mf)
            valid = (
                np.arange(max_nb)[None, None, :] < nbf[:, :, None] - 1
            ).reshape(k, mf * max_nb)

        ar = np.arange(k)

        if self.criterion == "gini":
            # Weighted child Gini rearranges to
            # (n - sum lc^2/nl - sum rc^2/nr) / n: minimising it is
            # maximising g = sum lc^2/nl + sum rc^2/nr.  With
            # rc = tot - lc, sum rc^2 = sum tot^2 - 2 sum tot*lc
            # + sum lc^2, so the whole score needs three einsum
            # reductions over the cumulative counts and never
            # materialises a right-child array.  Counts are exact in
            # float64 (far below 2**53), so the scores -- and hence the
            # chosen splits -- are identical to integer arithmetic.
            if lc4 is None:
                # Full-space layout (k, bins, classes): view as the
                # one-slot class-major block the einsums expect.
                lc4f = np.ascontiguousarray(
                    lc.astype(np.float64).transpose(0, 2, 1)
                )[:, None, :, :]
                width = lc.shape[1]
            else:
                lc4f = lc4.astype(np.float64)
                width = max_nb
            nl = np.einsum("kfcb->kfb", lc4f).reshape(k, -1)
            nr = n_node[:, None] - nl
            valid &= (nl > 0) & (nr > 0)
            totf = totals.astype(np.float64)
            e_ll = np.einsum("kfcb,kfcb->kfb", lc4f, lc4f).reshape(k, -1)
            e_tl = np.einsum("kc,kfcb->kfb", totf, lc4f).reshape(k, -1)
            tot2 = np.einsum("kc,kc->k", totf, totf)
            # g is assembled in place on the einsum outputs -- the
            # value at every position is the same expression
            # e_ll/nl + (tot2 - 2*e_tl + e_ll)/nr, just without fresh
            # (k, positions) temporaries per operator.
            g = e_tl
            g *= -2.0
            g += tot2[:, None]
            g += e_ll
            np.maximum(nr, 1.0, out=nr)
            g /= nr
            e_ll /= np.maximum(nl, 1.0)
            g += e_ll
            g[~valid] = -np.inf
            best_pos = np.argmax(g, axis=1)
            has = np.isfinite(g[ar, best_pos])
            nl_best = nl[ar, best_pos]
            nr_best = n_node - nl_best
            lc_best = lc4f[ar, best_pos // width, :, best_pos % width]
            rc_best = totf - lc_best
            # Exact impurities/score only at the k winning positions,
            # with the same arithmetic the full formula uses.
            pl = lc_best / np.maximum(nl_best, _EPS)[:, None]
            pr = rc_best / np.maximum(nr_best, _EPS)[:, None]
            il_best = 1.0 - np.sum(pl * pl, axis=1)
            ir_best = 1.0 - np.sum(pr * pr, axis=1)
        else:
            if lc is None:
                lc = np.ascontiguousarray(
                    lc4.transpose(0, 1, 3, 2)
                ).reshape(k, mf * max_nb, c)
            nl = lc.sum(axis=2)
            nr = n_node[:, None] - nl
            valid &= (nl > 0) & (nr > 0)
            rc = totals[:, None, :] - lc
            pl = lc / np.maximum(nl, _EPS)[:, :, None]
            pr = rc / np.maximum(nr, _EPS)[:, :, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                il = -np.sum(np.where(pl > 0, pl * np.log(pl), 0.0), axis=2)
                ir = -np.sum(np.where(pr > 0, pr * np.log(pr), 0.0), axis=2)
            weighted = (nl * il + nr * ir) / n_node[:, None]
            weighted[~valid] = np.inf
            best_pos = np.argmin(weighted, axis=1)
            has = np.isfinite(weighted[ar, best_pos])
            nl_best = nl[ar, best_pos]
            nr_best = n_node - nl_best
            lc_best = lc[ar, best_pos]
            rc_best = totals - lc_best
            il_best = il[ar, best_pos]
            ir_best = ir[ar, best_pos]

        best_w = (nl_best * il_best + nr_best * ir_best) / n_node
        impurity = np.fromiter((e[1] for e in chunk), float, count=k)
        decrease = impurity - best_w
        p = self.params
        ok = (
            has
            & (nl_best >= p.min_samples_leaf)
            & (nr_best >= p.min_samples_leaf)
            & (decrease >= p.min_impurity_decrease)
        )
        if feat is None:
            f_best = np.searchsorted(self.offsets, best_pos, side="right") - 1
            b_best = best_pos - self.offsets[f_best]
        else:
            b_best = best_pos % max_nb
            f_best = feat[ar, best_pos // max_nb]
        if ok.any():
            np.add.at(self.importance_acc, f_best[ok],
                      (n_node * decrease)[ok])

        lcf = lc_best.astype(float)
        rcf = rc_best.astype(float)
        return (ok, f_best, b_best, nl_best,
                lcf, il_best.tolist(), rcf, ir_best.tolist())
