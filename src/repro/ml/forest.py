"""Random Forests with OOB score, Gini importances and parallel fit.

The paper uses Random Forests twice: (1) for dimensionality reduction,
ranking semantic feature groups by their power to explain the cleartext
price classes (section 5.1), chosen over PCA because RF "takes into
account the target variable ... maintains interpretability of features
and generally does not overfit"; and (2) as the encrypted-price
classifier itself (section 5.4).  Both uses need feature importances,
out-of-bag error, and class-probability outputs for AUCROC -- all
implemented here.

Scale design notes
------------------

* **Class-space alignment.**  The forest validates that labels are
  contiguous ``0..K-1`` and pins every member tree to the forest's
  class space (``DecisionTreeClassifier.fit(..., n_classes=K)``), so a
  bootstrap sample that misses the highest price class still yields a
  full-width ``predict_proba``.  Trees from a narrower class space
  (e.g. a version-1 serialised payload) are aligned once, at load:
  :func:`repro.ml.serialize.forest_from_dict` builds each one's leaf
  probabilities straight into the forest's ``K`` columns.  Leaf count
  vectors index by ``np.bincount`` label, so tree column ``j`` is class
  label ``j``.
* **Parallel training.**  ``workers > 1`` fits member trees across a
  process pool.  Every tree's randomness is fully determined by
  ``derive_seed(seed, f"tree-{t}")`` (bootstrap draw and per-split
  feature subsampling share the tree's own generator), and per-tree
  results are merged strictly in tree order, so a parallel fit is
  **bit-identical** to the sequential one: same trees, same
  ``predict_proba``, same OOB votes, same importances.
* **Arena inference.**  A member tree *is* its contiguous node arrays
  (:mod:`repro.ml.flat`), written by the grower during fit or by the
  loader.  :meth:`_Forest._set_trees` installs the trees together with
  one :class:`repro.ml.flat.FlatForest` arena of all their nodes, and
  ``predict_proba``, ``predict`` and ``apply`` walk every tree at once
  through it, adding leaf rows in tree order.
* **One engine per task.**  The classifier trains with the histogram
  engine (:mod:`repro.ml.histsplit`) over one binned copy of ``x``
  shared by every member tree; the regressor, which only serves the
  section-5.4 regression baseline, grows exact recursive trees.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.ml.flat import FlatForest
from repro.ml.histsplit import BinnedDataset
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.util.parallel import pool_context, resolve_workers
from repro.util.rng import derive_seed

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


# -- per-tree fit routines ---------------------------------------------------
#
# Both the sequential loop and the pool workers run *exactly* these
# functions, which is what makes parallel training bit-identical: the
# only difference between the two paths is which process executes them.

def _fit_classifier_tree(
    t: int,
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    seed: int,
    bootstrap: bool,
    want_oob: bool,
    tree_kwargs: dict,
    binned: BinnedDataset,
) -> tuple[DecisionTreeClassifier, np.ndarray | None, np.ndarray | None]:
    """Fit member tree ``t``; returns (tree, oob_rows, oob_probs)."""
    n = x.shape[0]
    rng = np.random.default_rng(derive_seed(seed, f"tree-{t}"))
    indices = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    tree = DecisionTreeClassifier(rng=rng, **tree_kwargs)
    # The forest binned ``x`` once; trees grow over bootstrap *index
    # subsets* of the shared codes matrix instead of materialising
    # ``x[indices]`` copies per tree.
    tree.fit(x, y, sample_indices=indices, n_classes=n_classes, binned=binned)
    oob_rows: np.ndarray | None = None
    oob_probs: np.ndarray | None = None
    if want_oob and bootstrap:
        mask = np.ones(n, dtype=bool)
        mask[indices] = False
        if mask.any():
            oob_rows = np.flatnonzero(mask)
            oob_probs = tree.predict_proba(x[oob_rows])
    return tree, oob_rows, oob_probs


def _fit_regressor_tree(
    t: int,
    x: np.ndarray,
    y: np.ndarray,
    seed: int,
    tree_kwargs: dict,
) -> DecisionTreeRegressor:
    """Fit regressor member tree ``t``."""
    n = x.shape[0]
    rng = np.random.default_rng(derive_seed(seed, f"rtree-{t}"))
    indices = rng.integers(0, n, size=n)
    return DecisionTreeRegressor(rng=rng, **tree_kwargs).fit(x[indices], y[indices])


# -- pool plumbing -----------------------------------------------------------

_FIT_CTX: dict | None = None


def _init_fit_worker(ctx: dict) -> None:
    """Pool initializer: stash the training context once per process."""
    global _FIT_CTX
    _FIT_CTX = ctx


def _fit_tree_task(t: int):
    """Pool task: fit tree ``t`` using the per-process context."""
    ctx = _FIT_CTX
    if ctx is None:
        raise RuntimeError("fit worker used before _init_fit_worker")
    if ctx["kind"] == "classifier":
        return _fit_classifier_tree(
            t, ctx["x"], ctx["y"], ctx["n_classes"], ctx["seed"],
            ctx["bootstrap"], ctx["want_oob"], ctx["tree_kwargs"],
            ctx["binned"],
        )
    return _fit_regressor_tree(
        t, ctx["x"], ctx["y"], ctx["seed"], ctx["tree_kwargs"]
    )


def _map_tree_fits(ctx: dict, n_estimators: int, workers: int) -> list:
    """Run the per-tree fits, in a pool when ``workers > 1``.

    Results are always returned **in tree order** (``pool.map``
    preserves input order), so downstream accumulation is independent
    of worker scheduling.
    """
    if workers <= 1:
        _init_fit_worker(ctx)
        try:
            return [_fit_tree_task(t) for t in range(n_estimators)]
        finally:
            globals()["_FIT_CTX"] = None
    pool_ctx = pool_context()
    chunksize = max(1, n_estimators // (workers * 4))
    with pool_ctx.Pool(
        processes=workers, initializer=_init_fit_worker, initargs=(ctx,)
    ) as pool:
        return pool.map(_fit_tree_task, range(n_estimators), chunksize=chunksize)


def _validate_labels(y: np.ndarray) -> int:
    """Contiguity gate: labels must be exactly ``0..K-1``; returns K.

    ``y.max() + 1`` silently allocated phantom classes for skipped ids
    and crashed downstream for negative ones; make both loud.
    """
    classes = np.unique(y)
    if classes.size == 0:
        raise ValueError("cannot fit on zero samples")
    if classes[0] < 0:
        raise ValueError(
            f"class labels must be non-negative integers; got min {classes[0]}"
        )
    if not np.array_equal(classes, np.arange(classes.size)):
        raise ValueError(
            "class labels must be contiguous 0..K-1 (re-encode before fitting); "
            f"got {classes.tolist()}"
        )
    return int(classes.size)


class _Forest:
    """Fitted state and inference shared by both forests.

    ``trees_`` is read-only: :meth:`_set_trees` is the one way to
    install member trees, and it builds the arena (``flat_``) from the
    same trees, so the two never disagree.
    """

    n_features_: int = 0
    _trees: tuple = ()
    flat_: FlatForest | None = None

    @property
    def trees_(self) -> tuple:
        """The fitted member trees, in tree order."""
        return self._trees

    def _set_trees(self, trees: Sequence) -> None:
        """Install member trees and the inference arena built from them."""
        self._trees = tuple(trees)
        with obs.span("forest.arena", trees=len(self._trees)):
            self.flat_ = arena = FlatForest.from_trees(
                [tree.flat_ for tree in self._trees]
            )
            # Each tree keeps its own child ids but reads its other
            # columns from the arena, so a model holds them once.
            for tree, root in zip(self._trees, arena.roots):
                flat = tree.flat_
                span = slice(root, root + flat.n_nodes)
                flat.feature = arena.feature[span]
                flat.threshold = arena.threshold[span]
                flat.value = arena.value[span]

    def _matrix(self, x) -> np.ndarray:
        """``x`` as a float matrix of the fitted width; a 1-D ``x`` is one row."""
        if self.flat_ is None:
            raise RuntimeError("forest is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has shape {x.shape}; the forest was fitted on "
                f"{self.n_features_} features"
            )
        return x


class RandomForestClassifier(_Forest):
    """Bootstrap-aggregated CART classifier with feature subsampling.

    ``workers`` controls *training* parallelism only (process pool, one
    member tree per task); it is a runtime knob, excluded from the
    serialised hyperparameters, and ``workers=N`` is guaranteed
    bit-identical to ``workers=1``.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features: int | str | None = "sqrt",
        criterion: str = "gini",
        bootstrap: bool = True,
        oob_score: bool = False,
        seed: int = 0,
        workers: int | None = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.seed = int(seed)
        self.workers = workers
        self.n_classes_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self.oob_score_: float | None = None

    def _tree_kwargs(self) -> dict:
        return dict(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            criterion=self.criterion,
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("bad shapes for x/y")
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot fit on zero samples")
        self.n_features_ = x.shape[1]
        self.n_classes_ = _validate_labels(y)

        oob_votes = (
            np.zeros((n, self.n_classes_), dtype=float) if self.oob_score else None
        )
        importances = np.zeros(self.n_features_)

        # Quantise once per forest; the codes matrix is shared
        # read-only with fork-pool workers (copy-on-write pages).
        with obs.stage("forest.bin", rows=n, features=self.n_features_) as st:
            binned = BinnedDataset.from_matrix(x)
            st.set(total_bins=binned.total_bins)

        ctx = dict(
            kind="classifier",
            x=x,
            y=y,
            n_classes=self.n_classes_,
            seed=self.seed,
            bootstrap=self.bootstrap,
            want_oob=self.oob_score,
            tree_kwargs=self._tree_kwargs(),
            binned=binned,
        )
        workers = resolve_workers(self.workers, self.n_estimators)
        with obs.stage(
            "forest.fit", trees=self.n_estimators, rows=n, workers=workers
        ) as st:
            results = _map_tree_fits(ctx, self.n_estimators, workers)

            # Merge strictly in tree order: float accumulation order is
            # part of the bit-identical parallel==sequential contract.
            with obs.span("forest.merge"):
                self._set_trees([tree for tree, _, _ in results])
                for tree, oob_rows, oob_probs in results:
                    if tree.feature_importances_ is not None:
                        importances += tree.feature_importances_
                    if oob_votes is not None and oob_rows is not None:
                        oob_votes[oob_rows] += oob_probs

            importances /= self.n_estimators
            total = importances.sum()
            self.feature_importances_ = (
                importances / total if total > 0 else importances
            )

            if oob_votes is not None:
                voted = oob_votes.sum(axis=1) > 0
                if voted.any():
                    oob_pred = np.argmax(oob_votes[voted], axis=1)
                    self.oob_score_ = float(np.mean(oob_pred == y[voted]))
            if self.oob_score_ is not None:
                st.set(oob_score=self.oob_score_)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Average of member-tree leaf class frequencies.

        Every member tree scores in the forest's class space (pinned at
        fit, or widened at load for narrower serialised trees), so leaf
        rows add column for column, in tree order, in one arena walk.
        """
        x = self._matrix(x)
        with obs.span("forest.predict_proba", rows=x.shape[0]):
            return self.flat_.predict_value(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority (probability-averaged) class per row."""
        return np.argmax(self.predict_proba(x), axis=1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Flat-tree leaf id per (row, member tree): shape (n, n_trees)."""
        x = self._matrix(x)
        return self.flat_.apply(x)


class RandomForestRegressor(_Forest):
    """Bootstrap-aggregated CART regressor (regression baseline).

    ``workers`` parallelises training exactly as in
    :class:`RandomForestClassifier` (bit-identical to sequential).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
        workers: int | None = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = int(seed)
        self.workers = workers

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("bad shapes for x/y")
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot fit on zero samples")
        self.n_features_ = x.shape[1]
        ctx = dict(
            kind="regressor",
            x=x,
            y=y,
            seed=self.seed,
            tree_kwargs=dict(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
            ),
        )
        workers = resolve_workers(self.workers, self.n_estimators)
        self._set_trees(_map_tree_fits(ctx, self.n_estimators, workers))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean of member-tree leaf targets, added in tree order."""
        x = self._matrix(x)
        return self.flat_.predict_value(x)[:, 0]
