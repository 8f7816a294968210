"""Cross-validation and data-splitting utilities.

The paper evaluates its classifier with 10-fold cross validation,
averaged over 10 runs (section 5.4).  Stratified folds keep the four
price classes balanced in every fold, matching the "well balanced
groups" the clustering step produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.ml.metrics import ClassificationReport, classification_report
from repro.util.rng import derive_seed


def train_test_split(
    n_samples: int, test_fraction: float = 0.25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Random (train_indices, test_indices) partition of ``range(n)``."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if n_samples < 2:
        raise ValueError("need at least two samples to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_samples)
    n_test = max(1, int(round(n_samples * test_fraction)))
    n_test = min(n_test, n_samples - 1)
    return order[n_test:], order[:n_test]


def stratified_kfold_indices(
    labels: Sequence[int], n_folds: int = 10, seed: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (train, test) index pairs preserving class proportions."""
    y = np.asarray(labels, dtype=int)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        rng.shuffle(members)
        for i, idx in enumerate(members):
            fold_members[i % n_folds].append(int(idx))
    folds = [np.asarray(sorted(m), dtype=int) for m in fold_members]
    for i in range(n_folds):
        test = folds[i]
        if test.size == 0:
            continue
        train = np.concatenate([folds[j] for j in range(n_folds) if j != i])
        yield train, test


@dataclass(frozen=True)
class CrossValidationResult:
    """Aggregate of per-fold classification reports."""

    reports: tuple[ClassificationReport, ...]

    def _mean(self, metric: str) -> float:
        values = [getattr(r, metric) for r in self.reports]
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else float("nan")

    def _std(self, metric: str) -> float:
        values = [getattr(r, metric) for r in self.reports]
        values = [v for v in values if v is not None]
        return float(np.std(values)) if values else float("nan")

    @property
    def accuracy(self) -> float:
        return self._mean("accuracy")

    @property
    def tp_rate(self) -> float:
        return self._mean("tp_rate")

    @property
    def fp_rate(self) -> float:
        return self._mean("fp_rate")

    @property
    def precision(self) -> float:
        return self._mean("precision")

    @property
    def recall(self) -> float:
        return self._mean("recall")

    @property
    def auc_roc(self) -> float:
        return self._mean("auc_roc")

    def summary(self) -> dict[str, float]:
        """The section-5.4 metric row as a dict."""
        return {
            "accuracy": self.accuracy,
            "tp_rate": self.tp_rate,
            "fp_rate": self.fp_rate,
            "precision": self.precision,
            "recall": self.recall,
            "auc_roc": self.auc_roc,
            "accuracy_std": self._std("accuracy"),
        }


ModelFactory = Callable[[], object]


def cross_validate_classifier(
    model_factory: ModelFactory,
    x: np.ndarray,
    y: np.ndarray,
    n_folds: int = 10,
    n_runs: int = 1,
    seed: int = 0,
) -> CrossValidationResult:
    """Stratified k-fold cross validation repeated ``n_runs`` times
    (paper: 10x10).

    ``model_factory`` must return a fresh unfitted model exposing
    ``fit(x, y)``, ``predict(x)`` and ``predict_proba(x)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    reports: list[ClassificationReport] = []
    for run in range(n_runs):
        run_seed = derive_seed(seed, f"cv-run-{run}")
        for train, test in stratified_kfold_indices(y, n_folds, run_seed):
            model = model_factory()
            model.fit(x[train], y[train])  # type: ignore[attr-defined]
            pred = model.predict(x[test])  # type: ignore[attr-defined]
            probs = None
            if hasattr(model, "predict_proba"):
                raw = model.predict_proba(x[test])  # type: ignore[attr-defined]
                probs = np.zeros((len(test), n_classes))
                probs[:, : raw.shape[1]] = raw
            reports.append(
                classification_report(y[test], pred, probs, n_classes=n_classes)
            )
    return CrossValidationResult(reports=tuple(reports))
