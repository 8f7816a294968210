"""Classification and regression metrics.

The paper reports its classifier quality as weighted averages across
price classes: TP rate 82.9%, FP rate 6.8%, precision 83.5%, recall
82.9%, and weighted AUCROC 0.964 (section 5.4).  These are the Weka-style
definitions: per-class one-vs-rest rates, averaged with class-support
weights.  This module implements exactly those, plus the regression
errors used to reject the regression baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int],
                     n_classes: int | None = None) -> np.ndarray:
    """Confusion matrix ``C[i, j]``: true class ``i`` predicted as ``j``."""
    yt = np.asarray(y_true, dtype=int)
    yp = np.asarray(y_pred, dtype=int)
    if yt.shape != yp.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if yt.size == 0:
        raise ValueError("empty label arrays")
    if n_classes is None:
        n_classes = int(max(yt.max(), yp.max())) + 1
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(matrix, (yt, yp), 1)
    return matrix


def accuracy(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Fraction of exactly correct predictions."""
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    if yt.size == 0:
        raise ValueError("empty label arrays")
    return float(np.mean(yt == yp))


@dataclass(frozen=True)
class ClassificationReport:
    """Weighted-average one-vs-rest classification metrics (Weka style)."""

    accuracy: float
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f1: float
    auc_roc: float | None
    per_class: dict[int, dict[str, float]]
    support: dict[int, int]

    def worst_class_gap(self, metric: str = "recall") -> float:
        """Largest shortfall of any class below the weighted average.

        The paper notes "no class performing worse than 5% from the
        average"; this returns that gap so tests can assert it.
        """
        average = getattr(self, metric)
        values = [stats[metric] for stats in self.per_class.values()]
        return max((average - v for v in values), default=0.0)


def _binary_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC via the Mann-Whitney rank statistic (ties handled)."""
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    order = np.argsort(np.concatenate([pos, neg]), kind="mergesort")
    ranks = np.empty(order.size, dtype=float)
    combined = np.concatenate([pos, neg])[order]
    # Average ranks over tie groups.
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and combined[j + 1] == combined[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum_pos = ranks[: pos.size].sum()
    u = rank_sum_pos - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def roc_auc_ovr_weighted(y_true: Sequence[int], probabilities: np.ndarray) -> float:
    """Support-weighted one-vs-rest ROC AUC for a multi-class problem.

    ``probabilities`` is an ``(n_samples, n_classes)`` matrix of class
    scores (need not be normalised).  Classes absent from ``y_true`` are
    skipped.
    """
    yt = np.asarray(y_true, dtype=int)
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2 or probs.shape[0] != yt.size:
        raise ValueError("probabilities must be (n_samples, n_classes)")
    total = 0.0
    weight_sum = 0
    for cls in np.unique(yt):
        labels = yt == cls
        support = int(labels.sum())
        if support == 0 or support == yt.size:
            continue
        auc = _binary_auc(labels, probs[:, cls])
        if np.isnan(auc):
            continue
        total += auc * support
        weight_sum += support
    if weight_sum == 0:
        raise ValueError("AUC undefined: need at least two classes present")
    return total / weight_sum


def classification_report(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    probabilities: np.ndarray | None = None,
    n_classes: int | None = None,
) -> ClassificationReport:
    """Full weighted-average report matching the paper's section 5.4."""
    matrix = confusion_matrix(y_true, y_pred, n_classes)
    n = matrix.sum()
    classes = range(matrix.shape[0])

    per_class: dict[int, dict[str, float]] = {}
    support: dict[int, int] = {}
    for cls in classes:
        tp = matrix[cls, cls]
        fn = matrix[cls].sum() - tp
        fp = matrix[:, cls].sum() - tp
        tn = n - tp - fn - fp
        cls_support = int(tp + fn)
        if cls_support == 0:
            continue
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn)
        fp_rate = fp / (fp + tn) if (fp + tn) > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if (precision + recall) > 0 else 0.0)
        per_class[cls] = {
            "tp_rate": float(recall),
            "fp_rate": float(fp_rate),
            "precision": float(precision),
            "recall": float(recall),
            "f1": float(f1),
        }
        support[cls] = cls_support

    total_support = sum(support.values())

    def weighted(metric: str) -> float:
        return sum(per_class[c][metric] * support[c] for c in per_class) / total_support

    auc = None
    if probabilities is not None:
        auc = roc_auc_ovr_weighted(y_true, probabilities)

    return ClassificationReport(
        accuracy=accuracy(y_true, y_pred),
        tp_rate=weighted("tp_rate"),
        fp_rate=weighted("fp_rate"),
        precision=weighted("precision"),
        recall=weighted("recall"),
        f1=weighted("f1"),
        auc_roc=auc,
        per_class=per_class,
        support=support,
    )


def mean_squared_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Mean squared error."""
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.size == 0:
        raise ValueError("empty arrays")
    return float(np.mean((yt - yp) ** 2))


def root_mean_squared_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Root mean squared error."""
    return float(np.sqrt(mean_squared_error(y_true, y_pred)))


def r2_score(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Coefficient of determination R^2."""
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.size == 0:
        raise ValueError("empty arrays")
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0 if ss_res > 0 else 1.0
    return 1.0 - ss_res / ss_tot
