"""Price clustering into classes (paper section 5.1 / 5.4).

The paper normalises charge prices with a log transform, then clusters
them into 4 classes "using an unsupervised equidistance model that
finds the optimal splits between given prices using a method of
leave-one-out estimate of the entropy of values in each class".

We implement that as 1-D Lloyd iteration in log space initialised from
equidistant (equal-width) cuts -- the "equidistance model" refined to
optimal splits.  The class-count ablation compares binnings by
classifier accuracy and AUCROC instead of an entropy score.  Each class
carries a representative CPM (the in-class median), which is how a
predicted class converts back into an estimated encrypted price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class PriceBinner:
    """A fitted log-space price binning.

    ``cuts`` are the (n_classes - 1) log-price boundaries;
    ``representatives`` are the per-class median CPM prices.
    """

    cuts: tuple[float, ...]
    representatives: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    def assign(self, prices: Iterable[float]) -> np.ndarray:
        """Class index (0..n_classes-1) for each price."""
        arr = np.asarray(list(prices), dtype=float)
        if np.any(arr <= 0):
            raise ValueError("prices must be positive")
        return np.searchsorted(np.asarray(self.cuts), np.log(arr), side="right")

    def estimate(self, classes: Iterable[int]) -> np.ndarray:
        """Vectorised class -> representative CPM mapping."""
        reps = np.asarray(self.representatives)
        return reps[np.asarray(list(classes), dtype=int)]

    def to_dict(self) -> dict:
        """JSON-compatible form (shipped inside the client model)."""
        return {
            "cuts": list(self.cuts),
            "representatives": list(self.representatives),
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PriceBinner":
        return cls(
            cuts=tuple(float(c) for c in payload["cuts"]),
            representatives=tuple(float(r) for r in payload["representatives"]),
            counts=tuple(int(c) for c in payload["counts"]),
        )


def fit_price_binner(
    prices: Sequence[float],
    n_classes: int = 4,
    max_iterations: int = 100,
) -> PriceBinner:
    """Fit the paper's 4-class price clustering.

    Equal-width initial cuts over the log-price range, then Lloyd
    iterations: assign points to the nearest centroid, recompute
    centroids, cuts at midpoints.  Empty classes are re-seeded from the
    widest class so all ``n_classes`` survive.
    """
    arr = np.asarray(list(prices), dtype=float)
    if arr.size < n_classes:
        raise ValueError(
            f"need at least {n_classes} prices to form {n_classes} classes"
        )
    if np.any(arr <= 0):
        raise ValueError("prices must be positive")
    logs = np.sort(np.log(arr))

    lo, hi = logs[0], logs[-1]
    if hi - lo < 1e-12:
        raise ValueError("prices are all identical; cannot form classes")
    centroids = lo + (np.arange(n_classes) + 0.5) * (hi - lo) / n_classes

    for _ in range(max_iterations):
        cuts = (centroids[:-1] + centroids[1:]) / 2.0
        labels = np.searchsorted(cuts, logs, side="right")
        new_centroids = centroids.copy()
        for k in range(n_classes):
            members = logs[labels == k]
            if members.size:
                new_centroids[k] = members.mean()
            else:
                # Re-seed an empty class inside the widest populated one.
                widest = int(np.argmax(np.bincount(labels, minlength=n_classes)))
                seed = logs[labels == widest]
                new_centroids[k] = float(np.median(seed))
        new_centroids.sort()
        if np.allclose(new_centroids, centroids, atol=1e-10):
            centroids = new_centroids
            break
        centroids = new_centroids

    cuts = (centroids[:-1] + centroids[1:]) / 2.0
    labels = np.searchsorted(cuts, logs, side="right")
    representatives = []
    counts = []
    for k in range(n_classes):
        members = logs[labels == k]
        counts.append(int(members.size))
        if members.size:
            representatives.append(float(np.exp(np.median(members))))
        else:
            representatives.append(float(np.exp(centroids[k])))
    return PriceBinner(
        cuts=tuple(float(c) for c in cuts),
        representatives=tuple(representatives),
        counts=tuple(counts),
    )

