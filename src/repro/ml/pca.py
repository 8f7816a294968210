"""Principal Component Analysis.

The paper lists PCA as the alternative dimensionality-reduction
technique to Random-Forest selection (section 5.1) and rejects it for
losing feature interpretability.  We implement it so the ablation
benchmark can quantify that trade-off on our data.
"""

from __future__ import annotations

import numpy as np


class PCA:
    """PCA via singular value decomposition of the centred data matrix."""

    def __init__(self, n_components: int):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "PCA":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        n, d = x.shape
        if self.n_components > min(n, d):
            raise ValueError(
                f"n_components={self.n_components} exceeds min(n_samples, n_features)"
                f"={min(n, d)}"
            )
        self.mean_ = x.mean(axis=0)
        centred = x - self.mean_
        # SVD: rows of vt are principal directions.
        _, singular, vt = np.linalg.svd(centred, full_matrices=False)
        variance = (singular**2) / max(n - 1, 1)
        total = variance.sum()
        self.components_ = vt[: self.n_components]
        self.explained_variance_ = variance[: self.n_components]
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total if total > 0 else self.explained_variance_
        )
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.components_ is None or self.mean_ is None:
            raise RuntimeError("PCA must be fitted before transform")
        x = np.asarray(x, dtype=float)
        return (x - self.mean_) @ self.components_.T

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)
