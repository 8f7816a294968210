"""Feature preprocessing: encoders and filters.

The PME's dimensionality-reduction pipeline (paper section 5.1) drops
constant features, drops near-noise features with extreme variance, and
optionally applies a high-correlation filter when no target variable is
available.  Categorical auction metadata (ADX name, city, IAB category,
slot size, ...) is encoded ordinally for the tree models -- decision
trees only need an arbitrary but consistent ordering to split on
category identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np


class OrdinalEncoder:
    """Map categorical values to dense integer codes, column-wise.

    Unknown categories at transform time map to ``-1`` (a code no training
    sample has), which tree models treat as "falls to the left of every
    threshold" -- a deliberate, deterministic handling of unseen values.
    """

    def __init__(self) -> None:
        self.categories_: list[dict[Hashable, int]] = []

    def fit(self, columns: Sequence[Sequence[Hashable]]) -> "OrdinalEncoder":
        """Learn category codes from ``columns`` (list of value-columns)."""
        self.categories_ = []
        for col in columns:
            mapping: dict[Hashable, int] = {}
            for value in col:
                if value not in mapping:
                    mapping[value] = len(mapping)
            self.categories_.append(mapping)
        return self

    def transform(self, columns: Sequence[Sequence[Hashable]]) -> np.ndarray:
        """Encode columns into an ``(n_samples, n_features)`` float matrix."""
        if len(columns) != len(self.categories_):
            raise ValueError(
                f"expected {len(self.categories_)} columns, got {len(columns)}"
            )
        n = len(columns[0]) if columns else 0
        out = np.empty((n, len(columns)), dtype=float)
        for j, (col, mapping) in enumerate(zip(columns, self.categories_)):
            out[:, j] = [mapping.get(v, -1) for v in col]
        return out

    def fit_transform(self, columns: Sequence[Sequence[Hashable]]) -> np.ndarray:
        return self.fit(columns).transform(columns)

    def vocabulary(self, feature: int) -> dict[Hashable, int]:
        """The learned code table for one feature column."""
        return dict(self.categories_[feature])


class Standardizer:
    """Zero-mean unit-variance scaling (used by PCA and regression)."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, matrix: np.ndarray) -> "Standardizer":
        x = np.asarray(matrix, dtype=float)
        self.mean_ = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant columns pass through centred
        self.scale_ = scale
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("Standardizer must be fitted before transform")
        return (np.asarray(matrix, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)


@dataclass
class VarianceFilter:
    """Drop constant and near-noise columns (paper section 5.1).

    The paper filters features "that did not vary at all (constants) or
    had very high variance (99%) (likely to be noise)".  We interpret the
    high end as: drop columns whose variance exceeds the ``upper_quantile``
    quantile of the per-column variance distribution.
    """

    lower: float = 0.0
    upper_quantile: float | None = 0.99
    kept_: np.ndarray | None = field(default=None, repr=False)

    def fit(self, matrix: np.ndarray) -> "VarianceFilter":
        x = np.asarray(matrix, dtype=float)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        variances = x.var(axis=0)
        keep = variances > self.lower
        if self.upper_quantile is not None and x.shape[1] > 1:
            cutoff = np.quantile(variances, self.upper_quantile)
            # Strictly above the cutoff is treated as noise; ties survive.
            keep &= variances <= cutoff
        if not np.any(keep):
            raise ValueError("variance filter would drop every feature")
        self.kept_ = np.flatnonzero(keep)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.kept_ is None:
            raise RuntimeError("VarianceFilter must be fitted before transform")
        return np.asarray(matrix, dtype=float)[:, self.kept_]

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def kept_names(self, names: Sequence[str]) -> list[str]:
        if self.kept_ is None:
            raise RuntimeError("VarianceFilter must be fitted first")
        return [names[i] for i in self.kept_]


@dataclass
class CorrelationFilter:
    """Drop one of each pair of highly correlated columns.

    The paper proposes this as the target-free fallback when cleartext
    prices are too scarce to drive supervised feature selection: features
    carrying (nearly) the same information are collapsed to one
    representative (the earlier column wins, keeping the filter
    deterministic).
    """

    threshold: float = 0.95
    kept_: np.ndarray | None = field(default=None, repr=False)

    def fit(self, matrix: np.ndarray) -> "CorrelationFilter":
        x = np.asarray(matrix, dtype=float)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        n_features = x.shape[1]
        if n_features == 0:
            raise ValueError("no features to filter")
        std = x.std(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(x, rowvar=False)
        corr = np.atleast_2d(corr)
        keep = np.ones(n_features, dtype=bool)
        for i in range(n_features):
            if not keep[i]:
                continue
            for j in range(i + 1, n_features):
                if not keep[j]:
                    continue
                if std[i] == 0.0 or std[j] == 0.0:
                    continue
                if abs(corr[i, j]) >= self.threshold:
                    keep[j] = False
        self.kept_ = np.flatnonzero(keep)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.kept_ is None:
            raise RuntimeError("CorrelationFilter must be fitted before transform")
        return np.asarray(matrix, dtype=float)[:, self.kept_]

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def kept_names(self, names: Sequence[str]) -> list[str]:
        if self.kept_ is None:
            raise RuntimeError("CorrelationFilter must be fitted first")
        return [names[i] for i in self.kept_]


class FrameEncoder:
    """Encode lists of feature dicts into numeric matrices.

    Column types (numeric vs categorical) are decided once at fit time
    and remembered, so inference-time rows are encoded with the exact
    training-time schema.  Numeric values pass through; categorical
    values are ordinally encoded; unseen categories become ``-1``.
    """

    def __init__(self, feature_names: Sequence[str]):
        if not feature_names:
            raise ValueError("feature_names must not be empty")
        self.feature_names = list(feature_names)
        #: ``(name, category codes)`` per column, ``None`` codes for a
        #: numeric column; ``None`` until fitted.
        self._schema: list[tuple[str, dict[Hashable, int] | None]] | None = None

    @staticmethod
    def _is_numeric(value: Hashable) -> bool:
        return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
            value, bool
        )

    def fit(self, rows: Sequence[Mapping[str, Hashable]]) -> "FrameEncoder":
        if not rows:
            raise ValueError("cannot fit an encoder on zero rows")
        columns = [[row.get(name) for row in rows] for name in self.feature_names]
        numeric_mask = [all(self._is_numeric(v) for v in col) for col in columns]
        categorical = [c for c, num in zip(columns, numeric_mask) if not num]
        self._set_schema(numeric_mask, OrdinalEncoder().fit(categorical).categories_)
        return self

    def _set_schema(
        self, numeric_mask: list[bool], tables: list[dict[Hashable, int]]
    ) -> None:
        if (len(numeric_mask) != len(self.feature_names)
                or numeric_mask.count(False) != len(tables)):
            raise ValueError(
                f"{len(self.feature_names)} features need as many type flags "
                "and one category table per categorical flag; got "
                f"{len(numeric_mask)} flags and {len(tables)} tables"
            )
        codes = iter(tables)
        self._schema = [
            (name, None if numeric else next(codes))
            for name, numeric in zip(self.feature_names, numeric_mask)
        ]

    def transform(self, rows: Sequence[Mapping[str, Hashable]]) -> np.ndarray:
        if self._schema is None:
            raise RuntimeError("FrameEncoder must be fitted before transform")
        columns = [
            [-1.0 if (v := row.get(name)) is None else float(v) for row in rows]
            if codes is None
            else [codes.get(row.get(name), -1) for row in rows]
            for name, codes in self._schema
        ]
        # One conversion of the column lists, then a row-major copy (none
        # at one row): the matrix keeps the C order it always had, which
        # reductions over its rows depend on bit for bit.
        return np.ascontiguousarray(np.array(columns, dtype=float).T)

    def fit_transform(self, rows: Sequence[Mapping[str, Hashable]]) -> np.ndarray:
        return self.fit(rows).transform(rows)

    def to_dict(self) -> dict:
        """JSON-compatible form (for shipping fitted encoders to clients)."""
        if self._schema is None:
            raise RuntimeError("FrameEncoder must be fitted before to_dict")
        return {
            "feature_names": list(self.feature_names),
            "numeric_mask": [codes is None for _, codes in self._schema],
            "vocabulary": [
                {str(k): v for k, v in codes.items()}
                for _, codes in self._schema
                if codes is not None
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FrameEncoder":
        """Rebuild a fitted encoder from :meth:`to_dict` output.

        Category keys are restored as strings, which matches the string
        categorical values used throughout the analyzer.
        """
        encoder = cls(list(payload["feature_names"]))
        encoder._set_schema(
            [bool(b) for b in payload["numeric_mask"]],
            [{k: int(v) for k, v in vocab.items()} for vocab in payload["vocabulary"]],
        )
        return encoder
