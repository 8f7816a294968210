"""Descriptive statistics used throughout the evaluation.

The paper reports price distributions as percentile boxes (5th, 10th,
50th, 90th, 95th -- Figures 5, 6, 7, 10, 13) and CDFs (Figures 11, 16,
17).  These helpers compute those summaries from raw price arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Percentile levels used by the paper's box-style figures.
PAPER_PERCENTILES = (5, 10, 50, 90, 95)


@dataclass(frozen=True)
class PercentileSummary:
    """Five-number percentile summary of one sample (paper box plots)."""

    count: int
    p5: float
    p10: float
    p50: float
    p90: float
    p95: float
    mean: float
    std: float

    @property
    def median(self) -> float:
        """Alias for the 50th percentile."""
        return self.p50

    @property
    def spread(self) -> float:
        """The p95-p5 range: the paper's notion of price "fluctuation"."""
        return self.p95 - self.p5


def summarize(values: Iterable[float]) -> PercentileSummary:
    """Compute the paper's percentile summary over a sample.

    Raises :class:`ValueError` on an empty sample -- an empty price group
    signals an upstream filtering bug and should never be silently
    summarised as NaNs.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    p5, p10, p50, p90, p95 = np.percentile(arr, PAPER_PERCENTILES)
    return PercentileSummary(
        count=int(arr.size),
        p5=float(p5),
        p10=float(p10),
        p50=float(p50),
        p90=float(p90),
        p95=float(p95),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


def summarize_groups(groups: Mapping[str, Sequence[float]]) -> dict[str, PercentileSummary]:
    """Percentile summary per named group, skipping empty groups."""
    return {name: summarize(vals) for name, vals in groups.items() if len(vals) > 0}


@dataclass(frozen=True)
class Cdf:
    """Empirical CDF of a sample.

    ``xs`` are the sorted sample values and ``ps`` the cumulative
    probabilities ``i/n`` so that ``ps[i]`` is the fraction of the sample
    less than or equal to ``xs[i]``.
    """

    xs: np.ndarray
    ps: np.ndarray

    @classmethod
    def from_sample(cls, values: Iterable[float]) -> "Cdf":
        arr = np.sort(np.asarray(list(values), dtype=float))
        if arr.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        ps = np.arange(1, arr.size + 1, dtype=float) / arr.size
        return cls(xs=arr, ps=ps)

    def evaluate(self, x: float) -> float:
        """Fraction of the sample <= ``x``."""
        return float(np.searchsorted(self.xs, x, side="right")) / self.xs.size

    def quantile(self, p: float) -> float:
        """Smallest sample value whose CDF is >= ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level must be in [0,1], got {p}")
        if p == 0.0:
            return float(self.xs[0])
        idx = int(np.ceil(p * self.xs.size)) - 1
        return float(self.xs[idx])

    def __len__(self) -> int:
        return int(self.xs.size)


def fraction_below(values: Iterable[float], threshold: float) -> float:
    """Fraction of sample values strictly below ``threshold``."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(arr < threshold))
