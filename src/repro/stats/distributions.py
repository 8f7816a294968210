"""Price-distribution modelling helpers.

RTB charge prices are heavy-tailed and strictly positive; both the
measurement literature and our own traces are well described by
lognormal mixtures.  This module provides lognormal fitting and
sampling used by the trace generator's ground-truth price process and
by the analysis code that compares distributions (e.g. the 2015->2016
time shift in section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.util.validation import require_positive


@dataclass(frozen=True)
class LogNormal:
    """Lognormal distribution parameterised by the underlying normal.

    ``mu`` and ``sigma`` are the mean/std of ``log(X)``.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        require_positive(self.sigma, "sigma")

    @property
    def median(self) -> float:
        """Median of the lognormal: ``exp(mu)``."""
        return float(np.exp(self.mu))

    @property
    def mean(self) -> float:
        """Mean of the lognormal: ``exp(mu + sigma^2/2)``."""
        return float(np.exp(self.mu + self.sigma**2 / 2.0))

    @property
    def variance(self) -> float:
        """Variance of the lognormal."""
        s2 = self.sigma**2
        return float((np.exp(s2) - 1.0) * np.exp(2.0 * self.mu + s2))

    def scaled(self, factor: float) -> "LogNormal":
        """Distribution of ``factor * X`` -- shifts ``mu`` by ``log(factor)``.

        Used to express multiplicative price premia (encryption premium,
        year-over-year drift) without changing distribution shape.
        """
        require_positive(factor, "factor")
        return LogNormal(self.mu + float(np.log(factor)), self.sigma)

    @classmethod
    def fit(cls, values: Iterable[float]) -> "LogNormal":
        """Maximum-likelihood fit to positive observations."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size < 2:
            raise ValueError("need at least two observations to fit")
        if np.any(arr <= 0):
            raise ValueError("lognormal fit requires positive observations")
        logs = np.log(arr)
        sigma = float(logs.std(ddof=1))
        if sigma == 0.0:
            # Degenerate sample; use a tiny spread so the object stays usable.
            sigma = 1e-9
        return cls(mu=float(logs.mean()), sigma=sigma)


def median_ratio(sample_a: Iterable[float], sample_b: Iterable[float]) -> float:
    """Ratio of medians ``median(a) / median(b)``.

    The paper's headline "encrypted prices are ~1.7x higher" statement is
    a median ratio between the A1 (encrypted) and A2 (cleartext) campaign
    price samples; the same statistic derives the time-correction
    coefficient in section 6.2.
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    mb = float(np.median(b))
    if mb == 0.0:
        raise ValueError("denominator sample has zero median")
    return float(np.median(a)) / mb
