"""Two-sample Kolmogorov-Smirnov test.

The paper (footnote 5) confirms that the time-of-day and day-of-week
price distributions, though visually similar, are statistically
different using non-parametric two-sample KS tests at p < 0.0002 and
p < 0.002.  We implement the two-sample KS statistic and its asymptotic
p-value directly: the statistic is small enough to own, the runtime
needs only numpy, and the test suite property-checks it against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class KsResult:
    """Outcome of a two-sample KS test."""

    statistic: float
    pvalue: float
    n1: int
    n2: int


def _kolmogorov_sf(x: float, terms: int = 101) -> float:
    """Survival function of the Kolmogorov distribution.

    ``Q(x) = 2 * sum_{k=1..inf} (-1)^(k-1) exp(-2 k^2 x^2)``.
    """
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms):
        term = math.exp(-2.0 * k * k * x * x)
        total += term if k % 2 == 1 else -term
        if term < 1e-16:
            break
    return float(min(max(2.0 * total, 0.0), 1.0))


def ks_two_sample(sample1: Iterable[float], sample2: Iterable[float]) -> KsResult:
    """Two-sample KS test with asymptotic p-value.

    The statistic is the supremum distance between the two empirical
    CDFs; the p-value uses the classical asymptotic Kolmogorov
    distribution with effective sample size ``n1*n2/(n1+n2)``.
    """
    a = np.sort(np.asarray(list(sample1), dtype=float))
    b = np.sort(np.asarray(list(sample2), dtype=float))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")

    # Evaluate both ECDFs on the pooled support.
    pooled = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, pooled, side="right") / n1
    cdf2 = np.searchsorted(b, pooled, side="right") / n2
    statistic = float(np.max(np.abs(cdf1 - cdf2)))

    effective_n = n1 * n2 / (n1 + n2)
    scaled = (math.sqrt(effective_n) + 0.12 + 0.11 / math.sqrt(effective_n)) * statistic
    pvalue = _kolmogorov_sf(scaled)
    return KsResult(statistic=statistic, pvalue=pvalue, n1=n1, n2=n2)
