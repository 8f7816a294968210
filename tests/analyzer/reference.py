"""Test-side aggregations of an :class:`AnalysisResult`.

No product path needs a per-user cleartext sum; the parallel-analyzer
tests use it as one more workers=1 vs N parity check.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analyzer.pipeline import AnalysisResult


def per_user_cleartext_totals(result: AnalysisResult) -> dict[str, float]:
    """Sum of cleartext prices per user (CPM units).

    Cleartext observations whose price failed to parse carry
    ``price_cpm=None``; they are skipped (matching
    :meth:`AnalysisResult.cleartext_prices`) rather than crashing the sum.
    """
    totals: dict[str, float] = defaultdict(float)
    for obs in result.cleartext():
        if obs.price_cpm is not None:
            totals[obs.user_id] += obs.price_cpm
    return dict(totals)
