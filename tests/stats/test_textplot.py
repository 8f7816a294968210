"""Tests for the text chart renderer."""

import numpy as np

from repro.stats.textplot import cdf_plot, percentile_box


class TestCdfPlot:
    def test_monotone_markers(self):
        rng = np.random.default_rng(0)
        lines = cdf_plot({"s": rng.lognormal(0, 1, 500)}, width=30, height=8)
        # 8 canvas rows + axis + legend
        assert len(lines) == 10
        assert "legend: a=s" in lines[-1]

    def test_two_series_distinct_markers(self):
        rng = np.random.default_rng(1)
        lines = cdf_plot(
            {"low": rng.lognormal(0, 0.3, 300), "high": rng.lognormal(1.0, 0.3, 300)},
            width=40,
        )
        joined = "\n".join(lines)
        assert "a=" in joined and "b=" in joined

    def test_empty_series(self):
        assert cdf_plot({}) == ["(no data)"]

    def test_shifted_series_plot_right(self):
        """The higher-priced series' marker appears to the right."""
        rng = np.random.default_rng(2)
        low = rng.lognormal(0, 0.2, 400)
        high = low * 10
        lines = cdf_plot({"low": low, "high": high}, width=40, height=6)
        # On the 50% row, marker a (low) must appear before marker b.
        mid_row = lines[3]
        assert "a" in mid_row and "b" in mid_row
        assert mid_row.index("a") < mid_row.index("b")


class TestPercentileBox:
    def test_median_inside_span(self):
        rng = np.random.default_rng(3)
        lines = percentile_box({"g": rng.lognormal(0, 0.5, 300)}, width=30)
        body = lines[0]
        assert "|" in body
        assert body.index("[") < body.index("|") < body.index("]")

    def test_groups_rendered(self):
        rng = np.random.default_rng(4)
        groups = {"a": rng.lognormal(0, 0.4, 100), "b": rng.lognormal(1, 0.4, 100)}
        lines = percentile_box(groups)
        assert lines[0].startswith("a")
        assert lines[1].startswith("b")
        assert "p50=" in lines[0]

    def test_empty(self):
        assert percentile_box({}) == ["(no data)"]
