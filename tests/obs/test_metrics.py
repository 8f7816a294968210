"""Tests for the metrics registry: counters, gauges, log-bin histograms.

The concurrency gate matters most: serve bumps counters from the event
loop *and* a retrain executor thread, so increments must never be lost
-- the 80-way exactness test here mirrors the serve-level one at the
registry layer.
"""

import json
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_log_bounds,
)


class TestCounter:
    def test_unlabeled_counting(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.total() == 3.5
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self):
        c = Counter("requests")
        c.inc(route="/estimate")
        c.inc(route="/estimate")
        c.inc(route="/model")
        assert c.value(route="/estimate") == 2
        assert c.value(route="/model") == 1
        assert c.total() == 3
        assert c.series() == {"route=/estimate": 2.0, "route=/model": 1.0}

    def test_label_order_does_not_matter(self):
        c = Counter("x")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.value(b=2, a=1) == 2

    def test_to_dict_is_json_serialisable(self):
        c = Counter("x")
        c.inc(kind="a")
        payload = json.loads(json.dumps(c.to_dict()))
        assert payload["type"] == "counter"
        assert payload["total"] == 1


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("inflight")
        g.set(3)
        g.set(7)
        assert g.value() == 7
        assert g.to_dict() == {"type": "gauge", "value": 7.0}


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.004, 1.5):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(0.001 + 0.002 + 0.004 + 1.5)
        assert h.min == 0.001
        assert h.max == 1.5
        assert h.mean == pytest.approx(h.sum / 4)

    def test_quantiles_are_bin_bounded_and_clamped(self):
        h = Histogram("lat")
        for _ in range(100):
            h.observe(0.010)           # all in one factor-2 bin
        q = h.quantile(0.5)
        # The bin upper bound containing 0.010 with factor-2 bins from
        # 1e-6 is ~0.0164; clamping to observed max gives exactly 0.010.
        assert q == pytest.approx(0.010)
        assert h.quantile(0.0) == pytest.approx(0.010)
        assert h.quantile(1.0) == pytest.approx(0.010)

    def test_quantile_orders_across_bins(self):
        h = Histogram("lat")
        for _ in range(90):
            h.observe(0.001)
        for _ in range(10):
            h.observe(10.0)
        assert h.quantile(0.5) < h.quantile(0.99)
        assert h.quantile(0.99) == pytest.approx(10.0)

    def test_empty_histogram_quantile_is_zero(self):
        h = Histogram("lat")
        assert h.quantile(0.9) == 0.0
        assert h.mean == 0.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_default_bounds_span_microseconds_to_kiloseconds(self):
        bounds = default_log_bounds()
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] >= 1024.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_custom_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0, 2.0))

    def test_to_dict_reports_percentiles_and_bins(self):
        h = Histogram("lat")
        h.observe(0.5)
        payload = json.loads(json.dumps(h.to_dict()))
        assert payload["count"] == 1
        assert set(payload) >= {"p50", "p90", "p99", "bins"}
        assert sum(payload["bins"].values()) == 1


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_covers_all_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(0.1)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert set(snap) == {"c", "g", "h"}
        assert reg.names() == ["c", "g", "h"]

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestConcurrency:
    """Increments must be exact under heavy thread interleaving."""

    def test_80_way_counter_exactness(self):
        reg = MetricsRegistry()
        counter = reg.counter("serve.requests")
        histogram = reg.histogram("serve.latency")
        per_thread = 250
        n_threads = 80
        barrier = threading.Barrier(n_threads)

        def worker(tid: int):
            barrier.wait()
            for i in range(per_thread):
                counter.inc(route="/estimate" if i % 2 else "/model")
                histogram.observe(0.001 * (tid + 1))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.total() == n_threads * per_thread
        assert counter.series()["route=/estimate"] == n_threads * (
            per_thread // 2
        )
        assert histogram.count == n_threads * per_thread

    def test_concurrent_creation_yields_one_instance(self):
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(16)

        def worker():
            barrier.wait()
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1
