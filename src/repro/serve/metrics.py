"""Serving metrics, rebuilt on the :mod:`repro.obs` registry.

Each server owns a :class:`repro.obs.metrics.MetricsRegistry`:

* request / response / flush counts are labelled :class:`~repro.obs.
  metrics.Counter` series (``serve.requests{route=/estimate}``), so the
  counts stay **exact** under concurrency (each series add is lock'd;
  the 80-way serve test asserts exactness);
* estimate latency and the micro-batcher's queue-wait / flush split are
  :class:`~repro.obs.metrics.Histogram`\\ s with fixed log-scale bins --
  constant memory, bounded-relative-error percentiles, no ring to sort
  per ``/metrics`` poll.

The raw registry dump is the ``/metrics`` endpoint's ``obs.metrics``
section -- the same payload shape ``repro obs dump`` renders -- and the
only place these counts are served.
"""

from __future__ import annotations

import time

from repro.obs.metrics import MetricsRegistry


class ServeMetrics:
    """All counters/histograms the serve endpoints expose.

    Each server owns its own registry, so two servers in one process
    -- the hot-reload tests run several -- never mix counts.
    """

    def __init__(self):
        self.started_at = time.time()
        self.registry = MetricsRegistry()
        reg = self.registry
        self._requests = reg.counter(
            "serve.requests", "requests per route")
        self._responses = reg.counter(
            "serve.responses", "responses per status class")
        self._flushes = reg.counter(
            "serve.batch.flushes", "micro-batch flushes per batch size")
        self._estimates = reg.counter(
            "serve.estimates", "rows estimated")
        self._estimate_errors = reg.counter(
            "serve.estimate.errors", "failed /estimate requests")
        self._retrains = reg.counter(
            "serve.retrains", "hot-reload retrains per outcome")
        self._model_not_modified = reg.counter(
            "serve.model.not_modified", "/model 304 responses")
        self._latency = reg.histogram(
            "serve.estimate.latency_seconds",
            "end-to-end /estimate latency (submit to result)")
        self._queue_wait = reg.histogram(
            "serve.batch.queue_wait_seconds",
            "per-request wait in the micro-batch queue")
        self._flush_seconds = reg.histogram(
            "serve.batch.flush_seconds",
            "forest-inference time per micro-batch flush")

    # -- observation hooks --------------------------------------------------

    def on_request(self, route: str) -> None:
        self._requests.inc(route=route)

    def on_response(self, status: int) -> None:
        self._responses.inc(status=f"{status // 100}xx")

    def on_batch(self, size: int, seconds: float) -> None:
        self._flushes.inc(size=size)
        self._estimates.inc(size)
        self._flush_seconds.observe(seconds)

    def on_queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(seconds)

    def on_estimate_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def on_estimate_error(self) -> None:
        self._estimate_errors.inc()

    def on_retrain(self, outcome: str) -> None:
        """Count one retrain: ``installed`` or ``failed``."""
        self._retrains.inc(outcome=outcome)

    def on_model_not_modified(self) -> None:
        self._model_not_modified.inc()

    # -- export -------------------------------------------------------------

    def obs_snapshot(self) -> dict:
        """The raw registry dump (the ``/metrics`` ``obs`` section)."""
        return self.registry.snapshot()
