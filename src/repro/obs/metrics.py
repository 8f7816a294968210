"""Process-local metrics registry: counters, gauges, log-bin histograms.

One registry unifies what used to be bespoke per-subsystem bookkeeping
(the serve layer's ring buffers, ad-hoc benchmark counters).  Metrics
are cheap enough to bump on every request of a heavy-traffic server:

* :class:`Counter` / :class:`Gauge` -- a dict lookup plus a lock'd add
  per observation; optional labels (``counter.inc(route="/estimate")``)
  key independent series inside one metric;
* :class:`Histogram` -- **fixed log-scale bins** (default: factor-2
  buckets from 1 microsecond to ~1000 s), so observing is O(log bins)
  via bisect, memory is constant, and quantiles are read straight off
  the cumulative bin counts -- exact counts/sums, bounded-error
  percentiles, no unbounded sample ring.

Everything serialises to plain JSON (:meth:`MetricsRegistry.snapshot`),
which is the payload of serve's ``GET /metrics`` obs section, the
``repro obs dump`` CLI, and the benchmark sink.

Thread-safety: each metric guards its series dict with a lock (the
serve retrain path touches metrics from an executor thread), and the
registry guards creation, so concurrent increments never lose counts --
``tests/serve`` asserts counter exactness under 80-way concurrency.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_log_bounds",
    "registry",
]


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _key_str(key: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class Counter:
    """Monotonic counter with optional label series."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def series(self) -> dict[str, float]:
        with self._lock:
            return {_key_str(k): v for k, v in sorted(self._values.items())}

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {"type": self.kind, "total": self.total()}
        series = self.series()
        if set(series) != {""}:
            payload["series"] = series
        return payload


class Gauge:
    """Last-write-wins value with optional label series."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def to_dict(self) -> dict:
        with self._lock:
            series = {_key_str(k): v for k, v in sorted(self._values.items())}
        if set(series) == {""}:
            return {"type": self.kind, "value": series.get("", 0.0)}
        return {"type": self.kind, "series": series}


def default_log_bounds(
    lo: float = 1e-6, hi: float = 1024.0, factor: float = 2.0
) -> tuple[float, ...]:
    """Factor-``factor`` log-scale bin upper bounds spanning [lo, hi]."""
    if not (lo > 0 and hi > lo and factor > 1):
        raise ValueError("need 0 < lo < hi and factor > 1")
    n = int(math.ceil(math.log(hi / lo, factor))) + 1
    return tuple(lo * factor ** i for i in range(n))


#: Shared default bounds (seconds): 1 us .. ~1024 s in factor-2 steps.
_DEFAULT_BOUNDS = default_log_bounds()


class Histogram:
    """Fixed log-scale-bin histogram with exact count/sum/min/max.

    ``bounds`` are ascending bin *upper* bounds; one overflow bin is
    implicit.  ``quantile`` reports the upper bound of the bin holding
    the requested rank (clamped to the observed min/max), giving
    bounded-relative-error percentiles from O(bins) memory.
    """

    kind = "histogram"

    def __init__(self, name: str, description: str = "",
                 bounds: Iterable[float] | None = None):
        self.name = name
        self.description = description
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else _DEFAULT_BOUNDS
        )
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) off the bin counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            seen = 0
            for idx, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    upper = (
                        self.bounds[idx]
                        if idx < len(self.bounds)
                        else self.max
                    )
                    assert self.min is not None and self.max is not None
                    assert upper is not None
                    return min(max(upper, self.min), self.max)
            assert self.max is not None  # unreachable: ranks <= count
            return self.max

    def percentiles(
        self, points: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        return {f"p{p}": self.quantile(p / 100.0) for p in points}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def nonzero_bins(self) -> dict[str, int]:
        """``{upper_bound: count}`` for populated bins (JSON-friendly)."""
        out: dict[str, int] = {}
        with self._lock:
            for idx, n in enumerate(self._counts):
                if n:
                    upper = (
                        repr(self.bounds[idx])
                        if idx < len(self.bounds)
                        else "+inf"
                    )
                    out[upper] = n
        return out

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **self.percentiles(),
            "bins": self.nonzero_bins(),
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named metrics, created on first touch, exported as one JSON dict."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, description: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get(Gauge, name, description)

    def histogram(self, name: str, description: str = "",
                  bounds: Iterable[float] | None = None) -> Histogram:
        return self._get(Histogram, name, description, bounds=bounds)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: metric.to_dict()}`` for every registered metric."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.to_dict() for name, metric in sorted(metrics.items())}

    def reset(self) -> None:
        """Drop every metric (fresh-run CLI entry points, tests)."""
        with self._lock:
            self._metrics.clear()


#: The process-local default registry; instrumented library code
#: records here, CLI entry points dump it, serve keeps its own
#: per-server registry on top.
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _DEFAULT
