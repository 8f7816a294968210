"""``repro.obs`` -- the observability spine: tracing, metrics, profiling.

Three stdlib-only pieces, threaded through every hot layer of the
reproduction (analyzer, forest, PME, serve):

* :mod:`repro.obs.trace` -- context-var span trees.  ``with
  span("analyzer.shard", shard=3):`` nests under whatever is open;
  finished spans are flat, JSON-serialisable records, so process-pool
  workers ship their sub-trees home and the coordinator :func:`graft`\\ s
  them into one stitched trace.
* :mod:`repro.obs.metrics` -- a process-local registry of counters,
  gauges and fixed log-scale-bin histograms, exported via serve's
  ``GET /metrics``, the ``repro obs dump`` CLI, and the benchmark JSON
  sink.
* :mod:`repro.obs.profile` -- opt-in per-stage wall/CPU sampling
  (:func:`stage`), enabled by :func:`enable_profiling` or
  ``REPRO_OBS_PROFILE=1``.

The cardinal rule: **disabled observability is (nearly) free**.  With
no active trace and profiling off, :func:`span` / :func:`stage` return
a shared no-op after one or two attribute checks --
``benchmarks/bench_obs_overhead.py`` holds that overhead under 3% on
the analyzer and forest benches.

Quickstart::

    from repro import obs

    with obs.start_trace("pipeline", scale=0.05) as t:
        with obs.span("analyze", rows=n):
            ...
    print(obs.render_dump(obs.build_dump(trace=t)))
"""

from repro.obs.export import (
    DUMP_KIND,
    build_dump,
    default_dump_path,
    load_dump,
    render_dump,
    save_dump,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_log_bounds,
    registry,
)
from repro.obs.profile import enable_profiling, profiling_enabled, stage
from repro.obs.trace import (
    Span,
    SpanRecord,
    Trace,
    active_trace,
    build_tree,
    event,
    graft,
    span,
    start_trace,
)

__all__ = [
    "Counter",
    "DUMP_KIND",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Trace",
    "active_trace",
    "build_dump",
    "build_tree",
    "default_dump_path",
    "default_log_bounds",
    "enable_profiling",
    "event",
    "graft",
    "load_dump",
    "profiling_enabled",
    "registry",
    "render_dump",
    "save_dump",
    "span",
    "stage",
    "start_trace",
]
