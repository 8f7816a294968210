"""Sharded parallel weblog analysis.

The paper's Weblog Ads Analyzer chewed through 373M HTTP requests for
1,594 users (section 4.1); a single sequential pass does not survive
the millions-of-users north star.  This module shards weblog rows by
``user_id`` hash across :mod:`multiprocessing` workers, runs the same
single-pass analyzer (:func:`repro.analyzer.pipeline.scan_rows_single_pass`)
over every shard chunk, and merges the partial results into one
:class:`~repro.analyzer.pipeline.AnalysisResult` that is identical to
what the sequential path produces — same observations in the same
order, same traffic histogram, same per-user aggregates.

Design notes
------------

* **Sharding key.**  ``crc32(user_id)`` — stable across processes and
  Python invocations (``hash()`` is salted per interpreter and must
  never be used for cross-process sharding).  Hashing by user keeps all
  of one user's rows in one shard, so per-user state (interest counts,
  "last informative row wins" OS/device fields) never straddles a merge
  boundary out of order.
* **Bounded memory.**  Rows are buffered per shard and dispatched to
  the pool in ``chunk_size`` slices with a bounded in-flight window
  (``2 x workers`` outstanding chunks), so the coordinator never holds
  the whole weblog; combined with :func:`repro.io.iter_weblog_csv` the
  end-to-end pipeline streams from disk.
* **Determinism.**  Every row carries its global weblog index through
  the workers; merged notifications/observations are re-sorted by that
  index, restoring the exact sequential emission order regardless of
  worker scheduling.  Partial feature extractors of the same shard are
  merged in chunk order so order-sensitive per-user fields match the
  sequential run.  Observations, traffic counts, notifications and
  per-user totals are *identical* to the sequential result; the only
  permitted deviation is float-summation associativity in the feature
  aggregates' running sums (``total_duration_ms`` may differ by ~1 ulp
  across chunk boundaries).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence
from zlib import crc32

from repro import obs

from repro.analyzer.blacklist import DomainBlacklist, default_blacklist
from repro.analyzer.detector import DetectedNotification
from repro.analyzer.features import FeatureExtractor
from repro.analyzer.geoip import GeoIpResolver
from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import (
    AnalysisResult,
    PriceObservation,
    WeblogAnalyzer,
    scan_rows_single_pass,
)
from repro.trace.weblog import HttpRequest
from repro.util.parallel import pool_context, resolve_workers

__all__ = [
    "ShardPartial",
    "analyze_parallel",
    "merge_partials",
    "shard_of",
]


def shard_of(user_id: str, n_shards: int) -> int:
    """Stable shard index for a user (crc32, never the salted hash())."""
    return crc32(user_id.encode("utf-8")) % n_shards


@dataclass
class ShardPartial:
    """One worker's single-pass result over one chunk of one shard.

    ``spans`` carries the worker's serialised trace records
    (:meth:`repro.obs.trace.Trace.to_dicts`) for its chunk; the
    coordinator :func:`repro.obs.trace.graft`\\ s them under its own
    ``analyzer.merge`` span so ``repro obs dump`` shows one stitched
    tree.  Empty when the coordinator ran without an active trace (the
    worker still records its own chunk-local trace, but shipping it is
    pointless) -- and defaulted so hand-built partials in tests keep
    working.
    """

    shard: int
    seq: int                     # chunk sequence number within the shard
    traffic_counts: Counter
    notifications: list[tuple[int, DetectedNotification]]
    observations: list[tuple[int, PriceObservation]]
    extractor: FeatureExtractor
    spans: list[dict] = field(default_factory=list)


# -- worker side ------------------------------------------------------------

_WORKER_ANALYZER: WeblogAnalyzer | None = None
_WORKER_TRACING: bool = False


def _init_worker(
    directory: PublisherDirectory,
    blacklist: DomainBlacklist,
    geoip: GeoIpResolver,
    tracing: bool = False,
) -> None:
    """Pool initializer: build the per-process analyzer once, not per chunk.

    ``tracing`` mirrors whether the *coordinator* had an active trace
    when the pool was built: workers cannot see the coordinator's
    context var, so the flag rides the initargs and turns per-chunk
    span collection on only when someone will stitch the spans.
    """
    global _WORKER_ANALYZER, _WORKER_TRACING
    _WORKER_ANALYZER = WeblogAnalyzer(directory, blacklist, geoip)
    _WORKER_TRACING = bool(tracing)


def _analyze_chunk(
    task: tuple[int, int, list[tuple[int, HttpRequest]]],
) -> ShardPartial:
    """Single-pass over one chunk: classify once, feed histogram +
    detection + features, emit indexed observations.

    When tracing is on, the chunk's work runs under a local
    ``analyzer.shard`` trace whose serialised records ship home in
    :attr:`ShardPartial.spans` for coordinator-side grafting.
    """
    shard, seq, indexed_rows = task
    analyzer = _WORKER_ANALYZER
    if analyzer is None:  # sequential fallback path (workers=1, tests)
        raise RuntimeError("worker used before _init_worker")
    collector = (
        obs.start_trace(
            "analyzer.shard", shard=shard, seq=seq, rows=len(indexed_rows)
        )
        if _WORKER_TRACING
        else None
    )

    def _scan() -> ShardPartial:
        extractor = FeatureExtractor.incremental(
            analyzer.blacklist, analyzer.directory, analyzer.geoip
        )
        with obs.span("analyzer.scan"):
            traffic_counts, notifications = scan_rows_single_pass(
                indexed_rows, analyzer.blacklist, extractor
            )
        with obs.span("analyzer.observations"):
            observations = [
                (index, analyzer._to_observation(det, extractor))
                for index, det in notifications
            ]
        # Strip the lookup tables (blacklist sets, directory, geoip with
        # its memo) before pickling the partial back to the coordinator:
        # merge only needs the aggregate state, and the coordinator
        # re-attaches its own tables to the merged extractor.
        extractor.blacklist = None  # type: ignore[assignment]
        extractor.directory = None  # type: ignore[assignment]
        extractor.geoip = None  # type: ignore[assignment]
        return ShardPartial(
            shard=shard,
            seq=seq,
            traffic_counts=traffic_counts,
            notifications=notifications,
            observations=observations,
            extractor=extractor,
        )

    if collector is None:
        return _scan()
    with collector:
        partial = _scan()
    partial.spans = collector.to_dicts()
    return partial


# -- coordinator side -------------------------------------------------------

def _chunk_tasks(
    rows: Iterable[HttpRequest], n_shards: int, chunk_size: int
) -> Iterator[tuple[int, int, list[tuple[int, HttpRequest]]]]:
    """Assign rows to shards, flushing ``chunk_size`` slices as tasks."""
    buffers: list[list[tuple[int, HttpRequest]]] = [[] for _ in range(n_shards)]
    seqs = [0] * n_shards
    for index, row in enumerate(rows):
        shard = shard_of(row.user_id, n_shards)
        buffers[shard].append((index, row))
        if len(buffers[shard]) >= chunk_size:
            yield shard, seqs[shard], buffers[shard]
            buffers[shard] = []
            seqs[shard] += 1
    for shard, buffered in enumerate(buffers):
        if buffered:
            yield shard, seqs[shard], buffered


def merge_partials(
    partials: Sequence[ShardPartial],
    blacklist: DomainBlacklist,
    directory: PublisherDirectory,
    geoip: GeoIpResolver,
) -> AnalysisResult:
    """Combine shard partials into one sequential-identical result.

    Partials are merged shard-by-shard in chunk order (per-user state is
    order-sensitive), then notifications/observations are re-sorted by
    global weblog index to restore the sequential emission order.
    """
    merged_traffic: Counter = Counter()
    indexed_notifications: list[tuple[int, DetectedNotification]] = []
    indexed_observations: list[tuple[int, PriceObservation]] = []
    extractor = FeatureExtractor.incremental(blacklist, directory, geoip)
    with obs.span("analyzer.merge", partials=len(partials)):
        for partial in sorted(partials, key=lambda p: (p.shard, p.seq)):
            merged_traffic.update(partial.traffic_counts)
            indexed_notifications.extend(partial.notifications)
            indexed_observations.extend(partial.observations)
            extractor.merge_from(partial.extractor)
            if partial.spans:
                # Stitch the worker's chunk trace under this merge span;
                # iterating partials in (shard, seq) order keeps the
                # grafted sibling order deterministic across runs.
                obs.graft(partial.spans)
        extractor.finalize_interests()
        indexed_notifications.sort(key=lambda pair: pair[0])
        indexed_observations.sort(key=lambda pair: pair[0])
    return AnalysisResult(
        observations=[o for _, o in indexed_observations],
        traffic_counts=merged_traffic,
        extractor=extractor,
        notifications=[det for _, det in indexed_notifications],
    )


def analyze_parallel(
    rows: Iterable[HttpRequest],
    directory: PublisherDirectory,
    *,
    blacklist: DomainBlacklist | None = None,
    geoip: GeoIpResolver | None = None,
    workers: int | None = None,
    chunk_size: int = 50_000,
) -> AnalysisResult:
    """Sharded parallel equivalent of :meth:`WeblogAnalyzer.analyze`.

    ``rows`` may be any iterable (a list, or a streaming
    :func:`repro.io.iter_weblog_csv` generator); it is consumed once.
    ``workers=None`` uses the machine's CPU count
    (:func:`repro.util.parallel.resolve_workers`); ``workers=1`` runs
    the single-pass sequential path in-process (no pool overhead).
    The returned result is identical to the sequential analyzer's:
    same observation order, traffic counts, and per-user aggregates.
    """
    blacklist = blacklist or default_blacklist()
    geoip = geoip or GeoIpResolver()
    workers = resolve_workers(workers)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers <= 1:
        return WeblogAnalyzer(directory, blacklist, geoip).analyze(rows)

    with obs.stage(
        "analyzer.analyze", workers=workers, chunk_size=chunk_size
    ) as st:
        tracing = obs.active_trace() is not None
        ctx = pool_context()
        partials: list[ShardPartial] = []
        max_inflight = 2 * workers
        with obs.span("analyzer.dispatch"):
            with ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(directory, blacklist, geoip, tracing),
            ) as pool:
                inflight: deque = deque()
                for task in _chunk_tasks(rows, workers, chunk_size):
                    while len(inflight) >= max_inflight:
                        partials.append(inflight.popleft().get())
                    inflight.append(pool.apply_async(_analyze_chunk, (task,)))
                while inflight:
                    partials.append(inflight.popleft().get())
        st.set(chunks=len(partials))
        result = merge_partials(partials, blacklist, directory, geoip)
    return result
