"""Context-var span trees: the tracing half of the observability spine.

Every stage of the pipeline (analyzer scan, forest fit, serve
micro-batch flush, ...) can open a :func:`span` around its work.  Spans
nest through a :class:`contextvars.ContextVar`, so the tree mirrors the
dynamic call structure without any plumbing through function
signatures -- and because ``ContextVar`` state is task-local, traces in
an asyncio server never bleed between concurrently handled requests.

Design rules
------------

* **Disabled is (nearly) free.**  Tracing is off unless a
  :class:`Trace` collector is installed (``with start_trace(...):``).
  With no collector, :func:`span` returns a shared no-op context
  manager after a single ``ContextVar.get()`` -- the guard that keeps
  instrumented hot paths within the <3% overhead budget
  (``benchmarks/bench_obs_overhead.py`` enforces it).
* **Spans are serialisable.**  A finished span is a flat
  :class:`SpanRecord` (name, ids, wall start, duration, attrs) that
  round-trips through JSON.  That is what lets process-pool workers
  (:mod:`repro.analyzer.parallel`, forest fit workers) capture their
  own sub-trees and ship them back to the coordinator, which
  :func:`graft`\\ s them under its current span into one stitched tree.
* **Deterministic structure.**  Span ids are ``pid-counter`` strings --
  unique across fork/spawn workers -- but the *tree shape* (names,
  nesting, sibling order) is a pure function of the work done, so two
  runs of the same pipeline produce the same tree modulo timing.
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Span",
    "SpanRecord",
    "Trace",
    "active_trace",
    "event",
    "graft",
    "span",
    "start_trace",
]

_ids = itertools.count(1)


def _new_span_id() -> str:
    """Process-unique span id: ``pid-counter`` (stable, collision-free
    across pool workers; fork copies the counter but never the pid)."""
    return f"{os.getpid():x}-{next(_ids):x}"


@dataclass
class SpanRecord:
    """One finished span, flat and JSON-serialisable."""

    name: str
    span_id: str
    parent_id: str | None
    start: float                     # wall clock (epoch seconds)
    duration: float                  # seconds (perf_counter based)
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=str(payload["name"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            start=float(payload.get("start", 0.0)),
            duration=float(payload.get("duration", 0.0)),
            attrs=dict(payload.get("attrs") or {}),
        )


class Trace:
    """A span collector; install with ``with start_trace("name"):``.

    Records are appended as spans *finish* (children before parents);
    :meth:`tree` reassembles the nesting.  ``records`` is the flat,
    serialisable form workers ship across process boundaries.
    """

    def __init__(self, name: str = "trace", **attrs: Any):
        self.name = name
        self._root_attrs = attrs
        self.records: list[SpanRecord] = []
        self.root_id: str | None = None
        self._trace_token = None
        self._root_span: Span | None = None

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Trace":
        self._trace_token = _ACTIVE.set(self)
        root = Span(self.name, self, _CURRENT.get(), dict(self._root_attrs))
        self.root_id = root.span_id
        self._root_span = root.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        assert self._root_span is not None
        self._root_span.__exit__(*exc)
        _ACTIVE.reset(self._trace_token)
        return False

    # -- export -------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.records]

    def tree(self) -> dict | None:
        """Nested ``{name, duration, attrs, children}`` view of the trace."""
        return build_tree(self.records)


def build_tree(records: Iterable[SpanRecord | dict]) -> dict | None:
    """Assemble flat span records into one nested tree.

    Children keep their record order under each parent (completion
    order, which for sequential code is start order), so the tree is
    deterministic for a deterministic run.  Records whose parent is
    missing from the set are treated as roots; multiple roots are
    wrapped under a synthetic ``<trace>`` node.
    """
    recs = [
        r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r)
        for r in records
    ]
    if not recs:
        return None
    nodes: dict[str, dict] = {}
    for r in recs:
        nodes[r.span_id] = {
            "name": r.name,
            "start": r.start,
            "duration": r.duration,
            "attrs": dict(r.attrs),
            "children": [],
        }
    roots: list[dict] = []
    for r in recs:
        node = nodes[r.span_id]
        parent = nodes.get(r.parent_id) if r.parent_id else None
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    if len(roots) == 1:
        return roots[0]
    return {
        "name": "<trace>",
        "start": min(r["start"] for r in roots),
        "duration": sum(r["duration"] for r in roots),
        "attrs": {},
        "children": roots,
    }


#: The active collector (None = tracing disabled; the no-op fast path).
_ACTIVE: ContextVar[Trace | None] = ContextVar("repro_obs_trace", default=None)
#: The current (innermost open) span id, for parenting.
_CURRENT: ContextVar[str | None] = ContextVar("repro_obs_span", default=None)


class Span:
    """An open span; finishes (and records itself) on ``__exit__``."""

    __slots__ = ("name", "span_id", "parent_id", "attrs",
                 "_trace", "_token", "_t0", "_start_wall")

    def __init__(self, name: str, trace: Trace,
                 parent_id: str | None, attrs: dict):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._trace = trace

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self.span_id)
        self._start_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._trace.records.append(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self._start_wall,
                duration=duration,
                attrs=self.attrs,
            )
        )
        return False


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any):
    """Open a span under the current one; no-op when tracing is off."""
    trace = _ACTIVE.get()
    if trace is None:
        return NOOP_SPAN
    return Span(name, trace, _CURRENT.get(), attrs)


def start_trace(name: str = "trace", **attrs: Any) -> Trace:
    """A fresh collector; use as ``with start_trace("pipeline") as t:``."""
    return Trace(name, **attrs)


def active_trace() -> Trace | None:
    """The installed collector, or None when tracing is disabled."""
    return _ACTIVE.get()


def event(name: str, duration: float = 0.0, start: float | None = None,
          **attrs: Any) -> None:
    """Record a pre-measured span under the current one.

    For timings measured outside a ``with span(...)`` block -- e.g. the
    micro-batcher's per-request queue wait, whose start happened on a
    different task than its end.  No-op when tracing is off.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return
    trace.records.append(
        SpanRecord(
            name=name,
            span_id=_new_span_id(),
            parent_id=_CURRENT.get(),
            start=time.time() if start is None else start,
            duration=float(duration),
            attrs=attrs,
        )
    )


def graft(records: Iterable[SpanRecord | dict],
          parent_id: str | None = None) -> int:
    """Stitch serialised worker spans under the current span.

    Worker traces are rooted at records whose ``parent_id`` is None (or
    points outside the shipped set); grafting re-parents those roots to
    ``parent_id`` (default: the coordinator's current span) and appends
    everything to the active trace.  Returns the number of grafted
    records; no-op (returns 0) when tracing is off.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return 0
    if parent_id is None:
        parent_id = _CURRENT.get()
    recs = [
        r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r)
        for r in records
    ]
    shipped_ids = {r.span_id for r in recs}
    for r in recs:
        if r.parent_id is None or r.parent_id not in shipped_ids:
            r = SpanRecord(
                name=r.name, span_id=r.span_id, parent_id=parent_id,
                start=r.start, duration=r.duration, attrs=r.attrs,
            )
        trace.records.append(r)
    return len(recs)
