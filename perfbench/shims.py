"""Span-recording shims around the public entry points of ``repro``.

A traced benchmark run (``--trace 1``) installs these wrappers before it
builds anything, so no file of the program changes.  Each wrapper
records one span -- name, thread, start, end, parent -- in memory;
``Tracer.layer_table`` turns them into per-layer self times (a span's
duration minus the time its child spans cover) and ``layer_metrics``
into the per-layer metrics that ``BENCHMARK.json`` lists.

Functions imported by name into other modules (``from repro.rtb.nurl
import parse_nurl``) are replaced in every loaded ``repro`` module, and
in the benchmark's ``workloads``, that holds them, so the shim sees
calls from every caller.  A target that a
later version of the program no longer has is skipped: its metrics then
read 0 rather than breaking the run.

``Campaign.eligible_for`` is called ~50 times per auction, so it gets a
counting wrapper without a span; a span there would cost more than the
call it measures.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

#: Layer of each span name prefix; the layers are the ``src/repro``
#: modules the spans sit in front of.
LAYERS = {
    "trace": "trace",
    "rtb": "rtb",
    "analyzer": "analyzer",
    "pme": "core.pme",
    "ml": "ml",
    "estimator": "core.estimator",
    "cost": "core.cost",
    "yav": "core.youradvalue",
    "serve": "serve",
    "contrib": "core.contributions",
}

#: Row order of the self-time table.
LAYER_ORDER = tuple(dict.fromkeys(LAYERS.values()))

_INHERITED = object()

# Span record fields (a list, so the exit path can fill it in place).
_NAME, _TID, _START, _END, _CHILD, _PARENT, _PHASE = range(7)


def _count_result(key: str, test: Callable[[Any], bool]):
    def hook(tracer: "Tracer", args: tuple, result: Any) -> None:
        if test(result):
            tracer.counts[key] += 1
    return hook


def _add(key: str, amount: Callable[[tuple, Any], float]):
    def hook(tracer: "Tracer", args: tuple, result: Any) -> None:
        tracer.counts[key] += amount(args, result)
    return hook


def _forest_nodes(forest: Any) -> int:
    nodes = 0
    for tree in getattr(forest, "trees_", None) or ():
        flat = getattr(tree, "flat_", None)
        nodes += int(getattr(flat, "n_nodes", 0) or 0)
    return nodes


def _rows_of(x: Any) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else len(x)


#: (span name, module, attribute path, result hooks).  Each hook adds
#: to ``Tracer.counts`` from a call's arguments and result.
SHIMS: tuple[tuple[str, str, str, tuple], ...] = (
    ("trace.simulate", "repro.trace.simulate", "simulate_dataset",
     (_add("trace.rows", lambda a, r: len(r.rows)),)),
    ("rtb.auction", "repro.rtb.exchange", "AdExchange.run_auction",
     (_count_result("rtb.auction.won", lambda r: r is not None),)),
    ("rtb.dsp_respond", "repro.rtb.bidding", "Dsp.respond", ()),
    ("rtb.eligible", "repro.rtb.campaign", "Campaign.eligible_for",
     (_count_result("rtb.eligible.true", bool),)),
    ("rtb.parse_nurl", "repro.rtb.nurl", "parse_nurl", ()),
    ("analyzer.analyze", "repro.analyzer.pipeline", "WeblogAnalyzer.analyze",
     (_add("analyzer.rows", lambda a, r: sum(r.traffic_counts.values())),
      _add("analyzer.observations", lambda a, r: len(r.observations)))),
    ("analyzer.classify", "repro.analyzer.blacklist", "DomainBlacklist.classify",
     (_count_result("analyzer.classify.advertising",
                    lambda r: r == "advertising"),)),
    ("analyzer.ua_parse", "repro.analyzer.useragent", "parse_user_agent", ()),
    ("analyzer.geoip", "repro.analyzer.geoip", "GeoIpResolver.lookup", ()),
    ("pme.campaign_a1", "repro.core.campaigns", "run_campaign_a1",
     (_add("pme.campaign_rows", lambda a, r: len(r.impressions)),)),
    ("pme.campaign_a2", "repro.core.campaigns", "run_campaign_a2",
     (_add("pme.campaign_rows", lambda a, r: len(r.impressions)),)),
    ("pme.train", "repro.core.pme", "PriceModelingEngine.train_model", ()),
    ("pme.retrain", "repro.core.pme",
     "PriceModelingEngine.retrain_with_contributions", ()),
    ("ml.fit", "repro.ml.forest", "RandomForestClassifier.fit",
     (_add("ml.fit_rows", lambda a, r: _rows_of(a[1])),
      _add("ml.tree_nodes", lambda a, r: _forest_nodes(r)))),
    ("ml.predict", "repro.ml.forest", "RandomForestClassifier.predict_proba",
     (_add("ml.predict_rows", lambda a, r: _rows_of(a[1])),)),
    ("estimator.estimate", "repro.core.estimator", "Estimator.estimate",
     (_add("estimator.rows", lambda a, r: len(r)),)),
    ("estimator.encode", "repro.ml.preprocessing", "FrameEncoder.transform", ()),
    ("cost.user_costs", "repro.core.cost", "compute_user_costs",
     (_add("cost.users", lambda a, r: len(r)),)),
    ("yav.observe", "repro.core.youradvalue", "YourAdValue.observe",
     (_count_result("yav.notifications", lambda r: r is not None),
      _count_result("yav.encrypted", lambda r: r is not None and r.encrypted))),
    ("contrib.submit", "repro.core.contributions", "ContributionServer.submit",
     ()),
    ("contrib.training_rows", "repro.core.contributions",
     "ContributionServer.training_rows", ()),
    ("serve.build_snapshot", "repro.serve.store", "build_snapshot", ()),
    ("serve.install", "repro.serve.store", "ModelStore.install", ()),
    ("serve.render_response", "repro.serve.http", "render_response", ()),
)

#: Modules whose by-name imports of a wrapped function are replaced:
#: the program's, and the benchmark's own workloads.
PATCHED_MODULES = ("repro", "workloads")

#: Spans too frequent and cheap to record one by one.
COUNT_ONLY = frozenset({"rtb.eligible"})


class Tracer:
    """In-memory span store plus the installed shims that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._phase = ""
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = [name, threading.get_ident(), time.perf_counter(), 0.0, 0.0,
               parent, parent[_PHASE] if parent else (self._phase or name)]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        rec[_END] = end
        if rec[_PARENT] is not None:
            rec[_PARENT][_CHILD] += end - rec[_START]

    @contextmanager
    def phase(self, name: str):
        """A root span that every span started inside it belongs to."""
        self._phase = name
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self._phase = ""

    def _wrap(self, name: str, fn: Callable, hooks: tuple) -> Callable:
        tracer = self
        counts = self.counts
        lock = self._lock

        def tally(args: tuple, result: Any) -> None:
            with lock:
                counts[name] += 1
                for hook in hooks:
                    hook(tracer, args, result)

        if name in COUNT_ONLY:
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                tally(args, result)
                return result
            return counting

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                with lock:
                    counts[name + ".errors"] += 1
                raise
            finally:
                tracer._close(rec)
            tally(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the span names skipped."""
        skipped = []
        for name, module_name, path, hooks in SHIMS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                skipped.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                skipped.append(name)
                continue
            wrapper = self._wrap(name, original, hooks)
            if outer:  # a method: patch the class, every instance sees it
                self._set(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith(PATCHED_MODULES)
                        and getattr(module, attr, None) is original):
                    self._set(module, attr, wrapper)
        return skipped

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reports -------------------------------------------------------------

    def _closed(self, phase: str) -> list[list]:
        return [s for s in self.spans if s[_PHASE] == phase and s[_END]]

    def layer_table(self, phase: str) -> dict:
        """Self seconds per layer inside ``phase`` on the main thread.

        The layer rows plus ``unattributed`` add up to the phase's wall
        time.  Spans on other threads (the serve retrain executor) run
        concurrently with the main thread, so they are listed beside
        the table as ``off_thread`` busy time and not summed into it.
        """
        spans = self._closed(phase)
        roots = [s for s in spans if s[_PARENT] is None
                 and s[_TID] == self.main_thread and s[_NAME] == phase]
        wall = sum(s[_END] - s[_START] for s in roots)
        rows = dict.fromkeys(LAYER_ORDER, 0.0)
        off = dict.fromkeys(LAYER_ORDER, 0.0)
        for s in spans:
            layer = LAYERS.get(s[_NAME].split(".", 1)[0])
            if layer is None:
                continue
            self_s = (s[_END] - s[_START]) - s[_CHILD]
            (rows if s[_TID] == self.main_thread else off)[layer] += self_s
        return {
            "wall_s": wall,
            "layers_s": rows,
            "unattributed_s": wall - sum(rows.values()),
            "off_thread_s": {k: v for k, v in off.items() if v},
        }

    def span_totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self._closed(phase):
            entry = out.setdefault(s[_NAME], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            dur = s[_END] - s[_START]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - s[_CHILD]
        return out

    def dump(self) -> list[list]:
        """Every span as ``[name, thread, start, end, parent index, phase]``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s[_NAME], s[_TID], s[_START], s[_END],
             index[id(s[_PARENT])] if s[_PARENT] is not None else -1, s[_PHASE]]
            for s in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase: str, counts: Counter) -> dict:
    """The shim-derived per-layer metrics over one phase.

    ``counts`` are the increments of ``tracer.counts`` during the phase.
    """
    spans = tracer.span_totals(phase)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(counts.get(name, 0))

    simulate_s = total("trace.simulate")
    analyze_s = total("analyzer.analyze")
    predict_calls = calls("ml.predict")
    return {
        "trace.simulate_self_s": self_s("trace.simulate"),
        "trace.rows": counts["trace.rows"],
        "trace.rows_per_s": _ratio(counts["trace.rows"], simulate_s),
        "rtb.auction_calls": calls("rtb.auction"),
        "rtb.auction_s": total("rtb.auction"),
        "rtb.win_ratio": _ratio(counts["rtb.auction.won"], calls("rtb.auction")),
        "rtb.dsp_respond_calls": calls("rtb.dsp_respond"),
        "rtb.dsp_respond_s": total("rtb.dsp_respond"),
        "rtb.eligible_calls": calls("rtb.eligible"),
        "rtb.eligible_ratio": _ratio(counts["rtb.eligible.true"],
                                     calls("rtb.eligible")),
        "rtb.parse_nurl_calls": calls("rtb.parse_nurl"),
        "rtb.parse_nurl_s": total("rtb.parse_nurl"),
        "analyzer.analyze_s": analyze_s,
        "analyzer.rows_per_s": _ratio(counts["analyzer.rows"], analyze_s),
        "analyzer.observation_ratio": _ratio(counts["analyzer.observations"],
                                             counts["analyzer.rows"]),
        "analyzer.classify_calls": calls("analyzer.classify"),
        "analyzer.classify_s": total("analyzer.classify"),
        "analyzer.advertising_ratio": _ratio(
            counts["analyzer.classify.advertising"], calls("analyzer.classify")),
        "analyzer.ua_parse_s": total("analyzer.ua_parse"),
        "analyzer.geoip_s": total("analyzer.geoip"),
        "pme.campaign_a1_s": total("pme.campaign_a1"),
        "pme.campaign_a2_s": total("pme.campaign_a2"),
        "pme.campaign_rows": counts["pme.campaign_rows"],
        "pme.train_s": total("pme.train"),
        "pme.retrain_calls": calls("pme.retrain"),
        "pme.retrain_s": total("pme.retrain"),
        "ml.fit_calls": calls("ml.fit"),
        "ml.fit_rows": counts["ml.fit_rows"],
        "ml.fit_s": total("ml.fit"),
        "ml.tree_nodes": counts["ml.tree_nodes"],
        "ml.predict_calls": predict_calls,
        "ml.predict_rows_per_call": _ratio(counts["ml.predict_rows"],
                                           predict_calls),
        "ml.predict_s": total("ml.predict"),
        "ml.predict_ms_per_call": _ratio(1000 * total("ml.predict"),
                                         predict_calls),
        "estimator.calls": calls("estimator.estimate"),
        "estimator.rows": counts["estimator.rows"],
        "estimator.encode_s": total("estimator.encode"),
        "estimator.estimate_s": total("estimator.estimate"),
        "cost.users": counts["cost.users"],
        "cost.user_costs_s": total("cost.user_costs"),
        "yav.observe_calls": calls("yav.observe"),
        "yav.notifications": counts["yav.notifications"],
        "yav.encrypted_ratio": _ratio(counts["yav.encrypted"],
                                      counts["yav.notifications"]),
        "yav.observe_self_s": self_s("yav.observe"),
        "contrib.submit_s": total("contrib.submit"),
        "contrib.training_rows_s": total("contrib.training_rows"),
    }
