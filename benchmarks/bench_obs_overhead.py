"""No-op overhead guard for the observability spine.

The cardinal rule of ``repro.obs`` is that *disabled* observability is
(nearly) free: with no active trace and profiling off, every
``obs.span`` / ``obs.stage`` call in the hot paths must collapse to one
ContextVar read and a None check.  This benchmark measures that cost on
the two tier-1 hot paths the spine instruments most densely:

* the sequential analyzer scan (``WeblogAnalyzer.analyze``) over a
  fixed slice of the weblog, whose per-row work is small enough that
  any per-call overhead shows; and
* forest inference (``predict_proba`` over a trained forest, one walk
  of the whole-forest arena), the serve layer's per-request critical
  path.

For each path it times the *instrumented* disabled-mode code against a
"stripped" twin that bypasses the obs entry points entirely (the
pre-instrumentation shape of the code), as the median of many
back-to-back, order-swapped call pairs, and asserts the overhead stays
under the 3% budget.  One JSON record (with the shared
``_record.provenance()`` fields) lands in
``benchmarks/output/bench_obs_overhead.json`` so the trajectory is
comparable across PRs.

Entry points::

    pytest benchmarks/bench_obs_overhead.py -s
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --json benchmarks/output/bench_obs_overhead.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

try:  # package import under pytest, sibling import as a script
    from ._record import provenance
except ImportError:  # pragma: no cover - script mode
    from _record import provenance

from repro import obs
from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import WeblogAnalyzer, scan_rows_single_pass
from repro.analyzer.features import FeatureExtractor
from repro.ml.forest import RandomForestClassifier

#: The budget the obs spine must honour in disabled mode.
OVERHEAD_BUDGET = 0.03

#: Back-to-back call pairs timed on the forest path.
FOREST_PAIRS = 400

#: Weblog rows each analyzer call scans (the first rows in time order).
ANALYZER_ROWS = 4_000

#: Back-to-back call pairs timed on the analyzer path.
ANALYZER_PAIRS = 120


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_overhead(instrumented, stripped, pairs: int) -> tuple[float, float, float]:
    """Median per-call seconds of both paths and the median of their
    paired ratios, minus one.

    Each pair times one call of each path back to back, swapping which
    goes first every pair, so both calls of a pair see the same state
    of the shared box and neither always runs first.
    """
    clock = time.perf_counter
    fns = (instrumented, stripped)
    times: tuple[list[float], list[float]] = ([], [])
    for i in range(max(1, pairs)):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = clock()
            fns[side]()
            times[side].append(clock() - start)
    ratios = [a / b for a, b in zip(*times)]
    return (statistics.median(times[0]), statistics.median(times[1]),
            statistics.median(ratios) - 1.0)


# -- analyzer path -----------------------------------------------------------

def _analyzer_stripped(analyzer: WeblogAnalyzer, rows) -> None:
    """The analyze() body with the obs entry points bypassed."""
    extractor = FeatureExtractor.incremental(
        analyzer.blacklist, analyzer.directory, analyzer.geoip
    )
    traffic_counts, indexed = scan_rows_single_pass(
        enumerate(rows), analyzer.blacklist, extractor
    )
    extractor.finalize_interests()
    [analyzer._to_observation(det, extractor) for _, det in indexed]


def measure_analyzer(dataset, directory, pairs: int = ANALYZER_PAIRS) -> dict:
    rows = list(dataset.rows[:ANALYZER_ROWS])
    analyzer = WeblogAnalyzer(directory)
    assert obs.active_trace() is None and not obs.profiling_enabled()
    # Over a few long calls, one collection or one slow stretch of a
    # shared box decides the ratio; many short paired calls give a
    # median that one outlier cannot move.
    instrumented, stripped, overhead = _paired_overhead(
        lambda: analyzer.analyze(rows),
        lambda: _analyzer_stripped(analyzer, rows),
        pairs,
    )
    return {
        "path": "analyzer.analyze",
        "rows": len(rows),
        "pairs": pairs,
        "instrumented_s": round(instrumented, 5),
        "stripped_s": round(stripped, 5),
        "overhead": round(overhead, 5),
    }


# -- forest path -------------------------------------------------------------

def _forest_stripped(forest: RandomForestClassifier, x) -> np.ndarray:
    """predict_proba without the obs.span wrapper: the same arena walk."""
    return forest.flat_.predict_value(x)


def measure_forest(pairs: int = FOREST_PAIRS) -> dict:
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1200, 8))
    y = (x[:, 0] + x[:, 1] > 0).astype(int) + (x[:, 2] > 0.5).astype(int)
    forest = RandomForestClassifier(
        n_estimators=30, max_depth=10, seed=3
    ).fit(x, y)
    x_pred = np.atleast_2d(np.asarray(rng.normal(size=(2000, 8)), dtype=float))
    assert obs.active_trace() is None and not obs.profiling_enabled()
    # One call takes ~15 ms.  Best-of over samples of one call, and
    # over samples of ~45 calls each, both swung by several percent
    # between runs on a shared box; the median of back-to-back paired
    # ratios stays within a fraction of a percent.
    instrumented, stripped, overhead = _paired_overhead(
        lambda: forest.predict_proba(x_pred),
        lambda: _forest_stripped(forest, x_pred),
        pairs,
    )
    assert np.array_equal(
        forest.predict_proba(x_pred), _forest_stripped(forest, x_pred)
    )
    return {
        "path": "forest.predict_proba",
        "rows": int(x_pred.shape[0]),
        "trees": forest.n_estimators,
        "pairs": pairs,
        "instrumented_s": round(instrumented, 5),
        "stripped_s": round(stripped, 5),
        "overhead": round(overhead, 5),
    }


# -- micro path: raw span cost ----------------------------------------------

def measure_span_call(n: int = 200_000) -> dict:
    """Per-call cost of the disabled span fast path, in nanoseconds."""
    assert obs.active_trace() is None

    def disabled():
        for _ in range(n):
            with obs.span("noop"):
                pass

    def baseline():
        for _ in range(n):
            pass

    disabled_s = _best_of(disabled, 3)
    baseline_s = _best_of(baseline, 3)
    return {
        "path": "span.disabled_call",
        "calls": n,
        "ns_per_call": round((disabled_s - baseline_s) / n * 1e9, 1),
    }


def run_all(dataset, directory) -> dict:
    runs = [
        measure_analyzer(dataset, directory),
        measure_forest(),
        measure_span_call(),
    ]
    worst = max(r["overhead"] for r in runs if "overhead" in r)
    return {
        "benchmark": "obs_overhead",
        "budget": OVERHEAD_BUDGET,
        "worst_overhead": round(worst, 5),
        "within_budget": bool(worst < OVERHEAD_BUDGET),
        **provenance(),
        "runs": runs,
    }


def _render(record: dict) -> list[str]:
    lines = [
        "Disabled-mode observability overhead "
        f"(budget {record['budget']:.0%}, {record['cpu_count']} CPUs):",
        "",
        f"{'path':<24} {'instrumented':>13} {'stripped':>10} {'overhead':>9}",
    ]
    for run in record["runs"]:
        if "overhead" in run:
            lines.append(
                f"{run['path']:<24} {run['instrumented_s']:>12.4f}s "
                f"{run['stripped_s']:>9.4f}s {run['overhead']:>8.2%}"
            )
        else:
            lines.append(
                f"{run['path']:<24} {run['ns_per_call']:>10.1f} ns/call"
            )
    lines.append("")
    lines.append(
        f"worst overhead {record['worst_overhead']:.2%} -- "
        + ("within budget" if record["within_budget"] else "OVER BUDGET")
    )
    return lines


def _write_json(record: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")


# -- pytest entry point ------------------------------------------------------

def test_obs_disabled_overhead_under_budget(dataset_d, directory):
    from .conftest import OUTPUT_DIR, emit

    record = run_all(dataset_d, directory)
    _write_json(record, OUTPUT_DIR / "bench_obs_overhead.json")
    emit("obs_overhead", _render(record) + ["", json.dumps(record)])
    assert record["within_budget"], (
        f"disabled-mode obs overhead {record['worst_overhead']:.2%} "
        f"exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )


# -- standalone script -------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1,
                        help="fraction of paper-scale dataset D (default 0.1)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the JSON record to this path")
    args = parser.parse_args(argv)

    from repro.trace.simulate import default_config, simulate_dataset

    config = default_config()
    if args.scale < 0.999:
        config = config.scaled(args.scale)
    print(f"simulating dataset D at scale {args.scale}...", file=sys.stderr)
    dataset = simulate_dataset(config)
    directory = PublisherDirectory.from_universe(dataset.universe)

    record = run_all(dataset, directory)
    print("\n".join(_render(record)), file=sys.stderr)
    print(json.dumps(record, indent=2))
    if args.json:
        _write_json(record, args.json)
    return 0 if record["within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
