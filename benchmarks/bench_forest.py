"""Forest throughput benchmark: training engine + whole-forest arena inference.

Tracks the ML half of the pipeline's hot path: training the
section-5.4 price forest and scoring every encrypted impression in
dataset D.

Two records:

* ``BENCH_forest_train.json`` (``train_matrix``) -- the **training
  matrix** over a feature-set-S-shaped matrix (the paper's section-5.1
  cardinalities): the histogram engine at workers 1/N against a forest
  grown by the exact recursive reference grower (``tests/ml/
  reference.py``, the engine hist replaced).  Asserted along the way:
  hist payloads are byte-identical across worker counts, and hist's
  holdout accuracy stays within a point of the reference's.
* ``BENCH_forest.json`` (``run_matrix``) -- the workers sweep + the
  inference traversal sweep below.

Reports, as one JSON record (``BENCH_forest.json``):

* ``train_rows_per_sec`` per worker count (1/2/4 by default), with the
  bit-identical-to-sequential guarantee asserted along the way;
* ``predict_rows_per_sec`` per traversal -- a naive per-row pointer
  chase, an index-partition node walk and the per-tree forest loop
  (the oracles of ``tests/ml/reference.py``) against the whole-forest
  arena walk, the forest's only inference path -- over >= 50k rows
  through a 60-tree, depth-18 forest (the paper's production shape);
* a batch-size sweep (1, 2, 32, 1,025 and 8,192 rows) of the arena
  against the per-tree loop, identical probabilities asserted at every
  size;
* ``speedup_vs_per_row`` / ``speedup_vs_per_tree`` /
  ``speedup_vs_sequential`` so the acceptance bars (arena >= 5x per-row
  recursion, and not slower than the per-tree loop) are visible in the
  record;
* ``cpu_count`` and ``git_sha`` provenance, matching
  ``bench_parallel_analyzer``.

Two entry points:

* standalone script (no pytest needed)::

      PYTHONPATH=src python benchmarks/bench_forest.py \
          --train-rows 4000 --predict-rows 50000 --workers 1 2 4 \
          --json benchmarks/output/BENCH_forest.json

* pytest benchmark (scaled by ``REPRO_BENCH_SCALE``)::

      pytest benchmarks/bench_forest.py -s

As with ``bench_parallel_analyzer``, process-pool speedup is bounded by
hardware parallelism: on a 1-core box the workers>1 rows/sec can only
show pool overhead (fork + per-tree result pickling), never a win.  The
record carries ``cpu_count`` so readers can judge; the bit-identical
guarantee is asserted regardless of the core count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.serialize import dumps, forest_to_dict

try:  # package import under pytest, sibling import as a script
    from ._record import provenance
except ImportError:  # pragma: no cover - script mode
    from _record import provenance

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.ml.reference import (
    forest_proba,
    proba_nodes,
    proba_per_row,
    reference_forest,
)

#: The paper's production forest shape (section 5.4 / Estimator).
N_ESTIMATORS = 60
MAX_DEPTH = 18


def _synthetic(n_rows: int, n_features: int = 10, n_classes: int = 4,
               seed: int = 20151231) -> tuple[np.ndarray, np.ndarray]:
    """Ordinally-encoded-feature-like matrix with 4 learnable classes."""
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [rng.integers(0, rng.integers(3, 40), size=n_rows).astype(float)
         for _ in range(n_features)]
    )
    score = (
        0.8 * x[:, 0] / max(1.0, x[:, 0].max())
        + 0.6 * x[:, 1] / max(1.0, x[:, 1].max())
        + 0.3 * rng.normal(size=n_rows)
    )
    y = np.digitize(score, np.quantile(score, [0.25, 0.5, 0.75]))
    return x, y.astype(int)


def _time(fn, repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# -- training engine matrix ---------------------------------------------------

#: Paper section 5.1's selected feature set S with realistic
#: cardinalities: context, device_type, city, time_of_day, day_of_week,
#: slot_size, publisher_iab, adx.
S_CARDINALITIES = (2, 4, 50, 4, 7, 10, 25, 6)


def _feature_set_s(n_rows: int, seed: int = 20151231) -> tuple[np.ndarray, np.ndarray]:
    """Feature-set-S-shaped ordinal matrix with 4 learnable price classes.

    Price drivers mirror the paper's findings: city (fig 5), time of
    day (fig 6), IAB category (fig 11) and the ADX mix dominate.
    """
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [rng.integers(0, c, size=n_rows).astype(float) for c in S_CARDINALITIES]
    )
    score = (
        0.9 * (x[:, 2] / 49.0)
        + 0.5 * (x[:, 3] / 3.0)
        + 0.4 * (x[:, 6] / 24.0)
        + 0.3 * (x[:, 7] / 5.0)
        + 0.25 * rng.normal(size=n_rows)
    )
    y = np.digitize(score, np.quantile(score, [0.25, 0.5, 0.75]))
    return x, y.astype(int)


def train_matrix(
    train_rows: int = 50_000,
    eval_rows: int = 10_000,
    workers_list=(1, 4),
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
    repeats: int = 1,
) -> dict:
    """Time hist training across ``workers_list`` against the reference.

    The reference is a forest of the same shape and bootstrap draws
    grown by the exact recursive grower, single-process.  Contracts
    asserted, not just reported:

    * hist payloads are byte-identical across worker counts;
    * hist holdout accuracy within one point of the reference's (all S
      cardinalities are < 256, so hist scans the same candidate
      thresholds the exact search does).
    """
    workers_list = tuple(sorted({1, *workers_list}))
    x_all, y_all = _feature_set_s(train_rows + eval_rows)
    x, y = x_all[:train_rows], y_all[:train_rows]
    x_eval, y_eval = x_all[train_rows:], y_all[train_rows:]

    def holdout(forest) -> float:
        return float(np.mean(forest.predict(x_eval) == y_eval))

    ref_s, reference = _time(
        lambda: reference_forest(
            x, y, n_estimators, max_depth=max_depth, min_samples_leaf=2,
            seed=20151231,
        ),
        repeats,
    )
    ref_acc = holdout(reference)
    records: list[dict] = [
        {
            "engine": "exact-reference",
            "workers": 1,
            "seconds": round(ref_s, 4),
            "train_rows_per_sec": round(train_rows / ref_s, 1),
            "holdout_accuracy": round(ref_acc, 4),
        }
    ]

    timings: dict[int, float] = {}
    payloads: dict[int, str] = {}
    for workers in workers_list:
        t_s, forest = _time(
            lambda: RandomForestClassifier(
                n_estimators=n_estimators,
                max_depth=max_depth,
                min_samples_leaf=2,
                seed=20151231,
                workers=workers,
            ).fit(x, y),
            repeats,
        )
        timings[workers] = t_s
        payloads[workers] = dumps(forest_to_dict(forest))
        hist_acc = holdout(forest)
        records.append(
            {
                "engine": "hist",
                "workers": workers,
                "seconds": round(t_s, 4),
                "train_rows_per_sec": round(train_rows / t_s, 1),
                "holdout_accuracy": round(hist_acc, 4),
                "speedup_vs_reference": round(ref_s / t_s, 2),
            }
        )

    # -- contracts ----------------------------------------------------------
    for workers in workers_list:
        assert payloads[workers] == payloads[1], (
            f"hist workers={workers} diverged from sequential"
        )
    assert hist_acc >= ref_acc - 0.01, (
        f"hist accuracy {hist_acc:.4f} fell more than a point below the "
        f"exact reference {ref_acc:.4f}"
    )

    return {
        "benchmark": "forest_train",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "train_rows": train_rows,
        "eval_rows": eval_rows,
        "feature_cardinalities": list(S_CARDINALITIES),
        **provenance(),
        "speedups": {
            "hist_vs_reference": round(ref_s / timings[1], 2),
        },
        "runs": records,
    }


def _render_train(record: dict) -> list[str]:
    lines = [
        f"Price-forest training ({record['n_estimators']} trees, "
        f"max depth {record['max_depth']}, {record['train_rows']:,} rows, "
        f"feature set S, {record['cpu_count']} CPUs, git {record['git_sha']}):",
        "",
        f"{'engine':<16} {'workers':>7} {'seconds':>9} {'rows/sec':>12} "
        f"{'acc':>7} {'vs ref':>7}",
    ]
    for run in record["runs"]:
        lines.append(
            f"{run['engine']:<16} {run['workers']:>7} {run['seconds']:>9.3f} "
            f"{run['train_rows_per_sec']:>12,.1f} "
            f"{run['holdout_accuracy']:>7.4f} "
            f"{str(run.get('speedup_vs_reference', '')):>7}"
        )
    lines += [
        "",
        f"hist vs exact reference: {record['speedups']['hist_vs_reference']}x "
        "(hist byte-identical across workers; accuracy within a point).",
    ]
    return lines


# -- inference baselines -----------------------------------------------------
#
# The forest scores only through the whole-forest arena walk
# (``FlatForest``); the per-row pointer chase, the index-partition walk
# and the per-tree forest loop of ``tests/ml/reference.py`` are the
# baselines it is timed against (and held bit-identical to).  The first
# two never call ``FlatTree.apply``; the per-tree loop runs each tree's
# own flat walk, one tree at a time, as ``predict_proba`` did before the
# arena.

#: Batch sizes of the arena-vs-per-tree sweep: one row (a YourAdValue
#: estimate), two rows (a serve micro-batch at two sockets), a serve
#: micro-batch at load, one row past a full arena block (a one-row
#: second block), and a batch spanning eight arena blocks.
SWEEP_ROWS = (1, 2, 32, 1_025, 8_192)


def _per_row_proba(forest: RandomForestClassifier, x: np.ndarray) -> np.ndarray:
    """Naive descent: one pointer chase per (row, tree)."""
    return forest_proba(forest, x, proba_per_row)


def _node_walk_proba(forest: RandomForestClassifier, x: np.ndarray) -> np.ndarray:
    """Index-partition batch walk: one mask per visited node."""
    return forest_proba(forest, x, proba_nodes)


def _per_tree_proba(forest: RandomForestClassifier, x: np.ndarray) -> np.ndarray:
    """One flat walk per member tree, summed in tree order."""
    return forest_proba(forest, x, lambda tree, rows: tree.predict_proba(rows))


def _per_call(fn, rows: int, repeats: int) -> tuple[float, np.ndarray]:
    """Best-of-``repeats`` seconds per call, over enough calls to time."""
    calls = max(1, 256 // rows)

    def batch():
        for _ in range(calls):
            out = fn()
        return out

    seconds, out = _time(batch, max(3, repeats))
    return seconds / calls, out


def batch_sweep(forest: RandomForestClassifier, x: np.ndarray,
                repeats: int = 1) -> list[dict]:
    """Arena vs per-tree loop at each of :data:`SWEEP_ROWS` rows."""
    records = []
    for rows in SWEEP_ROWS:
        xs = np.resize(x, (rows, x.shape[1]))
        tree_s, tree_out = _per_call(lambda: _per_tree_proba(forest, xs),
                                     rows, repeats)
        arena_s, arena_out = _per_call(lambda: forest.predict_proba(xs),
                                       rows, repeats)
        assert np.array_equal(arena_out, tree_out), (
            f"arena diverged from the per-tree loop at {rows} rows"
        )
        for traversal, seconds in (("per-tree-loop", tree_s),
                                   ("arena", arena_s)):
            records.append({
                "phase": "sweep",
                "traversal": traversal,
                "rows": rows,
                "ms_per_call": round(seconds * 1000, 4),
                "predict_rows_per_sec": round(rows / seconds, 1),
            })
        records[-1]["speedup_vs_per_tree"] = round(tree_s / arena_s, 2)
    return records


def run_matrix(
    train_rows: int = 4_000,
    predict_rows: int = 50_000,
    workers_list=(1, 2, 4),
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
    repeats: int = 1,
    per_row_cap: int | None = None,
) -> dict:
    """Time training per worker count and inference per traversal mode.

    ``per_row_cap`` optionally bounds how many rows the (very slow)
    per-row recursive baseline scores; its rows/sec is measured on that
    subset and the speedup computed rate-to-rate, which favours the
    baseline if anything (no cold-start amortisation).
    """
    x_train, y_train = _synthetic(train_rows, seed=20151231)
    x_pred, _ = _synthetic(predict_rows, seed=715517)

    records: list[dict] = []

    # -- training: workers sweep, bit-identity asserted ---------------------
    def fit_with(workers: int) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=2,
            seed=20151231,
            workers=workers,
        ).fit(x_train, y_train)

    seq_s, forest = _time(lambda: fit_with(1), repeats)
    reference_payload = dumps(forest_to_dict(forest))
    records.append(
        {
            "phase": "train",
            "workers": 1,
            "seconds": round(seq_s, 4),
            "train_rows_per_sec": round(train_rows / seq_s, 1),
        }
    )
    for workers in workers_list:
        if workers == 1:
            continue
        par_s, par = _time(lambda w=workers: fit_with(w), repeats)
        assert dumps(forest_to_dict(par)) == reference_payload, (
            f"workers={workers} training diverged from sequential"
        )
        records.append(
            {
                "phase": "train",
                "workers": workers,
                "seconds": round(par_s, 4),
                "train_rows_per_sec": round(train_rows / par_s, 1),
                "speedup_vs_sequential": round(seq_s / par_s, 2),
            }
        )

    # -- inference: traversal sweep ----------------------------------------
    n_per_row = min(predict_rows, per_row_cap or predict_rows)
    per_row_s, per_row_out = _time(
        lambda: _per_row_proba(forest, x_pred[:n_per_row]),
        1,  # the naive path is too slow to repeat
    )
    per_row_rate = n_per_row / per_row_s
    records.append(
        {
            "phase": "predict",
            "traversal": "per-row-recursive",
            "rows": n_per_row,
            "seconds": round(per_row_s, 4),
            "predict_rows_per_sec": round(per_row_rate, 1),
        }
    )

    nodes_s, nodes_out = _time(
        lambda: _node_walk_proba(forest, x_pred), repeats
    )
    records.append(
        {
            "phase": "predict",
            "traversal": "node-walk-batch",
            "rows": predict_rows,
            "seconds": round(nodes_s, 4),
            "predict_rows_per_sec": round(predict_rows / nodes_s, 1),
            "speedup_vs_per_row": round((predict_rows / nodes_s) / per_row_rate, 2),
        }
    )

    tree_s, tree_out = _time(
        lambda: _per_tree_proba(forest, x_pred), repeats
    )
    records.append(
        {
            "phase": "predict",
            "traversal": "per-tree-loop",
            "rows": predict_rows,
            "seconds": round(tree_s, 4),
            "predict_rows_per_sec": round(predict_rows / tree_s, 1),
            "speedup_vs_per_row": round((predict_rows / tree_s) / per_row_rate, 2),
        }
    )

    arena_s, arena_out = _time(
        lambda: forest.predict_proba(x_pred), repeats
    )
    assert np.array_equal(arena_out, nodes_out), "arena diverged from node walk"
    assert np.array_equal(arena_out, tree_out), (
        "arena diverged from the per-tree loop"
    )
    assert np.array_equal(arena_out[:n_per_row], per_row_out), (
        "arena diverged from per-row recursion"
    )
    records.append(
        {
            "phase": "predict",
            "traversal": "arena",
            "rows": predict_rows,
            "seconds": round(arena_s, 4),
            "predict_rows_per_sec": round(predict_rows / arena_s, 1),
            "speedup_vs_per_row": round((predict_rows / arena_s) / per_row_rate, 2),
            "speedup_vs_node_walk": round(nodes_s / arena_s, 2),
            "speedup_vs_per_tree": round(tree_s / arena_s, 2),
        }
    )
    records += batch_sweep(forest, x_pred, repeats)

    return {
        "benchmark": "forest",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "fitted_depth_max": max(t.depth() for t in forest.trees_),
        "train_rows": train_rows,
        "predict_rows": predict_rows,
        **provenance(),
        "runs": records,
    }


def _render(record: dict) -> list[str]:
    lines = [
        f"Price-forest throughput ({record['n_estimators']} trees, "
        f"max depth {record['max_depth']}, {record['cpu_count']} CPUs, "
        f"git {record['git_sha']}):",
        "",
        f"{'phase':<8} {'config':<22} {'rows':>7} {'rows/sec':>12} "
        f"{'speedup':>8} {'vs tree':>8}",
    ]
    for run in record["runs"]:
        config = (
            f"workers={run['workers']}" if run["phase"] == "train"
            else run["traversal"]
        )
        rate = run.get("train_rows_per_sec", run.get("predict_rows_per_sec"))
        speed = run.get("speedup_vs_sequential", run.get("speedup_vs_per_row", ""))
        lines.append(
            f"{run['phase']:<8} {config:<22} {run.get('rows', ''):>7} "
            f"{rate:>12,.1f} {str(speed):>8} "
            f"{str(run.get('speedup_vs_per_tree', '')):>8}"
        )
    lines.append("")
    lines.append(
        "train speedup: vs workers=1 (bit-identical output asserted); "
        "predict speedup: vs per-row recursive traversal; vs tree: arena "
        "vs the per-tree forest loop (identical probabilities asserted)."
    )
    return lines


# -- pytest entry points -----------------------------------------------------

def test_forest_training_engines():
    """CI smoke of the training matrix (scaled by ``REPRO_BENCH_SCALE``);
    writes ``BENCH_forest_train.json``."""
    from .conftest import OUTPUT_DIR, bench_scale, emit

    scale = bench_scale()
    record = train_matrix(
        train_rows=max(2_000, int(50_000 * scale)),
        # Holdout stays full-size at every scale: scoring is cheap and
        # the accuracy-parity contract needs the binomial noise floor
        # well under the one-point tolerance.
        eval_rows=10_000,
        workers_list=(1, 4),
        n_estimators=max(12, int(N_ESTIMATORS * scale)),
        # Best-of-2 at full scale: single-CPU wall times swing by
        # ~+-20% run to run, and the acceptance bar compares a ratio of
        # single measurements.  Minimum-of-N is the standard antidote.
        repeats=2 if scale >= 0.999 else 1,
    )
    emit("BENCH_forest_train", _render_train(record) + ["", json.dumps(record)])
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_forest_train.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    # The speed bar, relaxed at smoke scales (fewer rows per node means
    # less sorting for the exact reference to lose).
    speedup = record["speedups"]["hist_vs_reference"]
    assert speedup >= (4.0 if scale >= 0.999 else 2.0)


def test_forest_throughput(benchmark):
    from .conftest import bench_scale, emit

    scale = bench_scale()
    record = run_matrix(
        train_rows=max(400, int(4_000 * scale)),
        predict_rows=max(5_000, int(50_000 * scale)),
        workers_list=(1, 2, 4),
        per_row_cap=max(500, int(5_000 * scale)),
    )
    x_pred, _ = _synthetic(max(5_000, int(50_000 * scale)), seed=715517)
    x_train, y_train = _synthetic(max(400, int(4_000 * scale)), seed=20151231)
    forest = RandomForestClassifier(
        n_estimators=N_ESTIMATORS, max_depth=MAX_DEPTH, min_samples_leaf=2,
        seed=20151231,
    ).fit(x_train, y_train)
    benchmark(lambda: forest.predict_proba(x_pred))
    emit("BENCH_forest", _render(record) + ["", json.dumps(record)])
    arena = next(r for r in record["runs"]
                 if r["phase"] == "predict" and r["traversal"] == "arena")
    # The per-row acceptance bar, relaxed only at tiny scales.
    if scale >= 0.999:
        assert arena["speedup_vs_per_row"] >= 5.0
    else:
        assert arena["speedup_vs_per_row"] >= 2.0
    # Large batches are what the arena's row blocks are for: without
    # them it walked ~30% slower than the per-tree loop.  The floor
    # leaves room for run-to-run spread (measured 0.98-1.15x).
    large = next(r for r in record["runs"] if r["phase"] == "sweep"
                 and r["traversal"] == "arena" and r["rows"] >= 8_192)
    assert large["speedup_vs_per_tree"] >= 0.75


# -- standalone script -------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-bench", action="store_true",
                        help="run the training matrix (hist at 1/N "
                             "workers vs the exact reference grower over "
                             "feature set S) instead of the throughput "
                             "matrix")
    parser.add_argument("--train-rows", type=int, default=None,
                        help="default 4000 (throughput) / 50000 (train "
                             "bench)")
    parser.add_argument("--eval-rows", type=int, default=10_000,
                        help="holdout rows for the train bench's "
                             "accuracy parity check")
    parser.add_argument("--predict-rows", type=int, default=50_000)
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="default 1 2 4 (throughput) / 1 4 (train "
                             "bench)")
    parser.add_argument("--trees", type=int, default=N_ESTIMATORS)
    parser.add_argument("--max-depth", type=int, default=MAX_DEPTH)
    parser.add_argument("--repeats", type=int, default=1,
                        help="best-of-N timing repeats (default 1)")
    parser.add_argument("--per-row-cap", type=int, default=None,
                        help="cap rows scored by the slow per-row baseline")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the JSON record to this path")
    args = parser.parse_args(argv)

    if args.train_bench:
        record = train_matrix(
            train_rows=args.train_rows or 50_000,
            eval_rows=args.eval_rows,
            workers_list=tuple(args.workers or (1, 4)),
            n_estimators=args.trees,
            max_depth=args.max_depth,
            repeats=args.repeats,
        )
        print("\n".join(_render_train(record)), file=sys.stderr)
    else:
        record = run_matrix(
            train_rows=args.train_rows or 4_000,
            predict_rows=args.predict_rows,
            workers_list=tuple(args.workers or (1, 2, 4)),
            n_estimators=args.trees,
            max_depth=args.max_depth,
            repeats=args.repeats,
            per_row_cap=args.per_row_cap,
        )
        print("\n".join(_render(record)), file=sys.stderr)
    print(json.dumps(record, indent=2))
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
