"""Serving throughput benchmark: micro-batched vs per-request estimation.

Tracks the serving half of the ISSUE-3 acceptance bar: rows/sec and
client-side p50/p99 latency through a real ``PmeServer`` socket under
concurrent load, with micro-batching **on** (``max_batch=32``) vs
**off** (``max_batch=1``).  Every estimate call has a fixed cost --
encoding, spans and the forest arena walk's ``O(depth)`` numpy steps --
that barely grows with the rows riding along; the serve layer's
batching queue is what converts that property into request throughput,
and this benchmark is the record of how much.

One JSON record (``BENCH_serve.json``) carries, per configuration:
``rows_per_sec``, ``latency_p50_ms`` / ``latency_p99_ms`` (measured
client-side, so batching delay is included), the server-side mean batch
size, plus the shared ``_record.provenance()`` fields (``cpu_count``,
``git_sha``) and ``batched_speedup`` at the top level.

Two entry points:

* standalone script (no pytest needed)::

      PYTHONPATH=src python benchmarks/bench_serve.py \
          --requests 3000 --concurrency 32 \
          --json benchmarks/output/BENCH_serve.json

* pytest benchmark (scaled by ``REPRO_BENCH_SCALE``)::

      pytest benchmarks/bench_serve.py -s

The acceptance bar lives in the pytest entry: at concurrency >= 32 the
micro-batched configuration must out-throughput batching-off.  Unlike
the process-pool benches this holds on a 1-core box too -- batching
removes python-level forest walks from the request path instead of
adding parallelism.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.estimator import Estimator
from repro.serve import PmeServer

try:  # package import under pytest, sibling import as a script
    from ._record import provenance
    from .loadgen import run_load
except ImportError:  # pragma: no cover - script mode
    from _record import provenance
    from loadgen import run_load

#: The paper's production forest shape (section 5.4).
N_ESTIMATORS = 60
MAX_DEPTH = 18


def build_package(
    train_rows: int = 400,
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
    seed: int = 20151231,
) -> tuple[dict, dict]:
    """A packaged model at production shape + one feature row to score."""
    rng = np.random.default_rng(seed)
    vocab = {
        "context": ["app", "web"],
        "device_type": ["smartphone", "tablet", "desktop"],
        "city": [f"city-{i}" for i in range(20)],
        "slot_size": ["320x50", "300x250", "728x90", "160x600"],
        "publisher_iab": [f"IAB{i}" for i in range(1, 15)],
        "adx": [f"AdX-{i}" for i in range(4)],
    }
    rows = []
    for _ in range(train_rows):
        row = {k: v[int(rng.integers(0, len(v)))] for k, v in vocab.items()}
        row["time_of_day"] = int(rng.integers(0, 6))
        row["day_of_week"] = int(rng.integers(0, 7))
        rows.append(row)
    prices = np.exp(rng.normal(0.0, 1.0, size=train_rows)).tolist()
    model = Estimator.train(
        rows, prices, n_estimators=n_estimators, max_depth=max_depth,
        seed=seed,
    )
    package = model.to_package()
    package["time_correction"] = 1.17
    return package, rows[0]


def _flushes(server: PmeServer) -> int:
    """Micro-batch flushes so far, from the server's registry series."""
    return int(server.metrics.obs_snapshot()["serve.batch.flushes"]["total"])


async def _measure(
    package: dict,
    features: dict,
    *,
    max_batch: int,
    max_delay_ms: float,
    requests: int,
    concurrency: int,
) -> dict:
    server = PmeServer(
        package, max_batch=max_batch, max_delay_ms=max_delay_ms
    )
    await server.start(port=0)
    try:
        assert server.port is not None
        # Warm the path (connection setup, first forest walk) off-record.
        await run_load(
            "127.0.0.1", server.port,
            total=min(128, requests), concurrency=concurrency,
            features=features,
        )
        warm_flushes = _flushes(server)
        result = await run_load(
            "127.0.0.1", server.port,
            total=requests, concurrency=concurrency, features=features,
        )
        flushes = _flushes(server) - warm_flushes
        assert result.errors == 0, f"{result.errors} estimate errors"
        return {
            "max_batch": max_batch,
            "max_delay_ms": max_delay_ms,
            "concurrency": concurrency,
            **result.summary(),
            "mean_batch_size": round(requests / flushes, 2) if flushes else 0.0,
        }
    finally:
        await server.stop()


def run_matrix(
    requests: int = 3_000,
    concurrency: int = 32,
    max_batch: int = 32,
    max_delay_ms: float = 2.0,
    train_rows: int = 400,
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
) -> dict:
    """Measure batching-off then batching-on over one packaged model."""
    package, features = build_package(
        train_rows=train_rows, n_estimators=n_estimators, max_depth=max_depth
    )

    async def scenario() -> list[dict]:
        off = await _measure(
            package, features,
            max_batch=1, max_delay_ms=0.0,
            requests=requests, concurrency=concurrency,
        )
        on = await _measure(
            package, features,
            max_batch=max_batch, max_delay_ms=max_delay_ms,
            requests=requests, concurrency=concurrency,
        )
        return [off, on]

    off, on = asyncio.run(scenario())
    off["config"] = "batching-off"
    on["config"] = "micro-batched"
    return {
        "benchmark": "serve",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "requests": requests,
        "concurrency": concurrency,
        **provenance(),
        "batched_speedup": round(
            on["rows_per_sec"] / off["rows_per_sec"], 2
        ) if off["rows_per_sec"] else float("inf"),
        "runs": [off, on],
    }


def _render(record: dict) -> list[str]:
    lines = [
        f"PME serving throughput ({record['n_estimators']} trees, "
        f"max depth {record['max_depth']}, concurrency "
        f"{record['concurrency']}, {record['cpu_count']} CPUs, "
        f"git {record['git_sha']}):",
        "",
        f"{'config':<16} {'rows/sec':>10} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'mean batch':>11}",
    ]
    for run in record["runs"]:
        lines.append(
            f"{run['config']:<16} {run['rows_per_sec']:>10,.1f} "
            f"{run['latency_p50_ms']:>8.2f} {run['latency_p99_ms']:>8.2f} "
            f"{run['mean_batch_size']:>11.2f}"
        )
    lines.append("")
    lines.append(
        f"micro-batched speedup over batching-off: "
        f"{record['batched_speedup']}x "
        "(latency measured client-side over real sockets, batching delay "
        "included)"
    )
    return lines


# -- pytest entry point ------------------------------------------------------

def test_serve_throughput(benchmark):
    from .conftest import bench_scale, emit

    scale = bench_scale()
    requests = max(500, int(3_000 * scale))
    record = run_matrix(requests=requests, concurrency=32)
    emit("BENCH_serve", _render(record) + ["", json.dumps(record)])

    package, features = build_package(train_rows=200, n_estimators=20,
                                      max_depth=10)

    def one_shot():
        async def run():
            return await _measure(
                package, features, max_batch=32, max_delay_ms=2.0,
                requests=200, concurrency=16,
            )

        return asyncio.run(run())

    benchmark(one_shot)

    on = next(r for r in record["runs"] if r["config"] == "micro-batched")
    off = next(r for r in record["runs"] if r["config"] == "batching-off")
    # ISSUE-3 acceptance bar: micro-batched throughput strictly above
    # the batching-off baseline at concurrency >= 32.
    assert on["rows_per_sec"] > off["rows_per_sec"], (
        f"micro-batching did not pay: {on['rows_per_sec']:.0f} <= "
        f"{off['rows_per_sec']:.0f} rows/sec"
    )
    assert on["mean_batch_size"] > 1.5, "requests never coalesced"


# -- standalone script -------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=3_000)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument("--train-rows", type=int, default=400)
    parser.add_argument("--trees", type=int, default=N_ESTIMATORS)
    parser.add_argument("--max-depth", type=int, default=MAX_DEPTH)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the JSON record to this path")
    args = parser.parse_args(argv)

    record = run_matrix(
        requests=args.requests,
        concurrency=args.concurrency,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        train_rows=args.train_rows,
        n_estimators=args.trees,
        max_depth=args.max_depth,
    )
    print("\n".join(_render(record)), file=sys.stderr)
    print(json.dumps(record, indent=2))
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
