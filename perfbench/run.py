"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare parent_results/ change_results/

A run builds its inputs from ``--seed`` (several times; the median is
``setup_s``), measures for about ``--seconds`` seconds, checks every
output, prints every metric by name with its unit and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` span-recording shims wrap the program's public entry
points and the metrics are the per-layer ones, preceded by a table of
self time per layer that adds up to the traced wall time.

The end-to-end metrics have one meaning per workload, because every run
reports all of them:

============  ==========================  ==============================
metric        pipeline                    client_service
============  ==========================  ==============================
p50_ms        median pipeline run (wall)  encrypted ``observe()`` in the
                                          client replay
p99_ms        slowest pipeline run        same, p99
rate_per_s    weblog rows per pipeline    encrypted prices estimated per
              second                      second of ``observe()``
============  ==========================  ==============================

plus ``setup_s`` (median of the set-ups) and ``peak_rss_mb`` on both.

``client_service`` goes on to the PME service, whose figures are in its
record by name rather than end to end, because on a shared 2-core host
their run-to-run spread was wider than any bound the benchmark may set:
``serve_p50_ms`` and ``serve_p99_ms`` (100 req/s over two keep-alive
sockets, from each request's due time; the p99 is the median of the
p99s of 10 windows), ``serve_max_rps`` (the highest rung of a 1.1x rate
ladder with p99 <= 100 ms, >= 95% achieved, no growing backlog and no
failure), ``contrib_p99_ms`` and ``retrain_install_s``.  With two
connections a batch holds at most two rows, so the service phases
measure per-request cost, not coalescing.  The contribution phase
offers 25 req/s on one socket while contributions go in on the other
and cross the retrain floor three times: while a retrain runs in the
executor thread one socket is served at only ~40-50 req/s, so at 100
req/s the queue, not the server, would set the latency.  Every record
carries attempted and failed counts per phase and per rate.

Records are written to ``perfbench/results/`` (one file per workload,
seed and trace flag); ``--compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _import_program():
    """Put the checkout's ``src`` and ``benchmarks`` on the path."""
    for sub in ("src", "benchmarks"):
        path = ROOT / sub
        if not path.is_dir():
            raise SystemExit(f"perfbench: {path} is missing; run from a "
                             "checkout of the repository")
        sys.path.insert(0, str(path))
    sys.path.insert(0, str(HERE))


class Context:
    """What a workload reports into, and the phases it runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.named_metrics: dict[str, dict] = {}
        self.e2e_values: dict[str, float] = {}
        self.layer_extra: dict[str, float] = {}
        self.record: dict = {}
        self.measure_wall_s = 0.0
        self.measure_cpu_s = 0.0
        self.measured_counts: Counter = Counter()

    @contextmanager
    def _phase(self, name: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.phase(name):
                yield

    @contextmanager
    def setup(self):
        start = time.perf_counter()
        with self._phase("setup"):
            yield
        self.setup_s.append(time.perf_counter() - start)

    @contextmanager
    def measure(self):
        counts = Counter(self.tracer.counts) if self.tracer is not None else None
        start, cpu = time.perf_counter(), time.process_time()
        with self._phase("measure"):
            yield
        self.measure_wall_s = time.perf_counter() - start
        self.measure_cpu_s = time.process_time() - cpu
        if counts is not None:
            self.measured_counts = self.tracer.counts - counts

    def attempt(self, n: int, failed: int = 0, problems: list[str] = ()) -> None:
        self.attempted += int(n)
        self.failed += int(failed)
        self.problems.extend(problems)

    def named(self, name: str, value: float, unit: str, n: int | None = None) -> None:
        self.named_metrics[name] = {"value": value, "unit": unit, "samples": n}

    def e2e(self, **values: float) -> None:
        self.e2e_values.update(values)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    import numpy
    from _record import provenance
    import workloads

    tracer = None
    if args.trace:
        from shims import Tracer
        tracer = Tracer()
        skipped = tracer.install()
    ctx = Context(tracer)
    workload = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    try:
        result = workload(ctx, args.seed, float(args.seconds))
        if asyncio.iscoroutine(result):
            asyncio.run(result)
    finally:
        if tracer is not None:
            tracer.uninstall()

    spec = load_spec()
    e2e = {"setup_s": workloads.median(ctx.setup_s), "peak_rss_mb": peak_rss_mb(),
           **ctx.e2e_values}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "problems": ctx.problems[:20],
        "end_to_end": {k: {"value": e2e[k], "unit": units[k]} for k in
                       [m["name"] for m in spec["end_to_end"]]},
        "named": ctx.named_metrics,
        "setup_runs_s": ctx.setup_s,
        "measure_wall_s": ctx.measure_wall_s,
        "measure_cpu_s": ctx.measure_cpu_s,
        "run_wall_s": time.perf_counter() - started,
        **ctx.record,
        "provenance": {**provenance(), "python": platform.python_version(),
                       "numpy": numpy.__version__},
    }
    if tracer is not None:
        from shims import layer_metrics
        layers = layer_metrics(tracer, "measure", ctx.measured_counts)
        layers.update(ctx.layer_extra)
        table = {phase: tracer.layer_table(phase) for phase in ("setup", "measure")}
        layers["bench.traced_wall_s"] = table["measure"]["wall_s"]
        layers["bench.unattributed_s"] = table["measure"]["unattributed_s"]
        record["per_layer"] = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                                           "unit": m["unit"]}
                               for m in spec["per_layer"]}
        record["layer_table"] = table
        record["shims_skipped"] = skipped
        record["span_totals"] = tracer.span_totals("measure")
        record["spans_file"] = write_spans(args, tracer)
    return record


def write_spans(args, tracer) -> str:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{args.workload}-s{args.seed}.json"
    path.write_text(json.dumps(tracer.dump()))
    return str(path.relative_to(ROOT))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(record: dict) -> None:
    out = print
    out(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])}"
        f" -- {record['why']}")
    out(f"   attempted {record['attempted']}, failed {record['failed']}, "
        f"correct {record['correct']}")
    for problem in record["problems"]:
        out(f"   problem: {problem}")
    out("   end to end:")
    for name, m in record["end_to_end"].items():
        out(f"     {name:<24} {_fmt(m['value']):>12} {m['unit']}")
    out("   workload metrics:")
    for name, m in record["named"].items():
        n = f"  (n={m['samples']})" if m["samples"] is not None else ""
        out(f"     {name:<24} {_fmt(m['value']):>12} {m['unit']}{n}")
    for phase in record.get("phases", []):
        flag = "" if phase["trusted"] else "  UNTRUSTED: generator lag"
        verdict = phase.get("meets_limit")
        verdict = "" if verdict is None else ("  meets limit" if verdict else
                                              "  misses limit")
        out(f"     phase {phase['phase']:<12} offered {phase['offered_per_s']:>6.0f}/s "
            f"achieved {phase['achieved_per_s']:>7.1f}/s sent {phase['sent']} "
            f"ok {phase['succeeded']} failed {phase['failed']} "
            f"p50 {phase['p50_ms']:.2f} p99 {phase['p99_ms']:.2f} ms "
            f"(n={phase['samples']}) lag p99 {phase['lag_p99_ms']:.2f} ms "
            f"backlog {phase['backlog_at_end']}{verdict}{flag}")
    if "layer_table" in record:
        print_layer_table(record)


def print_layer_table(record: dict) -> None:
    table = record["layer_table"]
    print("   self time per layer (main thread; rows + unattributed = wall):")
    print(f"     {'layer':<22} {'setup s':>10} {'measure s':>10}")
    for layer in table["measure"]["layers_s"]:
        print(f"     {layer:<22} {table['setup']['layers_s'][layer]:>10.4f} "
              f"{table['measure']['layers_s'][layer]:>10.4f}")
    print(f"     {'unattributed':<22} {table['setup']['unattributed_s']:>10.4f} "
          f"{table['measure']['unattributed_s']:>10.4f}")
    print(f"     {'= traced wall':<22} {table['setup']['wall_s']:>10.4f} "
          f"{table['measure']['wall_s']:>10.4f}")
    for phase in ("setup", "measure"):
        for layer, busy in table[phase]["off_thread_s"].items():
            print(f"     off-thread {phase}: {layer} busy {busy:.4f} s")
    untraced = RESULTS / f"{record['workload']}-s{record['seed']}-t0.json"
    if not untraced.exists():
        print(f"   tracing overhead: no untraced record for seed {record['seed']};"
              " run with --trace 0 first")
        return
    base = json.loads(untraced.read_text())
    print("   tracing overhead (traced minus untraced, same seed):")
    for name, m in record["end_to_end"].items():
        before = base["end_to_end"][name]["value"]
        delta = m["value"] - before
        pct = f" ({100 * delta / before:+.1f}%)" if before else ""
        print(f"     {name:<24} {_fmt(delta):>12} {m['unit']}{pct}")
    print(f"     {'measure wall':<24} "
          f"{_fmt(record['measure_wall_s'] - base['measure_wall_s']):>12} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found at the checkout root",
              file=sys.stderr)
        return 2
    _import_program()
    if args.compare:
        from compare import compare
        return compare(*args.compare, load_spec())
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    record = run(args)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    print_report(record)
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
