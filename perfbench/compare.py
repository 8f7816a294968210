"""Compare two sets of benchmark records, such as parent and change.

``python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR`` reads the
untraced records (``<workload>-s<seed>-t0.json``) in each directory and
prints, per workload and end-to-end metric, each side's median and
quartiles and a verdict against the bounds in ``BENCHMARK.json``:

* ``better`` -- the change wins at least nine tenths of the runs paired
  by seed, and the medians differ by more than the parent's quartile
  spread;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound, and the change does not read better on every
  run than the parent on every run;
* ``unchanged`` -- none of the above.

A side with failed operations is reported, since a gain does not count
when more operations fail than at the parent.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: str) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: record}}`` of the untraced records."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-t0.json")):
        record = json.loads(path.read_text())
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], bound: float,
            higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if higher_is_better:
        all_better = min(change.values()) > max(parent.values())
    else:
        all_better = max(change.values()) < min(parent.values())
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - pm) > (p3 - p1):
        return "better"
    if spread > bound and not all_better:
        return "unresolved"
    if pm and sign * (cm - pm) / pm < -bound:
        return "worse"
    return "unchanged"


def compare(parent_dir: str, change_dir: str, spec: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    worse = 0
    for workload in sorted(parent.keys() & change.keys()):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        print(f"== {workload}: parent {len(p_runs)} runs ({p_failed} failed ops), "
              f"change {len(c_runs)} runs ({c_failed} failed ops)")
        print(f"   {'metric':<14} {'parent q1/median/q3':>34} "
              f"{'change q1/median/q3':>34} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: r["end_to_end"][name]["value"] for s, r in p_runs.items()}
            c = {s: r["end_to_end"][name]["value"] for s, r in c_runs.items()}
            result = verdict(p, c, metric["bound"], metric["better"] == "higher")
            worse += result == "worse"
            fmt = "{:>10.4g} {:>11.4g} {:>11.4g}"
            print(f"   {name:<14} {fmt.format(*quartiles(list(p.values())))} "
                  f"{fmt.format(*quartiles(list(c.values())))} "
                  f"{metric['bound']:>6.2f}  {result}")
        if c_failed > p_failed:
            print(f"   the change fails more operations ({c_failed} > {p_failed}): "
                  "no gain counts")
    missing = parent.keys() ^ change.keys()
    if missing:
        print(f"workloads on one side only: {sorted(missing)}")
    return 1 if worse else 0
