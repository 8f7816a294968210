"""Plain-text chart rendering for figures.

The paper's evaluation is figures; a terminal-first reproduction needs
to *show* them, not only assert on them.  This module renders the two
chart families the paper uses into fixed-width text: CDF families with
log-scaled x axes (Figures 11, 16, 17) and percentile-box summaries
(Figures 5-10, 12-15).  Benches embed these renderings in their
regenerated outputs so a reader can eyeball the shapes next to the paper.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

def _log_grid(lo: float, hi: float, width: int) -> np.ndarray:
    lo = max(lo, 1e-9)
    hi = max(hi, lo * 1.0001)
    return np.logspace(math.log10(lo), math.log10(hi), width)


def cdf_plot(
    series: Mapping[str, Iterable[float]],
    width: int = 60,
    height: int = 12,
    log_x: bool = True,
) -> list[str]:
    """ASCII CDF family plot (one letter per series), log x by default.

    Mirrors the paper's CDF figures: x is the value (CPM), y the
    cumulative fraction; each series draws with its own marker and the
    legend maps markers to names.
    """
    prepared = {
        name: np.sort(np.asarray(list(values), dtype=float))
        for name, values in series.items()
        if len(list(values)) > 0
    }
    prepared = {k: v for k, v in prepared.items() if v.size > 0}
    if not prepared:
        return ["(no data)"]

    lo = min(v[0] for v in prepared.values())
    hi = max(v[-1] for v in prepared.values())
    if log_x:
        grid = _log_grid(lo, hi, width)
    else:
        grid = np.linspace(lo, hi, width)

    markers = "abcdefghij"
    canvas = [[" "] * width for _ in range(height)]
    for idx, (name, values) in enumerate(prepared.items()):
        marker = markers[idx % len(markers)]
        fractions = np.searchsorted(values, grid, side="right") / values.size
        for x, fraction in enumerate(fractions):
            y = height - 1 - min(height - 1, int(fraction * (height - 1) + 0.5))
            if canvas[y][x] == " ":
                canvas[y][x] = marker

    lines = []
    for row_index, row in enumerate(canvas):
        fraction = 1.0 - row_index / (height - 1)
        lines.append(f"{fraction:>4.0%} |" + "".join(row) + "|")
    if log_x:
        lines.append(
            "     " + f"{grid[0]:<10.3g}{'log x':^{max(0, width - 20)}}{grid[-1]:>10.3g}"
        )
    else:
        lines.append("     " + f"{grid[0]:<10.3g}{grid[-1]:>{max(0, width - 10)}.3g}")
    legend = ", ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(prepared)
    )
    lines.append("     legend: " + legend)
    return lines


def percentile_box(
    groups: Mapping[str, Sequence[float]],
    width: int = 50,
    log_x: bool = True,
) -> list[str]:
    """Text box-plot rows (p5..p95 span, p50 marker) per group.

    The paper's per-city / per-OS / per-slot figures are percentile
    boxes; this renders the same geometry with ``-`` spans and ``|``
    medians on a shared (optionally log) axis.
    """
    summaries = {}
    for name, values in groups.items():
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            continue
        summaries[name] = np.percentile(arr, [5, 50, 95])
    if not summaries:
        return ["(no data)"]

    lo = min(s[0] for s in summaries.values())
    hi = max(s[2] for s in summaries.values())
    grid = _log_grid(lo, hi, width) if log_x else np.linspace(lo, hi, width)

    def position(value: float) -> int:
        return int(np.clip(np.searchsorted(grid, value), 0, width - 1))

    label_width = max(len(str(name)) for name in summaries)
    lines = []
    for name, (p5, p50, p95) in summaries.items():
        row = [" "] * width
        a, m, b = position(p5), position(p50), position(p95)
        for x in range(a, b + 1):
            row[x] = "-"
        row[m] = "|"
        lines.append(
            f"{str(name):<{label_width}} [" + "".join(row) + f"] p50={p50:.3g}"
        )
    axis = f"{grid[0]:<10.3g}{'log x' if log_x else '':^{max(0, width - 20)}}{grid[-1]:>10.3g}"
    lines.append(" " * (label_width + 2) + axis)
    return lines
