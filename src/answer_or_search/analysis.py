"""Post-hoc analyses: search-quality trade-off and perplexity histograms.

The trade-off curve answers "what does the user see if a fraction r of
searches come back correct": every searched item resolves to either a
correct answer or a hallucination, so c(r) = c0 + r*s and
h(r) = h0 + (1-r)*s, with c(r) + h(r) constant in r.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DataError
from .fileio import atomic_write

#: Published rates come with one decimal of rounding, so paired percentages
#: may miss 100 by a small residue.
RATE_SUM_TOLERANCE = 0.2


@dataclass(frozen=True)
class TradeoffPoint:
    ratio: float
    c: float
    h: float


def tradeoff_curve(
    c0: float, h0: float, s: float, ratios: Sequence[float]
) -> list[TradeoffPoint]:
    """Correct/hallucination percentages as the search success ratio varies.

    ``c0``, ``h0``, ``s`` are the adapted model's percentages (summing to
    100 up to rounding residue); each ratio r in [0, 1] is the fraction of
    searches that return a correct answer.
    """
    for name, value in (("c0", c0), ("h0", h0), ("s", s)):
        if not (math.isfinite(value) and value >= 0):
            raise DataError(f"rate {name} must be non-negative, got {value}")
    total = c0 + h0 + s
    if abs(total - 100.0) > RATE_SUM_TOLERANCE:
        raise DataError(f"rates must sum to 100 (within {RATE_SUM_TOLERANCE}), got {total}")
    points = []
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise DataError(f"search success ratio must lie in [0, 1], got {r}")
        points.append(TradeoffPoint(ratio=r, c=c0 + r * s, h=h0 + (1.0 - r) * s))
    return points


#: Value transforms a histogram applies before binning.
TRANSFORMS = ("log", "identity")


@dataclass(frozen=True)
class HistogramSpec:
    """Binning recipe: strictly increasing edges, optional log transform.

    Bins are half-open [edge_i, edge_{i+1}) with the last bin closed;
    values outside [first, last] land in an explicit out-of-range bucket.
    """

    bin_edges: tuple[float, ...]
    value_transform: str = "log"

    def __post_init__(self) -> None:
        if len(self.bin_edges) < 2:
            raise DataError("histogram needs at least 2 bin edges")
        # Written as `not b > a` so that a NaN edge is rejected too.
        if any(not b > a for a, b in zip(self.bin_edges, self.bin_edges[1:])):
            raise DataError("bin edges must be strictly increasing")
        if self.value_transform not in TRANSFORMS:
            raise DataError(f"unknown value transform {self.value_transform!r}")


@dataclass(frozen=True)
class HistogramResult:
    spec: HistogramSpec
    counts: tuple[int, ...]
    out_of_range: int

    @property
    def total(self) -> int:
        return sum(self.counts) + self.out_of_range


def histogram(values: Sequence[float], spec: HistogramSpec) -> HistogramResult:
    """Bin ``values`` under ``spec`` by bisecting the edges; log transform
    applies ln first."""
    if spec.value_transform == "log":
        for i, v in enumerate(values):
            if v <= 0:
                raise DataError(f"log transform undefined for item {i} with value {v}")
        values = [math.log(v) for v in values]
    edges = spec.bin_edges
    last_bin = len(edges) - 2
    counts = [0] * (last_bin + 1)
    out_of_range = 0
    for v in values:
        if edges[0] <= v <= edges[-1]:
            counts[min(bisect_right(edges, v) - 1, last_bin)] += 1
        else:
            out_of_range += 1
    return HistogramResult(spec=spec, counts=tuple(counts), out_of_range=out_of_range)


def write_tradeoff_table(points: Sequence[TradeoffPoint], path: str | Path) -> Path:
    """Emit a plot-ready CSV table: a ratio,c,h header, then one row per point."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "c", "h"])
        for pt in points:
            writer.writerow([f"{pt.ratio:g}", f"{pt.c:.10g}", f"{pt.h:.10g}"])
    return Path(path)


def write_histogram_table(results: dict[str, HistogramResult], path: str | Path) -> Path:
    """Emit per-class bin counts as CSV: one row per (class, bin) plus out-of-range rows."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "bin_lo", "bin_hi", "count"])
        for cls, result in results.items():
            edges = result.spec.bin_edges
            for (lo, hi), count in zip(zip(edges, edges[1:]), result.counts):
                writer.writerow([cls, f"{lo:.10g}", f"{hi:.10g}", count])
            writer.writerow([cls, "out_of_range", "", result.out_of_range])
    return Path(path)

