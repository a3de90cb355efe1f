"""Arbitrage opportunity segmentation and summary statistics.

An opportunity is a maximal run of consecutive grid seconds whose rate
product exceeds one, in either direction of the triangle. Missing-data
seconds (rate product zero) and window boundaries terminate runs, as do
jumps in the grid (weekday-filtered gaps). The duration label of a run
equals its length in grid seconds.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .market_data import Direction

BUCKET_LABELS = ("1s", "2s", "3s", "4s", "5s", ">5s")


@dataclass(frozen=True)
class ArbitrageOpportunity:
    """A maximal run of seconds with rate product above one."""

    start: int
    run_length: int
    initial_gamma: float
    peak_gamma: float
    direction: Direction

    @property
    def duration_label(self) -> int:
        return self.run_length

    @property
    def magnitude_bp(self) -> float:
        return (self.peak_gamma - 1.0) * 1e4

    @property
    def initial_excess(self) -> float:
        return self.initial_gamma - 1.0


@dataclass(frozen=True)
class DurationStats:
    count: int
    mean: float
    median: float
    min: int
    max: int
    bucket_pct: dict[str, float]


@dataclass(frozen=True)
class ThresholdRow:
    threshold_bp: float
    count: int
    mean_duration: float


@dataclass(frozen=True)
class DistributionStats:
    """Mean, population stdev, and histogram of the nonzero rate products.

    Missing seconds (rate product zero) are structural, not price
    observations; they are excluded from all three and counted separately.
    """

    mean: float
    std: float
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int
    n_points: int
    n_missing: int


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    count: int
    bucket_pct: dict[str, float]
    mean: float
    std: float
    delta_count: int
    delta_pct_1s: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]


def segment_opportunities(times: np.ndarray, gammas: np.ndarray) -> list[ArbitrageOpportunity]:
    """Maximal runs with gamma > 1, ordered by (start, direction).

    `gammas` holds the rate products over `times` as `compute_rate_products`
    returns them: row 0 is DIR1, row 1 is DIR2.
    """
    out = []
    for direction, g in zip(Direction, gammas):
        idx = np.flatnonzero(g > 1.0)
        if idx.size == 0:
            continue
        # A run breaks where the above-one indices are not adjacent or the grid
        # seconds themselves are not consecutive.
        brk = np.flatnonzero((np.diff(idx) != 1) | (np.diff(times[idx]) != 1))
        starts = np.concatenate(([0], brk + 1))
        ends = np.concatenate((brk, [idx.size - 1]))
        peaks = np.maximum.reduceat(g[idx], starts)
        for s, e, peak in zip(starts, ends, peaks):
            i0 = idx[s]
            out.append(
                ArbitrageOpportunity(
                    start=int(times[i0]),
                    run_length=int(e - s + 1),
                    initial_gamma=float(g[i0]),
                    peak_gamma=float(peak),
                    direction=direction,
                )
            )
    out.sort(key=lambda op: (op.start, op.direction.value))
    return out


def duration_stats(ops: Sequence[ArbitrageOpportunity]) -> DurationStats:
    """Summary of duration labels, with percentage buckets for 1s..5s and >5s."""
    if not ops:
        return DurationStats(0, 0.0, 0.0, 0, 0, {k: 0.0 for k in BUCKET_LABELS})
    labels = [op.duration_label for op in ops]
    n = len(labels)
    buckets = {k: 0 for k in BUCKET_LABELS}
    for lab in labels:
        buckets[f"{lab}s" if lab <= 5 else ">5s"] += 1
    pct = {k: 100.0 * v / n for k, v in buckets.items()}
    return DurationStats(
        count=n,
        mean=sum(labels) / n,
        median=float(statistics.median(labels)),
        min=min(labels),
        max=max(labels),
        bucket_pct=pct,
    )


def check_thresholds(thresholds_bp: Sequence[float]) -> list[float]:
    """The thresholds (bp) as a list; they must be ascending and non-negative."""
    thresholds = list(thresholds_bp)
    if any(b > a for a, b in zip(thresholds[1:], thresholds)):
        raise ValueError("thresholds must be sorted ascending")
    if any(t < 0 for t in thresholds):
        raise ValueError("thresholds must be non-negative")
    return thresholds


def threshold_table(
    ops: Sequence[ArbitrageOpportunity], thresholds_bp: Sequence[float]
) -> list[ThresholdRow]:
    """Count and mean duration of opportunities at or above each magnitude threshold.

    An opportunity counts when its peak rate product is at least 1 + threshold
    bp, compared on the rate-product scale so that e.g. a peak of exactly
    1.0001 clears the 1 bp threshold. Segmented runs peak above one, so a
    zero threshold counts every opportunity.
    """
    rows = []
    for th in check_thresholds(thresholds_bp):
        floor = 1.0 + th * 1e-4
        subset = [op for op in ops if op.peak_gamma >= floor]
        mean_dur = sum(op.duration_label for op in subset) / len(subset) if subset else 0.0
        rows.append(ThresholdRow(float(th), len(subset), mean_dur))
    return rows


def check_histogram(bin_width: float, value_range: tuple[float, float]) -> tuple[float, float]:
    """The histogram range; it must be non-empty and the bin width positive."""
    lo, hi = value_range
    if not (lo < hi) or bin_width <= 0:
        raise ValueError(f"degenerate histogram range [{lo}, {hi}) or width {bin_width}")
    return lo, hi


def distribution_stats(
    gammas: np.ndarray, bin_width: float, value_range: tuple[float, float]
) -> DistributionStats:
    """Statistics of all rate products in `gammas`, both directions pooled."""
    lo, hi = check_histogram(bin_width, value_range)
    valid = gammas[gammas != 0.0]
    n_missing = int(gammas.size - valid.size)
    n_bins = max(1, math.ceil((hi - lo) / bin_width - 1e-9))
    edges = lo + np.arange(n_bins + 1) * bin_width
    counts, _ = np.histogram(valid, bins=edges)
    underflow = int((valid < edges[0]).sum())
    overflow = int((valid >= edges[-1]).sum())
    if valid.size:
        mean = float(valid.mean())
        std = float(valid.std(ddof=0))
    else:
        mean = 0.0
        std = 0.0
    return DistributionStats(
        mean=mean,
        std=std,
        bin_edges=edges,
        counts=counts,
        underflow=underflow,
        overflow=overflow,
        n_points=int(valid.size),
        n_missing=n_missing,
    )


def compare_periods(
    stats: Sequence[tuple[str, DistributionStats, DurationStats]]
) -> ComparisonReport:
    """Cross-period comparison: counts, duration buckets, distribution moments.

    Deltas are taken against the previous period in the given order; the
    first period's deltas are zero.
    """
    if len(stats) < 2:
        raise ValueError("need at least two periods to compare")
    rows = []
    prev: Optional[tuple[str, DistributionStats, DurationStats]] = None
    for label, dist, dur in stats:
        if prev is None:
            d_count, d_1s = 0, 0.0
        else:
            d_count = dur.count - prev[2].count
            d_1s = dur.bucket_pct["1s"] - prev[2].bucket_pct["1s"]
        rows.append(
            ComparisonRow(
                label=label,
                count=dur.count,
                bucket_pct=dict(dur.bucket_pct),
                mean=dist.mean,
                std=dist.std,
                delta_count=d_count,
                delta_pct_1s=d_1s,
            )
        )
        prev = (label, dist, dur)
    return ComparisonReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# emitters


def write_opportunities_csv(path, ops: Sequence[ArbitrageOpportunity]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["direction", "start", "run_length", "duration_label",
             "initial_gamma", "peak_gamma", "magnitude_bp"]
        )
        for op in ops:
            writer.writerow(
                [op.direction.value, op.start, op.run_length, op.duration_label,
                 repr(op.initial_gamma), repr(op.peak_gamma), repr(op.magnitude_bp)]
            )


def write_duration_stats_json(path, stats: DurationStats) -> None:
    payload = {
        "count": stats.count,
        "mean": stats.mean,
        "median": stats.median,
        "min": stats.min,
        "max": stats.max,
        "bucket_pct": stats.bucket_pct,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_threshold_table_csv(path, rows: Sequence[ThresholdRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold_bp", "count", "mean_duration"])
        for r in rows:
            writer.writerow([repr(r.threshold_bp), r.count, repr(r.mean_duration)])


def write_histogram_csv(path, dist: DistributionStats) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_left", "bin_right", "count"])
        writer.writerow(["-inf", repr(float(dist.bin_edges[0])), dist.underflow])
        for i, c in enumerate(dist.counts):
            writer.writerow(
                [repr(float(dist.bin_edges[i])), repr(float(dist.bin_edges[i + 1])), int(c)]
            )
        writer.writerow([repr(float(dist.bin_edges[-1])), "inf", dist.overflow])


def write_comparison_csv(path, report: ComparisonReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["label", "count", "1s", "2s", "3s", "4s", "5s", ">5s",
             "mean", "stdev", "delta_count", "delta_1s"]
        )
        for r in report.rows:
            writer.writerow(
                [r.label, r.count]
                + [repr(r.bucket_pct[k]) for k in BUCKET_LABELS]
                + [repr(r.mean), repr(r.std), r.delta_count, repr(r.delta_pct_1s)]
            )
