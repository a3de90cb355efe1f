"""Arbitrage opportunity segmentation and summary statistics.

An opportunity is a maximal run of consecutive grid seconds whose rate
product exceeds one, in either direction of the triangle. Missing-data
seconds (rate product zero) and window boundaries terminate runs, as do
jumps in the grid (weekday-filtered gaps). A run's duration is its length
in grid seconds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market_data import Direction

BUCKET_LABELS = ("1s", "2s", "3s", "4s", "5s", ">5s")
# A histogram needs (bins + 1) edges in memory; a million bins is 8 MB.
MAX_HIST_BINS = 1_000_000


@dataclass(frozen=True)
class ArbitrageOpportunity:
    """A maximal run of seconds with rate product above one."""

    start: int
    run_length: int
    initial_gamma: float
    peak_gamma: float
    direction: Direction

    @property
    def magnitude_bp(self) -> float:
        return (self.peak_gamma - 1.0) * 1e4


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
    observations; they are excluded from all three.
    """

    mean: float
    std: float
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    count: int
    bucket_pct: dict[str, float]
    mean: float
    std: float
    delta_count: int
    delta_pct_1s: float


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
    """Summary of run lengths, with percentage buckets for 1s..5s and >5s."""
    if not ops:
        return DurationStats(0, 0.0, 0.0, 0, 0, {k: 0.0 for k in BUCKET_LABELS})
    lengths = [op.run_length for op in ops]
    n = len(lengths)
    buckets = {k: 0 for k in BUCKET_LABELS}
    for length in lengths:
        buckets[f"{length}s" if length <= 5 else ">5s"] += 1
    pct = {k: 100.0 * v / n for k, v in buckets.items()}
    return DurationStats(
        count=n,
        mean=sum(lengths) / n,
        median=float(statistics.median(lengths)),
        min=min(lengths),
        max=max(lengths),
        bucket_pct=pct,
    )


def check_thresholds(thresholds_bp: Sequence[float]) -> list[float]:
    """The thresholds (bp) as a list; they must be finite, non-negative and ascending."""
    thresholds = list(thresholds_bp)
    if not all(0 <= t < math.inf for t in thresholds):
        raise ValueError(f"thresholds must be finite and non-negative, got {thresholds}")
    if not all(a <= b for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
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
        mean_dur = sum(op.run_length for op in subset) / len(subset) if subset else 0.0
        rows.append(ThresholdRow(float(th), len(subset), mean_dur))
    return rows


def check_histogram(bin_width: float, value_range: tuple[float, float]) -> tuple[float, float]:
    """The histogram range; range and bin width must be finite, the range
    non-empty, the width positive and the number of bins at most MAX_HIST_BINS."""
    lo, hi = value_range
    finite = -math.inf < lo < hi < math.inf and 0 < bin_width < math.inf
    if not (finite and (hi - lo) / bin_width <= MAX_HIST_BINS):
        raise ValueError(
            f"degenerate histogram range [{lo}, {hi}) or width {bin_width}: "
            f"need finite lo < hi, a finite width > 0 and at most {MAX_HIST_BINS} bins"
        )
    return lo, hi


def distribution_stats(
    gammas: np.ndarray, bin_width: float, value_range: tuple[float, float]
) -> DistributionStats:
    """Statistics of all rate products in `gammas`, both directions pooled."""
    lo, hi = check_histogram(bin_width, value_range)
    valid = gammas[gammas != 0.0]
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
    )


def compare_periods(
    stats: Sequence[tuple[str, DistributionStats, DurationStats]]
) -> tuple[ComparisonRow, ...]:
    """Cross-period comparison rows: counts, duration buckets, distribution moments.

    Deltas are taken against the previous period in the given order; the
    first period's deltas are zero.
    """
    if len(stats) < 2:
        raise ValueError("need at least two periods to compare")
    # the first period is its own reference
    return tuple(
        ComparisonRow(
            label=label,
            count=dur.count,
            bucket_pct=dict(dur.bucket_pct),
            mean=dist.mean,
            std=dist.std,
            delta_count=dur.count - prev.count,
            delta_pct_1s=dur.bucket_pct["1s"] - prev.bucket_pct["1s"],
        )
        for (label, dist, dur), (_, _, prev) in zip(stats, [stats[0], *stats])
    )

