"""Arbitrage opportunity segmentation and summary statistics.

An opportunity is a maximal run of consecutive grid seconds whose rate
product exceeds one, in either direction of the triangle. Missing-data
seconds (rate product zero) and window boundaries terminate runs, as do
jumps in the grid (weekday-filtered gaps). A run's duration is its length
in grid seconds.

The hourly and daily profiles attribute every opportunity to the hour and
day of its start second (GMT), so a run crossing a boundary counts exactly
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Callable, Sequence

import numpy as np

from .errors import TriarbError
from .market_data import HOURS, SECONDS_PER_DAY, Direction, SeriesWindow

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
    n_buckets = len(BUCKET_LABELS)  # the last one holds every run longer than the others
    buckets, _ = _tally(ops, n_buckets, lambda op: min(op.run_length, n_buckets) - 1)
    return DurationStats(
        count=n,
        mean=sum(lengths) / n,
        median=float(np.median(lengths)),
        min=min(lengths),
        max=max(lengths),
        bucket_pct={k: 100.0 * v / n for k, v in zip(BUCKET_LABELS, buckets)},
    )


def hourly_profile(ops: Sequence[ArbitrageOpportunity]) -> tuple[tuple, tuple]:
    """(counts, mean durations) per GMT hour of day, 24 entries each."""
    return _tally(ops, HOURS, lambda op: op.start % SECONDS_PER_DAY // 3600)


def daily_profile(ops: Sequence[ArbitrageOpportunity], window: SeriesWindow) -> tuple:
    """(days, counts, mean durations) per calendar day of the window's grid."""
    days = tuple(window.days())
    index = {(day - date(1970, 1, 1)).days: i for i, day in enumerate(days)}
    return (days, *_tally(ops, len(days), lambda op: index.get(op.start // SECONDS_PER_DAY)))


def _tally(ops: Sequence[ArbitrageOpportunity], n_groups: int, group_of: Callable):
    """(counts, mean run lengths) of the opportunities in each of `n_groups`
    groups; the mean is 0.0 for an empty group. An opportunity whose
    `group_of` is None starts outside the window's days: a ValueError."""
    counts = [0] * n_groups
    length_sums = [0] * n_groups
    for op in ops:
        i = group_of(op)
        if i is None:
            raise ValueError(f"opportunity at {op.start} starts outside the window's days")
        counts[i] += 1
        length_sums[i] += op.run_length
    return tuple(counts), tuple(s / c if c else 0.0 for s, c in zip(length_sums, counts))


def check_thresholds(thresholds_bp: Sequence[float]) -> list[float]:
    """The thresholds (bp) as a list; they must be finite, non-negative and ascending."""
    thresholds = list(thresholds_bp)
    if not all(0 <= t < math.inf for t in thresholds):
        raise TriarbError(f"thresholds must be finite and non-negative, got {thresholds}")
    if not all(a <= b for a, b in zip(thresholds, thresholds[1:])):
        raise TriarbError("thresholds must be sorted ascending")
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
        raise TriarbError(
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
    # one histogram with an open cell on each side: numpy closes only the last
    # cell, so a gamma on the top edge counts once, as overflow
    cells, _ = np.histogram(valid, bins=np.concatenate(([-np.inf], edges, [np.inf])))
    if valid.size:
        mean = float(valid.mean())
        # numpy's std(ddof=0) step for step, in place on this function's own copy
        valid -= mean
        valid *= valid
        std = math.sqrt(valid.sum() / valid.size)
    else:
        mean = 0.0
        std = 0.0
    return DistributionStats(
        mean=mean,
        std=std,
        bin_edges=edges,
        counts=cells[1:-1],
        underflow=int(cells[0]),
        overflow=int(cells[-1]),
    )


def compare_periods(periods: Sequence[DurationStats]) -> list[tuple[int, float]]:
    """Each period's (count delta, delta of the 1s bucket's percentage) against
    the previous period in the given order; the first period is its own
    reference, so its deltas are zero."""
    if len(periods) < 2:
        raise ValueError("need at least two periods to compare")
    return [(dur.count - prev.count, dur.bucket_pct["1s"] - prev.bucket_pct["1s"])
            for dur, prev in zip(periods, [periods[0], *periods])]

