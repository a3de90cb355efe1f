"""Rate products for the two transaction directions of a triangle.

For every grid second the effective conversion rates of the three legs are
multiplied: a leg selling the pair's base contributes the bid, a leg buying
the base contributes 1/ask. A value above one flags a potential arbitrage.
Seconds where any required quote is missing get a rate product of exactly
zero; they stay on the grid so that downstream run segmentation sees the gap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AlignmentError
from .market_data import Direction, Pair, PairSeries, Side, TriangleSpec


def compute_rate_products(series: Sequence[PairSeries], spec: TriangleSpec) -> np.ndarray:
    """Both directions' rate products over the grid the three pair series share.

    `series` holds one series per pair of `spec`, in any order, all on one
    window. Returns a float64 array of shape (2, grid seconds): row 0 is
    DIR1, row 1 is DIR2.
    """
    by_pair = _by_pair(series, spec)
    n = len(series[0])
    any_missing = np.zeros(n, dtype=bool)
    for s in series:
        any_missing |= s.missing

    gammas = np.ones((2, n), dtype=np.float64)
    for gamma, direction in zip(gammas, Direction):
        for pair, side in spec.legs(direction):
            gamma *= leg_rate(by_pair[pair], side)
    gammas[:, any_missing] = 0.0
    return gammas


def leg_rate(series: PairSeries, side: Side) -> np.ndarray:
    """One leg's conversion rate per grid second: the bid, or 1/ask; 1.0 where missing."""
    mantissa = series.bid_m if side is Side.BID else series.ask_m
    price = np.where(series.missing, 1.0, mantissa * 10.0 ** (-series.scale))
    return price if side is Side.BID else 1.0 / price


def _by_pair(series: Sequence[PairSeries], spec: TriangleSpec) -> dict[Pair, PairSeries]:
    """The series keyed by pair, checked to cover the spec's pairs on one window."""
    by_pair = {s.pair: s for s in series}
    if len(series) != 3 or len(by_pair) != 3:
        raise AlignmentError("the three series must cover three distinct pairs")
    for pair in spec.pairs:
        if pair not in by_pair:
            raise AlignmentError(f"missing series for pair {pair.name}")
    w = by_pair[spec.pairs[0]].window
    for pair in spec.pairs[1:]:
        s = by_pair[pair]
        if s.window != w:
            raise AlignmentError(f"window mismatch: {s.pair.name} has {s.window}, expected {w}")
    return by_pair
