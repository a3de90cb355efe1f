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
from .market_data import Direction, PairSeries, Side, TriangleSpec


def compute_rate_products(series: Sequence[PairSeries], spec: TriangleSpec) -> np.ndarray:
    """Both directions' rate products over the grid the three pair series share.

    `series` holds one series per pair of `spec`, in `spec.pairs` order, all
    on one window; anything else is an AlignmentError. Returns a float64
    array of shape (2, grid seconds): row 0 is DIR1, row 1 is DIR2.
    """
    got = tuple(s.pair for s in series)
    if got != spec.pairs:
        raise AlignmentError(
            f"expected series for {', '.join(p.name for p in spec.pairs)} in that order, "
            f"got {', '.join(p.name for p in got) or 'none'}"
        )
    w = series[0].window
    for s in series[1:]:
        if s.window != w:
            raise AlignmentError(f"window mismatch: {s.pair.name} has {s.window}, expected {w}")
    by_pair = dict(zip(spec.pairs, series))
    n = len(series[0])
    any_missing = np.zeros(n, dtype=bool)
    for s in series:
        any_missing |= s.missing

    gammas = np.ones((2, n), dtype=np.float64)
    rate = np.empty(n, dtype=np.float64)  # one leg at a time
    for gamma, direction in zip(gammas, Direction):
        for pair, side in spec.legs(direction):
            gamma *= leg_rate(by_pair[pair], side, out=rate)
    gammas[:, any_missing] = 0.0
    return gammas


def leg_rate(series: PairSeries, side: Side, out: np.ndarray | None = None) -> np.ndarray:
    """One leg's conversion rate per grid second: the bid, or 1/ask; 1.0 where missing.

    A mantissa below 2**53 and 10**scale (scale <= 22) are exact floats, so
    their quotient is the correctly rounded price whatever the series' scale:
    a more precise tick elsewhere in the window leaves every other price alone.
    The rate is formed in `out` (float64, one entry per grid second) if given.
    """
    mantissa = series.bid_m if side is Side.BID else series.ask_m
    price = np.divide(mantissa, 10.0**series.scale, out=out)
    np.copyto(price, 1.0, where=series.missing)
    return price if side is Side.BID else np.divide(1.0, price, out=price)
