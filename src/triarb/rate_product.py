"""Rate-product series for the two transaction directions of a triangle.

For every grid second the effective conversion rates of the three legs are
multiplied: a leg selling the pair's base contributes the bid, a leg buying
the base contributes 1/ask. A value above one flags a potential arbitrage.
Seconds where any required quote is missing get a rate product of exactly
zero; they stay on the grid so that downstream run segmentation sees the gap.
"""

from __future__ import annotations

import numpy as np

from .market_data import AlignedTriangle, Direction, Side, TriangleSpec


class RateProductSeries:
    """Per-second rate products for one transaction direction."""

    __slots__ = ("direction", "times", "gammas")

    def __init__(self, direction: Direction, times: np.ndarray, gammas: np.ndarray):
        if times.shape != gammas.shape:
            raise ValueError("times and gammas must have equal length")
        self.direction = direction
        self.times = times
        self.gammas = gammas

    def __len__(self) -> int:
        return int(self.times.size)


def compute_rate_products(
    at: AlignedTriangle, spec: TriangleSpec
) -> tuple[RateProductSeries, RateProductSeries]:
    """Compute both directions' rate products over the aligned grid."""
    any_missing = np.zeros(len(at), dtype=bool)
    for s in at.series:
        any_missing |= s.missing

    out = []
    for direction in (Direction.DIR1, Direction.DIR2):
        gamma = np.ones(len(at), dtype=np.float64)
        for pair, side in spec.legs(direction):
            s = at.series_for(pair)
            if side is Side.BID:
                leg = s.bid_float()
                leg = np.where(s.missing, 1.0, leg)
            else:
                ask = np.where(s.missing, 1.0, s.ask_float())
                leg = 1.0 / ask
            gamma *= leg
        gamma[any_missing] = 0.0
        out.append(RateProductSeries(direction, at.times, gamma))
    return out[0], out[1]

