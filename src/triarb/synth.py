"""Synthetic triangle tick data with known, recoverable arbitrage episodes.

Two of the triangle's pairs follow seeded geometric random walks; the third
pair's mid price is their triangular-parity product at every second. Bids
round down to the pair's point grid and asks round up, so with positive
spreads both directions' rate products stay strictly below one wherever no
episode is injected.

An injected episode perturbs only the derived pair: its quote is shifted
against parity just enough that the requested direction's rate product sits
at the requested magnitude for the requested run of seconds. The other two
pairs are untouched, which keeps the realized magnitude an explicit
function of one rounded price. The realized magnitude is checked with the
detector's own rate products (`compute_rate_products`), and episodes where
the point grid is too coarse to land within 0.05 bp of the target are
rejected as configuration errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

import numpy as np

from .errors import SynthConfigError
from .market_data import (
    HOURS,
    Direction,
    Pair,
    PairSeries,
    SeriesWindow,
    Side,
    TriangleSpec,
)
from .rate_product import compute_rate_products, leg_rate

PEAK_TOLERANCE_BP = 0.05
EXTRA_SECONDS_MEAN = 3
LONGEST_EPISODE_SECONDS = 10
# Markets open at each GMT hour: Asia 0-10, Europe 7-17 and Americas 13-23.
OPEN_SESSIONS = tuple(
    sum(lo <= h <= hi for lo, hi in ((0, 10), (7, 17), (13, 23))) for h in range(HOURS)
)


@dataclass(frozen=True)
class InjectionSpec:
    start: int
    duration_seconds: int
    magnitude_bp: float
    direction: Direction

    def __post_init__(self):
        if self.duration_seconds < 1:
            raise ValueError(f"injection duration must be >= 1s, got {self.duration_seconds}")
        if self.magnitude_bp <= 0:
            raise ValueError(f"injection magnitude must be positive, got {self.magnitude_bp}")

    @property
    def end(self) -> int:
        return self.start + self.duration_seconds


@dataclass(frozen=True)
class LiquidityProfiles:
    """Per-hour spread (points) and gap rate, narrower/lower in liquid hours."""

    spread_points: tuple[float, ...]
    gap_rate: tuple[float, ...]


def liquidity_preset(
    base_spread_points: float = 3.0, base_gap_rate: float = 0.002
) -> LiquidityProfiles:
    """Profiles scaled by 1 / (1 + number of open markets) per hour."""
    scale = [1.0 / (1.0 + n) for n in OPEN_SESSIONS]
    return LiquidityProfiles(
        spread_points=tuple(base_spread_points * s for s in scale),
        gap_rate=tuple(base_gap_rate * s for s in scale),
    )


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    window: SeriesWindow
    triangle: TriangleSpec
    points: dict[str, Decimal]  # the price increment per pair name
    mid_prices: dict[str, float]
    volatilities: dict[str, float]
    spread_points: dict[str, tuple[float, ...]]  # 24 entries per pair name
    gap_rate: tuple[float, ...] = tuple([0.0] * HOURS)
    injections: tuple[InjectionSpec, ...] = ()

    def __post_init__(self):
        for p in self.triangle.pairs[:2]:  # the driving pairs
            if p.name not in self.mid_prices or self.mid_prices[p.name] <= 0:
                raise SynthConfigError(f"need a positive mid price for {p.name}")
            if self.volatilities.get(p.name, -1.0) < 0:
                raise SynthConfigError(f"need a non-negative volatility for {p.name}")
        for p in self.triangle.pairs:
            profile = self.spread_points.get(p.name)
            if profile is None or len(profile) != HOURS:
                raise SynthConfigError(f"need a 24-hour spread profile for {p.name}")
            if any(s <= 0 for s in profile):
                raise SynthConfigError(f"spreads must be positive for {p.name}")
            point = self.points.get(p.name)
            if point is None or _point_places(point) is None:
                raise SynthConfigError(
                    f"{p.name} needs a point size of 10**-k with k from 0 to 17, got {point}"
                )
        if len(self.gap_rate) != HOURS or any(not 0.0 <= g <= 1.0 for g in self.gap_rate):
            raise SynthConfigError("gap_rate must be 24 probabilities in [0, 1]")
        object.__setattr__(self, "injections", tuple(self.injections))
        _validate_injections(self.injections, self.window)


def _point_places(point: Decimal):
    """k for a point size of 10**-k with 0 <= k <= 17, the tick grammar's
    decimal places, else None."""
    sign, digits, exponent = point.as_tuple()
    if sign or not isinstance(exponent, int) or digits[0] != 1 or any(digits[1:]):
        return None
    k = -exponent - (len(digits) - 1)
    return k if 0 <= k <= 17 else None


def _validate_injections(injections: Sequence[InjectionSpec], window: SeriesWindow) -> None:
    ordered = sorted(injections, key=lambda i: i.start)
    prev_end = None
    for inj in ordered:
        seconds = np.arange(inj.start, inj.end, dtype=np.int64)
        outside = seconds[~window.mask(seconds)]
        if outside.size:
            raise SynthConfigError(f"injection second {outside[0]} is outside the window grid")
        if prev_end is not None and inj.start <= prev_end:
            # one clean second between episodes keeps runs from merging
            raise SynthConfigError(
                f"injections overlap or touch near t={inj.start}; leave at least 1s between them"
            )
        prev_end = inj.end


def generate(cfg: SynthConfig) -> tuple[PairSeries, PairSeries, PairSeries]:
    """The three pair series, in `cfg.triangle.pairs` order, with `cfg.injections` applied."""
    times = cfg.window.grid_times()
    if times.size == 0:
        raise SynthConfigError("window grid is empty")
    hours = (times % 86_400) // 3600
    root = np.random.SeedSequence(cfg.seed)
    walk_seeds = root.spawn(2)
    gap_seeds = root.spawn(3)

    p1, p2, p3 = cfg.triangle.pairs
    mids = {}
    for pair, seed in zip((p1, p2), walk_seeds):
        rng = np.random.default_rng(seed)
        vol = cfg.volatilities[pair.name]
        steps = rng.standard_normal(times.size) * vol
        steps[0] = 0.0
        mids[pair.name] = cfg.mid_prices[pair.name] * np.exp(np.cumsum(steps))
    # at parity, the direction that buys the direct pair's base at 1/mid
    # multiplies its two driving rates to that mid
    buys_direct = Direction.DIR1 if p3.base == cfg.triangle.currencies[0] else Direction.DIR2
    mids[p3.name] = math.prod(
        mids[pair.name] if side is Side.BID else 1.0 / mids[pair.name]
        for pair, side in cfg.triangle.legs(buys_direct) if pair != p3
    )

    series = {}
    for pair, gap_seed in zip((p1, p2, p3), gap_seeds):
        point = float(cfg.points[pair.name])
        profile = np.asarray(cfg.spread_points[pair.name], dtype=np.float64)
        half = profile[hours] * point / 2.0
        mid = mids[pair.name]
        bid = np.floor((mid - half) / point)
        ask = np.ceil((mid + half) / point)
        if not np.all(bid > 0):
            raise SynthConfigError(f"the spread leaves {pair.name} no positive bid on its point grid")
        if not np.all(ask < 1e18):  # the tick grammar's 18 digits
            raise SynthConfigError(f"{pair.name} quotes reach 10**18 points, past 18 digits")
        gap_rng = np.random.default_rng(gap_seed)
        rates = np.asarray(cfg.gap_rate, dtype=np.float64)[hours]
        series[pair] = PairSeries(
            pair,
            cfg.window,
            bid.astype(np.int64),
            ask.astype(np.int64),
            gap_rng.random(times.size) < rates,
            _point_places(cfg.points[pair.name]),
        )

    if cfg.injections:
        _inject(cfg, series, times, hours)
    for s in series.values():
        s.bid_m[s.missing] = 0
        s.ask_m[s.missing] = 0
    return tuple(series[p] for p in cfg.triangle.pairs)


def _inject(
    cfg: SynthConfig, series: dict[Pair, PairSeries], times: np.ndarray, hours: np.ndarray
) -> None:
    """Requote the direct pair at every injected second so that the episode's
    direction reaches its target rate product, then check the realized one.

    Every injected second is quoted on all three pairs. `SynthConfig` has put
    each second on the grid, so `searchsorted` finds it exactly.
    """
    spec, injections = cfg.triangle, cfg.injections
    direct = spec.pairs[2]
    owner = np.repeat(np.arange(len(injections)), [i.duration_seconds for i in injections])
    idx = np.searchsorted(times, np.concatenate([np.arange(i.start, i.end) for i in injections]))
    rows = np.array([list(Direction).index(i.direction) for i in injections])[owner]
    magnitude = np.array([i.magnitude_bp for i in injections])[owner]
    target = 1.0 + magnitude * 1e-4
    for s in series.values():
        s.missing[idx] = False

    point = float(cfg.points[direct.name])
    profile = np.asarray(cfg.spread_points[direct.name], dtype=np.float64)
    spread = np.maximum(np.ceil(profile[hours[idx]]), 1.0).astype(np.int64)
    bid = np.empty(idx.size, dtype=np.int64)
    for row, direction in enumerate(Direction):
        sel = rows == row
        legs = spec.legs(direction)
        other = math.prod(leg_rate(series[p], side)[idx[sel]] for p, side in legs if p != direct)
        if dict(legs)[direct] is Side.INV_ASK:
            bid[sel] = np.rint(other / target[sel] / point).astype(np.int64) - spread[sel]
        else:
            bid[sel] = np.rint(target[sel] / other / point).astype(np.int64)
    series[direct].bid_m[idx] = bid
    series[direct].ask_m[idx] = bid + spread

    gammas = compute_rate_products([series[p] for p in spec.pairs], spec)
    realized = (gammas[rows, idx] - 1.0) * 1e4
    off_grammar = (bid <= 0) | (bid + spread >= 10**18)
    bad = off_grammar | (realized <= 0) | (np.abs(realized - magnitude) > PEAK_TOLERANCE_BP)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    inj = injections[owner[k]]
    if off_grammar[k]:
        raise SynthConfigError(
            f"injection at t={inj.start} drives the price of {direct.name} non-positive "
            "or to 10**18 points"
        )
    if realized[k] <= 0:
        raise SynthConfigError(
            f"infeasible injection {inj}: rounding to {direct.name}'s point grid erases it"
        )
    raise SynthConfigError(
        f"infeasible injection {inj}: point grid of {direct.name} only reaches "
        f"{realized[k]:.4f} bp (target {inj.magnitude_bp} +/- {PEAK_TOLERANCE_BP})"
    )


def seasonal_injection_schedule(
    seed: int,
    window: SeriesWindow,
    base_rate_per_hour: float = 1.0,
    magnitude_range: tuple[float, float] = (0.5, 4.0),
) -> tuple[InjectionSpec, ...]:
    """Episode schedule whose rate rises, and duration falls, with liquidity.

    For each grid hour the number of episodes is Poisson with mean
    base_rate_per_hour * (1 + n), where n is the hour's OPEN_SESSIONS;
    durations are 1 + Poisson with mean max(EXTRA_SECONDS_MEAN - n, 0), capped
    at LONGEST_EPISODE_SECONDS. Episodes keep one clean second apart.
    """
    if base_rate_per_hour <= 0:
        raise ValueError("base_rate_per_hour must be positive")
    lo_bp, hi_bp = magnitude_range
    if not 0 < lo_bp <= hi_bp:
        raise ValueError(f"bad magnitude range {magnitude_range}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    times = window.grid_times()
    hour_starts = times[times % 3600 == 0]
    candidates = []
    for h0 in hour_starts:
        h = int(h0 % 86_400) // 3600
        n = rng.poisson(base_rate_per_hour * (1.0 + OPEN_SESSIONS[h]))
        if n == 0:
            continue
        starts = np.sort(rng.integers(0, 3600, size=n)) + int(h0)
        extras = rng.poisson(max(EXTRA_SECONDS_MEAN - OPEN_SESSIONS[h], 0), size=n)
        mags = rng.uniform(lo_bp, hi_bp, size=n)
        dirs = rng.integers(1, 3, size=n)
        for s, ex, m, d in zip(starts, extras, mags, dirs):
            dur = int(min(1 + ex, LONGEST_EPISODE_SECONDS))
            candidates.append(
                InjectionSpec(int(s), dur, float(round(m, 2)), Direction(int(d)))
            )
    kept: list[InjectionSpec] = []
    for inj in sorted(candidates, key=lambda i: i.start):
        if kept and inj.start <= kept[-1].end:
            continue
        if not window.mask(np.arange(inj.start, inj.end, dtype=np.int64)).all():
            continue
        kept.append(inj)
    return tuple(kept)

