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
function of one rounded price. Episodes where the point grid is too coarse
to land within 0.05 bp of the target are rejected as configuration errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

import numpy as np

from .errors import SynthConfigError
from .market_data import (
    Direction,
    Pair,
    PairSeries,
    SeriesWindow,
    Side,
    TriangleSpec,
)
from .seasonal import HOURS, SessionTable, overlap_by_hour

PEAK_TOLERANCE_BP = 0.05


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
    table: SessionTable,
    base_spread_points: float = 3.0,
    base_gap_rate: float = 0.002,
) -> LiquidityProfiles:
    """Profiles scaled by 1 / (1 + number of liquid markets) per hour."""
    overlap = overlap_by_hour(table)
    scale = 1.0 / (1.0 + overlap)
    return LiquidityProfiles(
        spread_points=tuple(float(base_spread_points * s) for s in scale),
        gap_rate=tuple(float(base_gap_rate * s) for s in scale),
    )


def triangle_roles(spec: TriangleSpec) -> tuple[Pair, Pair, Pair]:
    """The spec's pairs keyed by role: (A-B pair, B-C pair, A-C direct pair)."""
    a, b, c = spec.currencies
    return spec.pair_for(a, b), spec.pair_for(b, c), spec.pair_for(a, c)


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    window: SeriesWindow
    triangle: TriangleSpec
    mid_prices: dict[str, float]
    volatilities: dict[str, float]
    spread_points: dict[str, tuple[float, ...]]  # 24 entries per pair name
    gap_rate: tuple[float, ...] = tuple([0.0] * HOURS)
    injections: tuple[InjectionSpec, ...] = ()

    def __post_init__(self):
        driving = triangle_roles(self.triangle)[:2]
        for p in driving:
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
            if not _is_power_of_ten(p.point_size):
                raise SynthConfigError(
                    f"synthetic pairs need a power-of-ten point size, got {p.point_size}"
                )
        if len(self.gap_rate) != HOURS or any(not 0.0 <= g <= 1.0 for g in self.gap_rate):
            raise SynthConfigError("gap_rate must be 24 probabilities in [0, 1]")
        object.__setattr__(self, "injections", tuple(self.injections))
        _validate_injections(self.injections, self.window)


def _is_power_of_ten(d: Decimal) -> bool:
    sign, digits, _ = d.normalize().as_tuple()
    return sign == 0 and digits == (1,)


def _validate_injections(injections: Sequence[InjectionSpec], window: SeriesWindow) -> None:
    ordered = sorted(injections, key=lambda i: i.start)
    prev_end = None
    for inj in ordered:
        for s in range(inj.start, inj.end):
            if not window.contains(s):
                raise SynthConfigError(f"injection second {s} is outside the window grid")
        if prev_end is not None and inj.start <= prev_end:
            # one clean second between episodes keeps runs from merging
            raise SynthConfigError(
                f"injections overlap or touch near t={inj.start}; leave at least 1s between them"
            )
        prev_end = inj.end


class _PairDraft:
    """Mutable per-pair state while the generator assembles the grid."""

    def __init__(self, pair: Pair, n: int):
        self.pair = pair
        self.point = float(pair.point_size)
        self.scale = -pair.point_size.normalize().as_tuple().exponent
        self.bid_ticks = np.zeros(n, dtype=np.int64)
        self.ask_ticks = np.zeros(n, dtype=np.int64)
        self.missing = np.zeros(n, dtype=bool)

    def bid_price(self, i: int) -> float:
        return self.bid_ticks[i] * self.point

    def ask_price(self, i: int) -> float:
        return self.ask_ticks[i] * self.point

    def to_series(self, window: SeriesWindow) -> PairSeries:
        bid_m = np.where(self.missing, 0, self.bid_ticks)
        ask_m = np.where(self.missing, 0, self.ask_ticks)
        return PairSeries(self.pair, window, bid_m, ask_m, self.missing.copy(), self.scale)


def generate(
    cfg: SynthConfig,
) -> tuple[PairSeries, PairSeries, PairSeries, list[InjectionSpec]]:
    """Generate the three pair series plus the injected ground truth."""
    times = cfg.window.grid_times()
    if times.size == 0:
        raise SynthConfigError("window grid is empty")
    hours = (times % 86_400) // 3600
    root = np.random.SeedSequence(cfg.seed)
    walk_seeds = root.spawn(2)
    gap_seeds = root.spawn(3)

    p1, p2, p3 = triangle_roles(cfg.triangle)
    mids = {}
    for pair, seed in zip((p1, p2), walk_seeds):
        rng = np.random.default_rng(seed)
        vol = cfg.volatilities[pair.name]
        steps = rng.standard_normal(times.size) * vol
        steps[0] = 0.0
        mids[pair.name] = cfg.mid_prices[pair.name] * np.exp(np.cumsum(steps))
    mids[p3.name] = _parity_mid(cfg.triangle, mids[p1.name], mids[p2.name])

    drafts = {}
    for pair, gap_seed in zip((p1, p2, p3), gap_seeds):
        draft = _PairDraft(pair, times.size)
        profile = np.asarray(cfg.spread_points[pair.name], dtype=np.float64)
        half = profile[hours] * draft.point / 2.0
        mid = mids[pair.name]
        if np.any(mid - half <= 0):
            raise SynthConfigError(f"spread exceeds the mid price for {pair.name}")
        draft.bid_ticks = np.floor((mid - half) / draft.point).astype(np.int64)
        draft.ask_ticks = np.ceil((mid + half) / draft.point).astype(np.int64)
        gap_rng = np.random.default_rng(gap_seed)
        rates = np.asarray(cfg.gap_rate, dtype=np.float64)[hours]
        draft.missing = gap_rng.random(times.size) < rates
        drafts[pair.name] = draft

    for inj in cfg.injections:
        _apply_injection(inj, cfg.triangle, drafts, times, hours, cfg.spread_points)

    out = tuple(drafts[p.name].to_series(cfg.window) for p in cfg.triangle.pairs)
    return out[0], out[1], out[2], list(cfg.injections)


def _parity_mid(spec: TriangleSpec, mid1: np.ndarray, mid2: np.ndarray) -> np.ndarray:
    """Mid of the direct pair implied by the two driving pairs (parity)."""
    p1, p2, p3 = triangle_roles(spec)
    rates = {}
    for pair, mid in ((p1, mid1), (p2, mid2)):
        rates[(pair.base, pair.quote)] = mid
        rates[(pair.quote, pair.base)] = 1.0 / mid
    middle = ({p1.base, p1.quote} & {p2.base, p2.quote}).pop()
    return rates[(p3.base, middle)] * rates[(middle, p3.quote)]


def _apply_injection(
    inj: InjectionSpec,
    spec: TriangleSpec,
    drafts: dict[str, "_PairDraft"],
    times: np.ndarray,
    hours: np.ndarray,
    spread_points: dict[str, tuple[float, ...]],
) -> None:
    direct = triangle_roles(spec)[2]
    draft3 = drafts[direct.name]
    legs = spec.legs(inj.direction)
    side3 = next(side for pair, side in legs if pair == direct)
    others = [(pair, side) for pair, side in legs if pair != direct]
    target = 1.0 + inj.magnitude_bp * 1e-4

    i0 = int(np.searchsorted(times, inj.start))
    if i0 >= times.size or times[i0] != inj.start:
        raise SynthConfigError(f"injection start {inj.start} is not on the grid")
    for k in range(inj.duration_seconds):
        i = i0 + k
        # episodes must be quoted on every leg
        for d in drafts.values():
            d.missing[i] = False
        other_product = 1.0
        for pair, side in others:
            d = drafts[pair.name]
            other_product *= float(d.bid_price(i)) if side is Side.BID else 1.0 / float(d.ask_price(i))
        spread_ticks = max(1, math.ceil(spread_points[direct.name][int(hours[i])]))
        if side3 is Side.INV_ASK:
            ticks = int(round(other_product / target / draft3.point))
            draft3.ask_ticks[i] = ticks
            draft3.bid_ticks[i] = ticks - spread_ticks
        else:
            ticks = int(round(target / other_product / draft3.point))
            draft3.bid_ticks[i] = ticks
            draft3.ask_ticks[i] = ticks + spread_ticks
        if draft3.bid_ticks[i] <= 0:
            raise SynthConfigError(f"injection at t={inj.start} drives the price non-positive")
        realized_bp = (_gamma_at(spec, inj.direction, drafts, i) - 1.0) * 1e4
        if realized_bp <= 0:
            raise SynthConfigError(
                f"infeasible injection {inj}: rounding to {direct.name}'s point grid erases it"
            )
        if abs(realized_bp - inj.magnitude_bp) > PEAK_TOLERANCE_BP:
            raise SynthConfigError(
                f"infeasible injection {inj}: point grid of {direct.name} only reaches "
                f"{realized_bp:.4f} bp (target {inj.magnitude_bp} +/- {PEAK_TOLERANCE_BP})"
            )


def _gamma_at(
    spec: TriangleSpec, direction: Direction, drafts: dict[str, "_PairDraft"], i: int
) -> float:
    """Rate product at one grid index, multiplying legs exactly like the detector."""
    gamma = 1.0
    for pair, side in spec.legs(direction):
        d = drafts[pair.name]
        gamma *= float(d.bid_price(i)) if side is Side.BID else 1.0 / float(d.ask_price(i))
    return gamma


def seasonal_injection_schedule(
    seed: int,
    window: SeriesWindow,
    table: SessionTable,
    base_rate_per_hour: float = 1.0,
    duration_base: int = 3,
    magnitude_range: tuple[float, float] = (0.5, 4.0),
    max_duration: int = 10,
) -> tuple[InjectionSpec, ...]:
    """Episode schedule whose rate rises, and duration falls, with liquidity.

    For each grid hour the number of episodes is Poisson with mean
    base_rate_per_hour * (1 + overlap); durations are 1 + Poisson with mean
    max(duration_base - overlap, 0). Episodes keep one clean second apart.
    """
    if base_rate_per_hour <= 0:
        raise ValueError("base_rate_per_hour must be positive")
    lo_bp, hi_bp = magnitude_range
    if not 0 < lo_bp <= hi_bp:
        raise ValueError(f"bad magnitude range {magnitude_range}")
    overlap = overlap_by_hour(table)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    times = window.grid_times()
    hour_starts = times[times % 3600 == 0]
    candidates = []
    for h0 in hour_starts:
        h = int(h0 % 86_400) // 3600
        n = rng.poisson(base_rate_per_hour * (1.0 + overlap[h]))
        if n == 0:
            continue
        starts = np.sort(rng.integers(0, 3600, size=n)) + int(h0)
        extras = rng.poisson(max(duration_base - int(overlap[h]), 0), size=n)
        mags = rng.uniform(lo_bp, hi_bp, size=n)
        dirs = rng.integers(1, 3, size=n)
        for s, ex, m, d in zip(starts, extras, mags, dirs):
            dur = int(min(1 + ex, max_duration))
            candidates.append(
                InjectionSpec(int(s), dur, float(round(m, 2)), Direction(int(d)))
            )
    kept: list[InjectionSpec] = []
    for inj in sorted(candidates, key=lambda i: i.start):
        if kept and inj.start <= kept[-1].end:
            continue
        if not all(window.contains(s) for s in range(inj.start, inj.end)):
            continue
        kept.append(inj)
    return tuple(kept)

