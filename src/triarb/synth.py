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

The episodes are one `Injections` of columns, checked against the grid by
`SeriesWindow.grid_index` arithmetic over all of them at once.

`synth_config_from_json` reads the JSON config of the `synth` command into a
`SynthConfig`. A key the file omits takes the default of the Python API it
feeds, where that API has one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from typing import Any

import numpy as np

from .config import parse_currencies, parse_timestamp, parse_weekdays, require_grid
from .errors import SynthConfigError
from .market_data import (
    HOURS,
    SECONDS_PER_DAY,
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
# Upper bounds that keep the float arithmetic finite. A mid of 10**18 is 10**18
# points even at a point size of 1. A per-second log-return std of 0.01,
# hundreds of times a major pair's, keeps the exponential of a walk finite over
# years of seconds. An excess of 10,000 bp is a rate product of 2.
MAX_MID = 1e18
MAX_VOL = 0.01
MAX_MAGNITUDE_BP = 1e4
# Markets open at each GMT hour: Asia 0-10, Europe 7-17 and Americas 13-23.
OPEN_SESSIONS = tuple(
    sum(lo <= h <= hi for lo, hi in ((0, 10), (7, 17), (13, 23))) for h in range(HOURS)
)


@dataclass(frozen=True, eq=False)
class Injections:
    """Injected episodes as read-only columns, entry i of each being episode i:
    its first second, length in seconds, target magnitude in bp (float64) and
    direction (1 or 2, the `Direction` values)."""

    start: np.ndarray
    duration_seconds: np.ndarray
    magnitude_bp: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            try:
                column = np.array(getattr(self, f.name),
                                  dtype=np.float64 if f.name == "magnitude_bp" else np.int64)
            except OverflowError:
                raise SynthConfigError(f"injections.{f.name}: a value is past 64 bits") from None
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        if {getattr(self, f.name).shape for f in fields(self)} != {(self.start.size,)}:
            raise SynthConfigError("injection columns must be one-dimensional and of one length")
        for name, ok, expected in (
            ("duration_seconds", self.duration_seconds >= 1, "expected at least 1"),
            ("magnitude_bp", self.magnitude_bp > 0, "expected a positive number"),
            ("magnitude_bp", self.magnitude_bp <= MAX_MAGNITUDE_BP,
             f"expected a number at most {MAX_MAGNITUDE_BP:g}"),
            ("direction", (self.direction == 1) | (self.direction == 2), "expected 1 or 2"),
        ):
            if not ok.all():
                i = int(np.argmin(ok))
                raise SynthConfigError(
                    f"injections[{i}].{name}: {expected}, got {getattr(self, name)[i].item()!r}")

    def __len__(self) -> int:
        return self.start.size


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
    injections: Injections = Injections((), (), (), ())  # on the grid, 1s apart, in any order

    def __post_init__(self):
        _check_seed(self.seed)
        for p in self.triangle.pairs[:2]:  # the driving pairs
            if p.name not in self.mid_prices or self.mid_prices[p.name] <= 0:
                raise SynthConfigError(f"need a positive mid price for {p.name}")
            if self.volatilities.get(p.name, -1.0) < 0:
                raise SynthConfigError(f"need a non-negative volatility for {p.name}")
        for key, values, limit in (("mid", self.mid_prices, MAX_MID),
                                   ("vol", self.volatilities, MAX_VOL)):
            for name, value in values.items():
                if not value <= limit:
                    raise SynthConfigError(
                        f"pairs.{name}.{key}: expected a number at most {limit:g}, got {value!r}")
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
        _validate_injections(self.injections, self.window)
        require_grid(self.window, SynthConfigError)


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise SynthConfigError(f"seed: expected a non-negative integer, got {seed}")
    return seed


def _point_places(point: Decimal):
    """k for a point size of 10**-k with 0 <= k <= 17, the tick grammar's
    decimal places, else None."""
    sign, digits, exponent = point.as_tuple()
    if sign or not isinstance(exponent, int) or digits[0] != 1 or any(digits[1:]):
        return None
    k = -exponent - (len(digits) - 1)
    return k if 0 <= k <= 17 else None


def _on_grid(start: np.ndarray, duration: np.ndarray, window: SeriesWindow) -> np.ndarray:
    """Which episodes [start, start + duration) lie wholly on the grid: the first
    second is on it, and the last as many grid seconds later as calendar seconds."""
    first = window.grid_index(start)
    return (first >= 0) & (window.grid_index(start + duration - 1) - first == duration - 1)


def _off_grid_error(start: int, duration: int, window: SeriesWindow) -> SynthConfigError:
    """The error naming the first second off the grid of an episode that leaves it:
    its start, one of the next six midnights (a week meets every weekday) or the
    window's end."""
    day = start // SECONDS_PER_DAY + 1
    probes = np.array(sorted(t for t in (start, window.end, *range(
        day * SECONDS_PER_DAY, (day + 6) * SECONDS_PER_DAY, SECONDS_PER_DAY))
        if start <= t < start + duration), dtype=np.int64)
    return SynthConfigError(f"injection second {probes[~window.mask(probes)][0]} is outside "
                            f"the window grid (duration_seconds {duration})")


def _validate_injections(injections: Injections, window: SeriesWindow) -> None:
    """Raise for the first episode in start order that leaves the grid, or that
    leaves no clean second after the one before, so that their runs would merge."""
    order = np.argsort(injections.start, kind="stable")
    start, duration = injections.start[order], injections.duration_seconds[order]
    off = ~_on_grid(start, duration, window)
    bad = off | np.concatenate(([False], start[1:] <= (start + duration)[:-1]))
    if bad.any():
        k = int(np.argmax(bad))
        if off[k]:
            raise _off_grid_error(int(start[k]), int(duration[k]), window)
        raise SynthConfigError(
            f"injections overlap or touch near t={start[k]}; leave at least 1s between them")


def generate(cfg: SynthConfig) -> tuple[PairSeries, PairSeries, PairSeries]:
    """The three pair series, in `cfg.triangle.pairs` order, with `cfg.injections` applied."""
    times = cfg.window.grid_times()
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

    series, gaps = {}, {}
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
        rates = np.asarray(cfg.gap_rate, dtype=np.float64)[hours]
        gaps[pair] = np.random.default_rng(gap_seed).random(times.size) < rates
        series[pair] = PairSeries(pair, cfg.window, bid.astype(np.int64), ask.astype(np.int64),
                                  _point_places(cfg.points[pair.name]))

    injected = _inject(cfg, series, times, hours) if cfg.injections else []
    for pair, s in series.items():
        gap = gaps[pair]
        gap[injected] = False  # an injected second is quoted on all three pairs
        s.bid_m[gap] = 0
        s.ask_m[gap] = 0
    return tuple(series[p] for p in cfg.triangle.pairs)


def _inject(
    cfg: SynthConfig, series: dict[Pair, PairSeries], times: np.ndarray, hours: np.ndarray
) -> np.ndarray:
    """Requote the direct pair at every injected second so that the episode's
    direction reaches its target rate product, then check the realized one.

    Runs before the gaps are zeroed into the series, so every pair is quoted
    everywhere; returns the grid indices of the injected seconds, which the
    caller keeps quoted. `SynthConfig` has put each second on the grid, so
    `searchsorted` finds it exactly.
    """
    spec, inj = cfg.triangle, cfg.injections
    direct = spec.pairs[2]
    owner = np.repeat(np.arange(len(inj)), inj.duration_seconds)
    first = np.cumsum(inj.duration_seconds) - inj.duration_seconds  # where each one's seconds begin
    idx = np.searchsorted(times, (inj.start - first)[owner] + np.arange(owner.size))
    rows = inj.direction[owner] - 1  # DIR1, DIR2 are rows 0, 1 of the rate products
    magnitude = inj.magnitude_bp[owner]
    target = 1.0 + magnitude * 1e-4

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
        return idx
    k = int(np.argmax(bad))
    j = owner[k]
    if off_grammar[k]:
        raise SynthConfigError(
            f"injection at t={inj.start[j]} drives the price of {direct.name} non-positive "
            "or to 10**18 points"
        )
    episode = (f"infeasible injection at t={inj.start[j]} (duration_seconds "
               f"{inj.duration_seconds[j]}, magnitude_bp {inj.magnitude_bp[j]}, "
               f"direction {inj.direction[j]})")
    if realized[k] <= 0:
        raise SynthConfigError(f"{episode}: rounding to {direct.name}'s point grid erases it")
    raise SynthConfigError(
        f"{episode}: point grid of {direct.name} only reaches "
        f"{realized[k]:.4f} bp (target {inj.magnitude_bp[j]} +/- {PEAK_TOLERANCE_BP})"
    )


def seasonal_injection_schedule(
    seed: int,
    window: SeriesWindow,
    base_rate_per_hour: float = 1.0,
    magnitude_range: tuple[float, float] = (0.5, 4.0),
) -> Injections:
    """Episode schedule whose rate rises, and duration falls, with liquidity.

    For each grid hour the number of episodes is Poisson with mean
    base_rate_per_hour * (1 + n), where n is the hour's OPEN_SESSIONS;
    durations are 1 + Poisson with mean max(EXTRA_SECONDS_MEAN - n, 0), capped
    at LONGEST_EPISODE_SECONDS. Candidates that leave the grid are dropped,
    and then, in start order, each one that leaves no clean second after the
    last one kept. Returns the episodes in start order.
    """
    _check_seed(seed)
    if not 0 < base_rate_per_hour <= 3600:  # no more episodes than an hour has seconds
        raise SynthConfigError(
            f"schedule.base_rate_per_hour must be in (0, 3600], got {base_rate_per_hour}")
    lo_bp, hi_bp = magnitude_range
    if not max(magnitude_range) <= MAX_MAGNITUDE_BP:
        raise SynthConfigError(f"schedule.magnitude_range: expected a number at most "
                               f"{MAX_MAGNITUDE_BP:g}, got {max(magnitude_range)!r}")
    if not 0 < lo_bp <= hi_bp:
        raise SynthConfigError(f"schedule.magnitude_range: bad range {magnitude_range}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hours = np.arange(-(-window.start // 3600) * 3600, window.end, 3600)
    drawn = []
    for h0 in hours[window.mask(hours)].tolist():  # the grid's whole hours
        h = h0 % 86_400 // 3600
        n = rng.poisson(base_rate_per_hour * (1.0 + OPEN_SESSIONS[h]))
        if n == 0:
            continue
        drawn.append((  # the seeded output depends on this draw order
            np.sort(rng.integers(0, 3600, size=n)) + h0,
            np.minimum(1 + rng.poisson(max(EXTRA_SECONDS_MEAN - OPEN_SESSIONS[h], 0), size=n),
                       LONGEST_EPISODE_SECONDS),
            np.round(rng.uniform(lo_bp, hi_bp, size=n), 2),  # as round() of np.float64 rounds
            rng.integers(1, 3, size=n),
        ))
    if not drawn:
        return Injections((), (), (), ())
    # the hours ascend and each one's starts are sorted, so the candidates are in start order
    start, duration, magnitude, direction = (np.concatenate(c) for c in zip(*drawn))
    on = np.flatnonzero(_on_grid(start, duration, window))
    keep, last_end = [], -math.inf
    for i, s, end in zip(on.tolist(), start[on].tolist(), (start + duration)[on].tolist()):
        if s > last_end:
            keep.append(i)
            last_end = end
    return Injections(start[keep], duration[keep], magnitude[keep], direction[keep])


# ---------------------------------------------------------------------------
# synth JSON config


def synth_config_from_json(payload: Any) -> SynthConfig:
    """Build a SynthConfig from the parsed JSON of a synth config file. Each
    object takes the keys its `_object` call lists, and null counts as absent;
    an absent key takes the default of the function or field it feeds."""
    cfg = _object(
        payload, "synth config", ("seed", "window"),
        ("currencies", "pairs", "liquidity_preset", "base_spread_points", "base_gap_rate",
         "gap_rate", "injections", "schedule"),
    )
    seed = _check_seed(_check(cfg["seed"], int, "seed"))  # named before any later fault
    span = _object(cfg["window"], "window", ("start", "end"), ("weekdays",))
    window = SeriesWindow(parse_timestamp(str(span["start"])), parse_timestamp(str(span["end"])),
                          parse_weekdays(str(span.get("weekdays", "mon-fri"))))
    triangle = TriangleSpec(parse_currencies(cfg.get("currencies", "EUR,USD,CHF")))

    names = [p.name for p in triangle.pairs]
    pair_cfg: dict[str, dict] = {}
    for name, entry in _check(cfg.get("pairs", {}), dict, "pairs").items():
        key = _parse_pair(name).name
        if key not in names:
            raise SynthConfigError(f"pairs: {name!r} is not a pair of the triangle {names}")
        if key in pair_cfg:
            raise SynthConfigError(f"pairs: {key} is given twice")
        entry = {} if entry is None else entry
        pair_cfg[key] = _object(entry, f"pairs.{key}", (), ("point", "mid", "vol", "spread_points"))

    preset = None
    if _check(cfg.get("liquidity_preset", False), bool, "liquidity_preset"):
        preset = liquidity_preset(**{key: _number(cfg[key], key) for key in
                                     ("base_spread_points", "base_gap_rate") if key in cfg})

    points, mid_prices, volatilities, spread_points = {}, {}, {}, {}
    for pair in triangle.pairs:
        entry, where = pair_cfg.get(pair.name, {}), f"pairs.{pair.name}"
        point = entry.get("point", "0.01" if pair.quote == "JPY" else "0.0001")
        try:
            points[pair.name] = Decimal(str(point))
        except InvalidOperation:
            raise SynthConfigError(f"bad point size {point!r} for {pair.name}") from None
        if "mid" in entry:
            mid_prices[pair.name] = _number(entry["mid"], f"{where}.mid")
        if "vol" in entry:
            volatilities[pair.name] = _number(entry["vol"], f"{where}.vol")
        if "spread_points" in entry:
            spread_points[pair.name] = _profile(entry["spread_points"], f"{where}.spread_points")
        elif preset is None:
            raise SynthConfigError(f"no spread_points for {pair.name} and liquidity_preset is off")
        else:
            spread_points[pair.name] = preset.spread_points

    optional = {}
    if "gap_rate" in cfg:
        optional["gap_rate"] = _profile(cfg["gap_rate"], "gap_rate")
    elif preset is not None:
        optional["gap_rate"] = preset.gap_rate

    columns = {"start": [], "duration_seconds": [], "magnitude_bp": [], "direction": []}
    for i, item in enumerate(_check(cfg.get("injections", []), list, "injections")):
        where = f"injections[{i}]"
        episode = _object(item, where, tuple(columns))
        start = parse_timestamp(str(episode["start"]))
        duration = _check(episode["duration_seconds"], int, f"{where}.duration_seconds")
        if duration > window.end - window.start:  # off the grid, and perhaps past 64 bits
            raise _off_grid_error(start, duration, window)
        columns["start"].append(start)
        columns["duration_seconds"].append(duration)
        columns["magnitude_bp"].append(_number(episode["magnitude_bp"], f"{where}.magnitude_bp"))
        columns["direction"].append(_check(episode["direction"], int, f"{where}.direction"))
    injections = Injections(**columns)  # its messages name the file's indices
    if "schedule" in cfg:
        schedule = _object(cfg["schedule"], "schedule", (),
                           ("base_rate_per_hour", "magnitude_range"))
        where = "schedule.magnitude_range"
        bounds = schedule.pop("magnitude_range", None)
        if bounds is not None and len(_check(bounds, list, where)) != 2:
            raise SynthConfigError(f"{where}: expected [lo, hi], got {bounds}")
        options = {key: _number(value, f"schedule.{key}") for key, value in schedule.items()}
        if bounds is not None:
            options["magnitude_range"] = tuple(_number(b, where) for b in bounds)
        scheduled = seasonal_injection_schedule(seed=seed, window=window, **options)
        merged = [np.concatenate([getattr(injections, name), getattr(scheduled, name)])
                  for name in columns]
        order = np.argsort(merged[0], kind="stable")  # the file's episodes first at a tie
        injections = Injections(*(column[order] for column in merged))

    return SynthConfig(
        seed=seed,
        window=window,
        triangle=triangle,
        points=points,
        mid_prices=mid_prices,
        volatilities=volatilities,
        spread_points=spread_points,
        injections=injections,
        **optional,
    )


def _parse_pair(text: str) -> Pair:
    base, sep, quote = text.strip().upper().partition("/")
    if not sep or not base or not quote:
        raise SynthConfigError(f"bad pair {text!r}, expected BASE/QUOTE")
    return Pair(base, quote)


def _object(value: Any, where: str, required: tuple, optional: tuple = ()) -> dict:
    """The members of the JSON object `value` that are not null."""
    allowed = required + optional
    for key in _check(value, dict, where):
        if key not in allowed:
            raise SynthConfigError(f"{where}: unknown key {key!r}, expected one of {allowed}")
    members = {k: v for k, v in value.items() if v is not None}
    for key in required:
        if key not in members:
            raise SynthConfigError(f"{where}: missing key {key!r}")
    return members


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer", bool: "true or false"}


def _check(value: Any, kind: type, where: str) -> Any:
    """`value` if it is a `kind`; a bool is no integer."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise SynthConfigError(f"{where}: expected {_JSON_TYPES[kind]}, got {value!r:.60}")


def _number(value: Any, where: str) -> float:
    """A finite JSON number as a float; a bool is no number."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if finite and not isinstance(value, bool):
        return float(value)
    raise SynthConfigError(f"{where}: expected a finite number, got {value!r:.60}")


def _profile(value: Any, where: str) -> tuple[float, ...]:
    """A number for every hour of the day, or a list of hourly numbers."""
    if isinstance(value, list):
        return tuple(_number(v, where) for v in value)
    return tuple([_number(value, where)] * HOURS)
