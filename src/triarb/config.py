"""Configuration files and flag-value parsing for the command line tools.

The application config is a small INI file. Every section is optional; the
defaults describe the EUR/USD/CHF triangle with conventional pair ordering
and the built-in liquidity session table.

    [triangle]
    currencies = EUR,USD,CHF
    pairs = EUR/USD,USD/CHF,EUR/CHF

    [points]
    EUR/USD = 0.00001

    [sessions]
    asia = 0-10
    europe = 7-17
    americas = 13-23

Synthetic-data runs take a separate JSON config, documented in the README,
because injection lists do not fit a flat key-value format.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .market_data import (
    Direction,
    Pair,
    SeriesWindow,
    TriangleSpec,
    WEEKDAYS,
    parse_iso_timestamp,
)
from .seasonal import HOURS, SessionTable, parse_hour_span
from .synth import InjectionSpec, SynthConfig, liquidity_preset, seasonal_injection_schedule

CONFIG_ENV_VAR = "TRIARB_CONFIG"

_DAY_NAMES = {"mon": 0, "tue": 1, "wed": 2, "thu": 3, "fri": 4, "sat": 5, "sun": 6}


@dataclass(frozen=True)
class AppConfig:
    triangle: TriangleSpec
    sessions: SessionTable
    config_path: Optional[str] = None


def default_app_config() -> AppConfig:
    return AppConfig(
        triangle=TriangleSpec.from_currencies("EUR", "USD", "CHF"),
        sessions=SessionTable.default(),
    )


def load_app_config(path: Optional[str]) -> AppConfig:
    """Load the INI config; fall back to $TRIARB_CONFIG, then to defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return default_app_config()
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    points: dict[str, Decimal] = {}
    if parser.has_section("points"):
        for name, value in parser.items("points"):
            points[_canonical_pair_name(name)] = Decimal(value)

    if parser.has_section("triangle"):
        currencies = _split_csv(parser.get("triangle", "currencies", fallback="EUR,USD,CHF"))
        if len(currencies) != 3:
            raise ValueError(f"triangle needs exactly 3 currencies, got {currencies}")
        pairs_text = parser.get("triangle", "pairs", fallback=None)
        if pairs_text:
            pairs = tuple(_parse_pair(p, points) for p in _split_csv(pairs_text))
            if len(pairs) != 3:
                raise ValueError(f"triangle needs exactly 3 pairs, got {pairs_text}")
            triangle = TriangleSpec(currencies=tuple(currencies), pairs=pairs)
        else:
            triangle = TriangleSpec.from_currencies(*currencies, point_sizes=points)
    else:
        triangle = TriangleSpec.from_currencies("EUR", "USD", "CHF", point_sizes=points)

    if parser.has_section("sessions"):
        sessions = SessionTable(
            sessions={k: parse_hour_span(v) for k, v in parser.items("sessions")}
        )
    else:
        sessions = SessionTable.default()
    return AppConfig(triangle=triangle, sessions=sessions, config_path=path)


def _split_csv(text: str) -> list[str]:
    return [t.strip().upper() for t in text.split(",") if t.strip()]


def _canonical_pair_name(name: str) -> str:
    return name.strip().upper()


def _parse_pair(text: str, points: dict[str, Decimal]) -> Pair:
    base, sep, quote = text.strip().upper().partition("/")
    if not sep or not base or not quote:
        raise ValueError(f"bad pair {text!r}, expected BASE/QUOTE")
    ps = points.get(f"{base}/{quote}")
    return Pair(base, quote, ps) if ps is not None else Pair(base, quote)


def triangle_for_currencies(cfg: AppConfig, currencies: list[str]) -> TriangleSpec:
    """The config triangle if it matches, else a convention-ordered one."""
    if tuple(currencies) == cfg.triangle.currencies:
        return cfg.triangle
    points = {p.name: p.point_size for p in cfg.triangle.pairs}
    # reuse configured point sizes where the convention pair matches
    return TriangleSpec.from_currencies(*currencies, point_sizes=points)


def parse_timestamp(text: str) -> int:
    """Epoch seconds from an integer or an ISO-8601 date/datetime (UTC)."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "T" not in text and ":" not in text:
        text = text + "T00:00:00"
    return parse_iso_timestamp(text)


def parse_weekdays(text: Optional[str]) -> Optional[frozenset[int]]:
    if text is None:
        return frozenset(WEEKDAYS)
    text = text.strip().lower()
    if text == "all":
        return None
    if text == "mon-fri":
        return frozenset(WEEKDAYS)
    days = set()
    for token in text.split(","):
        token = token.strip()
        if token not in _DAY_NAMES:
            raise ValueError(f"unknown weekday {token!r}")
        days.add(_DAY_NAMES[token])
    return frozenset(days)


def parse_window(text: str, weekdays: Optional[str] = None) -> SeriesWindow:
    """Parse ``START..END`` (epoch seconds or ISO-8601) plus a weekday filter."""
    start_s, sep, end_s = text.partition("..")
    if not sep:
        raise ValueError(f"bad window {text!r}, expected START..END")
    return window_from_json({"start": start_s, "end": end_s, "weekdays": weekdays})


def parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# synth JSON config


def window_from_json(payload: dict) -> SeriesWindow:
    return SeriesWindow(
        start=parse_timestamp(str(payload["start"])),
        end=parse_timestamp(str(payload["end"])),
        weekday_filter=parse_weekdays(payload.get("weekdays", "mon-fri")),
    )


def synth_config_from_json(
    payload: dict, app: AppConfig, seed_override: Optional[int] = None
) -> SynthConfig:
    """Build a SynthConfig from the JSON payload of a synth config file."""
    seed = seed_override if seed_override is not None else payload.get("seed")
    if seed is None:
        raise ValueError("synth config needs a seed (file key 'seed' or --seed)")
    window = window_from_json(payload["window"])

    currencies = payload.get("currencies")
    if currencies:
        triangle = triangle_for_currencies(app, [c.upper() for c in currencies])
    else:
        triangle = app.triangle

    pair_cfg = payload.get("pairs", {})
    points = {}
    for name, entry in pair_cfg.items():
        if "point" in entry:
            points[_canonical_pair_name(name)] = Decimal(str(entry["point"]))
    if points:
        pairs = tuple(
            Pair(p.base, p.quote, points.get(p.name, p.point_size)) for p in triangle.pairs
        )
        triangle = TriangleSpec(currencies=triangle.currencies, pairs=pairs)

    sessions = app.sessions
    preset = None
    if payload.get("liquidity_preset", False):
        preset = liquidity_preset(
            sessions,
            base_spread_points=float(payload.get("base_spread_points", 3.0)),
            base_gap_rate=float(payload.get("base_gap_rate", 0.002)),
        )

    mid_prices = {}
    volatilities = {}
    spread_points = {}
    for pair in triangle.pairs:
        entry = pair_cfg.get(pair.name, {})
        if "mid" in entry:
            mid_prices[pair.name] = float(entry["mid"])
        if "vol" in entry:
            volatilities[pair.name] = float(entry["vol"])
        spread = entry.get("spread_points")
        if spread is None:
            if preset is None:
                raise ValueError(
                    f"no spread_points for {pair.name} and liquidity_preset is off"
                )
            spread_points[pair.name] = preset.spread_points
        elif isinstance(spread, (int, float)):
            spread_points[pair.name] = tuple([float(spread)] * HOURS)
        else:
            spread_points[pair.name] = tuple(float(s) for s in spread)

    gap = payload.get("gap_rate")
    if gap is None:
        gap_rate = preset.gap_rate if preset is not None else tuple([0.0] * HOURS)
    elif isinstance(gap, (int, float)):
        gap_rate = tuple([float(gap)] * HOURS)
    else:
        gap_rate = tuple(float(g) for g in gap)

    injections = [
        InjectionSpec(
            start=parse_timestamp(str(item["start"])),
            duration_seconds=int(item["duration_seconds"]),
            magnitude_bp=float(item["magnitude_bp"]),
            direction=Direction(int(item["direction"])),
        )
        for item in payload.get("injections", [])
    ]
    schedule = payload.get("schedule")
    if schedule:
        injections = list(injections) + list(
            seasonal_injection_schedule(
                seed=int(schedule.get("seed", seed)),
                window=window,
                table=sessions,
                base_rate_per_hour=float(schedule.get("base_rate_per_hour", 1.0)),
                duration_base=int(schedule.get("duration_base", 3)),
                magnitude_range=tuple(schedule.get("magnitude_range", (0.5, 4.0))),
                max_duration=int(schedule.get("max_duration", 10)),
            )
        )
        injections.sort(key=lambda i: i.start)

    return SynthConfig(
        seed=int(seed),
        window=window,
        triangle=triangle,
        mid_prices=mid_prices,
        volatilities=volatilities,
        spread_points=spread_points,
        gap_rate=gap_rate,
        injections=tuple(injections),
    )
