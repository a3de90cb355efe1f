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
import sys
from dataclasses import dataclass
from typing import Any, Optional

from .errors import SynthConfigError, TriarbError
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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.MissingSectionHeaderError as exc:
        raise TriarbError(f"{path}:{exc.lineno}: no [section] header before {exc.line!r}") from None
    except configparser.ParsingError as exc:
        line, text = exc.errors[0]
        raise TriarbError(f"{path}:{line}: expected KEY = VALUE, got {text}") from None
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        raise TriarbError(f"{path}:{exc.lineno}: {exc.message.rpartition(']: ')[2]}") from None
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    for section in parser.sections() + ([parser.default_section] if parser.defaults() else []):
        if section not in ("triangle", "points", "sessions"):
            raise TriarbError(f"{path}: unknown section [{section}]")
    for key in parser.options("triangle") if parser.has_section("triangle") else ():
        if key not in ("currencies", "pairs"):
            raise TriarbError(f"{path}: unknown key {key!r} in [triangle]")

    points: dict[str, str] = {}  # Pair checks the point sizes it is given
    if parser.has_section("points"):
        for name, value in parser.items("points"):
            points[_parse_pair(name, {}).name] = value

    # without a [triangle] section both lookups fall back
    currencies = parse_currencies(parser.get("triangle", "currencies", fallback="EUR,USD,CHF"))
    pairs_text = parser.get("triangle", "pairs", fallback=None)
    if pairs_text:
        pairs = tuple(_parse_pair(p, points) for p in _split_csv(pairs_text))
        if len(pairs) != 3:
            raise ValueError(f"triangle needs exactly 3 pairs, got {pairs_text}")
        triangle = TriangleSpec(currencies=currencies, pairs=pairs)
    else:
        triangle = TriangleSpec.from_currencies(*currencies, point_sizes=points)

    if parser.has_section("sessions"):
        sessions = SessionTable(
            sessions={k: parse_hour_span(v) for k, v in parser.items("sessions")}
        )
    else:
        sessions = SessionTable.default()
    return AppConfig(triangle=triangle, sessions=sessions, config_path=path)


def _split_csv(text: str) -> list[str]:
    return [t.strip().upper() for t in text.split(",") if t.strip()]


def _parse_pair(text: str, points: dict[str, str]) -> Pair:
    base, sep, quote = text.strip().upper().partition("/")
    if not sep or not base or not quote:
        raise ValueError(f"bad pair {text!r}, expected BASE/QUOTE")
    ps = points.get(f"{base}/{quote}")
    return Pair(base, quote, ps) if ps is not None else Pair(base, quote)


def parse_currencies(codes) -> tuple[str, str, str]:
    """A triangle's three currency codes, from "EUR,USD,CHF" or a list of codes."""
    items = codes.split(",") if isinstance(codes, str) else codes if isinstance(codes, list) else ()
    currencies = tuple(c.strip().upper() for c in map(str, items) if c.strip())
    if len(currencies) != 3:
        raise ValueError(f"a triangle needs three currency codes, got {codes!r}")
    return currencies


def triangle_for_currencies(cfg: AppConfig, codes) -> TriangleSpec:
    """The config triangle if the codes match it, else a convention-ordered one."""
    currencies = parse_currencies(codes)
    if currencies == cfg.triangle.currencies:
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


def parse_weekdays(text: str) -> Optional[frozenset[int]]:
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


def window_from_json(payload: Any) -> SeriesWindow:
    fields = _object(payload, "window", ("start", "end"), ("weekdays",))
    return SeriesWindow(
        start=parse_timestamp(str(fields["start"])),
        end=parse_timestamp(str(fields["end"])),
        weekday_filter=parse_weekdays(str(fields.get("weekdays", "mon-fri"))),
    )


def synth_config_from_json(payload: Any, app: AppConfig) -> SynthConfig:
    """Build a SynthConfig from the parsed JSON of a synth config file. Each
    object takes the keys its `_object` call lists, and null counts as absent."""
    cfg = _object(
        payload, "synth config", ("seed", "window"),
        ("currencies", "pairs", "liquidity_preset", "base_spread_points", "base_gap_rate",
         "gap_rate", "injections", "schedule"),
    )
    seed = _check(cfg["seed"], int, "seed")
    window = window_from_json(cfg["window"])
    triangle = (
        triangle_for_currencies(app, cfg["currencies"]) if "currencies" in cfg else app.triangle
    )

    names = [p.name for p in triangle.pairs]
    pair_cfg: dict[str, dict] = {}
    for name, entry in _check(cfg.get("pairs", {}), dict, "pairs").items():
        key = _parse_pair(name, {}).name
        if key not in names:
            raise SynthConfigError(f"pairs: {name!r} is not a pair of the triangle {names}")
        if key in pair_cfg:
            raise SynthConfigError(f"pairs: {key} is given twice")
        entry = {} if entry is None else entry
        pair_cfg[key] = _object(entry, f"pairs.{key}", (), ("point", "mid", "vol", "spread_points"))
    triangle = TriangleSpec(triangle.currencies, tuple(
        Pair(p.base, p.quote, pair_cfg.get(p.name, {}).get("point", p.point_size))
        for p in triangle.pairs
    ))

    preset = None
    if _check(cfg.get("liquidity_preset", False), bool, "liquidity_preset"):
        preset = liquidity_preset(
            app.sessions,
            base_spread_points=_number(cfg.get("base_spread_points", 3.0), "base_spread_points"),
            base_gap_rate=_number(cfg.get("base_gap_rate", 0.002), "base_gap_rate"),
        )

    mid_prices, volatilities, spread_points = {}, {}, {}
    for pair in triangle.pairs:
        entry, where = pair_cfg.get(pair.name, {}), f"pairs.{pair.name}"
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

    if "gap_rate" in cfg:
        gap_rate = _profile(cfg["gap_rate"], "gap_rate")
    else:
        gap_rate = preset.gap_rate if preset is not None else tuple([0.0] * HOURS)

    injections = []
    for i, item in enumerate(_check(cfg.get("injections", []), list, "injections")):
        where = f"injections[{i}]"
        fields = _object(item, where, ("start", "duration_seconds", "magnitude_bp", "direction"))
        injections.append(InjectionSpec(
            start=parse_timestamp(str(fields["start"])),
            duration_seconds=_check(fields["duration_seconds"], int, f"{where}.duration_seconds"),
            magnitude_bp=_number(fields["magnitude_bp"], f"{where}.magnitude_bp"),
            direction=Direction(_check(fields["direction"], int, f"{where}.direction")),
        ))
    if "schedule" in cfg:
        schedule = {"base_rate_per_hour": 1.0, "magnitude_range": [0.5, 4.0]}
        schedule.update(_object(cfg["schedule"], "schedule", (), tuple(schedule)))
        where = "schedule.magnitude_range"
        bounds = _check(schedule["magnitude_range"], list, where)
        if len(bounds) != 2:
            raise SynthConfigError(f"{where}: expected [lo, hi], got {bounds}")
        injections += seasonal_injection_schedule(
            seed=seed,
            window=window,
            table=app.sessions,
            base_rate_per_hour=_number(
                schedule["base_rate_per_hour"], "schedule.base_rate_per_hour"
            ),
            magnitude_range=tuple(_number(b, where) for b in bounds),
        )
        injections.sort(key=lambda i: i.start)

    return SynthConfig(
        seed=seed,
        window=window,
        triangle=triangle,
        mid_prices=mid_prices,
        volatilities=volatilities,
        spread_points=spread_points,
        gap_rate=gap_rate,
        injections=tuple(injections),
    )


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
