"""Flag-value parsing for the command line tools, and the synth JSON config.

The tick commands take their triangle from `--triangle` (default
EUR,USD,CHF), with each pair in market-convention order. Point sizes are a
synth setting: `synth` reads them, with every other setting, from its JSON
file, documented in the README; the hours of the market sessions are
`synth.OPEN_SESSIONS`.
"""

from __future__ import annotations

import sys
from typing import Any, Optional

import numpy as np

from .errors import SynthConfigError, TickParseError, TriarbError
from .market_data import (
    ALL_DAYS,
    HOURS,
    Pair,
    SeriesWindow,
    TriangleSpec,
    WEEKDAYS,
    _parse_block,
)

_DAY_NAMES = {"mon": 0, "tue": 1, "wed": 2, "thu": 3, "fri": 4, "sat": 5, "sun": 6}


def _parse_pair(text: str) -> Pair:
    base, sep, quote = text.strip().upper().partition("/")
    if not sep or not base or not quote:
        raise SynthConfigError(f"bad pair {text!r}, expected BASE/QUOTE")
    return Pair(base, quote)


def parse_currencies(codes) -> tuple[str, str, str]:
    """A triangle's three currency codes, from "EUR,USD,CHF" or a list of codes;
    a code is three ASCII letters in any case."""
    items = codes.split(",") if isinstance(codes, str) else codes if isinstance(codes, list) else ()
    currencies = []
    for item in items:
        code = item.strip() if isinstance(item, str) else ""
        if not (len(code) == 3 and code.isascii() and code.isalpha()):
            raise TriarbError(f"bad currency code {item!r}, expected three letters such as EUR")
        currencies.append(code.upper())
    if len(currencies) != 3:
        raise TriarbError(f"a triangle needs three currency codes, got {codes!r}")
    return tuple(currencies)


def parse_timestamp(text: str) -> int:
    """Epoch seconds from a date YYYY-MM-DD or a timestamp in the tick grammar:
    1 to 18 ASCII digits of epoch seconds, or YYYY-MM-DDTHH:MM:SS[.fff][Z]
    (UTC, from 1970 on). The tick parser reads it, as the time of a row."""
    stamp = text.strip().encode("utf-8", "replace")
    if not (stamp.isdigit() or b"T" in stamp or b":" in stamp):
        stamp += b"T00:00:00"
    row = np.frombuffer(stamp + b",1,1", dtype=np.uint8)
    try:
        t, *_ = _parse_block(text, row, np.zeros(1, np.int64), np.full(1, row.size),
                             np.ones(1, np.int64), not stamp.isdigit(), None)
    except TickParseError:
        raise TriarbError(
            f"bad timestamp {text.strip()!r}, expected 1 to 18 digits of epoch seconds, "
            "YYYY-MM-DD or YYYY-MM-DDTHH:MM:SS[.fff][Z] from 1970 on"
        ) from None
    return int(t[0])


def parse_weekdays(text: str) -> frozenset[int]:
    text = text.strip().lower()
    if text == "all":
        return ALL_DAYS
    if text == "mon-fri":
        return frozenset(WEEKDAYS)
    days = set()
    for token in text.split(","):
        token = token.strip()
        if token not in _DAY_NAMES:
            raise TriarbError(f"unknown weekday {token!r}")
        days.add(_DAY_NAMES[token])
    return frozenset(days)


def parse_window(text: str, weekdays: Optional[str] = None) -> SeriesWindow:
    """Parse ``START..END`` (epoch seconds or ISO-8601) plus a weekday filter."""
    start_s, sep, end_s = text.partition("..")
    if not sep:
        raise TriarbError(f"bad window {text!r}, expected START..END")
    return window_from_json({"start": start_s, "end": end_s, "weekdays": weekdays})


def parse_float_list(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of the value of `flag`; empty items are skipped."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise TriarbError(f"bad {flag} {text!r}, expected comma-separated numbers") from None


# ---------------------------------------------------------------------------
# synth JSON config


def window_from_json(payload: Any) -> SeriesWindow:
    fields = _object(payload, "window", ("start", "end"), ("weekdays",))
    return SeriesWindow(
        start=parse_timestamp(str(fields["start"])),
        end=parse_timestamp(str(fields["end"])),
        weekday_filter=parse_weekdays(str(fields.get("weekdays", "mon-fri"))),
    )


def synth_config_from_json(payload: Any) -> SynthConfig:
    """Build a SynthConfig from the parsed JSON of a synth config file. Each
    object takes the keys its `_object` call lists, and null counts as absent."""
    from decimal import Decimal, InvalidOperation

    from .synth import (
        Injections,
        SynthConfig,
        _off_grid_error,
        liquidity_preset,
        seasonal_injection_schedule,
    )

    cfg = _object(
        payload, "synth config", ("seed", "window"),
        ("currencies", "pairs", "liquidity_preset", "base_spread_points", "base_gap_rate",
         "gap_rate", "injections", "schedule"),
    )
    seed = _check(cfg["seed"], int, "seed")
    if seed < 0:
        raise SynthConfigError(f"seed: expected a non-negative integer, got {seed}")
    window = window_from_json(cfg["window"])
    triangle = TriangleSpec.from_currencies(*parse_currencies(cfg.get("currencies", "EUR,USD,CHF")))

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
        preset = liquidity_preset(
            base_spread_points=_number(cfg.get("base_spread_points", 3.0), "base_spread_points"),
            base_gap_rate=_number(cfg.get("base_gap_rate", 0.002), "base_gap_rate"),
        )

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

    if "gap_rate" in cfg:
        gap_rate = _profile(cfg["gap_rate"], "gap_rate")
    else:
        gap_rate = preset.gap_rate if preset is not None else tuple([0.0] * HOURS)

    columns = {"start": [], "duration_seconds": [], "magnitude_bp": [], "direction": []}
    for i, item in enumerate(_check(cfg.get("injections", []), list, "injections")):
        where = f"injections[{i}]"
        fields = _object(item, where, tuple(columns))
        start = parse_timestamp(str(fields["start"]))
        duration = _check(fields["duration_seconds"], int, f"{where}.duration_seconds")
        if duration > window.end - window.start:  # off the grid, and perhaps past 64 bits
            raise _off_grid_error(start, duration, window)
        columns["start"].append(start)
        columns["duration_seconds"].append(duration)
        columns["magnitude_bp"].append(_number(fields["magnitude_bp"], f"{where}.magnitude_bp"))
        columns["direction"].append(_check(fields["direction"], int, f"{where}.direction"))
    injections = Injections(**columns)  # its messages name the file's indices
    if "schedule" in cfg:
        schedule = {"base_rate_per_hour": 1.0, "magnitude_range": [0.5, 4.0]}
        schedule.update(_object(cfg["schedule"], "schedule", (), tuple(schedule)))
        where = "schedule.magnitude_range"
        bounds = _check(schedule["magnitude_range"], list, where)
        if len(bounds) != 2:
            raise SynthConfigError(f"{where}: expected [lo, hi], got {bounds}")
        scheduled = seasonal_injection_schedule(
            seed=seed,
            window=window,
            base_rate_per_hour=_number(
                schedule["base_rate_per_hour"], "schedule.base_rate_per_hour"
            ),
            magnitude_range=tuple(_number(b, where) for b in bounds),
        )
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
        gap_rate=gap_rate,
        injections=injections,
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
