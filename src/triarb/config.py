"""Parsing of the command line tools' flag values; no synth JSON is read here.

The tick commands take their triangle from `--triangle` (default
EUR,USD,CHF), with each pair in market-convention order. `synth` takes every
setting, point sizes included, from its JSON file: `synth.py` reads it, with
the currency, timestamp and weekday parsers below, and refuses a window with
no grid second through `require_grid`, as the tick commands do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import TickParseError, TriarbError
from .market_data import (
    ALL_DAYS,
    SeriesWindow,
    WEEKDAYS,
    _parse_block,
)

_DAY_NAMES = {"mon": 0, "tue": 1, "wed": 2, "thu": 3, "fri": 4, "sat": 5, "sun": 6}


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


def format_weekdays(days: frozenset[int]) -> str:
    """The weekday list that `parse_weekdays` reads back as `days`."""
    return ",".join(name for name, day in _DAY_NAMES.items() if day in days)


def require_grid(window: SeriesWindow, error: type[TriarbError] = TriarbError) -> None:
    """Raise `error` for a window with no grid second: its weekdays miss every day it touches."""
    if not window.grid_size():
        raise error(f"window {window.start}..{window.end} holds no second on its "
                    f"weekdays {format_weekdays(window.weekday_filter)}: its grid is empty")


def parse_window(text: str, weekdays: Optional[str] = None) -> SeriesWindow:
    """Parse ``START..END`` (epoch seconds or ISO-8601) plus a weekday filter."""
    start_s, sep, end_s = text.partition("..")
    if not sep:
        raise TriarbError(f"bad window {text!r}, expected START..END")
    return SeriesWindow(parse_timestamp(start_s), parse_timestamp(end_s),
                        parse_weekdays("mon-fri" if weekdays is None else weekdays))


def parse_float_list(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of the value of `flag`; empty items are skipped."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise TriarbError(f"bad {flag} {text!r}, expected comma-separated numbers") from None
