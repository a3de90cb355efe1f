"""Reference tick loader: a regular expression per line, then `int`, `Decimal`
and `datetime` for the values.

It reads the whole file line by line, checks each row as it goes and builds
the grid columns from a per-second dict. The package's `TickReader`, reading
the window as one chunk and then calling `finish` (`conftest.load_pair_series`),
must return an equal `PairSeries`, count the same crossed quotes and raise
the same error class at the same line on every input this loop accepts or
rejects with a `TickParseError`, `TickOrderingError` or `EmptySeriesError`.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal

import numpy as np

from triarb.errors import EmptySeriesError, TickOrderingError, TickParseError
from triarb.market_data import Pair, PairSeries, SeriesWindow

_PRICE = r"([0-9]*\.?[0-9]*)"
_ROW = {
    False: re.compile(rf"([0-9]{{1,18}}),{_PRICE},{_PRICE}"),
    True: re.compile(
        r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.[0-9]{3})?Z?,"
        rf"{_PRICE},{_PRICE}"
    ),
}
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


def load_pair_series(path, pair: Pair, window: SeriesWindow, crossed=None) -> PairSeries:
    """The file's series; its crossed-quote count over every row is appended
    to the list `crossed`, if given, once every row has been checked."""
    # second -> (bid, ask, line); keys arrive in ascending order
    per_second: dict[int, tuple[Decimal, Decimal, int]] = {}
    iso = None
    last_t = None
    n_crossed = 0
    with open(path, "rb") as fh:
        pieces = fh.read().split(b"\n")
    # a line ends at LF or CRLF; the last piece has no LF, so no CRLF either
    lines = [p.removesuffix(b"\r") for p in pieces[:-1]] + pieces[-1:]
    lines = [line.decode("ascii", "replace") for line in lines]
    if lines == [""]:
        raise TickParseError(path, 1, "empty file")
    if lines[0].lower() != "timestamp,bid,ask":
        raise TickParseError(path, 1, f"expected header timestamp,bid,ask, got {lines[0]!r}")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if iso is None:
            iso = re.fullmatch("[0-9]+", line.split(",")[0]) is None
        match = _ROW[iso].fullmatch(line)
        if match is None:
            raise TickParseError(path, line_no, f"row outside the grammar: {line!r}")
        *stamp, raw_bid, raw_ask = match.groups()
        if any(len(p.replace(".", "")) not in range(1, 19) for p in (raw_bid, raw_ask)):
            raise TickParseError(path, line_no, f"bad price in {line!r}")
        if iso:
            try:
                t = (datetime(*map(int, stamp), tzinfo=timezone.utc) - _EPOCH) // _SECOND
            except ValueError:
                raise TickParseError(path, line_no, f"bad timestamp in {line!r}") from None
            if t < 0:
                raise TickParseError(path, line_no, f"timestamp before 1970 in {line!r}")
        else:
            t = int(stamp[0])
        bid = Decimal(raw_bid)
        ask = Decimal(raw_ask)
        if bid <= 0 or ask <= 0:
            raise TickParseError(path, line_no, f"non-positive price in {line!r}")
        if last_t is not None and t < last_t:
            raise TickOrderingError(f"{path}:{line_no}: timestamp {t} precedes {last_t}")
        last_t = t
        if bid > ask:
            n_crossed += 1
        if _in_window(window, t):
            per_second[t] = (bid, ask, line_no)
    if crossed is not None:
        crossed.append(n_crossed)
    if not per_second:
        raise EmptySeriesError(f"{path}: no tick falls inside window {window}")

    times = window.grid_times()
    index = np.searchsorted(times, np.fromiter(per_second, np.int64, len(per_second)))
    ticks = per_second.values()
    scale = max(0, max(-min(b.as_tuple().exponent, a.as_tuple().exponent) for b, a, _ in ticks))
    bid_m = np.zeros(times.size, dtype=np.int64)
    ask_m = np.zeros(times.size, dtype=np.int64)
    for i, (bid, ask, line_no) in zip(index.tolist(), ticks):
        mantissas = [int(p.scaleb(scale)) for p in (bid, ask)]
        # the writer prints at least scale + 1 digits, and at most 18 fit the grammar
        if scale > 17 or max(mantissas) >= 10**18:
            raise TickParseError(
                path, line_no, f"price in {bid},{ask} needs more than 18 digits at {scale} places"
            )
        bid_m[i], ask_m[i] = mantissas
    return PairSeries(pair, window, bid_m, ask_m, scale)


def _in_window(window: SeriesWindow, t: int) -> bool:
    """Grid membership of one second, apart from `SeriesWindow.mask`."""
    if not window.start <= t < window.end:
        return False
    day = date(1970, 1, 1) + timedelta(days=t // 86400)
    return day.weekday() in window.weekday_filter


def write_pair_series_csv(path, series: PairSeries) -> None:
    """The reference writer: each quoted second through `tick_line`."""
    quoted = ~series.missing
    columns = (series.window.grid_times()[quoted], series.bid_m[quoted], series.ask_m[quoted])
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,bid,ask\n")
        for t, b, a in zip(*(c.tolist() for c in columns)):
            fh.write(tick_line(t, b, a, series.scale))


def tick_line(t: int, bid_m: int, ask_m: int, scale: int) -> str:
    """One tick row: prices through `Decimal`'s fixed-point format."""
    return f"{t},{Decimal(bid_m).scaleb(-scale):f},{Decimal(ask_m).scaleb(-scale):f}\n"
