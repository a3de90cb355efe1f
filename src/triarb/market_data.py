"""Currency pairs, triangles, per-second pair series and tick-file I/O.

A pair's quotes live in one representation, the columns of `PairSeries`:
the grid seconds of a window, int64 bid and ask mantissas that share one
decimal exponent (`scale`), and a mask of missing seconds. Prices stay exact
here; the conversion to floating point happens downstream, when rate
products are computed. The loader parses each tick file row by row and
builds those columns once; the writer formats them straight back to text.

The time grid has a fixed resolution of one second. A grid second carries a
quote only if at least one raw tick fell inside that second; when several
did, the last one wins. Seconds without a tick are marked missing. An
optional weekday filter removes excluded days from the grid entirely.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    CrossedQuoteWarning,
    EmptySeriesError,
    TickOrderingError,
    TickParseError,
)

SECONDS_PER_DAY = 86_400
# Epoch day zero (1970-01-01) was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3

WEEKDAYS = frozenset({0, 1, 2, 3, 4})


def _weekday_of(epoch_day):
    """Weekday (Monday = 0) of an epoch day number, or of an int array of them."""
    return (epoch_day + _EPOCH_WEEKDAY) % 7


# Currency precedence used to order market-convention pairs (base first).
_CONVENTION_ORDER = ("EUR", "GBP", "AUD", "NZD", "USD", "CAD", "CHF", "JPY")


def default_point_size(quote_currency: str) -> Decimal:
    """Smallest conventional price increment for a pair quoted in `quote_currency`."""
    return Decimal("0.01") if quote_currency == "JPY" else Decimal("0.0001")


def market_convention_pair(x: str, y: str) -> tuple[str, str]:
    """Order two currency codes as (base, quote) by market convention."""

    def rank(c: str) -> tuple[int, str]:
        try:
            return (_CONVENTION_ORDER.index(c), c)
        except ValueError:
            return (len(_CONVENTION_ORDER), c)

    return (x, y) if rank(x) < rank(y) else (y, x)


@dataclass(frozen=True)
class Pair:
    """An ordered currency pair with its conventional point size."""

    base: str
    quote: str
    point_size: Decimal = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.point_size is None:
            object.__setattr__(self, "point_size", default_point_size(self.quote))
        else:
            object.__setattr__(self, "point_size", Decimal(str(self.point_size)))
        if self.point_size <= 0:
            raise ValueError(f"point size must be positive, got {self.point_size}")

    @property
    def name(self) -> str:
        return f"{self.base}/{self.quote}"

    @property
    def file_stem(self) -> str:
        return f"{self.base}{self.quote}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SeriesWindow:
    """Half-open time interval [start, end) with an optional weekday filter.

    `weekday_filter` uses Monday = 0 .. Sunday = 6; seconds falling on an
    excluded day are not part of the grid at all.
    """

    start: int
    end: int
    weekday_filter: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")
        if self.weekday_filter is not None:
            wf = frozenset(self.weekday_filter)
            if not wf or not wf <= frozenset(range(7)):
                raise ValueError(f"invalid weekday filter {self.weekday_filter}")
            object.__setattr__(self, "weekday_filter", wf)

    def grid_times(self) -> np.ndarray:
        """All grid seconds of the window, ascending (int64)."""
        times = np.arange(self.start, self.end, dtype=np.int64)
        if self.weekday_filter is not None:
            wd = _weekday_of(times // SECONDS_PER_DAY)
            times = times[np.isin(wd, sorted(self.weekday_filter))]
        return times

    def contains(self, t: int) -> bool:
        if not (self.start <= t < self.end):
            return False
        if self.weekday_filter is None:
            return True
        return _weekday_of(t // SECONDS_PER_DAY) in self.weekday_filter

    def days(self) -> list[date]:
        """Calendar days (UTC) covered by the grid, in order."""
        first = self.start // SECONDS_PER_DAY
        last = (self.end - 1) // SECONDS_PER_DAY
        out = []
        for d in range(first, last + 1):
            if self.weekday_filter is not None and _weekday_of(d) not in self.weekday_filter:
                continue
            out.append(date(1970, 1, 1) + timedelta(days=d))
        return out


@dataclass(eq=False, slots=True)
class PairSeries:
    """One pair's quotes on the per-second grid of a window.

    Columnar: int64 mantissa arrays for bid and ask plus a shared decimal
    exponent (`scale`), and a boolean mask for missing seconds, whose
    mantissas are zero.
    """

    pair: Pair
    window: SeriesWindow
    times: np.ndarray
    bid_m: np.ndarray
    ask_m: np.ndarray
    missing: np.ndarray
    scale: int

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    def bid_float(self) -> np.ndarray:
        return self.bid_m.astype(np.float64) * 10.0 ** (-self.scale)

    def ask_float(self) -> np.ndarray:
        return self.ask_m.astype(np.float64) * 10.0 ** (-self.scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSeries):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.window == other.window
            and self.scale == other.scale
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.bid_m, other.bid_m)
            and np.array_equal(self.ask_m, other.ask_m)
            and np.array_equal(self.missing, other.missing)
        )


class Side(Enum):
    """How a leg consumes its pair's quote: sell base at bid, or buy base at 1/ask."""

    BID = "bid"
    INV_ASK = "inv_ask"


class Direction(Enum):
    """The two transaction directions around a triangle."""

    DIR1 = 1  # A -> B -> C -> A
    DIR2 = 2  # A -> C -> B -> A


@dataclass(frozen=True)
class TriangleSpec:
    """Three currencies, their market pairs, and the leg recipe per direction.

    For a conversion from currency X to Y using pair P: if X is P's base the
    leg sells base at P's bid; if X is P's quote the leg buys base at 1/ask.
    """

    currencies: tuple[str, str, str]
    pairs: tuple[Pair, Pair, Pair]
    legs_dir1: tuple[tuple[Pair, Side], ...] = field(init=False)
    legs_dir2: tuple[tuple[Pair, Side], ...] = field(init=False)

    def __post_init__(self):
        a, b, c = self.currencies
        if len({a, b, c}) != 3:
            raise ValueError(f"triangle currencies must be distinct: {self.currencies}")
        object.__setattr__(self, "legs_dir1", self._route((a, b), (b, c), (c, a)))
        object.__setattr__(self, "legs_dir2", self._route((a, c), (c, b), (b, a)))

    def _route(self, *hops: tuple[str, str]) -> tuple[tuple[Pair, Side], ...]:
        legs = []
        for src, dst in hops:
            pair = self.pair_for(src, dst)
            side = Side.BID if pair.base == src else Side.INV_ASK
            legs.append((pair, side))
        return tuple(legs)

    def pair_for(self, x: str, y: str) -> Pair:
        """The pair quoting currencies x and y, in either order."""
        for p in self.pairs:
            if {p.base, p.quote} == {x, y}:
                return p
        raise ValueError(f"no pair covers the conversion {x}->{y}")

    def legs(self, direction: Direction) -> tuple[tuple[Pair, Side], ...]:
        return self.legs_dir1 if direction is Direction.DIR1 else self.legs_dir2

    @classmethod
    def from_currencies(
        cls,
        a: str,
        b: str,
        c: str,
        point_sizes: Optional[dict[str, Decimal]] = None,
    ) -> "TriangleSpec":
        """Build a spec with market-convention pair ordering for (a, b, c)."""
        pairs = []
        for x, y in ((a, b), (b, c), (a, c)):
            base, quote = market_convention_pair(x, y)
            name = f"{base}/{quote}"
            ps = (point_sizes or {}).get(name)
            pairs.append(Pair(base, quote, ps) if ps is not None else Pair(base, quote))
        return cls(currencies=(a, b, c), pairs=tuple(pairs))


def parse_iso_timestamp(raw: str) -> int:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def load_pair_series(path, pair: Pair, window: SeriesWindow) -> PairSeries:
    """Load the tick CSV at `path` onto the window's per-second grid.

    Format: header ``timestamp,bid,ask``; timestamps are integer epoch
    seconds or ISO-8601 UTC (auto-detected from the first data row); prices
    are finite, positive decimals. Several ticks in one second collapse to
    the last one. Crossed quotes (bid > ask) are accepted with a
    CrossedQuoteWarning.
    All prices share the largest number of decimal places in the file; a
    price whose mantissa at that scale does not fit int64 is a parse error.
    """
    # second -> (bid, ask, line); keys arrive in ascending order
    per_second: dict[int, tuple[Decimal, Decimal, int]] = {}
    iso = None
    last_raw_t = None
    n_crossed = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TickParseError(path, 1, "empty file") from None
        if [h.strip().lower() for h in header] != ["timestamp", "bid", "ask"]:
            raise TickParseError(path, 1, f"expected header timestamp,bid,ask, got {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise TickParseError(path, line_no, f"expected 3 fields, got {len(row)}")
            raw_t, raw_bid, raw_ask = (f.strip() for f in row)
            if iso is None:
                iso = not _looks_like_int(raw_t)
            try:
                t = parse_iso_timestamp(raw_t) if iso else int(raw_t)
            except ValueError:
                raise TickParseError(path, line_no, f"bad timestamp {raw_t!r}") from None
            try:
                bid = Decimal(raw_bid)
                ask = Decimal(raw_ask)
            except InvalidOperation:
                raise TickParseError(path, line_no, f"bad price in {row!r}") from None
            if not (bid.is_finite() and ask.is_finite()):
                raise TickParseError(path, line_no, f"non-finite price in {row!r}")
            if bid <= 0 or ask <= 0:
                raise TickParseError(path, line_no, f"non-positive price in {row!r}")
            if last_raw_t is not None and t < last_raw_t:
                raise TickOrderingError(
                    f"{path}:{line_no}: timestamp {t} precedes {last_raw_t}"
                )
            last_raw_t = t
            if bid > ask:
                n_crossed += 1
            if window.contains(t):
                per_second[t] = (bid, ask, line_no)
    if n_crossed:
        warnings.warn(
            f"{path}: accepted {n_crossed} crossed quote(s) (bid > ask)",
            CrossedQuoteWarning,
            stacklevel=2,
        )
    if not per_second:
        raise EmptySeriesError(f"{path}: no tick falls inside window {window}")

    times = window.grid_times()
    index = np.searchsorted(times, np.fromiter(per_second, np.int64, len(per_second)))
    ticks = per_second.values()
    scale = max(0, max(-min(b.as_tuple().exponent, a.as_tuple().exponent) for b, a, _ in ticks))
    bid_m = np.zeros(times.size, dtype=np.int64)
    ask_m = np.zeros(times.size, dtype=np.int64)
    for i, (bid, ask, line_no) in zip(index.tolist(), ticks):
        try:
            bid_m[i] = int(bid.scaleb(scale))
            ask_m[i] = int(ask.scaleb(scale))
        except OverflowError:
            raise TickParseError(
                path, line_no,
                f"price in {bid},{ask} does not fit an int64 mantissa at the file's "
                f"{scale} decimal places",
            ) from None
    missing = np.ones(times.size, dtype=bool)
    missing[index] = False
    return PairSeries(pair, window, times, bid_m, ask_m, missing, scale)


def _looks_like_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def write_pair_series_csv(path, series: PairSeries) -> None:
    """Write the quoted seconds of `series` as a tick CSV in the loader's format."""
    quoted = ~series.missing
    shift = -series.scale
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "bid", "ask"])
        columns = (series.times[quoted], series.bid_m[quoted], series.ask_m[quoted])
        writer.writerows(
            (t, Decimal(b).scaleb(shift), Decimal(a).scaleb(shift))
            for t, b, a in zip(*(c.tolist() for c in columns))
        )
