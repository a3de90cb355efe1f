"""Currency pairs, triangles, per-second pair series and tick-file I/O.

A pair's quotes live in one representation, the columns of `PairSeries`, one
entry per grid second of a window: int64 bid and ask mantissas that share one
decimal exponent (`scale`). A missing second is one whose mantissas are zero,
which no quoted price can be. Prices stay exact
here; the conversion to floating point happens downstream, when rate
products are computed. Tick files follow one grammar, set out in
`load_pair_series`: the loader parses it with numpy passes over fixed-size
blocks of a file's bytes and builds those columns once, and the writer
formats the columns straight back to it from digit matrices.

The time grid has a fixed resolution of one second. A grid second carries a
quote only if at least one raw tick fell inside that second; when several
did, the last one wins. Seconds without a tick are missing. A window's
weekday filter removes excluded days from the grid entirely; by default it
keeps all seven.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CrossedQuoteWarning,
    EmptySeriesError,
    TickOrderingError,
    TickParseError,
    TriarbError,
)

SECONDS_PER_DAY = 86_400
HOURS = 24
# Epoch day zero (1970-01-01) was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3

WEEKDAYS = frozenset({0, 1, 2, 3, 4})
ALL_DAYS = frozenset(range(7))


def _weekday_of(epoch_day):
    """Weekday (Monday = 0) of an epoch day number, or of an int array of them."""
    return (epoch_day + _EPOCH_WEEKDAY) % 7


# Currency precedence used to order market-convention pairs (base first).
_CONVENTION_ORDER = ("EUR", "GBP", "AUD", "NZD", "USD", "CAD", "CHF", "JPY")


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
    """An ordered currency pair: `base` priced in units of `quote`."""

    base: str
    quote: str

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
    """Half-open time interval [start, end) on the days of `weekday_filter`.

    `weekday_filter` uses Monday = 0 .. Sunday = 6 and defaults to every day;
    seconds falling on an excluded day are not part of the grid at all.
    """

    start: int
    end: int
    weekday_filter: frozenset[int] = ALL_DAYS

    def __post_init__(self):
        if self.start >= self.end:
            raise TriarbError(f"window start {self.start} must precede end {self.end}")
        wf = frozenset(self.weekday_filter)
        if not wf or not wf <= ALL_DAYS:
            raise TriarbError(f"invalid weekday filter {self.weekday_filter}")
        object.__setattr__(self, "weekday_filter", wf)

    def grid_times(self) -> np.ndarray:
        """All grid seconds of the window, ascending (int64). A window too
        long for them to fit in memory is a TriarbError."""
        try:
            times = np.arange(self.start, self.end, dtype=np.int64)
            return times[self.mask(times)]
        except MemoryError:
            raise TriarbError(
                f"window {self} spans {self.end - self.start:,} seconds, "
                "too many for its per-second grid to fit in memory"
            ) from None

    def mask(self, times: np.ndarray) -> np.ndarray:
        """Which of the int64 `times` fall on the window's grid."""
        weekday_ok = np.isin(np.arange(7), list(self.weekday_filter))  # Monday = 0
        inside = (times >= self.start) & (times < self.end)
        inside &= weekday_ok[_weekday_of(times // SECONDS_PER_DAY)]
        return inside

    def grid_size(self) -> int:
        """The number of grid seconds, `grid_times().size`."""
        return int(self._day_counts()[1].sum())

    def grid_index(self, times: np.ndarray) -> np.ndarray:
        """Index in `grid_times()` of each of the int64 `times`, -1 off the grid,
        counted by calendar days with no grid built."""
        first, count = self._day_counts()
        on = self.mask(times)
        day = np.where(on, times // SECONDS_PER_DAY - self.start // SECONDS_PER_DAY, 0)
        return np.where(on, (np.cumsum(count) - count)[day] + times - first[day], -1)

    def days(self) -> list[date]:
        """Calendar days (UTC) covered by the grid, in order."""
        first, count = self._day_counts()
        return [date(1970, 1, 1) + timedelta(days=t // SECONDS_PER_DAY)
                for t in first[count > 0].tolist()]

    def _day_counts(self):
        """The first second in the window of each calendar day it touches, and
        that day's number of grid seconds."""
        day = np.arange(self.start // SECONDS_PER_DAY, (self.end - 1) // SECONDS_PER_DAY + 1)
        first = np.maximum(day * SECONDS_PER_DAY, self.start)
        last = np.minimum(day * SECONDS_PER_DAY + SECONDS_PER_DAY, self.end)
        return first, (last - first) * self.mask(first)


@dataclass(eq=False, slots=True)
class PairSeries:
    """One pair's quotes on the per-second grid of a window.

    Columnar: int64 mantissa arrays for bid and ask plus a shared decimal
    exponent (`scale`). A missing second has zero mantissas; a quoted price
    is positive. Entry i belongs to `window.grid_times()[i]`.
    """

    pair: Pair
    window: SeriesWindow
    bid_m: np.ndarray
    ask_m: np.ndarray
    scale: int

    def __len__(self) -> int:
        return int(self.bid_m.size)

    @property
    def missing(self) -> np.ndarray:
        """Which grid seconds carry no quote."""
        return self.bid_m == 0

    @property
    def n_missing(self) -> int:
        return int(np.count_nonzero(self.missing))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSeries):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.window == other.window
            and self.scale == other.scale
            and np.array_equal(self.bid_m, other.bid_m)
            and np.array_equal(self.ask_m, other.ask_m)
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
    """Three currencies A, B and C; their pairs and each direction's legs derive from them.

    For a conversion from currency X to Y using pair P: if X is P's base the
    leg sells base at P's bid; if X is P's quote the leg buys base at 1/ask.
    """

    currencies: tuple[str, str, str]

    def __post_init__(self):
        if len(set(self.currencies)) != 3:
            raise TriarbError(f"triangle currencies must be distinct: {self.currencies}")

    @property
    def pairs(self) -> tuple[Pair, Pair, Pair]:
        """The A-B, B-C and A-C pairs, in that order, each in market convention."""
        a, b, c = self.currencies
        return tuple(Pair(*market_convention_pair(x, y)) for x, y in ((a, b), (b, c), (a, c)))

    def legs(self, direction: Direction) -> tuple[tuple[Pair, Side], ...]:
        """(pair, side) of each hop: A -> B -> C -> A for DIR1, A -> C -> B -> A for DIR2."""
        a, b, c = self.currencies
        ab, bc, ac = self.pairs
        hops = ((a, ab), (b, bc), (c, ac)) if direction is Direction.DIR1 else (
            (a, ac), (c, bc), (b, ab))
        return tuple((pair, Side.BID if pair.base == src else Side.INV_ASK) for src, pair in hops)

    @classmethod
    def from_currencies(cls, a: str, b: str, c: str) -> "TriangleSpec":
        """The triangle of currencies (a, b, c)."""
        return cls((a, b, c))


# Tick files are read and written in blocks of about this many bytes. A
# block's partial last line is carried into the next block, so the loader's
# temporaries follow the block size and its result follows the window, never
# the file size.
BLOCK_BYTES = 1 << 18

_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18
_COMMA, _DOT, _LF, _CR, _ZERO = (ord(c) for c in ",.\n\r0")
_CHECKS = ("expected 3 fields", "bad timestamp", "bad price")  # in the order rows are checked
_ISO = re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{3})?Z?")
# (first column, width) of the year, month, day, hour, minute and second of an ISO time
_ISO_FIELDS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])  # months 00 to 13+


def load_pair_series(path, pair: Pair, window: SeriesWindow) -> PairSeries:
    """Load the tick CSV at `path` onto the window's per-second grid.

    The file follows the tick grammar, which `write_pair_series_csv` writes:

    - the first line is ``timestamp,bid,ask`` in any ASCII case; lines end
      in LF or CRLF, and blank lines are skipped but keep their numbers;
    - a timestamp is 1 to 18 ASCII digits of epoch seconds, or
      YYYY-MM-DDTHH:MM:SS[.fff][Z] in UTC from 1970 on, its fraction
      dropped; the first data row decides which (epoch if its timestamp is
      all digits), and timestamps never decrease;
    - a price is 1 to 18 ASCII digits with at most one '.', and positive.

    Any other row is a TickParseError naming its line. Several ticks in one
    second collapse to the last one. Crossed quotes (bid > ask) are accepted
    with a CrossedQuoteWarning. All prices share the largest number of
    decimal places among the ticks kept; that scale is at most 17 and every
    mantissa at it below 10**18, so the series can be written back.

    The file is parsed by numpy passes over blocks of `BLOCK_BYTES`, each
    block's rows as a few byte matrices, one per row layout (see
    `_parse_block`). Each block's last tick per second goes straight onto
    the grid, at an index counted by calendar days, with its decimal places;
    a later block overwrites an earlier one, so a second that straddles two
    blocks keeps its last tick. A load holds its result and one block.
    """
    n = window.grid_size()
    placed = np.zeros((2, n), dtype=np.int64)
    places = np.full((2, n), -1, dtype=np.int8)  # -1: a missing second
    n_crossed = 0
    with open(path, "rb") as fh:
        for t, bid, ask, crossed, _ in _ticks(fh, path):
            n_crossed += int(crossed.sum())
            rows = np.flatnonzero(_last_per_second(t))
            index = window.grid_index(t[rows])
            on = index >= 0
            rows, index = rows[on], index[on]
            placed[:, index] = bid[0, rows], ask[0, rows]
            places[:, index] = bid[1, rows], ask[1, rows]
    if n_crossed:
        warnings.warn(f"{path}: accepted {n_crossed} crossed quote(s) (bid > ask)",
                      CrossedQuoteWarning, stacklevel=2)
    missing = places[0] < 0
    if missing.all():
        raise EmptySeriesError(f"{path}: no tick falls inside window {window}")
    scale = int(places.max())
    flat_m, flat_p = placed.reshape(-1), places.reshape(-1)
    low = np.flatnonzero((flat_p >= 0) & (flat_p < scale))  # (side, second) to rescale
    shift = scale - flat_p[low]
    over = low[flat_m[low] >= _POW10[18 - shift]]  # what the grammar cannot write
    if scale > 17 or over.size:  # name the line of the first such second's last tick
        second = window.grid_times()[np.argmin(missing) if scale > 17 else (over % n).min()]
        with open(path, "rb") as fh:
            line_no = max(int(lines[t == second].max(initial=0))
                          for t, *_, lines in _ticks(fh, path))
        raise TickParseError(path, line_no, "price needs more than 18 digits at the file's "
                                            f"{scale} decimal places")
    flat_m[low] *= _POW10[shift]
    return PairSeries(pair, window, placed[0], placed[1], scale)


def _ticks(fh, path):
    """Yield (timestamps, bids, asks, crossed flags, line numbers) per block of data rows."""
    iso = last_t = None
    for line_no, buf, starts, ends in _line_blocks(fh, path):
        if line_no == 1:
            header = buf[starts[0]:ends[0]].tobytes()
            if header.lower() != b"timestamp,bid,ask":
                raise TickParseError(path, 1, f"expected header timestamp,bid,ask, "
                                              f"got {header[:80]!r}")
            line_no, starts, ends = 2, starts[1:], ends[1:]
        lines = line_no + np.arange(starts.size)
        data = starts < ends  # blank lines are skipped but keep their numbers
        lines, starts, ends = lines[data], starts[data], ends[data]
        if not lines.size:
            continue
        if iso is None:  # epoch seconds if the first data row's timestamp is all digits
            iso = not buf[starts[0]:ends[0]].tobytes().partition(b",")[0].isdigit()
        t, bid, ask, crossed = _parse_block(path, buf, starts, ends, lines, iso, last_t)
        last_t = int(t[-1])
        yield t, bid, ask, crossed, lines


def _line_blocks(fh, path):
    """Yield (first line number, bytes, line starts, line ends) per block of `fh`.

    A line ends at LF or CRLF; `ends` excludes the terminator. The bytes
    after a block's last LF are carried into the next block, and at the end
    of the file they are its last line. An empty file, or a line longer than
    a block, is a TickParseError.
    """
    line_no = 1
    carry = b""
    eof = False
    while not eof:
        data = fh.read(BLOCK_BYTES)
        eof = not data
        buf = np.frombuffer(carry + data, dtype=np.uint8)
        ends = np.flatnonzero(buf == _LF)
        rest = int(ends[-1]) + 1 if ends.size else 0
        if eof and rest < buf.size:
            ends = np.append(ends, buf.size)
            rest = buf.size
        carry = buf[rest:].tobytes()
        if ends.size:
            starts = np.empty_like(ends)
            starts[0] = 0
            starts[1:] = ends[:-1] + 1
            # only a line that ends at an LF can end in CRLF
            ends = ends - ((ends > starts) & (ends < buf.size) & (buf[ends - 1] == _CR))
            yield line_no, buf, starts, ends
            line_no += ends.size
        if len(carry) > BLOCK_BYTES:
            raise TickParseError(path, line_no, f"line longer than {BLOCK_BYTES} bytes")
    if line_no == 1:
        raise TickParseError(path, 1, "empty file")


def _parse_block(path, buf, starts, ends, lines, iso, last_t):
    """Parse and check the data rows of one block.

    Returns the timestamps, the (mantissa, places) rows of bids and asks and
    the crossed-quote flags. Raises the error of the first bad row: not three
    fields, a bad timestamp or price, a non-positive price, or a timestamp
    before the one of the row above it (`last_t` for the block's first row).

    Rows fall into layout groups. A group's template is its first row left
    over: its length and the bytes at every column that is not a digit. The
    rows that share those and have digits elsewhere make one (rows, width)
    byte matrix, checked as a whole, whose fields are Horner passes over
    their digit columns. So only a template is checked against the grammar,
    and grouping stops at the first one outside it: no later row can fail
    first. An ISO time fills columns 0 to 18 in every layout, so the times
    are read once per block.
    """
    n = starts.size
    t = np.zeros(n, dtype=np.int64)
    bid, ask = np.zeros((2, 2, n), dtype=np.int64)  # (mantissa, places) rows
    todo = np.ones(n, dtype=bool)
    failed = None  # (row, index in _CHECKS) of a template outside the grammar
    while todo.any():
        first = int(todo.argmax())
        template = buf[starts[first]:ends[first]].tobytes()
        layout = _layout(template, iso)
        if isinstance(layout, int):
            failed = first, layout
            break
        stamp_cols, prices = layout
        width = len(template)
        rows = np.flatnonzero(todo & (ends - starts == width))
        punct = [c for c, char in enumerate(template) if not _ZERO <= char < _ZERO + 10]
        chars = sliding_window_view(buf, width)[starts[rows]]
        same = chars[:, punct] == np.frombuffer(template, dtype=np.uint8)[punct]
        chars[:, punct] = np.where(same, _ZERO, 0)
        chars -= _ZERO  # uint8: a non-digit, or the 0 of a wrong byte, wraps to 10 or more
        if chars.max() >= 10:  # rows of other layouts among them
            inside = chars.max(axis=1) < 10
            rows, chars = rows[inside], chars[inside]
        todo[rows] = False
        if stamp_cols:
            t[rows] = _horner(chars, stamp_cols)
        for out, (cols, places) in zip((bid, ask), prices):
            out[0, rows] = _horner(chars, cols)
            out[1, rows] = places
    k = n if failed is None else failed[0] + 1  # no later row is checked
    t_ok = np.ones(k, dtype=bool)
    read = k - (failed is not None and failed[1] < 2)  # a failed template's time if it has one
    if iso and read:
        t[:read], t_ok[:read] = _iso_seconds(sliding_window_view(buf, 19)[starts[:read]])
    t, bid, ask = t[:k], bid[:, :k], ask[:, :k]
    before = np.empty_like(t)
    before[1:] = t[:-1]
    before[:1] = t[:1] if last_t is None else last_t
    positive = (bid[0] != 0) & (ask[0] != 0)
    bad = ~(t_ok & positive) | (t < before)
    if failed is not None:
        bad[-1] = True
    if bad.any():
        i = int(bad.argmax())
        row = buf[starts[i]:ends[i]][:80].tobytes()
        if not t_ok[i]:
            what = "bad timestamp"
        elif failed is not None and i == k - 1:
            what = _CHECKS[failed[1]]
        elif not positive[i]:
            what = "non-positive price"
        else:
            raise TickOrderingError(f"{path}:{lines[i]}: timestamp {t[i]} precedes {before[i]}")
        raise TickParseError(path, int(lines[i]), f"{what} in {row!r}")
    return t, bid, ask, _greater(bid, ask)


def _layout(row, iso):
    """The digit columns of a row's timestamp (None for an ISO one, which
    `_iso_seconds` reads) and the (digit columns, decimal places) of its bid
    and ask; or, for a row outside the tick grammar, the index in `_CHECKS`
    of the first check it fails."""
    fields = row.split(b",")
    if len(fields) != 3:
        return 0
    stamp = fields[0]
    if not (_ISO.fullmatch(stamp) if iso else stamp.isdigit() and len(stamp) <= 18):
        return 1
    prices = []
    col = len(stamp) + 1
    for price in fields[1:]:
        digits = price.replace(b".", b"", 1)
        if not (digits.isdigit() and len(digits) <= 18):
            return 2
        dot = price.find(b".")
        prices.append(([col + j for j in range(len(price)) if j != dot],
                       0 if dot < 0 else len(price) - dot - 1))
        col += len(price) + 1
    return None if iso else range(len(stamp)), prices


def _horner(digits, cols):
    """The int64 numbers whose decimal digits are the given columns of a digit matrix."""
    m = digits[:, cols[0]].astype(np.int64)
    for j in cols[1:]:
        m *= 10
        m += digits[:, j]
    return m


def _iso_seconds(chars):
    """Epoch seconds of (rows, 19) bytes YYYY-MM-DDTHH:MM:SS with digits at
    every digit column, and which rows are a real date and time from 1970 on.

    The day number is H. Hinnant's days-from-civil ("chrono-Compatible
    Low-Level Date Algorithms", 2013): years start in March, so that the
    leap day ends one.
    """
    digits = chars - _ZERO
    year, month, day, hour, minute, second = (
        _horner(digits, range(c, c + w)) for c, w in _ISO_FIELDS)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 13)] + (leap & (month == 2))
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400  # year of the 400-year era, 0 to 399
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1  # day of the March-based year
    days = era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719_468
    seconds = days * SECONDS_PER_DAY + hour * 3600 + minute * 60 + second
    ok = (day >= 1) & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60)
    return seconds, ok & (seconds >= 0)


def _greater(x, y):
    """Exact x > y for (mantissa, places) rows of prices (places <= 18): the
    mantissas where the places agree; elsewhere integer parts first, then
    fractions padded to 18 places."""
    greater = x[0] > y[0]
    i = np.flatnonzero(x[1] != y[1])
    x, y = x[:, i], y[:, i]
    (xi, xf), (yi, yf) = (np.divmod(p[0], _POW10[p[1]]) for p in (x, y))
    greater[i] = (xi > yi) | ((xi == yi) & (xf * _POW10[18 - x[1]] > yf * _POW10[18 - y[1]]))
    return greater


def _last_per_second(t):
    """Mask of the last row of each run of equal timestamps."""
    last = np.ones(t.size, dtype=bool)
    last[:-1] = t[1:] != t[:-1]
    return last


def write_pair_series_csv(path, series: PairSeries) -> None:
    """Write the quoted seconds of `series` as a tick CSV in the loader's grammar:
    epoch seconds, and prices with `scale` decimal places, as
    ``f"{Decimal(mantissa).scaleb(-scale):f}"`` prints them. The text is built
    from digit matrices, one block of rows at a time.

    A series with a negative time, a non-positive price, a mantissa of 10**18
    or more, or a scale outside 0 to 17 has no rows in the grammar: it is a
    ValueError, and no file is written.
    """
    quoted = ~series.missing
    columns = (series.window.grid_times()[quoted], series.bid_m[quoted], series.ask_m[quoted])
    if not 0 <= series.scale <= 17 or any(
        c.min(initial=low) < low or c.max(initial=0) >= _POW10[18]
        for c, low in zip(columns, (0, 1, 1))
    ):
        raise ValueError(
            f"{series.pair}: no tick row holds a negative time, a non-positive price, a "
            f"mantissa of 10**18 or more, or scale {series.scale} outside 0 to 17"
        )
    rows = BLOCK_BYTES // 32
    with open(path, "wb") as fh:
        fh.write(b"timestamp,bid,ask\n")
        for lo in range(0, columns[0].size, rows):
            fh.write(_format_rows(*(c[lo:lo + rows] for c in columns), series.scale))


def _format_rows(times, bid_m, ask_m, scale: int) -> bytes:
    """Tick CSV lines for the given rows."""
    text, used = [], []
    for values, places in ((times, 0), (bid_m, scale), (ask_m, scale)):
        chars, mask = _digit_matrix(values, places)
        text += [chars, np.full((values.size, 1), _COMMA, dtype=np.uint8)]
        used += [mask, np.ones((values.size, 1), dtype=bool)]
    text[-1][:] = _LF
    return np.hstack(text)[np.hstack(used)].tobytes()


def _digit_matrix(values, places: int):
    """ASCII digits of non-negative int64 `values` with `places` decimals as a
    right-aligned (rows x width) matrix, and the mask of the printed bytes."""
    n_digits = np.maximum(np.searchsorted(_POW10, values, side="right"), places + 1)
    width = int(n_digits.max())
    digits = np.empty((values.size, width), dtype=np.uint8)
    q = values
    for j in range(width - 1, -1, -1):
        q, r = np.divmod(q, 10)
        digits[:, j] = r + _ZERO
    mask = np.arange(width) >= width - n_digits[:, None]
    if places:
        cut = width - places
        digits = np.hstack([digits[:, :cut], np.full((values.size, 1), _DOT, np.uint8),
                            digits[:, cut:]])
        mask = np.hstack([mask[:, :cut], np.ones((values.size, 1), dtype=bool), mask[:, cut:]])
    return digits, mask
