"""Currency pairs, triangles, per-second pair series and tick-file I/O.

A pair's quotes live in one representation, the columns of `PairSeries`, one
entry per grid second of a window: int64 bid and ask mantissas that share one
decimal exponent (`scale`), and a mask of missing seconds. Prices stay exact
here; the conversion to floating point happens downstream, when rate
products are computed. Tick files follow one grammar, set out in
`load_pair_series`: the loader parses it with numpy passes over fixed-size
blocks of a file's bytes and builds those columns once, and the writer
formats the columns straight back to it from digit matrices.

The time grid has a fixed resolution of one second. A grid second carries a
quote only if at least one raw tick fell inside that second; when several
did, the last one wins. Seconds without a tick are marked missing. An
optional weekday filter removes excluded days from the grid entirely.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CrossedQuoteWarning,
    EmptySeriesError,
    TickOrderingError,
    TickParseError,
)

SECONDS_PER_DAY = 86_400
HOURS = 24
# Epoch day zero (1970-01-01) was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3

WEEKDAYS = frozenset({0, 1, 2, 3, 4})


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
        return times if self.weekday_filter is None else times[self.mask(times)]

    def mask(self, times: np.ndarray) -> np.ndarray:
        """Which of the int64 `times` fall on the window's grid."""
        inside = (times >= self.start) & (times < self.end)
        if self.weekday_filter is not None:
            weekday_ok = np.isin(np.arange(7), list(self.weekday_filter))  # Monday = 0
            inside &= weekday_ok[_weekday_of(times // SECONDS_PER_DAY)]
        return inside

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
    mantissas are zero. Entry i belongs to `window.grid_times()[i]`.
    """

    pair: Pair
    window: SeriesWindow
    bid_m: np.ndarray
    ask_m: np.ndarray
    missing: np.ndarray
    scale: int

    def __len__(self) -> int:
        return int(self.bid_m.size)

    @property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSeries):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.window == other.window
            and self.scale == other.scale
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
    """Three currencies A, B and C; their pairs and each direction's legs derive from them.

    For a conversion from currency X to Y using pair P: if X is P's base the
    leg sells base at P's bid; if X is P's quote the leg buys base at 1/ask.
    """

    currencies: tuple[str, str, str]

    def __post_init__(self):
        if len(set(self.currencies)) != 3:
            raise ValueError(f"triangle currencies must be distinct: {self.currencies}")

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
# Byte layout of YYYY-MM-DDTHH:MM:SS, the fixed part of an ISO timestamp.
_ISO_DIGIT_COLS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_PUNCT = ((4, ord("-")), (7, ord("-")), (10, ord("T")), (13, ord(":")), (16, ord(":")))


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

    The file is parsed by numpy passes over blocks of `BLOCK_BYTES`. A block
    of epoch rows that all share the first row's layout is read as one byte
    matrix; every other block is gathered field by field. Each block's last
    tick per second goes straight onto the grid with its decimal places; a
    later block overwrites an earlier one, so a second that straddles two
    blocks keeps its last tick. A load holds its result and one block.
    """
    times = window.grid_times()
    placed = np.zeros((2, times.size), dtype=np.int64)
    places = np.full((2, times.size), -1, dtype=np.int8)  # -1: a missing second
    n_crossed = 0
    with open(path, "rb") as fh:
        for t, bid, ask, crossed, _ in _ticks(fh, path):
            n_crossed += int(crossed.sum())
            rows = np.flatnonzero(_last_per_second(t))
            index = np.searchsorted(times, t[rows])
            on = index < times.size
            on[on] = times[index[on]] == t[rows[on]]
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
        second = times[np.argmin(missing) if scale > 17 else (over % times.size).min()]
        with open(path, "rb") as fh:
            line_no = max(int(lines[t == second].max(initial=0))
                          for t, *_, lines in _ticks(fh, path))
        raise TickParseError(path, line_no, "price needs more than 18 digits at the file's "
                                            f"{scale} decimal places")
    flat_m[low] *= _POW10[shift]
    return PairSeries(pair, window, placed[0], placed[1], missing, scale)


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
    """
    parsed = None if iso else _matrix_fields(buf, starts, ends)
    t, bid, ask, checks = parsed or _gathered_fields(buf, starts, ends, iso)
    before = np.empty_like(t)
    before[1:] = t[:-1]
    before[:1] = t[:1] if last_t is None else last_t
    checks.append(((bid[0] != 0) & (ask[0] != 0), "non-positive price"))
    bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in checks]) | (t < before))
    if bad.size:
        i = int(bad[0])
        row = buf[starts[i]:ends[i]][:80].tobytes()
        for ok, what in checks:
            if not ok[i]:
                raise TickParseError(path, int(lines[i]), f"{what} in {row!r}")
        raise TickOrderingError(f"{path}:{lines[i]}: timestamp {t[i]} precedes {before[i]}")
    return t, bid, ask, _greater(bid, ask)


def _matrix_fields(buf, starts, ends):
    """What `_gathered_fields` returns, with no row check left to make, for a
    block whose rows all have the first row's length, commas and dots, with
    1 to 18 digits per field and no dot in the timestamp; None for any other
    block.

    The rows are one (rows, width) byte matrix, checked as a whole, and each
    field's mantissa is a Horner pass over its digit columns.
    """
    width = int(ends[0] - starts[0])
    if (ends - starts != width).any():
        return None
    first = buf[starts[0]:ends[0]].tobytes()
    fields = first.split(b",")
    if len(fields) != 3 or b"." in fields[0]:
        return None
    spans = []  # (first column, dot column or None, end column) per field
    col = 0
    for field in fields:
        digits = field.replace(b".", b"", 1)
        if not (1 <= len(digits) <= 18 and digits.isdigit()):
            return None
        dot = field.find(b".")
        spans.append((col, None if dot < 0 else col + dot, col + len(field)))
        col += len(field) + 1
    punct = [c for c in range(width) if first[c] in (_COMMA, _DOT)]
    chars = sliding_window_view(buf, width)[starts]
    if not (chars[:, punct] == chars[0, punct]).all():
        return None
    chars[:, punct] = _ZERO
    chars -= _ZERO  # uint8: anything but a digit wraps to 10 or more
    if chars.max() >= 10:
        return None
    t = np.zeros(starts.size, dtype=np.int64)
    bid = np.zeros((2, starts.size), dtype=np.int64)
    ask = np.zeros((2, starts.size), dtype=np.int64)
    for m, (lo, dot, hi) in zip((t, bid[0], ask[0]), spans):
        for j in range(lo, hi):
            if j != dot:
                m *= 10
                m += chars[:, j]
    bid[1], ask[1] = (0 if dot is None else hi - dot - 1 for _, dot, hi in spans[1:])
    return t, bid, ask, []


def _gathered_fields(buf, starts, ends, iso):
    """Timestamps and (mantissa, places) rows of bids and asks of any block,
    each field gathered from its own bytes, with the checks of each row:
    (mask of rows that pass, what a failing row is) per check."""
    n = starts.size
    t = np.zeros(n, dtype=np.int64)
    bid = np.zeros((2, n), dtype=np.int64)
    ask = np.zeros((2, n), dtype=np.int64)
    t_ok = np.zeros(n, dtype=bool)
    price_ok = np.zeros(n, dtype=bool)

    commas = np.flatnonzero(buf == _COMMA)
    first = np.searchsorted(commas, starts)
    three = np.searchsorted(commas, ends) - first == 2
    rows = np.flatnonzero(three)
    if rows.size:
        c1, c2 = commas[first[rows]], commas[first[rows] + 1]
        if iso:
            t[rows], t_ok[rows] = _iso_seconds(buf, starts[rows], c1)
        else:
            t[rows], places, t_ok[rows] = _decimal_fields(buf, starts[rows], c1)
            t_ok[rows] &= places < 0  # no '.'
        b, bp, b_ok = _decimal_fields(buf, c1 + 1, c2)
        a, ap, a_ok = _decimal_fields(buf, c2 + 1, ends[rows])
        price_ok[rows] = b_ok & a_ok
        bid[:, rows] = b, np.maximum(bp, 0)
        ask[:, rows] = a, np.maximum(ap, 0)
    return t, bid, ask, [(three, "expected 3 fields"), (t_ok, "bad timestamp"),
                         (price_ok, "bad price")]


def _decimal_fields(buf, starts, ends):
    """Right-aligned digit gather of the fields buf[starts:ends].

    Returns each field's mantissa, its number of decimal places (-1 without
    a '.') and whether it is 1 to 18 ASCII digits with at most one '.'.
    """
    lengths = ends - starts
    width = int(min(lengths.max(), 19))
    if width <= 0:
        return lengths * 0, lengths * 0 - 1, np.zeros(lengths.size, dtype=bool)
    pad = np.full(width, _ZERO, dtype=np.uint8)  # so a field near the block's start has a window
    chars = sliding_window_view(np.concatenate((pad, buf)), width)[ends]  # the bytes up to ends
    chars[np.arange(width) < (width - lengths)[:, None]] = _ZERO  # blank those before starts
    digits = chars - _ZERO  # uint8: anything but a digit wraps to 10 or more
    dots = chars == _DOT
    n_dots = dots.sum(axis=1)
    n_digits = lengths - n_dots
    ok = (lengths <= width) & (n_dots <= 1) & (n_digits >= 1) & (n_digits <= 18)
    ok &= ((digits < 10) | dots).all(axis=1)
    mantissa = np.zeros(lengths.size, dtype=np.int64)
    for j in range(width):
        mantissa = np.where(dots[:, j], mantissa, mantissa * 10 + digits[:, j])
    places = np.where(n_dots > 0, width - 1 - dots.argmax(axis=1), -1)
    return mantissa, places, ok


def _iso_seconds(buf, starts, ends):
    """Epoch seconds of ISO fields YYYY-MM-DDTHH:MM:SS[.fff][Z], fraction
    dropped, and which fields have that form and a valid date and time from
    1970 on."""
    lengths = ends - starts
    chars = sliding_window_view(np.concatenate((buf, np.full(24, _ZERO, np.uint8))), 24)[starts]
    ok = np.isin(lengths, (19, 20, 23, 24))
    ok &= (chars[:, _ISO_DIGIT_COLS] - _ZERO < 10).all(axis=1)
    for col, char in _ISO_PUNCT:
        ok &= chars[:, col] == char
    zulu = (lengths == 20) | (lengths == 24)
    ok &= ~zulu | (chars[np.arange(lengths.size), np.clip(lengths - 1, 0, 23)] == ord("Z"))
    fraction = lengths >= 23
    ok &= ~fraction | ((chars[:, 19] == _DOT) & (chars[:, 20:23] - _ZERO < 10).all(axis=1))
    stamps = np.ascontiguousarray(chars[:, :19]).view("S19")[:, 0]
    seconds = np.full(lengths.size, -1, dtype=np.int64)
    try:
        seconds[ok] = stamps[ok].astype("datetime64[s]").astype(np.int64)
    except ValueError:  # an impossible date such as 02-30: cast row by row to find it
        for i in np.flatnonzero(ok).tolist():
            try:
                seconds[i] = stamps[i:i + 1].astype("datetime64[s]").astype(np.int64)[0]
            except ValueError:
                pass
    return seconds, ok & (seconds >= 0)


def _greater(x, y):
    """Exact x > y for (mantissa, places) rows of prices (places <= 18):
    integer parts first, then fractions padded to 18 places."""
    xi, xf = np.divmod(x[0], _POW10[x[1]])
    yi, yf = np.divmod(y[0], _POW10[y[1]])
    return (xi > yi) | ((xi == yi) & (xf * _POW10[18 - x[1]] > yf * _POW10[18 - y[1]]))


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
