"""Currency pairs, triangles, per-second pair series and tick-file I/O.

A pair's quotes live in one representation, the columns of `PairSeries`, one
entry per grid second of a window: int64 bid and ask mantissas that share one
decimal exponent (`scale`). A missing second is one whose mantissas are zero,
which no quoted price can be. Prices stay exact
here; the conversion to floating point happens downstream, when rate
products are computed. A `TickReader` parses tick files with numpy passes
over fixed-size blocks of a file's bytes, onto the columns of one chunk of a
window at a time, and the writer formats the columns straight back to them
from digit matrices. The reader decodes an ISO date once per run of rows
that share it, with `datetime.date`, and moves bid and ask columns with 1-D
index operations.

Tick files follow one grammar, which `write_pair_series_csv` writes:

- the first line is ``timestamp,bid,ask`` in any ASCII case; lines end
  in LF or CRLF, and blank lines are skipped but keep their numbers;
- a timestamp is 1 to 18 ASCII digits of epoch seconds, or
  YYYY-MM-DDTHH:MM:SS[.fff][Z] in UTC from 1970 on, its fraction
  dropped; the first data row decides which (epoch if its timestamp is
  all digits), and timestamps never decrease;
- a price is 1 to 18 ASCII digits with at most one '.', and positive.

Any other row is a TickParseError naming its line. Several ticks in one
second collapse to the last one. Crossed quotes (bid > ask) are accepted,
and a reader counts them (`TickReader.n_crossed`). A series' prices share
the largest number of decimal places among its ticks. At the largest among
all the file's ticks kept, that scale is at most 17 and every mantissa
below 10**18, so every series read can be written back.

The time grid has a fixed resolution of one second. A grid second carries a
quote only if at least one raw tick fell inside that second; when several
did, the last one wins. Seconds without a tick are missing. A window's
weekday filter removes excluded days from the grid entirely; by default it
keeps all seven.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import EmptySeriesError, TickOrderingError, TickParseError, TriarbError

SECONDS_PER_DAY = 86_400
HOURS = 24
# Epoch day zero (1970-01-01) was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3

WEEKDAYS = frozenset({0, 1, 2, 3, 4})
ALL_DAYS = frozenset(range(7))
MAX_DAYS = 1 << 17  # the calendar days a window may touch, about 359 years


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
    seconds falling on an excluded day are not part of the grid at all. A
    window touches at most `MAX_DAYS` calendar days, so that its per-day
    counts stay small; a longer one is a TriarbError.
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
        if (self.end - 1) // SECONDS_PER_DAY - self.start // SECONDS_PER_DAY >= MAX_DAYS:
            raise self._too_long()

    def grid_times(self) -> np.ndarray:
        """All grid seconds of the window, ascending (int64), built from the day
        counts. A window too long for them to fit in memory is a TriarbError."""
        first, count, before = self._day_counts
        try:
            return np.repeat(first - before, count) + np.arange(self.grid_size())
        except MemoryError:
            raise self._too_long() from None

    def mask(self, times: np.ndarray) -> np.ndarray:
        """Which of the int64 `times` fall on the window's grid."""
        inside = (times >= self.start) & (times < self.end)
        weekday = (times // SECONDS_PER_DAY + _EPOCH_WEEKDAY) % 7  # Monday = 0
        inside &= _weekday_table(self.weekday_filter)[weekday]
        return inside

    def grid_size(self) -> int:
        """The number of grid seconds, `grid_times().size`."""
        _, count, before = self._day_counts
        return int(before[-1] + count[-1])

    def grid_index(self, times: np.ndarray) -> np.ndarray:
        """Index in `grid_times()` of each of the int64 `times`, -1 off the grid,
        counted by calendar days with no grid built. Times that all fall on the
        grid seconds of one day, which are consecutive, take one addition."""
        first, count, before = self._day_counts
        if times.size:
            low, high = int(times.min()), int(times.max())
            day = low // SECONDS_PER_DAY - self.start // SECONDS_PER_DAY
            if 0 <= day < first.size and first[day] <= low and high < first[day] + count[day]:
                return times + int(before[day] - first[day])
        on = self.mask(times)
        day = np.where(on, times // SECONDS_PER_DAY - self.start // SECONDS_PER_DAY, 0)
        return np.where(on, before[day] + times - first[day], -1)

    def days(self) -> list[date]:
        """Calendar days (UTC) covered by the grid, in order. A window that ends
        after 9999-12-31, the last day a date can name, is a TriarbError."""
        last_end = ((date.max - date(1970, 1, 1)).days + 1) * SECONDS_PER_DAY
        if self.end > last_end:
            raise TriarbError(f"window {self.start}..{self.end} ends after {last_end} "
                              "(9999-12-31), the last day a date can name")
        first, count, _ = self._day_counts
        return [date(1970, 1, 1) + timedelta(days=t // SECONDS_PER_DAY)
                for t in first[count > 0].tolist()]

    def chunks(self) -> list[SeriesWindow]:
        """The window cut before every `CHUNK_SECONDS`-th grid second: windows
        of `CHUNK_SECONDS` grid seconds each and one of the rest, which tile
        this one's interval. A grid no longer than that is one chunk, equal to
        the window."""
        first, count, before = self._day_counts
        cuts = np.arange(CHUNK_SECONDS, self.grid_size(), CHUNK_SECONDS)
        day = np.searchsorted(before + count, cuts, side="right")
        bounds = [self.start, *(first[day] + cuts - before[day]).tolist(), self.end]
        return [SeriesWindow(a, b, self.weekday_filter) for a, b in zip(bounds, bounds[1:])]

    @functools.cached_property
    def _day_counts(self):
        """The first second in the window of each calendar day it touches, that
        day's number of grid seconds and those of the days before it: computed
        once per window, and not a field, so no part of equality, hash or `repr`."""
        day = np.arange(self.start // SECONDS_PER_DAY, (self.end - 1) // SECONDS_PER_DAY + 1)
        first = np.maximum(day * SECONDS_PER_DAY, self.start)
        last = np.minimum(day * SECONDS_PER_DAY + SECONDS_PER_DAY, self.end)
        count = (last - first) * self.mask(first)
        counts = first, count, np.cumsum(count) - count
        for column in counts:  # every call shares them
            column.flags.writeable = False
        return counts

    def _too_long(self) -> TriarbError:
        return TriarbError(f"window {self} spans {self.end - self.start:,} seconds, "
                           "too many for its per-second grid to fit in memory")


@functools.lru_cache(maxsize=None)
def _weekday_table(weekdays: frozenset[int]) -> np.ndarray:
    """Which weekdays (Monday = 0) are in `weekdays`, as a read-only bool array of 7."""
    table = np.isin(np.arange(7), list(weekdays))
    table.flags.writeable = False
    return table


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


# Tick files are read and written in blocks of about this many bytes, so the
# loader's temporaries follow the block size, never the file size. A block is
# read from the start of a line, so a line and its LF must fit in one.
BLOCK_BYTES = 1 << 18
# The tick commands walk a window's grid in chunks of this many grid seconds
# (`SeriesWindow.chunks`), so that what they hold follows the chunk, not the
# window.
CHUNK_SECONDS = 1 << 14
# A block's LF bytes are found this many bytes at a time (`_line_ends`).
_MASK_BYTES = 1 << 16

_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18
_COMMA, _DOT, _LF, _CR, _ZERO = (ord(c) for c in ",.\n\r0")
_CHECKS = ("expected 3 fields", "bad timestamp", "bad price")  # in the order rows are checked
_ISO = re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{3})?Z?")
_FOLD = 64  # rows per long row in `_column_range`
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_MIDNIGHT = np.uint64(int.from_bytes(b"00:00:00", "little"))
_REPUNITS = np.array([(10**k - 1) // 9 for k in range(19)], dtype=np.int64)  # 0, 1, 11, ...


class BlockBuffer:
    """The bytes of one block, reused block after block.

    The tick readers of one command share one, and each parses a block it
    read before another reader reads the next, so that no block allocates a
    new block of bytes. Nothing a reader keeps points into it.
    """

    def __init__(self):
        self._bytes = np.empty(0, dtype=np.uint8)

    def fill(self, fh, offset: int) -> np.ndarray:
        """Up to `BLOCK_BYTES` bytes of the unbuffered file `fh` from byte `offset`,
        fewer only at its end, as a view that the next `fill` overwrites."""
        if self._bytes.size < BLOCK_BYTES:
            self._bytes = np.empty(BLOCK_BYTES, dtype=np.uint8)
        fh.seek(offset)
        return self._bytes[:fh.readinto(memoryview(self._bytes)[:BLOCK_BYTES])]


def _line_ends(buf: np.ndarray) -> np.ndarray:
    """The indices of the LF bytes of `buf`, found `_MASK_BYTES` at a time, so
    that no block-sized mask is made."""
    ends = [np.flatnonzero(buf[lo:lo + _MASK_BYTES] == _LF) + lo
            for lo in range(0, max(buf.size, 1), _MASK_BYTES)]
    return ends[0] if len(ends) == 1 else np.concatenate(ends)


class TickReader:
    """One tick file read forward onto consecutive chunks of a window's grid.

    The file is parsed by numpy passes over blocks of `BLOCK_BYTES`, read into
    `buffer`, which the readers of one command share (a reader given none
    makes its own); each block's rows are read as a few byte matrices, one
    per row layout (see `_parse_block`), and its ISO dates once per run of
    one date (`_iso_seconds`). Bid and ask, the two rows of one array, move
    by 1-D index operations, off numpy's slow path for `[:, idx]`. Of each
    block it keeps the last tick of each grid second, at an index counted by
    calendar days, until a chunk takes it; a second that straddles two
    blocks keeps its later block's tick. Between reads it holds only the
    byte offset and number of its first unparsed line, the last timestamp
    and those ticks, at most a block's, none of them in the buffer.

    `read` returns the next chunk; the chunks must tile the window in order,
    as `SeriesWindow.chunks` does, and the one that ends the grid reads the
    file to its end. Each chunk's prices share that chunk's largest number of
    decimal places. `finish` then checks the file as a whole against the
    grammar in the module docstring. `n_crossed` counts the crossed quotes
    (bid > ask) among all rows read, in the window or not.
    """

    def __init__(self, path, pair: Pair, window: SeriesWindow, buffer: BlockBuffer | None = None):
        self.path, self.pair, self.window = path, pair, window
        self._buffer = BlockBuffer() if buffer is None else buffer
        self._fh = open(path, "rb", buffering=0)
        self._pos = 0  # the byte offset of the first unparsed line
        self._line_no = 1  # and its number
        self._iso = self._last_t = None
        self._index = np.empty(0, dtype=np.int64)  # grid index of each tick kept
        self._mantissas = np.empty((2, 0), dtype=np.int64)  # their bid and ask
        self._places = np.empty((2, 0), dtype=np.int8)  # and decimal places
        self._placed = 0  # grid seconds read
        self.n_crossed = 0
        # of the ticks placed: the most decimal places, and the most digits less places
        self._scale = self._digits = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, chunk: SeriesWindow) -> PairSeries:
        """The series of the next chunk of the window, at the chunk's scale."""
        placed, places = self._take(chunk.grid_size())
        scale = int(places.max(initial=-1))
        flat_m, flat_p = placed.reshape(-1), places.reshape(-1)
        low = np.flatnonzero((flat_p >= 0) & (flat_p < scale))  # (side, second) to rescale
        shift = scale - flat_p[low]
        over = flat_m[low] >= _POW10[18 - shift]  # too long here, so at the file's scale
        flat_m[low] *= _POW10[shift]
        flat_m[low[over]] = 0  # the file is refused in `finish`
        if scale >= 0:
            top = int(np.searchsorted(_POW10, flat_m.max(), side="right")) - scale
            self._digits = max(self._digits, 19 - scale if over.any() else top)
            self._scale = max(self._scale, scale)
        return PairSeries(self.pair, chunk, placed[0], placed[1], max(scale, 0))

    def finish(self) -> None:
        """Once the last chunk has read the file to its end, refuse a file
        with no tick in the window, or one whose prices need more than 18
        digits at the largest decimal places of all its ticks kept."""
        if self._scale < 0:
            raise EmptySeriesError(f"{self.path}: no tick falls inside window {self.window}")
        if self._scale > 17 or self._digits + self._scale > 18:
            raise TickParseError(self.path, self._overflow_line(),
                                 "price needs more than 18 digits at the file's "
                                 f"{self._scale} decimal places")

    def _take(self, size: int):
        """The (2, size) bid and ask mantissas and int8 decimal places (-1 for
        none) of the next `size` grid seconds, from their last ticks. A later
        block's tick overwrites an earlier one's, so a second that straddles
        two blocks keeps its last tick."""
        lo = self._placed
        hi = self._placed = lo + size
        placed = np.zeros((2, size), dtype=np.int64)
        places = np.full((2, size), -1, dtype=np.int8)
        while True:
            k = int(np.searchsorted(self._index, hi))
            at = self._index[:k] - lo
            for side in range(2):
                placed[side][at] = self._mantissas[side, :k]
                places[side][at] = self._places[side, :k]
            if k:  # copies, so that the rest of a block does not hold all of it
                self._index, self._mantissas, self._places = (
                    self._index[k:].copy(), self._mantissas[:, k:].copy(),
                    self._places[:, k:].copy())
            if self._index.size or not self._keep_block():  # a tick past the chunk, or the end
                return placed, places

    def _keep_block(self) -> bool:
        """Parse the next block and keep the last tick of each of its grid seconds;
        False at the end of the file."""
        rows = self._next_rows()
        if rows is None:
            return False
        t, mantissas, places, crossed, _ = rows
        self.n_crossed += int(crossed.sum())
        last = np.ones(t.size, dtype=bool)  # the last row of each second
        last[:-1] = t[1:] != t[:-1]
        if not last.all():
            rows = np.flatnonzero(last)
            t, mantissas, places = t[rows], mantissas.take(rows, axis=1), places.take(rows, axis=1)
        index = self.window.grid_index(t)
        on = index >= 0
        if not on.all():
            index, mantissas, places = (index[on], mantissas.compress(on, axis=1),
                                        places.compress(on, axis=1))
        self._index, self._mantissas, self._places = index, mantissas, places
        return True

    def _next_rows(self):
        """The timestamps, the (2, rows) bid and ask mantissas and decimal
        places, the crossed-quote flags and the line numbers of the next
        block's data rows, checked; None at the end of the file.

        A line ends at LF or CRLF. A block starts at the first unparsed line,
        and its lines up to its last LF are parsed; a block read short is the
        file's last, and its bytes after that LF are the file's last line. An
        empty file, or a line of a block or more before its LF, is a
        TickParseError.
        """
        while True:
            buf = self._buffer.fill(self._fh, self._pos)
            ends = _line_ends(buf)
            rest = int(ends[-1]) + 1 if ends.size else 0
            if buf.size < BLOCK_BYTES and rest < buf.size:  # the file's last line, with no LF
                ends, rest = np.append(ends, buf.size), buf.size
            if not ends.size:
                if buf.size:  # a whole block and no LF
                    raise TickParseError(self.path, self._line_no,
                                         f"line longer than {BLOCK_BYTES - 1} bytes before its LF")
                if self._line_no == 1:
                    raise TickParseError(self.path, 1, "empty file")
                return None
            self._pos += rest
            rows = self._parse_lines(buf, ends)
            if rows is not None:
                return rows

    def _parse_lines(self, buf, ends):
        """Parse the data rows among the lines of `buf` that end at `ends`."""
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        # only a line that ends at an LF can end in CRLF
        ends -= (ends > starts) & (ends < buf.size) & (buf[ends - 1] == _CR)
        line_no = self._line_no
        self._line_no += ends.size
        if line_no == 1:
            header = buf[starts[0]:ends[0]].tobytes()
            if header.lower() != b"timestamp,bid,ask":
                raise TickParseError(self.path, 1, f"expected header timestamp,bid,ask, "
                                                   f"got {header[:80]!r}")
            line_no, starts, ends = 2, starts[1:], ends[1:]
        lines = range(line_no, line_no + starts.size)  # each data row's line number
        data = starts < ends  # blank lines are skipped but keep their numbers
        if not data.all():
            lines, starts, ends = line_no + np.flatnonzero(data), starts[data], ends[data]
        if not len(lines):
            return None
        if self._iso is None:  # epoch seconds if the first data row's timestamp is all digits
            self._iso = not buf[starts[0]:ends[0]].tobytes().partition(b",")[0].isdigit()
        t, mantissas, places, crossed = _parse_block(self.path, buf, starts, ends, lines,
                                                     self._iso, self._last_t)
        self._last_t = int(t[-1])
        return t, mantissas, places, crossed, lines

    def _overflow_line(self) -> int:
        """The line of the last tick of the first grid second whose price needs
        more than 18 digits at the file's scale, or of the first quoted second
        if that scale is past 17; the file is read again for it."""
        scale = self._scale
        with TickReader(self.path, self.pair, self.window, self._buffer) as again:
            for chunk in self.window.chunks():
                placed, places = again._take(chunk.grid_size())
                bad = places >= 0
                if scale <= 17:
                    bad &= placed >= _POW10[18 - scale + places]  # places -1 is masked
                if bad.any():
                    second = int(chunk.grid_times()[bad.any(axis=0).argmax()])
                    break
        line_no = 0
        with TickReader(self.path, self.pair, self.window, self._buffer) as again:
            while (rows := again._next_rows()) is not None:
                t, *_, lines = rows
                at = np.flatnonzero(t == second)
                line_no = max(line_no, int(lines[at[-1]]) if at.size else 0)
        return line_no


def _parse_block(path, buf, starts, ends, lines, iso, last_t):
    """Parse and check the data rows of one block.

    Returns the timestamps, the (2, rows) bid and ask mantissas and int8
    decimal places, and the crossed-quote flags. Raises the error of the first bad row: not three
    fields, a bad timestamp or price, a non-positive price, or a timestamp
    before the one of the row above it (`last_t` for the block's first row).

    Rows fall into layout groups. A group's template is its first row left
    over: its length and the bytes at every column that is not a digit. The
    rows of that length make one (rows, width) byte matrix (`_rows_matrix`).
    Its column minima and maxima find the columns where rows leave the
    template (a digit, or the template's byte); only there are rows compared
    one by one, and those that leave it are left to later groups. A group's
    fields are Horner passes over its digit columns. So only a template is
    checked against the grammar, and grouping stops at the first one outside
    it: no later row can fail first. An ISO time fills columns 0 to 18 in
    every layout, so the times are read once per block, by `_iso_seconds`.
    """
    n = starts.size
    t = np.zeros(n, dtype=np.int64)
    mantissas = np.zeros((2, n), dtype=np.int64)  # bid, ask
    places = np.zeros((2, n), dtype=np.int8)
    widths = ends - starts
    todo = np.ones(n, dtype=bool)
    failed = None  # (row, index in _CHECKS) of a template outside the grammar
    while todo.any():
        first = int(todo.argmax())
        tmpl = buf[starts[first]:ends[first]]
        layout = _layout(tmpl.tobytes(), iso)
        if isinstance(layout, int):
            failed = first, layout
            break
        stamp_cols, prices = layout
        of_width = todo & (widths == tmpl.size)
        rows = slice(None) if of_width.all() else np.flatnonzero(of_width)
        chars = _rows_matrix(buf, starts[rows], tmpl.size)
        digit = (tmpl >= _ZERO) & (tmpl < _ZERO + 10)
        lo, hi = np.where(digit, np.uint8(_ZERO), tmpl), np.where(digit, np.uint8(_ZERO + 9), tmpl)
        low, high = _column_range(chars)
        off = np.flatnonzero((low < lo) | (high > hi))  # columns where some row leaves the template
        if off.size:
            cells = chars.take(off, axis=1)
            rows = np.flatnonzero(of_width)[((cells >= lo[off]) & (cells <= hi[off])).all(axis=1)]
            chars = _rows_matrix(buf, starts[rows], tmpl.size)
        todo[rows] = False
        if stamp_cols:
            t[rows] = _horner(chars, stamp_cols)
        for side, (cols, dot_places) in enumerate(prices):
            mantissas[side][rows] = _horner(chars, cols)
            places[side][rows] = dot_places
    k = n if failed is None else failed[0] + 1  # no later row is checked
    t_ok = np.ones(k, dtype=bool)
    read = k - (failed is not None and failed[1] < 2)  # a failed template's time if it has one
    if iso and read:
        t[:read], t_ok[:read] = _iso_seconds(buf, starts[:read])
    t, mantissas, places = t[:k], mantissas[:, :k], places[:, :k]
    before = np.empty_like(t)
    before[1:] = t[:-1]
    before[:1] = t[:1] if last_t is None else last_t
    positive = (mantissas[0] != 0) & (mantissas[1] != 0)
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
    return t, mantissas, places, _greater(mantissas, places)


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


def _rows_matrix(buf, starts, width):
    """The (rows, width) bytes of `buf` from each of `starts`: a read-only
    strided view when the rows follow one another one LF apart, as in a file
    of one layout, and otherwise a gather of whole rows, each one numpy void
    of `width` bytes, viewed back as bytes."""
    first = int(starts[0])
    if int(starts[-1]) - first == (starts.size - 1) * (width + 1):
        # lines of one width lie at least width + 1 apart, so each gap is exactly that
        return _view(buf, first, (starts.size, width), (width + 1, 1))
    rows = _unaligned(buf, 0, f"V{width}")[starts]
    return rows.view(np.uint8).reshape(starts.size, width)


def _column_range(chars):
    """The minimum and the maximum of each column of a (rows, width) byte
    matrix whose rows lie `chars.strides[0]` bytes apart. numpy reduces a
    narrow matrix along its rows one row at a time, so the rows are folded
    `_FOLD` at a time into long rows, bytes between them included, and those
    are reduced."""
    rows, width = chars.shape
    stride = chars.strides[0]
    folded = (rows - 1) // _FOLD * _FOLD  # so that a later row's bytes end the last fold
    rest = chars[folded:]
    low, high = rest.min(axis=0), rest.max(axis=0)
    if folded:
        long_rows = as_strided(chars, (folded // _FOLD, _FOLD * stride), (_FOLD * stride, 1),
                               writeable=False)
        np.minimum(low, long_rows.min(axis=0).reshape(_FOLD, stride)[:, :width].min(axis=0),
                   out=low)
        np.maximum(high, long_rows.max(axis=0).reshape(_FOLD, stride)[:, :width].max(axis=0),
                   out=high)
    return low, high


def _horner(chars, cols):
    """The int64 numbers whose decimal digits are the ASCII digits at the given
    columns of a byte matrix, summed as bytes with one repunit of '0' taken off."""
    m = chars[:, cols[0]].astype(np.int64)
    for j in cols[1:]:
        m *= 10
        m += chars[:, j]
    m -= _ZERO * _REPUNITS[len(cols)]  # up to 18 bytes <= 57: m < 57 * (10**18 - 1) / 9 < 2**63
    return m


def _iso_seconds(buf, starts):
    """Epoch seconds of the YYYY-MM-DDTHH:MM:SS times at `starts` in `buf`,
    with digits at every digit column, and which are a real date and time
    from 1970 on.

    Each row's 19 bytes are gathered once, as one numpy void. The rows fall
    into runs that share a date, found by comparing each row's ten date
    bytes, as one uint64 and one uint16, with the row above's. Each run's
    date is decoded once, with Python ints and `datetime.date`, and added to
    its rows in one pass over the block; of each row only HH:MM:SS is read,
    as one uint64.
    """
    stamps = _unaligned(buf, 0, "V19")[starts].view(np.uint8)
    ymd, dd, hms, dates = (_view(stamps, at, (starts.size,), (19,), dtype)
                           for at, dtype in ((0, "<u8"), (8, "<u2"), (11, "<u8"), (0, "S10")))
    new = np.ones(starts.size, dtype=bool)  # the first row of each run
    np.not_equal(ymd[1:], ymd[:-1], out=new[1:])
    new[1:] |= dd[1:] != dd[:-1]
    first = np.flatnonzero(new)
    # HH:MM:SS less 00:00:00, bytewise: digit values, and 0 at the colons
    hms = (hms - _MIDNIGHT).view(np.int64)  # every byte is below 10
    pairs = hms >> 8
    pairs += hms * 10  # the hour, minute and second at bytes 0, 3 and 6
    hour, minute, second = ((pairs >> shift) & 0xFF for shift in (0, 24, 48))
    seconds = hour * 60
    seconds += minute
    seconds *= 60
    seconds += second
    days = []
    for text in dates[first].tolist():
        try:
            days.append(date(int(text[:4]), int(text[5:7]), int(text[8:10])).toordinal()
                        - _EPOCH_ORDINAL)
        except ValueError:  # a date that is not real counts as day -1, before 1970
            days.append(-1)
    seconds += np.repeat(np.array(days, dtype=np.int64) * SECONDS_PER_DAY,
                         np.diff(first, append=starts.size))
    return seconds, (hour < 24) & (minute < 60) & (second < 60) & (seconds >= 0)


def _unaligned(buf, offset, dtype):
    """The `dtype` numbers that start at each byte of `buf` from `offset` on,
    as a view."""
    size = np.dtype(dtype).itemsize
    return _view(buf, offset, (buf.size - offset - size + 1,), (1,), dtype)


def _view(buf, offset, shape, strides, dtype=np.uint8):
    """A read-only view of the bytes `buf` as `dtype`, from byte `offset` on,
    with the given shape and byte strides; numpy checks that it stays in
    `buf`."""
    view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset, strides=strides)
    view.flags.writeable = False
    return view


def _greater(mantissas, places):
    """Exact bid > ask for (2, rows) bid and ask mantissas and decimal places
    (<= 18): the mantissas where the places agree; elsewhere integer parts
    first, then fractions padded to 18 places."""
    greater = mantissas[0] > mantissas[1]
    i = np.flatnonzero(places[0] != places[1])
    m, p = mantissas.take(i, axis=1), places.take(i, axis=1)
    (xi, yi), (xf, yf) = np.divmod(m, _POW10[p])
    greater[i] = (xi > yi) | ((xi == yi) & (xf * _POW10[18 - p[0]] > yf * _POW10[18 - p[1]]))
    return greater


def write_pair_series_csv(path, series: PairSeries) -> None:
    """Write the quoted seconds of `series` as a tick CSV in the loader's grammar:
    epoch seconds, and prices with `scale` decimal places, as
    ``f"{Decimal(mantissa).scaleb(-scale):f}"`` prints them, one block of rows
    at a time: as many as fit in `BLOCK_BYTES` at the widest fields, or one.

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
    line = 3 + sum(_width(c.max(initial=0), p) for c, p in zip(columns, (0, *[series.scale] * 2)))
    rows = max(1, BLOCK_BYTES // line)
    with open(path, "wb") as fh:
        fh.write(b"timestamp,bid,ask\n")
        for lo in range(0, columns[0].size, rows):
            fh.write(_format_rows(*(c[lo:lo + rows] for c in columns), series.scale))


def _format_rows(times, bid_m, ask_m, scale: int) -> bytes:
    """Tick CSV lines for the given rows, built in one (rows, line width) byte
    matrix whose fields are as wide as their widest value, with '0' added once;
    a byte mask drops unprinted bytes only where a field's widths differ."""
    fields = [(v, p, _width(v.min(), p), _width(v.max(), p))
              for v, p in ((times, 0), (bid_m, scale), (ask_m, scale))]
    text = np.empty((times.size, 3 + sum(high for *_, high in fields)), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool) if any(lo < hi for *_, lo, hi in fields) else None
    start, punct = 0, {}
    for values, places, low, high in fields:
        end = start + high
        dot = end - places - 1 if places else end
        if low < high:
            keep[:, start:end] = np.arange(start, end) >= end - _width(values, places)[:, None]
        for j in [j for j in range(end - 1, start - 1, -1) if j != dot]:
            text[:, j] = values - (values := values // 10) * 10  # the last digit, then drop it
        punct.update({dot: _DOT, end: _COMMA})  # at 0 places, `dot` is `end`
        start = end + 1
    punct[end] = _LF
    text += _ZERO
    text[:, list(punct)] = list(punct.values())
    return (text if keep is None else text[keep]).tobytes()


def _width(values, places: int):
    """Bytes in which non-negative int64 `values` print with `places` decimals."""
    return np.maximum(np.searchsorted(_POW10, values, side="right"), places + 1) + (places > 0)
