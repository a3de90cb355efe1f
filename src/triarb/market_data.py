"""Currency pairs, triangles, per-second pair series and tick-file I/O.

A pair's quotes live in one representation, the columns of `PairSeries`, one
entry per grid second of a window: int64 bid and ask mantissas that share one
decimal exponent (`scale`), and a mask of missing seconds. Prices stay exact
here; the conversion to floating point happens downstream, when rate
products are computed. The loader parses each tick file with numpy passes
over fixed-size blocks of its bytes and builds those columns once; the
writer formats them straight back to text from digit matrices.

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
            inside &= np.isin(_weekday_of(times // SECONDS_PER_DAY), sorted(self.weekday_filter))
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
    def from_currencies(cls, a: str, b: str, c: str) -> "TriangleSpec":
        """Build a spec with market-convention pair ordering for (a, b, c)."""
        pairs = (Pair(*market_convention_pair(x, y)) for x, y in ((a, b), (b, c), (a, c)))
        return cls(currencies=(a, b, c), pairs=tuple(pairs))


def parse_iso_timestamp(raw: str) -> int:
    """Epoch seconds of an ISO-8601 time, UTC unless it has an offset; exact,
    with a fraction truncated toward zero."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - datetime(1970, 1, 1, tzinfo=timezone.utc)
    seconds = delta.days * SECONDS_PER_DAY + delta.seconds
    return seconds + (seconds < 0 and delta.microseconds > 0)


# Tick files are read and written in blocks of about this many bytes. A
# block's partial last line is carried into the next block, so the loader's
# temporaries follow the block size and its result follows the window, never
# the file size.
BLOCK_BYTES = 1 << 18

_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# Mantissa of a price whose digits do not fit int64 even at its own places.
_TOO_LARGE = -1
_COMMA, _DOT, _LF, _CR, _ZERO = (ord(c) for c in ",.\n\r0")
# Byte layout of YYYY-MM-DDTHH:MM:SS, the fixed part of an ISO timestamp.
_ISO_DIGIT_COLS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_PUNCT = ((4, ord("-")), (7, ord("-")), (10, ord("T")), (13, ord(":")), (16, ord(":")))


def load_pair_series(path, pair: Pair, window: SeriesWindow) -> PairSeries:
    """Load the tick CSV at `path` onto the window's per-second grid.

    Format: header ``timestamp,bid,ask``; timestamps are integer epoch
    seconds or ISO-8601 UTC (auto-detected from the first data row); prices
    are finite, positive decimals. Several ticks in one second collapse to
    the last one. Crossed quotes (bid > ask) are accepted with a
    CrossedQuoteWarning.
    All prices share the largest number of decimal places among the ticks
    kept; a price whose mantissa at that scale does not fit int64 is a parse
    error.

    The file is read in blocks of `BLOCK_BYTES`. Rows of the regular grammar
    (digits, one '.', ISO timestamps of the form YYYY-MM-DDTHH:MM:SS[.fff][Z])
    are parsed by numpy passes over the block's bytes; every other row goes
    through `_parse_row`, which follows `int`, `datetime.fromisoformat` and
    `Decimal`. Only the last in-window tick of each second survives a block.
    """
    iso = None
    last_t = None
    n_crossed = 0
    kept = []  # per block: (times, bid m, bid places, ask m, ask places, lines)
    with open(path, "rb") as fh:
        for line_no, buf, starts, ends in _line_blocks(fh, path):
            if line_no == 1:
                header = _row_fields(path, 1, buf[starts[0]:ends[0]])
                if [h.strip().lower() for h in header] != ["timestamp", "bid", "ask"]:
                    raise TickParseError(
                        path, 1, f"expected header timestamp,bid,ask, got {header!r}"
                    )
                line_no, starts, ends = 2, starts[1:], ends[1:]
            lines = line_no + np.arange(starts.size)
            data = starts < ends  # blank lines are skipped but keep their numbers
            lines, starts, ends = lines[data], starts[data], ends[data]
            if not lines.size:
                continue
            if iso is None:  # epoch seconds if the first data row's timestamp reads as an int
                raw_t = _row_fields(path, int(lines[0]), buf[starts[0]:ends[0]])[0]
                try:
                    int(raw_t.strip())
                    iso = False
                except ValueError:
                    iso = True
            t, bid, ask, crossed = _parse_block(path, buf, starts, ends, lines, iso, last_t)
            last_t = int(t[-1])
            n_crossed += int(crossed.sum())
            keep = window.mask(t) & _last_per_second(t)
            kept.append((t[keep], *bid[:, keep], *ask[:, keep], lines[keep]))
    if n_crossed:
        warnings.warn(
            f"{path}: accepted {n_crossed} crossed quote(s) (bid > ask)",
            CrossedQuoteWarning,
            stacklevel=2,
        )
    t, bid_m, bid_p, ask_m, ask_p, lines = (
        [np.concatenate(c) for c in zip(*kept)] or [np.empty(0, np.int64)] * 6
    )
    if not t.size:
        raise EmptySeriesError(f"{path}: no tick falls inside window {window}")
    last = _last_per_second(t)  # a second may straddle two blocks
    scale = int(max(bid_p[last].max(), ask_p[last].max()))
    bid_m, bid_over = _at_scale(bid_m[last], bid_p[last], scale)
    ask_m, ask_over = _at_scale(ask_m[last], ask_p[last], scale)
    over = np.flatnonzero(bid_over | ask_over)
    if over.size:
        raise TickParseError(
            path, int(lines[last][over[0]]),
            f"price does not fit an int64 mantissa at the file's {scale} decimal places",
        )
    times = window.grid_times()
    index = np.searchsorted(times, t[last])
    placed = np.zeros((2, times.size), dtype=np.int64)
    placed[:, index] = bid_m, ask_m
    missing = np.ones(times.size, dtype=bool)
    missing[index] = False
    return PairSeries(pair, window, placed[0], placed[1], missing, scale)


def _line_blocks(fh, path):
    """Yield (first line number, bytes, line starts, line ends) per block of `fh`.

    A line ends at LF, CRLF or a lone CR, as Python's universal newlines split
    it; `ends` excludes the terminator. The bytes after a block's last
    terminator are carried into the next block, and at the end of the file
    they are its last line. An empty file, or a line longer than a block, is
    a TickParseError.
    """
    line_no = 1
    carry = b""
    eof = False
    while not eof:
        data = fh.read(BLOCK_BYTES)
        eof = not data
        buf = np.frombuffer(carry + data, dtype=np.uint8)
        ends = np.flatnonzero(buf == _LF)
        cr = np.flatnonzero(buf == _CR)
        if cr.size:
            # a CR ends a line unless an LF follows; a CR that ends the
            # block waits for the next block, unless there is none
            inside = cr + 1 < buf.size
            lone = ~inside if eof else np.zeros(cr.size, dtype=bool)
            lone[inside] = buf[cr[inside] + 1] != _LF
            ends = np.union1d(ends, cr[lone])
        rest = int(ends[-1]) + 1 if ends.size else 0
        if eof and rest < buf.size:
            ends = np.append(ends, buf.size)
            rest = buf.size
        carry = buf[rest:].tobytes()
        if ends.size:
            starts = np.empty_like(ends)
            starts[0] = 0
            starts[1:] = ends[:-1] + 1
            if cr.size:
                crlf = (ends > starts) & (buf[np.minimum(ends, buf.size - 1)] == _LF)
                crlf &= buf[np.maximum(ends - 1, 0)] == _CR
                ends = ends - crlf
            yield line_no, buf, starts, ends
            line_no += ends.size
        if len(carry) > BLOCK_BYTES:
            raise TickParseError(path, line_no, f"line longer than {BLOCK_BYTES} bytes")
    if line_no == 1:
        raise TickParseError(path, 1, "empty file")


def _parse_block(path, buf, starts, ends, lines, iso, last_t):
    """Parse and check the data rows of one block.

    Returns the timestamps, the (mantissa, places) rows of bids and asks and
    the crossed-quote flags. Raises the error of the first bad row: its own
    parse error, a non-positive price, or a timestamp before the one of the
    row above it (`last_t` for the block's first row).
    """
    n = starts.size
    t = np.zeros(n, dtype=np.int64)
    bid = np.zeros((2, n), dtype=np.int64)
    ask = np.zeros((2, n), dtype=np.int64)
    crossed = np.zeros(n, dtype=bool)
    regular = np.zeros(n, dtype=bool)

    commas = np.flatnonzero(buf == _COMMA)
    first = np.searchsorted(commas, starts)
    rows = np.flatnonzero(np.searchsorted(commas, ends) - first == 2)
    if rows.size:
        c1, c2 = commas[first[rows]], commas[first[rows] + 1]
        if iso:
            ts, ok = _iso_seconds(buf, starts[rows], c1)
        else:
            ts, places, ok = _decimal_fields(buf, starts[rows], c1)
            ok &= places < 0  # no '.'
        b, bp, b_ok = _decimal_fields(buf, c1 + 1, c2)
        a, ap, a_ok = _decimal_fields(buf, c2 + 1, ends[rows])
        ok &= b_ok & a_ok
        rows = rows[ok]
        regular[rows] = True
        t[rows] = ts[ok]
        bid[:, rows] = b[ok], np.maximum(bp[ok], 0)
        ask[:, rows] = a[ok], np.maximum(ap[ok], 0)
        crossed[rows] = _greater(bid[:, rows], ask[:, rows])

    error = None
    for i in np.flatnonzero(~regular).tolist():
        try:
            t[i], bid[:, i], ask[:, i], crossed[i] = _parse_row(
                path, int(lines[i]), buf[starts[i]:ends[i]], iso
            )
        except TickParseError as exc:
            error, n = exc, i
            break
    t, bid, ask, crossed = t[:n], bid[:, :n], ask[:, :n], crossed[:n]
    before = np.empty_like(t)
    before[1:] = t[:-1]
    before[:1] = t[:1] if last_t is None else last_t
    non_positive = (bid[0] == 0) | (ask[0] == 0)  # only regular rows can hold a zero
    bad = np.flatnonzero(non_positive | (t < before))
    if bad.size:
        i = int(bad[0])
        if non_positive[i]:
            row = _row_fields(path, int(lines[i]), buf[starts[i]:ends[i]])
            raise TickParseError(path, int(lines[i]), f"non-positive price in {row!r}")
        raise TickOrderingError(f"{path}:{lines[i]}: timestamp {t[i]} precedes {before[i]}")
    if error is not None:
        raise error
    return t, bid, ask, crossed


def _decimal_fields(buf, starts, ends):
    """Right-aligned digit gather of the fields buf[starts:ends].

    Returns each field's mantissa, its number of decimal places (-1 without
    a '.') and whether it is regular: 1 to 18 ASCII digits with at most one
    '.', which `int` and `Decimal` read the same way.
    """
    lengths = ends - starts
    width = int(min(lengths.max(), 19))
    if width <= 0:
        return lengths * 0, lengths * 0 - 1, np.zeros(lengths.size, dtype=bool)
    index = ends[:, None] + np.arange(-width, 0)
    chars = buf[np.maximum(index, 0)]
    chars[index < starts[:, None]] = _ZERO
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
    """Epoch seconds of ISO fields YYYY-MM-DDTHH:MM:SS[.fff][Z], and which fields
    have that form and a valid date and time.

    The seconds truncate toward zero, as `parse_iso_timestamp` does, so a
    fraction moves a time before 1970 one second up.
    """
    lengths = ends - starts
    chars = buf[np.minimum(starts[:, None] + np.arange(24), buf.size - 1)]
    ok = np.isin(lengths, (19, 20, 23, 24))
    ok &= (chars[:, _ISO_DIGIT_COLS] - _ZERO < 10).all(axis=1)
    ok &= (chars[:, :4] != _ZERO).any(axis=1)  # year 0 is outside datetime's range
    for col, char in _ISO_PUNCT:
        ok &= chars[:, col] == char
    zulu = (lengths == 20) | (lengths == 24)
    ok &= ~zulu | (chars[np.arange(lengths.size), np.clip(lengths - 1, 0, 23)] == ord("Z"))
    fraction = lengths >= 23
    ok &= ~fraction | ((chars[:, 19] == _DOT) & (chars[:, 20:23] - _ZERO < 10).all(axis=1))
    seconds = np.zeros(lengths.size, dtype=np.int64)
    try:
        seconds[ok] = np.ascontiguousarray(chars[ok, :19]).view("S19")[:, 0].astype(
            "datetime64[s]"
        ).astype(np.int64)
    except ValueError:  # an impossible date such as 02-30: leave the block to _parse_row
        return seconds, np.zeros(lengths.size, dtype=bool)
    millis = (chars[:, 20:23].astype(np.int64) - _ZERO) @ np.array([100, 10, 1])
    seconds += (seconds < 0) & fraction & (millis > 0)
    return seconds, ok


def _greater(x, y):
    """Exact x > y for (mantissa, places) rows of regular prices (places <= 18):
    integer parts first, then fractions padded to 18 places."""
    xi, xf = np.divmod(x[0], _POW10[x[1]])
    yi, yf = np.divmod(y[0], _POW10[y[1]])
    return (xi > yi) | ((xi == yi) & (xf * _POW10[18 - x[1]] > yf * _POW10[18 - y[1]]))


def _at_scale(mantissa, places, scale):
    """Mantissas at `scale` decimal places, and which of them overflow int64."""
    shift = scale - places
    factor = _POW10[np.minimum(shift, 18)]
    over = (mantissa == _TOO_LARGE) | (shift > 18) | (mantissa > _INT64_MAX // factor)
    return mantissa * factor, over


def _last_per_second(t):
    """Mask of the last row of each run of equal timestamps."""
    last = np.ones(t.size, dtype=bool)
    last[:-1] = t[1:] != t[:-1]
    return last


def _row_fields(path, line_no: int, raw: np.ndarray) -> list[str]:
    """The csv fields of one line's bytes, which must be UTF-8 text with its
    quotes closed."""
    try:
        text = raw.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TickParseError(
            path, line_no, f"not UTF-8 text: {exc.reason} at byte {exc.start} of the line"
        ) from None
    try:
        fields = next(csv.reader([text + "\n"]))
    except csv.Error as exc:
        raise TickParseError(path, line_no, f"bad csv row: {exc}") from None
    if any("\n" in f for f in fields):
        raise TickParseError(path, line_no, "unbalanced quote")
    return fields


def _parse_row(path, line_no: int, raw: np.ndarray, iso: bool):
    """Parse one row outside the regular grammar: (timestamp, bid, ask, crossed),
    with bid and ask as (mantissa, places), or raise its `TickParseError`.

    Fields are stripped of surrounding whitespace and may be quoted;
    timestamps are read by `int` or `parse_iso_timestamp` and prices by
    `Decimal`, but underscores between digits are refused.
    """
    row = _row_fields(path, line_no, raw)
    if len(row) != 3:
        raise TickParseError(path, line_no, f"expected 3 fields, got {len(row)}")
    raw_t, raw_bid, raw_ask = (f.strip() for f in row)
    try:
        if "_" in raw_t:
            raise ValueError(raw_t)
        t = parse_iso_timestamp(raw_t) if iso else int(raw_t)
    except ValueError:
        raise TickParseError(path, line_no, f"bad timestamp {raw_t!r}") from None
    if not _INT64_MIN <= t <= _INT64_MAX:
        raise TickParseError(path, line_no, f"timestamp {raw_t!r} out of the int64 range")
    try:
        if "_" in raw_bid + raw_ask:
            raise InvalidOperation(row)
        bid = Decimal(raw_bid)
        ask = Decimal(raw_ask)
    except InvalidOperation:
        raise TickParseError(path, line_no, f"bad price in {row!r}") from None
    if not (bid.is_finite() and ask.is_finite()):
        raise TickParseError(path, line_no, f"non-finite price in {row!r}")
    if bid <= 0 or ask <= 0:
        raise TickParseError(path, line_no, f"non-positive price in {row!r}")
    return t, _mantissa(bid), _mantissa(ask), bid > ask


def _mantissa(price: Decimal) -> tuple[int, int]:
    """(mantissa, places) of a positive finite price, with places >= 0; the
    mantissa is _TOO_LARGE when it does not fit int64 even at those places."""
    _, digits, exponent = price.as_tuple()
    places = max(0, -exponent)
    if len(digits) + max(exponent, 0) > 19:
        return _TOO_LARGE, places
    mantissa = int("".join(map(str, digits))) * 10 ** max(exponent, 0)
    return (mantissa if mantissa <= _INT64_MAX else _TOO_LARGE), places


def write_pair_series_csv(path, series: PairSeries) -> None:
    """Write the quoted seconds of `series` as a tick CSV in the loader's format.

    Prices read as `str(Decimal(mantissa).scaleb(-scale))` would print them;
    the text is built from digit matrices, one block of rows at a time.
    """
    quoted = ~series.missing
    columns = (series.window.grid_times()[quoted], series.bid_m[quoted], series.ask_m[quoted])
    rows = BLOCK_BYTES // 32
    with open(path, "wb") as fh:
        fh.write(b"timestamp,bid,ask\n")
        for lo in range(0, columns[0].size, rows):
            fh.write(_format_rows(*(c[lo:lo + rows] for c in columns), series.scale))


def _format_rows(times, bid_m, ask_m, scale: int) -> bytes:
    """Tick CSV lines for the given rows.

    Rows with a negative time or a price that is not positive, or that
    `Decimal` prints in E-notation (fewer digits than scale - 5), take their
    text from `Decimal` itself.
    """
    text, used = [], []
    for values, places in ((times, 0), (bid_m, scale), (ask_m, scale)):
        chars, mask = _digit_matrix(values, places)
        text += [chars, np.full((values.size, 1), _COMMA, dtype=np.uint8)]
        used += [mask, np.ones((values.size, 1), dtype=bool)]
    text[-1][:] = _LF
    chars, mask = np.hstack(text), np.hstack(used)
    out = chars[mask].tobytes()
    plain = (times >= 0) & (bid_m > 0) & (ask_m > 0)
    if scale > 18:
        plain[:] = False
    elif scale > 6:
        plain &= (bid_m >= _POW10[scale - 6]) & (ask_m >= _POW10[scale - 6])
    if plain.all():
        return out
    lengths = mask.sum(axis=1)
    ends = np.cumsum(lengths)
    pieces, pos = [], 0
    for i in np.flatnonzero(~plain).tolist():
        b, a = (Decimal(int(m[i])).scaleb(-scale) for m in (bid_m, ask_m))
        pieces += [out[pos:ends[i] - lengths[i]], f"{times[i]},{b},{a}\n".encode()]
        pos = ends[i]
    pieces.append(out[pos:])
    return b"".join(pieces)


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
