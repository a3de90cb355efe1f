"""Reference tick loader: the `csv` + `Decimal` row loop the package first used.

It reads the whole file row by row, checks each row as it goes and builds
the grid columns from a per-second dict. `load_pair_series` in the package
must return an equal `PairSeries`, count the same crossed quotes and raise
the same error class at the same line on every input this loop accepts or
rejects with a `TickParseError`, `TickOrderingError` or `EmptySeriesError`.

Three inputs are rejected by the package but not here: underscores in a
number (`int` and `Decimal` accept them), quotes left open at the end of a
line, and bytes that are not UTF-8. Their tests live in
`tests/test_market_data.py`.
"""

from __future__ import annotations

import csv
import warnings
from decimal import Decimal, InvalidOperation

import numpy as np

from triarb.errors import (
    CrossedQuoteWarning,
    EmptySeriesError,
    TickOrderingError,
    TickParseError,
)
from triarb.market_data import Pair, PairSeries, SeriesWindow, parse_iso_timestamp


def load_pair_series(path, pair: Pair, window: SeriesWindow) -> PairSeries:
    # second -> (bid, ask, line); keys arrive in ascending order
    per_second: dict[int, tuple[Decimal, Decimal, int]] = {}
    iso = None
    last_raw_t = None
    n_crossed = 0
    with open(path, newline="", encoding="utf-8") as fh:
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
    return PairSeries(pair, window, bid_m, ask_m, missing, scale)


def _looks_like_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def write_pair_series_csv(path, series: PairSeries) -> None:
    """The reference writer: each quoted second through `str(Decimal)`."""
    quoted = ~series.missing
    shift = -series.scale
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "bid", "ask"])
        columns = (series.window.grid_times()[quoted], series.bid_m[quoted], series.ask_m[quoted])
        writer.writerows(
            (t, Decimal(b).scaleb(shift), Decimal(a).scaleb(shift))
            for t, b, a in zip(*(c.tolist() for c in columns))
        )
