"""Tick loading and writing, grid construction, and triangle alignment."""

import calendar
import copy
import dataclasses
import inspect
import itertools
import pickle
import tempfile
import tracemalloc
import warnings
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triarb.errors import (
    AlignmentError,
    CrossedQuoteWarning,
    EmptySeriesError,
    TickOrderingError,
    TickParseError,
    TriarbError,
)
from triarb import market_data
from triarb.config import parse_timestamp, parse_window
from triarb.market_data import (
    SECONDS_PER_DAY,
    Direction,
    Pair,
    PairSeries,
    SeriesWindow,
    Side,
    TriangleSpec,
    market_convention_pair,
    write_pair_series_csv,
)
from triarb.rate_product import compute_rate_products

import loader_reference as reference
from conftest import MONDAY, load_pair_series, load_rows, write_rows

EURUSD = Pair("EUR", "USD")
GOLDEN_SYNTH = Path(__file__).parent / "golden" / "synth"


class TestLoadPairSeries:
    def test_exact_grid_cover(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2065", "1.2067"), (1, "1.2066", "1.2068"), (2, "1.2064", "1.2066")])
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert len(series) == 3
        assert np.count_nonzero(series.missing) == 0
        assert series.scale == 4
        assert series.bid_m.tolist() == [12065, 12066, 12064]

    def test_gap_second_marked_missing(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2065", "1.2067"), (2, "1.2064", "1.2066")])
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert len(series) == 3
        assert series.missing.tolist() == [False, True, False]
        assert series.bid_m[1] == series.ask_m[1] == 0

    def test_last_tick_wins(self, tmp_path):
        # oracle: one pass over the raw rows keeping the latest per second
        rows = [(3, "1.2060", "1.2062"), (5, "1.2064", "1.2066"), (5, "1.2065", "1.2067")]
        expected = {}
        for t, b, a in rows:
            expected[t] = (Decimal(b), Decimal(a))
        path = tmp_path / "ticks.csv"
        write_rows(path, rows)
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 10))
        assert int(series.bid_m[5]) == expected[5][0].scaleb(series.scale) == 12065
        assert int(series.ask_m[5]) == expected[5][1].scaleb(series.scale)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2065", "1.2067"), ("oops", "x", "y")])
        with pytest.raises(TickParseError) as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    def test_non_positive_price_rejected(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "0", "1.2")])
        with pytest.raises(TickParseError):
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))

    @pytest.mark.parametrize("value", ["NaN", "sNaN", "Infinity"])
    @pytest.mark.parametrize("field", ["bid", "ask"])
    def test_non_finite_price_names_line(self, tmp_path, value, field):
        # the grammar has no spelling for a non-finite price
        path = tmp_path / "ticks.csv"
        bad = (1, value, "1.2067") if field == "bid" else (1, "1.2065", value)
        write_rows(path, [(0, "1.2065", "1.2067"), bad])
        with pytest.raises(TickParseError, match="bad price") as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    def test_out_of_order_timestamps(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(5, "1.2", "1.21"), (4, "1.2", "1.21")])
        with pytest.raises(TickOrderingError):
            load_pair_series(path, EURUSD, SeriesWindow(0, 10))

    def test_empty_intersection(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(100, "1.2", "1.21")])
        with pytest.raises(EmptySeriesError):
            load_pair_series(path, EURUSD, SeriesWindow(0, 10))

    def test_iso_timestamps_autodetected(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(
            path,
            [("1970-01-01T00:00:00Z", "1.2065", "1.2067"),
             ("1970-01-01T00:00:02.000", "1.2066", "1.2068")],
        )
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert series.missing.tolist() == [False, True, False]
        assert (series.bid_m[0], series.bid_m[2], series.scale) == (12065, 12066, 4)

    def test_iso_fraction_truncates_exactly(self, tmp_path):
        # without a float: a late millisecond fraction stays in its second
        path = tmp_path / "ticks.csv"
        write_rows(path, [("9999-12-31T23:59:58.500Z", "1.2065", "1.2067"),
                          ("9999-12-31T23:59:59.999", "1.2066", "1.2068")])
        series = load_pair_series(path, EURUSD, SeriesWindow(253402300798, 253402300800))
        assert series.bid_m.tolist() == [12065, 12066]

    def test_crossed_quote_warns_but_loads(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2070", "1.2067")])
        with pytest.warns(CrossedQuoteWarning):
            series = load_pair_series(path, EURUSD, SeriesWindow(0, 1))
        assert (series.bid_m[0], series.ask_m[0]) == (12070, 12067)

    def test_crossed_quote_warning_names_the_line_that_called_finish(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2070", "1.2067")])
        with market_data.TickReader(path, EURUSD, SeriesWindow(0, 1)) as reader:
            reader.read(SeriesWindow(0, 1))
            with pytest.warns(CrossedQuoteWarning) as caught:
                line = inspect.currentframe().f_lineno + 1
                reader.finish()
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)

    def test_reload_is_bit_identical(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2065", "1.2067"), (1, "1.20655", "1.20675")])
        w = SeriesWindow(0, 5)
        assert load_pair_series(path, EURUSD, w) == load_pair_series(path, EURUSD, w)

    def test_weekday_filter_drops_weekend(self, tmp_path):
        # MONDAY - 1 is a Sunday second
        path = tmp_path / "ticks.csv"
        write_rows(path, [(MONDAY - 1, "1.2", "1.21"), (MONDAY, "1.2", "1.21")])
        w = SeriesWindow(MONDAY - 10, MONDAY + 10, frozenset({0, 1, 2, 3, 4}))
        series = load_pair_series(path, EURUSD, w)
        assert len(series) == 10  # only the Monday seconds
        assert w.grid_times()[0] == MONDAY

    def test_mantissa_overflow_names_line(self, tmp_path):
        # every field fits 18 digits, but at the file's scale a mantissa reaches 10**18
        path = tmp_path / "ticks.csv"
        for rows, line_no in (
            ([(0, "10", "11"), (1, "0.00000000000000001", "1")], 2),
            ([(0, "1.2065", "1.2067"), (1, "1.2066", "100000000000000")], 3),
            ([(0, "9.99999999999999999", "10.0000000000000000")], 2),
            ([(0, "1.2065", "1.2067"), (1, ".123456789012345678", "1")], 2),
            ([(0, ".123456789012345678", "0.2")], 2),  # 18 places: "0." and 18 digits
        ):
            write_rows(path, rows)
            with pytest.raises(TickParseError) as err:
                load_pair_series(path, EURUSD, SeriesWindow(0, 3))
            assert err.value.line_no == line_no
            assert "more than 18 digits" in str(err.value)
        # 17 places and mantissas just below 10**18 load
        write_rows(path, [(0, "9.99999999999999999", "9.99999999999999999")])
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert (series.scale, int(series.ask_m[0])) == (17, 10**18 - 1)

    @pytest.mark.parametrize("asks, line_no", [
        pytest.param(("1.2068", "1.2069", "100000000000000"), 5, id="last tick overflows"),
        pytest.param(("100000000000000", "1.2069", "1.2068"), None, id="overflow replaced"),
    ])
    @pytest.mark.parametrize("straddle", [False, True])
    def test_overflow_names_last_tick_of_its_second(self, tmp_path, monkeypatch, asks, line_no,
                                                    straddle):
        # second 1 has three ticks on lines 3 to 5; at the file's 4 places an ask of
        # 10**14 needs 19 digits, which counts only if it is the second's last tick.
        # With `straddle`, a block ends after line 3.
        rows = [b"%d,1.2065,1.2067" % MONDAY]
        rows += [b"%d,1.2066,%s" % (MONDAY + 1, ask.encode()) for ask in asks]
        rows += [b"%d,1.2064,1.2066" % (MONDAY + 2)]
        text = b"\n".join([b"timestamp,bid,ask", *rows, b""])
        path = tmp_path / "ticks.csv"
        path.write_bytes(text)
        if straddle:
            monkeypatch.setattr(market_data, "BLOCK_BYTES", text.index(rows[2]) + 3)
            assert _block_first_lines(path)[:2] == [1, 4]
        window = SeriesWindow(MONDAY, MONDAY + 3)
        loaded, caught = _outcome(load_pair_series, path, window)
        assert (loaded, caught) == _outcome(reference.load_pair_series, path, window)
        if line_no is None:
            assert (loaded.scale, loaded.ask_m.tolist()) == (4, [12067, 12068, 12066])
        else:
            assert loaded == (TickParseError, line_no)

    def test_later_block_overwrites_straddling_second(self, tmp_path, monkeypatch):
        # three ticks per second, each with its own bid; at each block size some
        # second's ticks are split over two blocks, and its last tick wins
        rows = [b"%d,1.2%03d,1.3" % (MONDAY + i // 3, i) for i in range(90)]
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"\n".join([b"timestamp,bid,ask", *rows, b""]))
        window = SeriesWindow(MONDAY, MONDAY + 30)
        expected = reference.load_pair_series(path, EURUSD, window)
        assert expected.bid_m.tolist() == list(range(12002, 12090, 3))
        for block_bytes in range(40, 120, 7):
            monkeypatch.setattr(market_data, "BLOCK_BYTES", block_bytes)
            firsts = _block_first_lines(path)
            assert any((line - 2) % 3 for line in firsts[1:])  # a second is split
            assert load_pair_series(path, EURUSD, window) == expected

    def test_load_memory_follows_the_result(self, tmp_path):
        # a day of one row per second: the grid, its two int64 mantissa columns and the
        # places counts take about 2.4 MB; a load adds one block's temporaries, never
        # a column per row of the file
        n = SECONDS_PER_DAY
        window = SeriesWindow(MONDAY, MONDAY + n)
        bid = 120650 + np.arange(n, dtype=np.int64) % 13
        series = PairSeries(EURUSD, window, bid, bid + 2, 5)
        path = tmp_path / "ticks.csv"
        write_pair_series_csv(path, series)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = load_pair_series(path, EURUSD, window)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert loaded == series
        assert peak < 6e6

    @pytest.mark.parametrize("row, message", [
        (b"1_000,1.2066,1.2068", "bad timestamp"),
        (b"1,1.2_066,1.2068", "bad price"),
        pytest.param(b'1,1.2066,"1.2068', "bad price", id='1,1.2066,"1.2068-unbalanced quote'),
        pytest.param(b"1,1.2066,1.2068\xff", "bad price", id="1,1.2066,1.2068\xff-not UTF-8"),
        (b"1,1.2066\r,1.2068", "bad price"),
        (b"1,1.2066,1.2068,", "expected 3 fields"),
        (b"2026-W10-1T00:00:00,1.2065,1.2067", "bad timestamp"),
        (b"20260302T000001,1.2065,1.2067", "bad timestamp"),
        (b"1970-01-01T00:00:01+00:00,1.2065,1.2067", "bad timestamp"),
        (b"1970-01-01T00:00:01.000000,1.2065,1.2067", "bad timestamp"),
        (b"1969-12-31T23:59:59Z,1.2065,1.2067", "bad timestamp"),
    ])
    def test_rejected_row_names_line(self, tmp_path, row, message):
        # rows that Python's int, Decimal or datetime.fromisoformat may read, but
        # outside the grammar; an ISO row follows an ISO row
        first = b"1970-01-01T00:00:00Z" if b"T" in row.partition(b",")[0] else b"0"
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"timestamp,bid,ask\n" + first + b",1.2065,1.2067\n" + row
                         + b"\n2,1.2,1.3\n")
        with pytest.raises(TickParseError, match=message) as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    def test_synth_files_are_read_as_byte_matrices(self):
        # synth writes rows of one layout: each block is one byte matrix
        expected = {p: reference.load_pair_series(p, EURUSD, SeriesWindow(370500, 371100))
                    for p in sorted(GOLDEN_SYNTH.glob("*.csv"))}
        assert len(expected) == 3
        for path, series in expected.items():
            assert load_pair_series(path, EURUSD, series.window) == series

    @pytest.mark.parametrize("row, error", [
        pytest.param(b"12.0650,12.0652", None, id="dot moved"),
        pytest.param(b"1120650,1120652", None, id="dot dropped"),
        pytest.param(b"1.2065x,1.20652", "bad price", id="letter"),
        pytest.param(b"0.00000,1.20652", "non-positive price", id="zero price"),
        pytest.param(b"1.20650,1.20652", "precedes", id="decreasing timestamp"),
        pytest.param(b"1.20653,1.20652", "crossed", id="crossed quote"),
        pytest.param(b"1.206500000000000000,1.20652", "bad price", id="19 digits"),
    ])
    @pytest.mark.parametrize("at", [25, 28])
    def test_one_row_off_a_uniform_block(self, tmp_path, monkeypatch, row, error, at):
        # 40 rows of one layout in blocks of 200 bytes; the row at index `at` differs:
        # 25 is the first row of the fourth block, 28 one in its middle. A row off the
        # layout starts a layout group of its own; a bad value in the layout is
        # found in the block's one matrix.
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 200)
        rows = [b"%d,1.20650,1.20652" % (MONDAY + i) for i in range(40)]
        rows[at] = b"%d," % (MONDAY + at - (2 if error == "precedes" else 0)) + row
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"\n".join([b"timestamp,bid,ask", *rows, b""]))
        window = SeriesWindow(MONDAY, MONDAY + 40)
        loaded, caught = _outcome(load_pair_series, path, window)
        assert (loaded, caught) == _outcome(reference.load_pair_series, path, window)
        if error in (None, "crossed"):
            assert int(loaded.bid_m[at]) == int(Decimal(row.split(b",")[0].decode()) * 10**5)
            assert len(caught) == (error == "crossed")
        elif error == "precedes":
            assert loaded == (TickOrderingError, f"{path}:{at + 2}: timestamp {MONDAY + at - 2} "
                                                 f"precedes {MONDAY + at - 1}")
        else:
            with pytest.raises(TickParseError, match=error) as err:
                load_pair_series(path, EURUSD, window)
            assert err.value.line_no == at + 2

    @pytest.mark.parametrize("row, error, step", [
        pytest.param(b"12.0650,12.0652", None, 300, id="dot moved"),
        pytest.param(b"1.2065,1.206521", None, 300, id="places moved"),
        pytest.param(b"1.2065x,1.20652", "bad price", 300, id="letter"),
        pytest.param(b"1.20650;1.20652", "expected 3 fields", 300, id="semicolon"),
        pytest.param(b"1.2 650,1.20652", "bad price", 300, id="space"),
        pytest.param(b"1.20650+1.20652", "expected 3 fields", 300, id="plus"),
        pytest.param(b"1.2065,1.206521", None, 3, id="every third places moved"),
        pytest.param(b"12.0650,12.0652", None, 3, id="every third dot moved"),
        pytest.param(b"1.2065x,1.20652", "bad price", 3, id="every third letter"),
    ])
    @pytest.mark.parametrize("at", [0, 1, 63, 64, 150, 298, 299])
    @pytest.mark.parametrize("iso", [False, True])
    def test_one_row_off_a_long_uniform_block(self, tmp_path, row, error, step, at, iso):
        # 300 rows of one length in one block, one LF apart; every `step`-th row
        # from `at` on has another layout or a bad byte, wherever it falls among
        # the rows that a group's column minima and maxima cover: one row, or
        # rows interleaved with the others in the folded rows and in the tail
        def stamp(i):
            return (b"2024-02-29T%02d:%02d:%02d" % (i // 3600, i // 60 % 60, i % 60) if iso
                    else b"%d" % (MONDAY + i))

        rows = [stamp(i) + b",1.20650,1.20652" for i in range(300)]
        rows[at::step] = [stamp(i) + b"," + row for i in range(at, 300, step)]
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"\n".join([b"timestamp,bid,ask", *rows, b""]))
        start = 1709164800 if iso else MONDAY
        window = SeriesWindow(start, start + 300)
        loaded, caught = _outcome(load_pair_series, path, window)
        assert (loaded, caught) == _outcome(reference.load_pair_series, path, window)
        if error is None:
            scale = loaded.scale
            assert scale == max(len(p) - p.find(b".") - 1 for p in (b"1.20650", *row.split(b",")))
            for side, m in enumerate((loaded.bid_m, loaded.ask_m)):
                assert m.tolist() == [int(Decimal(r.split(b",")[side + 1].decode()) * 10**scale)
                                      for r in rows]
        else:
            with pytest.raises(TickParseError, match=error) as err:
                load_pair_series(path, EURUSD, window)
            assert err.value.line_no == at + 2

    @pytest.mark.parametrize("row, message", [
        (b"%d.0,1.20650,1.20652", "bad timestamp"),
        (b"1%018d,1.20650,1.20652", "bad timestamp"),
        (b"%d,1.206500000000000000,1.20652", "bad price"),
        (b"%d,1.2.650,1.20652", "bad price"),
        (b"%d,,1.20652", "bad price"),
        (b"%d,1.20650,1.20652,1", "expected 3 fields"),
    ])
    def test_uniform_block_outside_grammar(self, tmp_path, monkeypatch, row, message):
        # the first block holds exactly 10 good rows; every later row shares one
        # layout that breaks the grammar, so the second block starts at line 12
        rows = [b"%d,1.20650,1.20652" % (MONDAY + i) for i in range(10)]
        rows += [row % (MONDAY + i) for i in range(10, 40)]
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 18 + 10 * 23)
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"\n".join([b"timestamp,bid,ask", *rows, b""]))
        with pytest.raises(TickParseError, match=message) as err:
            load_pair_series(path, EURUSD, SeriesWindow(MONDAY, MONDAY + 40))
        assert err.value.line_no == 12

    @pytest.mark.parametrize("eol, last", [(b"\r\n", b"\r\n"), (b"\n", b"")])
    def test_uniform_crlf_and_unterminated_files(self, tmp_path, eol, last):
        # CRLF ends and a last line without LF keep every row at one layout
        rows = [b"%d,1.2065%d,1.2066%d" % (MONDAY + i, i % 10, i % 10) for i in range(30)]
        path = tmp_path / "ticks.csv"
        path.write_bytes(eol.join([b"timestamp,bid,ask", *rows]) + last)
        window = SeriesWindow(MONDAY, MONDAY + 30)
        series = load_pair_series(path, EURUSD, window)
        assert series == reference.load_pair_series(path, EURUSD, window)
        assert series.ask_m[-1] == 120669 and series.scale == 5

    @pytest.mark.parametrize("stamp", ["1970-02-30T00:00:00Z", "1970-01-01T24:00:00.000"])
    def test_impossible_iso_time_names_line(self, tmp_path, stamp):
        path = tmp_path / "ticks.csv"
        write_rows(path, [("1970-01-01T00:00:00", "1.2065", "1.2067"), (stamp, "1.2", "1.3")])
        with pytest.raises(TickParseError, match="bad timestamp") as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    @pytest.mark.parametrize("iso", [False, True])
    @pytest.mark.parametrize("minority, message", [
        pytest.param(b"1.2.65,1.3", "bad price", id="layout outside the grammar"),
        pytest.param(b"0.000,1.2065", "non-positive price", id="bad value in its layout"),
    ])
    @pytest.mark.parametrize("at, bad_at", [(4, 9), (9, 4)])
    def test_first_bad_row_across_layout_groups(self, tmp_path, iso, minority, message, at,
                                                 bad_at):
        # one block of 30 rows in one layout, but for the row at index `at`, which has
        # its own layout and a bad value; the majority row at `bad_at` has a zero bid.
        # The earlier of the two is reported, whichever layout group it is in.
        def stamp(i, fraction):
            return (b"2024-02-29T00:00:%02d%s" % (i, b".500Z" if fraction else b"") if iso
                    else b"%d" % (MONDAY + i))

        rows = [stamp(i, True) + b",1.20650,1.20652" for i in range(30)]
        rows[at] = stamp(at, False) + b"," + minority
        rows[bad_at] = stamp(bad_at, True) + b",0.00000,1.20652"
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"\n".join([b"timestamp,bid,ask", *rows, b""]))
        window = SeriesWindow(0, 2)
        assert _outcome(load_pair_series, path, window) == _outcome(
            reference.load_pair_series, path, window)
        with pytest.raises(TickParseError) as err:
            load_pair_series(path, EURUSD, window)
        first = min(at, bad_at)
        assert err.value.line_no == first + 2
        assert str(err.value).endswith(
            f"{message if first == at else 'non-positive price'} in {rows[first]!r}")

    @pytest.mark.parametrize("stamp, valid", [
        ("2000-02-29T12:00:00", True),
        ("2024-02-29T23:59:59.999Z", True),
        ("2024-02-29", True),
        ("2100-02-29T00:00:00", False),
        ("2100-02-29", False),
        ("2023-02-29T00:00:00Z", False),
        ("2024-04-31T00:00:00", False),
        ("2024-00-10T00:00:00", False),
        ("2024-13-10T00:00:00", False),
        ("2024-01-00T00:00:00", False),
        ("2024-01-01T24:00:00", False),
        ("2024-01-01T23:60:00", False),
        ("2024-01-01T23:59:60", False),
    ])
    def test_civil_dates_in_ticks_and_windows(self, tmp_path, stamp, valid):
        # the loader and --window read ISO times with the same arithmetic
        iso = stamp if "T" in stamp else stamp + "T00:00:00"
        path = tmp_path / "ticks.csv"
        write_rows(path, [("1970-01-01T00:00:00", "1.2", "1.3"), (iso, "1.2", "1.4")])
        if not valid:
            with pytest.raises(TickParseError, match="bad timestamp") as err:
                load_pair_series(path, EURUSD, SeriesWindow(0, 1))
            assert err.value.line_no == 3
            with pytest.raises(ValueError, match=f"bad timestamp {stamp!r}"):
                parse_window(f"{stamp}..{MONDAY}")
            return
        t = int(datetime.fromisoformat(iso.rstrip("Z")).replace(tzinfo=timezone.utc).timestamp())
        series = load_pair_series(path, EURUSD, SeriesWindow(t, t + 1))
        assert series.ask_m.tolist() == [14] and not series.missing.any()
        assert parse_window(f"{stamp}..{t + 1}").start == t

    @pytest.mark.parametrize("start", [18, 28, 48, 68])
    @pytest.mark.parametrize("length", [63, 64, 90, 120])
    @pytest.mark.parametrize("last", [False, True])
    def test_line_longer_than_a_block_rejected(self, tmp_path, monkeypatch, start, length, last):
        # whether a line fits depends on its length only, not on where it
        # starts nor on whether an LF ends it: a 64-byte block holds 63 bytes
        # and an LF
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 64)
        before = (start - 18) // 10  # the header's 18 bytes, then rows of 10
        long = "9," + " " * (length - 9) + "1.2,1.3"
        text = "timestamp,bid,ask\n" + "0,1.2,1.3\n" * before + long
        text += "" if last else "\n9,1.2,1.3\n"
        assert text.index(long) == start and len(long) == length
        path = tmp_path / "ticks.csv"
        path.write_text(text)
        what = "bad price" if length < 64 else "line longer than 63 bytes before its LF"
        with pytest.raises(TickParseError, match=what) as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 10))
        assert err.value.line_no == 2 + before

    def test_roundtrip_through_writer(self, tmp_path):
        # 5 at scale 7 is written in fixed point, never in exponent notation
        window = SeriesWindow(7, 10)
        series = PairSeries(
            EURUSD, window,
            np.array([12065000, 0, 5], dtype=np.int64),
            np.array([12067000, 0, 12068000], dtype=np.int64), 7,
        )
        path = tmp_path / "ticks.csv"
        write_pair_series_csv(path, series)
        assert path.read_text() == "timestamp,bid,ask\n7,1.2065000,1.2067000\n9,0.0000005,1.2068000\n"
        assert load_pair_series(path, EURUSD, window) == series

    @pytest.mark.parametrize("start, bid, scale", [
        (-1, 12065, 4), (0, -12065, 4), (0, 10**18, 4), (0, 12065, 18), (0, 12065, -1),
    ])
    def test_writer_refuses_series_outside_grammar(self, tmp_path, start, bid, scale):
        # a zero bid is a missing second, so a negative one stands for a non-positive price
        series = PairSeries(EURUSD, SeriesWindow(start, start + 1), np.array([bid]),
                            np.array([12067]), scale)
        path = tmp_path / "ticks.csv"
        with pytest.raises(ValueError, match="no tick row holds"):
            write_pair_series_csv(path, series)
        assert not path.exists()


@st.composite
def pair_series(draw):
    """A random grid series in the tick grammar: mantissas from 1 (many leading
    zeros at high scales) to 10**18 - 1, scales 0-17, gaps."""
    n = draw(st.integers(min_value=1, max_value=20))
    start = draw(st.integers(min_value=0, max_value=10**9))
    window = SeriesWindow(start, start + n)
    mantissa = st.one_of(st.integers(1, 99), st.integers(1, 10**18 - 1))
    spread = st.one_of(st.integers(0, 99), st.integers(0, 10**18 - 1))
    bid = np.array(draw(st.lists(mantissa, min_size=n, max_size=n)), dtype=np.int64)
    ask = np.minimum(bid + np.array(draw(st.lists(spread, min_size=n, max_size=n))), 10**18 - 1)
    missing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    missing[draw(st.integers(0, n - 1))] = False  # at least one quoted second
    bid[missing] = 0
    ask[missing] = 0
    scale = draw(st.integers(min_value=0, max_value=17))
    return PairSeries(EURUSD, window, bid, ask, scale)


@given(pair_series(), st.integers(min_value=64, max_value=1024))
@settings(max_examples=200, deadline=None)
def test_writer_loader_roundtrip(series, block_bytes):
    # small blocks (but longer than a line) make the writer emit several chunks
    # and the loader start blocks mid-file
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "ticks.csv"
        expected = Path(tmp) / "reference.csv"
        write_pair_series_csv(path, series)
        reference.write_pair_series_csv(expected, series)
        assert path.read_bytes() == expected.read_bytes()
        assert load_pair_series(path, EURUSD, series.window) == series


@st.composite
def block_series(draw):
    """(series, rows per block): a grid series whose quoted rows fall in
    blocks of one kind or the other. In an even block each price column's
    values share one count of digits; in the other one value of the bid or
    the ask column is a digit shorter or longer, at a random row. Times run
    from 0 up to 18 digits and sometimes cross a power of ten inside the
    file; digit counts at or below the scale print prices below 1, such as
    0.0000005; scales are 0-17."""
    scale = draw(st.integers(0, 17))
    per, n_blocks = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    n = per * n_blocks
    length = n + draw(st.integers(0, 3))
    gaps = draw(st.sets(st.integers(0, length - 1), min_size=length - n, max_size=length - n))
    digits = draw(st.integers(1, 18))
    start = draw(st.sampled_from([
        max(0, min(10**digits - draw(st.integers(1, length)), 10**18 - length)),
        10 ** (digits - 1), 10**18 - length, 0,
    ]))
    bid, ask, low = [], [], max(scale, 1)
    for _ in range(n_blocks):
        odd, row = draw(st.sampled_from([None, "bid", "ask"])), draw(st.integers(0, per - 1))
        delta = draw(st.sampled_from([-1, 1]))
        for name, column in (("bid", bid), ("ask", ask)):
            d = draw(st.sampled_from([1, low, scale + 1, 18]) | st.integers(low, 18))
            column += [draw(st.integers(10 ** (d - 1), 10**d - 1)) for _ in range(per)]
            if name == odd:
                d += delta if 1 <= d + delta <= 18 else -delta
                column[row - per] = draw(st.integers(10 ** (d - 1), 10**d - 1))  # in this block
    quoted = np.array([i not in gaps for i in range(length)])
    bid_m, ask_m = (np.zeros(length, dtype=np.int64) for _ in range(2))
    bid_m[quoted], ask_m[quoted] = bid, ask
    return PairSeries(EURUSD, SeriesWindow(start, start + length), bid_m, ask_m, scale), per


@given(block_series())
@settings(max_examples=300, deadline=None)
def test_writer_blocks_match_reference(case):
    # BLOCK_BYTES holds exactly `per` rows at the file's widest fields, so the
    # writer's blocks are the strategy's even and one-off blocks
    series, per = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        expected = Path(tmp) / "reference.csv"
        reference.write_pair_series_csv(expected, series)
        fields = zip(*(row.split(b",") for row in expected.read_bytes().splitlines()[1:]))
        line = 3 + sum(max(map(len, column)) for column in fields)
        mp.setattr(market_data, "BLOCK_BYTES", per * line)
        blocks, format_rows = [], market_data._format_rows

        def spy(times, *args):
            blocks.append((times.size, format_rows(times, *args)))
            return blocks[-1][1]

        mp.setattr(market_data, "_format_rows", spy)
        path = Path(tmp) / "ticks.csv"
        write_pair_series_csv(path, series)
        assert path.read_bytes() == expected.read_bytes()
        quoted = len(series) - np.count_nonzero(series.missing)
        assert [rows for rows, _ in blocks] == [per] * (quoted // per)
        assert all(len(text) <= per * line for _, text in blocks)
        mp.undo()  # the loader reads blocks of BLOCK_BYTES too; a header may not fit in these
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrossedQuoteWarning)
            assert load_pair_series(path, EURUSD, series.window) == series


@pytest.mark.parametrize("scale", [0, 5])
@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("row", [0, 5, 9])
@pytest.mark.parametrize("delta", [-1, 1])
def test_one_value_a_digit_off_in_a_block(scale, column, row, delta):
    # a block of one line length but for one time, bid or ask a digit shorter
    # or longer: `_format_rows` prints what the reference prints
    columns = [[1_772_409_600 + i for i in range(10)], [1_206_500 + i for i in range(10)],
               [1_206_530 + i for i in range(10)]]
    value = columns[column][row]
    columns[column][row] = value // 10 if delta < 0 else value * 10
    expected = "".join(reference.tick_line(*values, scale) for values in zip(*columns))
    text = market_data._format_rows(*(np.array(c, dtype=np.int64) for c in columns), scale)
    assert text == expected.encode()


def _price_text(draw, plain, hostile):
    """A positive decimal in one of the spellings Decimal accepts; `plain` keeps
    to the tick grammar's."""
    m = draw(st.integers(1, 10**7))
    p = draw(st.integers(0, 7))
    text = f"{m // 10**p}.{m % 10**p:0{p}d}" if p else str(m)
    spellings = [text, text, text + "00" if p else text + ".00", text.lstrip("0"), f"00{text}"]
    if not plain:
        spellings += [f"{m}E-{p}", f"{m}e-{p + 1}", f"+{text}", f"{m}E+2"]
    if hostile and draw(st.integers(0, 4)) == 0:
        spellings = [f"{m}E-{p + 20}", "0", "0.000", "-1.2", "x", "NaN", "Infinity", "", "1.2.3",
                     "1.00000000000000000000001", "99999999999999999999",
                     "0.00000000000000001", "99999999999999"]
    return draw(st.sampled_from(spellings))


def _timestamp_text(draw, t, iso, plain):
    if not iso:
        spellings = [str(t), f"0{t}"] if plain else [str(t), f"+{t}", f"0{t}", f" {t}"]
        return draw(st.sampled_from(spellings))
    text = datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    millis, micros = draw(st.integers(0, 999)), draw(st.integers(0, 999_999))
    spellings = ["", "Z", f".{millis:03d}", f".{millis:03d}Z"]
    if not plain:
        spellings += [f".{micros:06d}", "+00:00", "z"]
    return text + draw(st.sampled_from(spellings))


def _decorated(draw, text, plain):
    if plain:
        return text
    return draw(st.sampled_from([text, text, text, f" {text}", f"{text}\t", f'"{text}"',
                                 f'" {text} "', f"{text}\r"]))


def _uniform_price_text(draw, digits, places, hostile):
    """A price with `digits` integer digits (zero-padded) and `places` decimals,
    so that every row of a file has one layout; `hostile` files draw, in 1 of
    25 fields, a value off that layout (a moved or dropped dot, a letter, one
    more byte) or a zero of the same layout."""
    m = draw(st.integers(1, 10 ** (digits + places) - 1))
    mantissa = f"{m:0{digits + places}d}"
    text = f"{mantissa[:digits]}.{mantissa[digits:]}" if places else mantissa
    if hostile and draw(st.integers(0, 24)) == 0:
        zero = "0" * digits + ("." + "0" * places if places else "")
        moved = f"{mantissa[:digits + 1]}.{mantissa[digits + 1:]}"  # 1 byte longer at 0 places
        text = draw(st.sampled_from([
            zero, moved, "1" + mantissa, text[:-1] + "x", text + "0", "x" * len(text), "",
            "1" * 19, text.replace(".", ",") if places else text + ",",
        ]))
    return text


@st.composite
def tick_files(draw):
    """(file text, window, block size): tick rows around a weekend, before or
    after 1970, in epoch or ISO form, with blank lines and CRLF. `plain`
    files keep to the tick grammar; the others also draw the spellings
    outside it: quotes, whitespace, a lone CR, '+', E-notation, 6-digit
    fractions, '+00:00' and 'z', and a negative epoch. `hostile` files also
    hold bad values, wrong field counts, decreasing timestamps and a truncated
    last row. `uniform` files are plain epoch files with up to 150 rows whose
    prices all share one count of integer digits and of decimal places (up
    to 20 digits), read in blocks of many rows; the other files are read in
    blocks of a few rows, so that most have rows that straddle two."""
    iso, plain, hostile = draw(st.booleans()), draw(st.integers(0, 3)) > 0, draw(st.booleans())
    uniform = draw(st.integers(0, 2)) == 0
    iso &= not uniform
    plain |= uniform
    digits, places = draw(st.integers(1, 3)), draw(st.integers(0, 17))
    base = draw(st.sampled_from([MONDAY - 5, 1_772_956_795] + ([] if uniform else [-3 * 86400 - 5])))
    eol = draw(st.sampled_from(["\n", "\r\n"] + ([] if plain else ["\r"])))
    t = base
    lines = ["timestamp,bid,ask"]
    for _ in range(draw(st.integers(0, 150 if uniform else 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        t += draw(st.sampled_from([0, 1, 1, 1, 2, 3] + ([-1] if hostile else [])))
        if uniform:
            fields = [str(t), *(_uniform_price_text(draw, digits, places, hostile) for _ in range(2))]
        else:
            fields = [_timestamp_text(draw, t, iso, plain), _price_text(draw, plain, hostile),
                      _price_text(draw, plain, hostile)]
        if hostile and draw(st.integers(0, 19)) == 0:
            fields = fields[:draw(st.integers(1, 4))] + ["1.3"]
        lines.append(",".join(_decorated(draw, f, plain) for f in fields))
    text = eol.join(lines) + eol
    if hostile and draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    start = base + draw(st.integers(-3, 12))
    weekdays = draw(st.one_of(st.just(frozenset(range(7))), st.frozensets(st.integers(0, 6), min_size=1)))
    window = SeriesWindow(start, start + draw(st.integers(1, 300 if uniform else 40)), weekdays)
    return text, window, draw(st.integers(1000, 4000) if uniform else st.integers(100, 200))


def _block_first_lines(path):
    """The first line number of each block of rows the loader reads of `path`."""
    firsts = []
    with market_data.TickReader(path, EURUSD, SeriesWindow(0, 1)) as reader:
        while True:
            first = reader._line_no
            if reader._next_rows() is None:
                return firsts
            firsts.append(first)


def _outcome(load, path, window):
    """What a loader makes of a file: the series or the error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path, EURUSD, window)
        except TickParseError as exc:
            result = (TickParseError, exc.line_no)
        except (TickOrderingError, EmptySeriesError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


@given(tick_files())
@settings(max_examples=500, deadline=None)
def test_loader_matches_reference(case):
    text, window, block_bytes = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "ticks.csv"
        path.write_bytes(text.encode())
        expected = _outcome(reference.load_pair_series, path, window)
        assert _outcome(load_pair_series, path, window) == expected


@given(tick_files())
@settings(max_examples=200, deadline=None)
def test_loaded_series_write_back(case):
    # every series the loader returns is in the grammar the writer writes
    text, window, block_bytes = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "ticks.csv"
        path.write_bytes(text.encode())
        loaded, _ = _outcome(load_pair_series, path, window)
        if isinstance(loaded, PairSeries):
            written = Path(tmp) / "written.csv"
            write_pair_series_csv(written, loaded)
            assert _outcome(load_pair_series, written, window)[0] == loaded


def _layout_price_text(draw, max_places):
    """A price of 1 to 18 digits with 0 to `max_places` decimal places, with
    at most 18 digits at `max_places` below 18, in any spelling of the
    grammar: a leading or a trailing dot included."""
    places = draw(st.integers(0, max_places))
    whole = draw(st.integers(1 if places == 0 else 0, max(1, min(3, 18 - max_places))))
    digits = f"{draw(st.integers(1, 10 ** (whole + places) - 1)):0{whole + places}d}"
    if places:
        return f"{digits[:whole]}.{digits[whole:]}"
    return digits + draw(st.sampled_from(["", "", "."]))


@st.composite
def mixed_layout_files(draw):
    """(file text, window, block size): rows in the tick grammar whose layouts
    change from row to row, read in blocks of one to a few rows. ISO times
    come with and without '.fff' and 'Z' around leap days, from 2000-02-28,
    2024-02-28 or 2100-02-28; epoch times cross a change in their number of
    digits. Prices have 0 to 5, 11, 17 or 18 decimal places, the last more
    than a file's scale may have. About one row in 40 has a zero price, an
    extra field or a decreasing time."""
    iso = draw(st.booleans())
    max_places = draw(st.sampled_from([5, 11, 17, 18]))
    base = draw(st.sampled_from([951_782_390, 1_709_164_790, 4_107_542_390] if iso
                                else [99_999_990, 9_999_999_990]))
    t = base
    lines = ["timestamp,bid,ask"]
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.sampled_from([0, 1, 1, 2, 7]))
        if iso:
            stamp = datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
            stamp += draw(st.sampled_from(["", "Z", f".{t % 1000:03d}", f".{t % 997:03d}Z"]))
        else:
            stamp = str(t)
        fields = [stamp, *(_layout_price_text(draw, max_places) for _ in range(2))]
        flaw = draw(st.integers(0, 119))
        if flaw == 0:
            fields[1] = "0.000"
        elif flaw == 1:
            fields.append("1.3")
        elif flaw == 2:
            t -= 3
        lines.append(",".join(fields))
    window = SeriesWindow(base, max(t, base) + 2,
                          draw(st.sampled_from([frozenset(range(7)), frozenset({0, 1, 2, 3, 4})])))
    return "\n".join(lines) + "\n", window, draw(st.integers(70, 300))


@given(mixed_layout_files())
@settings(max_examples=200, deadline=None)
def test_mixed_layouts_match_reference(case):
    # many layout groups per block, and rows that straddle two blocks
    text, window, block_bytes = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "ticks.csv"
        path.write_bytes(text.encode())
        expected = _outcome(reference.load_pair_series, path, window)
        assert _outcome(load_pair_series, path, window) == expected


@given(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
       st.sampled_from(["", "Z", ".123", ".999Z"]))
@settings(max_examples=300, deadline=None)
def test_iso_times_follow_the_calendar(moment, suffix):
    # the tick parser's ISO times against the calendar, over every year the four digits can hold
    stamp = moment.strftime("%Y-%m-%dT%H:%M:%S") + suffix
    assert parse_timestamp(stamp) == calendar.timegm(moment.timetuple())


def _iso_rows(first: str, seconds: int, per_second: int = 1):
    """Tick rows of ISO times from `first` on, `per_second` rows in each of
    `seconds` consecutive seconds, with prices of 4 and 5 decimal places."""
    t0 = calendar.timegm(datetime.fromisoformat(first).timetuple())
    rows = []
    for i in range(seconds * per_second):
        t = t0 + i // per_second
        stamp = datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
        rows.append((f"{stamp}.{i % 1000:03d}Z", f"1.2{i % 7}65", f"1.2{i % 7}671"))
    return t0, rows


def _assert_matches_reference(path, window, block_sizes, monkeypatch):
    expected = _outcome(reference.load_pair_series, path, window)
    for block_bytes in block_sizes:
        monkeypatch.setattr(market_data, "BLOCK_BYTES", block_bytes)
        assert _outcome(load_pair_series, path, window) == expected, block_bytes
    return expected


class TestIsoDateOnce:
    """A block of ISO rows, on one date or several, decodes the date of each
    run of rows on one date once and reads only HH:MM:SS per row."""

    @pytest.mark.parametrize("first, dates_before", [
        pytest.param("2026-03-02T23:59:50", 0, id="midnight"),
        pytest.param("2026-03-31T23:59:50", 0, id="month end"),
        pytest.param("2025-12-31T23:59:50", 0, id="year end"),
        pytest.param("2024-02-28T23:59:50", 0, id="into 29 February"),
        pytest.param("2024-02-29T23:59:50", 0, id="out of 29 February"),
        pytest.param("2100-02-28T23:59:50", 0, id="no 29 February in 2100"),
        pytest.param("2024-02-29T23:59:50", 4, id="six dates, 29 February"),
        pytest.param("2025-12-31T23:59:50", 3, id="five dates, year end"),
    ])
    def test_blocks_across_a_date_change_match_reference(self, tmp_path, monkeypatch, first,
                                                         dates_before):
        # 20 seconds, two rows each, around the change of date; blocks of one to
        # about fifteen rows put the change inside a block and on a block's edge.
        # Before them, one row on each of `dates_before` consecutive dates, before
        # the window, so that one block can hold several dates
        t0, rows = _iso_rows(first, 20, per_second=2)
        rows[:0] = [(datetime.fromtimestamp(t0 - d * 86400, timezone.utc).isoformat()[:19],
                     *rows[0][1:]) for d in range(dates_before, 0, -1)]
        path = tmp_path / "ticks.csv"
        write_rows(path, rows)
        series, warned = _assert_matches_reference(
            path, SeriesWindow(t0, t0 + 20), (60, 61, 97, 150, 640, 1 << 18), monkeypatch)
        assert isinstance(series, PairSeries) and not series.missing.any() and not warned

    @pytest.mark.parametrize("bad", ["24:00:00", "23:59:60", "23:60:00", "99:59:59"])
    @pytest.mark.parametrize("at", [0, 5, 9])
    def test_bad_time_in_a_shared_date_block(self, tmp_path, monkeypatch, bad, at):
        t0, rows = _iso_rows("2024-02-29T23:59:40", 10)
        rows[at] = (f"2024-02-29T{bad}.500Z", *rows[at][1:])
        path = tmp_path / "ticks.csv"
        write_rows(path, rows)
        expected = _assert_matches_reference(
            path, SeriesWindow(t0, t0 + 10), (1 << 18, 200), monkeypatch)
        assert expected == ((TickParseError, at + 2), [])
        with pytest.raises(TickParseError, match="bad timestamp"):
            load_pair_series(path, EURUSD, SeriesWindow(t0, t0 + 10))

    @pytest.mark.parametrize("other", [
        pytest.param("2024-03-02T00:00:00", id="next day, last row"),
        pytest.param("2024-03-11T00:00:00", id="a later day, last row"),
        pytest.param("2024-03-00T12:00:00", id="day 00"),
        pytest.param("2024-03-32T12:00:00", id="day 32"),
        pytest.param("2024-02-29T12:00:00", id="a date back, mid-block"),
        pytest.param("2024-02-01T12:00:00", id="a month back, mid-block"),
    ])
    def test_one_row_with_other_day_digits(self, tmp_path, monkeypatch, other):
        # every row has 2024-03-01 but one, whose bytes differ in the date's digits only
        t0, rows = _iso_rows("2024-03-01T12:00:00", 12)
        at = len(rows) - 1 if other.endswith("T00:00:00") else 6
        rows[at] = (other, *rows[at][1:])
        path = tmp_path / "ticks.csv"
        write_rows(path, rows)
        window = SeriesWindow(t0, t0 + 11 * 86400)
        outcome = _assert_matches_reference(path, window, (1 << 18,), monkeypatch)
        if other.startswith("2024-02"):  # a date before the row above's
            (error, message), warned = outcome
            assert error is TickOrderingError and not warned
            assert message.startswith(f"{path}:{at + 2}: timestamp ")
        elif at == 6:
            assert outcome == ((TickParseError, at + 2), [])
        else:
            assert np.count_nonzero(outcome[0].missing) == window.grid_size() - len(rows)

    def test_one_row_blocks(self, tmp_path, monkeypatch):
        # each block ends inside the next row, so every block holds one whole row
        t0, rows = _iso_rows("2024-12-31T23:59:57", 6)
        path = tmp_path / "ticks.csv"
        write_rows(path, rows)
        row_bytes = len(",".join(rows[0])) + 1
        _assert_matches_reference(path, SeriesWindow(t0, t0 + 6), (row_bytes, row_bytes + 5),
                                  monkeypatch)
        monkeypatch.setattr(market_data, "BLOCK_BYTES", row_bytes)
        with market_data.TickReader(path, EURUSD, SeriesWindow(t0, t0 + 6)) as reader:
            sizes = []
            while (block := reader._next_rows()) is not None:
                sizes.append(block[0].size)
        assert sizes == [1] * len(rows)

    def test_every_date_from_1970_to_2100(self):
        # one row per date, so that every row starts a run of its own, in blocks of
        # up to 10k rows, about as many as a block of the shortest ISO rows holds
        epoch = date(1970, 1, 1)
        days = (date(2100, 12, 31) - epoch).days + 1
        for lo in range(0, days, 10_000):
            day = range(lo, min(lo + 10_000, days))
            second = [d * 7919 % SECONDS_PER_DAY for d in day]  # every hour, minute, second value
            text = "".join(f"{epoch + timedelta(days=d)}T{s // 3600:02d}:{s // 60 % 60:02d}:"
                           f"{s % 60:02d}\n" for d, s in zip(day, second))
            buf = np.frombuffer(text.encode(), dtype=np.uint8)
            seconds, ok = market_data._iso_seconds(buf, np.arange(len(day)) * 20)
            assert ok.all()
            assert seconds.tolist() == [d * SECONDS_PER_DAY + s for d, s in zip(day, second)]

    @pytest.mark.parametrize("stamp", ["2025-02-29T12:00:00", "2100-02-29T12:00:00",
                                       "2026-13-01T12:00:00", "2026-04-31T12:00:00",
                                       "0000-01-01T12:00:00", "1969-12-31T23:59:59"])
    def test_unreal_or_early_date_names_its_line(self, tmp_path, monkeypatch, stamp):
        # three rows before midnight, then three on the date of `stamp`, which is
        # not a real date or is before 1970: in one block across midnight, and with
        # the three on their date in a block of their own
        _, rows = _iso_rows("1970-01-01T23:59:57", 3)
        rows += [(stamp, "1.2065", "1.20671")] * 3
        path = tmp_path / "ticks.csv"
        write_rows(path, rows)
        window = SeriesWindow(0, 2 * SECONDS_PER_DAY)
        first_block = len("timestamp,bid,ask\n") + sum(len(",".join(r)) + 1 for r in rows[:3])
        expected = _assert_matches_reference(path, window, (1 << 18, first_block), monkeypatch)
        assert expected == ((TickParseError, 5), [])
        for block_bytes in (1 << 18, first_block):
            monkeypatch.setattr(market_data, "BLOCK_BYTES", block_bytes)
            with market_data.TickReader(path, EURUSD, window) as reader:
                if block_bytes == first_block:
                    assert reader._next_rows()[0].size == 3  # the rows before midnight
                with pytest.raises(TickParseError, match="bad timestamp") as err:
                    reader._next_rows()
            assert err.value.line_no == 5
            assert str(err.value).endswith(f"in {','.join(rows[3]).encode()!r}")


class TestBlockBuffer:
    """The readers of one command share one block buffer, and nothing they
    return or keep points into it."""

    @staticmethod
    def _files(tmp_path):
        # an ISO file with mixed decimal places and an epoch file, both over 40 seconds
        t0, iso_rows = _iso_rows("2026-03-06T23:59:50", 40, per_second=2)
        iso, epoch = tmp_path / "EURUSD.csv", tmp_path / "USDCHF.csv"
        write_rows(iso, iso_rows)
        write_rows(epoch, [(t, f"1.30{t % 9}", "1.3121") for t in range(t0, t0 + 40)])
        return SeriesWindow(t0, t0 + 40), [(iso, EURUSD), (epoch, Pair("USD", "CHF"))]

    @staticmethod
    def _read(reader, chunks):
        return [reader.read(chunk) for chunk in chunks]

    def test_readers_in_turn_read_what_each_reads_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 90)
        monkeypatch.setattr(market_data, "CHUNK_SECONDS", 7)
        window, files = self._files(tmp_path)
        chunks = window.chunks()
        alone = []
        for path, pair in files:
            with market_data.TickReader(path, pair, window) as reader:
                alone.append(self._read(reader, chunks))
                reader.finish()
        buffer = market_data.BlockBuffer()
        readers = [market_data.TickReader(path, pair, window, buffer) for path, pair in files]
        in_turn = [[], []]
        for chunk in chunks:  # as `cli._detect` reads them
            for reader, got in zip(readers, in_turn):
                got.append(reader.read(chunk))
        for reader in readers:
            reader.finish()
            reader.__exit__()
        assert in_turn == alone
        assert all(s.scale == 5 for s in in_turn[0]) and len(chunks) == 6

    def test_nothing_kept_points_into_the_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 90)
        monkeypatch.setattr(market_data, "CHUNK_SECONDS", 7)
        window, files = self._files(tmp_path)
        buffer = market_data.BlockBuffer()
        (iso, pair), (epoch, other) = files
        with market_data.TickReader(iso, pair, window, buffer) as reader, \
                market_data.TickReader(epoch, other, window, buffer) as filler:
            first = reader.read(window.chunks()[0])
            kept = [copy.deepcopy(a) for a in (
                first.bid_m, first.ask_m, reader._index, reader._mantissas, reader._places)]
            pos = reader._pos
            text = iso.read_bytes()
            # a line left unparsed, after the last one parsed, and ticks past the chunk
            assert 0 < pos < len(text) and text[pos - 1:pos] == b"\n" and reader._index.size
            assert text.count(b"\n", 0, pos) == reader._line_no - 1
            for a in (first.bid_m, first.ask_m, reader._index, reader._mantissas,
                      reader._places):
                assert not np.shares_memory(a, buffer._bytes)
            # another reader's blocks overwrite every byte of the buffer
            while filler._next_rows() is not None:
                pass
            now = [first.bid_m, first.ask_m, reader._index, reader._mantissas, reader._places]
            assert all(np.array_equal(a, b) for a, b in zip(now, kept))
            assert reader._pos == pos
            rest = [reader.read(chunk) for chunk in window.chunks()[1:]]
        with market_data.TickReader(iso, pair, window) as alone:
            assert [alone.read(chunk) for chunk in window.chunks()] == [first, *rest]


class TestSeriesWindow:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            SeriesWindow(10, 10)

    def test_grid_length_matches_seconds(self):
        assert SeriesWindow(0, 3600).grid_times().size == 3600

    def test_every_weekday_has_one_spelling(self):
        assert SeriesWindow(5, 9) == SeriesWindow(5, 9, frozenset(range(7)))
        assert SeriesWindow(5, 9).weekday_filter == frozenset(range(7))

    @given(st.integers(0, 30 * SECONDS_PER_DAY), st.integers(1, 10 * SECONDS_PER_DAY),
           st.one_of(st.just(frozenset(range(7))), st.frozensets(st.integers(0, 6), min_size=1)),
           st.lists(st.integers(-2 * SECONDS_PER_DAY, 12 * SECONDS_PER_DAY), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_grid_index_finds_each_time_on_the_grid(self, start, length, weekdays, offsets):
        window = SeriesWindow(start, start + length, weekdays)
        grid = window.grid_times()
        times = start + np.sort(np.array(offsets, dtype=np.int64))
        expected = [grid.tolist().index(t) if t in grid else -1 for t in times.tolist()]
        assert window.grid_size() == grid.size
        assert window.grid_index(times).tolist() == expected

    def test_window_too_long_for_its_day_counts_is_refused(self, tmp_path):
        # about 1.16e12 days, once a MemoryError from the day counts of a load
        path = tmp_path / "ticks.csv"
        write_rows(path, [(345600, "1.2", "1.3")])
        with pytest.raises(TriarbError, match="spans 99,999,999,999,654,400 seconds, too many "
                                              "for its per-second grid"):
            load_pair_series(path, EURUSD, SeriesWindow(345600, 10**17))
        last = market_data.MAX_DAYS * SECONDS_PER_DAY
        assert SeriesWindow(0, last).grid_size() == last
        with pytest.raises(TriarbError, match="too many for its per-second grid"):
            SeriesWindow(0, last + 1)

    @given(st.integers(0, 30 * SECONDS_PER_DAY), st.integers(1, 10 * SECONDS_PER_DAY),
           st.one_of(st.just(frozenset(range(7))), st.frozensets(st.integers(0, 6), min_size=1)),
           st.integers(1, 3 * SECONDS_PER_DAY))
    @settings(max_examples=200, deadline=None)
    def test_chunks_tile_the_window_by_grid_seconds(self, start, length, weekdays, size):
        window = SeriesWindow(start, start + length, weekdays)
        size = max(size, length // 100)  # at most about 100 chunks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(market_data, "CHUNK_SECONDS", size)
            chunks = window.chunks()
        assert (chunks[0].start, chunks[-1].end) == (window.start, window.end)
        assert all(a.end == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.grid_size() for c in chunks]
        assert sizes[:-1] == [size] * (len(chunks) - 1) and 0 <= sizes[-1] <= size
        assert sizes[-1] or len(chunks) == 1
        grid = window.grid_times()
        assert np.array_equal(np.concatenate([c.grid_times() for c in chunks]), grid)

    def test_day_counts_are_cached_off_the_fields(self):
        def window():
            return SeriesWindow(MONDAY - SECONDS_PER_DAY, MONDAY + 3 * SECONDS_PER_DAY,
                                frozenset({0, 1, 2, 3, 4}))

        served, fresh = window(), window()
        text = repr(served)
        assert served.grid_index(np.array([MONDAY + 5])).tolist() == [5]
        assert served.chunks()[0].start == served.start
        counts = served._day_counts
        assert served._day_counts is counts  # computed once
        assert served == fresh and hash(served) == hash(fresh)
        assert repr(served) == repr(fresh) == text
        again = pickle.loads(pickle.dumps(served))
        assert again == served and again.grid_size() == served.grid_size() == 3 * SECONDS_PER_DAY
        shorter = dataclasses.replace(served, end=MONDAY + SECONDS_PER_DAY)
        assert shorter._day_counts is not counts
        assert shorter.grid_size() == SECONDS_PER_DAY
        assert np.array_equal(shorter.grid_times(), served.grid_times()[:SECONDS_PER_DAY])

    def test_days_enumeration(self):
        w = SeriesWindow(MONDAY, MONDAY + 3 * 86400, frozenset({0, 1, 2, 3, 4}))
        days = w.days()
        assert len(days) == 3
        assert days[0].isoweekday() == 1


class TestTriangleSpec:
    def test_chf_triangle_reproduces_leg_recipes(self):
        spec = TriangleSpec(("EUR", "USD", "CHF"))
        assert [(p.name, s) for p, s in spec.legs(Direction.DIR1)] == [
            ("EUR/USD", Side.BID),
            ("USD/CHF", Side.BID),
            ("EUR/CHF", Side.INV_ASK),
        ]
        assert sorted((p.name, s.value) for p, s in spec.legs(Direction.DIR2)) == [
            ("EUR/CHF", "bid"),
            ("EUR/USD", "inv_ask"),
            ("USD/CHF", "inv_ask"),
        ]

    @given(st.sampled_from([("EUR", "USD", "CHF"), ("EUR", "USD", "JPY")]),
           st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000),
                    min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_legs_close_the_loop_at_parity_in_every_order(self, codes, values):
        # each currency's value in a common unit fixes every pair's mid, so
        # bid = ask = mid is exact parity: each direction's product is 1
        value = dict(zip(codes, values))
        for order in itertools.permutations(codes):
            spec = TriangleSpec(order)
            mid = {p: value[p.base] / value[p.quote] for p in spec.pairs}
            sides = {}
            for direction in Direction:
                legs = spec.legs(direction)
                assert sorted(p.name for p, _ in legs) == sorted(p.name for p in spec.pairs)
                product = Fraction(1)
                for pair, side in legs:
                    product *= mid[pair] if side is Side.BID else 1 / mid[pair]
                assert product == 1
                sides[direction] = dict(legs)
            assert all(sides[Direction.DIR1][p] is not sides[Direction.DIR2][p]
                       for p in spec.pairs)

    def test_market_convention_ordering(self):
        assert market_convention_pair("USD", "EUR") == ("EUR", "USD")
        assert market_convention_pair("JPY", "USD") == ("USD", "JPY")
        assert market_convention_pair("CHF", "USD") == ("USD", "CHF")

    def test_jpy_point_size_default(self):
        # point sizes are a synth setting; a pair without one gets the convention's
        from triarb.config import synth_config_from_json

        cfg = synth_config_from_json({
            "seed": 1,
            "currencies": "EUR,USD,JPY",
            "window": {"start": MONDAY, "end": MONDAY + 60},
            "pairs": {
                "EUR/USD": {"mid": 1.2065, "vol": 0.0, "spread_points": 2},
                "USD/JPY": {"mid": 115.72, "vol": 0.0, "spread_points": 2},
                "EUR/JPY": {"spread_points": 2},
            },
        })
        assert cfg.points == {
            "EUR/USD": Decimal("0.0001"), "USD/JPY": Decimal("0.01"), "EUR/JPY": Decimal("0.01")
        }

    def test_rejects_duplicate_currencies(self):
        with pytest.raises(ValueError, match="must be distinct"):
            TriangleSpec(("EUR", "EUR", "CHF"))


ORDER = "expected series for EUR/USD, USD/CHF, EUR/CHF in that order"


class TestAlignTriangle:
    """`compute_rate_products` checks the three series' pair order and their grid."""

    def setup_method(self):
        self.spec = TriangleSpec(("EUR", "USD", "CHF"))
        self.window = SeriesWindow(0, 10)

    def full_series(self, pair, bid="1.2", ask="1.21", skip=()):
        rows = [(t, bid, ask) for t in range(0, 10) if t not in skip]
        return load_rows(pair, self.window, rows)

    def test_gap_free_alignment(self):
        series = [self.full_series(p) for p in self.spec.pairs]
        gammas = compute_rate_products(series, self.spec)
        assert gammas.shape == (2, 10)
        assert gammas.all()

    def test_single_leg_missing_flagged(self):
        a = self.full_series(self.spec.pairs[0], skip={4})
        b = self.full_series(self.spec.pairs[1])
        c = self.full_series(self.spec.pairs[2])
        gammas = compute_rate_products((a, b, c), self.spec)
        assert a.missing.tolist() == [t == 4 for t in range(10)]
        assert not b.missing.any() and not c.missing.any()
        assert (gammas == 0.0).tolist() == [[t == 4 for t in range(10)]] * 2

    def test_random_gaps_match_direct_lookup(self):
        rng = np.random.default_rng(7)
        skips = [set(rng.choice(10, size=3, replace=False).tolist()) for _ in range(3)]
        series = [self.full_series(p, skip=s) for p, s in zip(self.spec.pairs, skips)]
        gammas = compute_rate_products(series, self.spec)
        for i, t in enumerate(series[0].window.grid_times().tolist()):
            for s, skip in zip(series, skips):
                assert s.missing[i] == (t in skip)
            assert (gammas[:, i] == 0.0).all() == any(t in skip for skip in skips)

    def test_window_mismatch_raises(self):
        a = self.full_series(self.spec.pairs[0])
        b = self.full_series(self.spec.pairs[1])
        c = load_rows(
            self.spec.pairs[2], SeriesWindow(0, 11), [(t, "1.2", "1.21") for t in range(11)]
        )
        with pytest.raises(AlignmentError, match="window mismatch"):
            compute_rate_products((a, b, c), self.spec)

    def test_missing_pair_raises(self):
        a, b, _ = (self.full_series(p) for p in self.spec.pairs)
        other = self.full_series(Pair("EUR", "JPY"))
        with pytest.raises(AlignmentError, match=ORDER + ", got EUR/USD, USD/CHF, EUR/JPY"):
            compute_rate_products((a, b, other), self.spec)

    def test_duplicate_pair_raises(self):
        a, b, _ = (self.full_series(p) for p in self.spec.pairs)
        with pytest.raises(AlignmentError, match=ORDER + ", got EUR/USD, USD/CHF, USD/CHF"):
            compute_rate_products((a, b, b), self.spec)
        with pytest.raises(AlignmentError, match=ORDER + ", got EUR/USD, USD/CHF$"):
            compute_rate_products((a, b), self.spec)

    def test_alignment_is_idempotent(self):
        # the inputs are left as they were: a second call gives the same array
        series = [self.full_series(p, skip={2}) for p in self.spec.pairs]
        copies = copy.deepcopy(series)
        first = compute_rate_products(series, self.spec)
        assert all(s == c for s, c in zip(series, copies))
        assert np.array_equal(compute_rate_products(series, self.spec), first)

    def test_permuted_order_raises(self):
        # the series come in spec.pairs order; every other order is refused
        series = [self.full_series(p) for p in self.spec.pairs]
        for order in list(itertools.permutations(series))[1:]:
            with pytest.raises(AlignmentError, match=ORDER):
                compute_rate_products(order, self.spec)
