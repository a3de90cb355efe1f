"""Tick loading and writing, grid construction, and triangle alignment."""

import copy
import itertools
import tempfile
import warnings
from datetime import datetime, timezone
from decimal import Decimal
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
)
from triarb import market_data
from triarb.market_data import (
    Pair,
    PairSeries,
    SeriesWindow,
    Side,
    TriangleSpec,
    load_pair_series,
    market_convention_pair,
    parse_iso_timestamp,
    write_pair_series_csv,
)
from triarb.rate_product import compute_rate_products

import loader_reference as reference
from conftest import MONDAY, load_rows, write_rows

EURUSD = Pair("EUR", "USD")


class TestLoadPairSeries:
    def test_exact_grid_cover(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2065", "1.2067"), (1, "1.2066", "1.2068"), (2, "1.2064", "1.2066")])
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert len(series) == 3
        assert series.n_missing == 0
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
        path = tmp_path / "ticks.csv"
        bad = (1, value, "1.2067") if field == "bid" else (1, "1.2065", value)
        write_rows(path, [(0, "1.2065", "1.2067"), bad])
        with pytest.raises(TickParseError, match="non-finite price") as err:
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
             ("1970-01-01T00:00:02+00:00", "1.2066", "1.2068")],
        )
        series = load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert series.missing.tolist() == [False, True, False]
        assert (series.bid_m[0], series.bid_m[2], series.scale) == (12065, 12066, 4)

    def test_iso_fraction_truncates_exactly(self, tmp_path):
        # toward zero, without a float: a late 6-digit fraction stays in its second
        assert parse_iso_timestamp("9999-12-31T23:59:59.999999") == 253402300799
        assert parse_iso_timestamp("1969-12-31T23:59:59.5") == 0
        path = tmp_path / "ticks.csv"
        write_rows(path, [("9999-12-31T23:59:58.5Z", "1.2065", "1.2067"),
                          ("9999-12-31T23:59:59.999999", "1.2066", "1.2068")])
        series = load_pair_series(path, EURUSD, SeriesWindow(253402300798, 253402300800))
        assert series.bid_m.tolist() == [12065, 12066]

    def test_crossed_quote_warns_but_loads(self, tmp_path):
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2070", "1.2067")])
        with pytest.warns(CrossedQuoteWarning):
            series = load_pair_series(path, EURUSD, SeriesWindow(0, 1))
        assert (series.bid_m[0], series.ask_m[0]) == (12070, 12067)

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
        # 23 decimal places put every mantissa of the file past int64
        path = tmp_path / "ticks.csv"
        for rows, line_no in (
            ([(0, "1.00000000000000000000001", "1.2068")], 2),
            ([(0, "1.2065", "1.2067"), (1, "1.00000000000000000000001", "1.2068")], 2),
            ([(0, "1.2065", "1.2067"), (1, "1.2066", "100000000000000000000")], 3),
        ):
            write_rows(path, rows)
            with pytest.raises(TickParseError) as err:
                load_pair_series(path, EURUSD, SeriesWindow(0, 3))
            assert err.value.line_no == line_no
            assert "int64" in str(err.value)

    @pytest.mark.parametrize("row, message", [
        (b"1_000,1.2066,1.2068", "bad timestamp"),
        (b"1,1.2_066,1.2068", "bad price"),
        (b'1,1.2066,"1.2068', "unbalanced quote"),
        (b"1,1.2066,1.2068\xff", "not UTF-8"),
    ])
    def test_rejected_row_names_line(self, tmp_path, row, message):
        # int and Decimal read underscores; csv and the text decoder fail without a line
        path = tmp_path / "ticks.csv"
        path.write_bytes(b"timestamp,bid,ask\n0,1.2065,1.2067\n" + row + b"\n2,1.2,1.3\n")
        with pytest.raises(TickParseError, match=message) as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    @pytest.mark.parametrize("stamp", ["1970-02-30T00:00:00Z", "1970-01-01T24:00:00.000"])
    def test_impossible_iso_time_names_line(self, tmp_path, stamp):
        path = tmp_path / "ticks.csv"
        write_rows(path, [("1970-01-01T00:00:00", "1.2065", "1.2067"), (stamp, "1.2", "1.3")])
        with pytest.raises(TickParseError, match="bad timestamp") as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    def test_line_longer_than_a_block_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market_data, "BLOCK_BYTES", 64)
        path = tmp_path / "ticks.csv"
        write_rows(path, [(0, "1.2065", "1.2067"), (1, " " * 100 + "1.2", "1.3")])
        with pytest.raises(TickParseError, match="line longer than 64 bytes") as err:
            load_pair_series(path, EURUSD, SeriesWindow(0, 3))
        assert err.value.line_no == 3

    def test_roundtrip_through_writer(self, tmp_path):
        # 5 at scale 7 is written in str(Decimal)'s exponent notation
        window = SeriesWindow(7, 10)
        series = PairSeries(
            EURUSD, window,
            np.array([12065000, 0, 5], dtype=np.int64),
            np.array([12067000, 0, 12068000], dtype=np.int64),
            np.array([False, True, False]), 7,
        )
        path = tmp_path / "ticks.csv"
        write_pair_series_csv(path, series)
        assert path.read_text() == "timestamp,bid,ask\n7,1.2065000,1.2067000\n9,5E-7,1.2068000\n"
        assert load_pair_series(path, EURUSD, window) == series


@st.composite
def pair_series(draw):
    """A random grid series: mantissas down to E-notation size, scales 0-8, gaps."""
    n = draw(st.integers(min_value=1, max_value=20))
    start = draw(st.integers(min_value=0, max_value=10**9))
    window = SeriesWindow(start, start + n)
    mantissa = st.one_of(st.integers(1, 99), st.integers(1, 2**62))
    spread = st.one_of(st.integers(0, 99), st.integers(0, 2**62 - 1))
    bid = np.array(draw(st.lists(mantissa, min_size=n, max_size=n)), dtype=np.int64)
    ask = bid + np.array(draw(st.lists(spread, min_size=n, max_size=n)), dtype=np.int64)
    missing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    missing[draw(st.integers(0, n - 1))] = False  # at least one quoted second
    bid[missing] = 0
    ask[missing] = 0
    scale = draw(st.integers(min_value=0, max_value=8))
    return PairSeries(EURUSD, window, bid, ask, missing, scale)


@given(pair_series(), st.integers(min_value=64, max_value=1024))
@settings(max_examples=200, deadline=None)
def test_writer_loader_roundtrip(series, block_bytes):
    # small blocks (but longer than a line) make the writer emit several chunks
    # and the loader carry lines
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "ticks.csv"
        expected = Path(tmp) / "reference.csv"
        write_pair_series_csv(path, series)
        reference.write_pair_series_csv(expected, series)
        assert path.read_bytes() == expected.read_bytes()
        assert load_pair_series(path, EURUSD, series.window) == series


def _price_text(draw, hostile):
    """A positive decimal in one of the spellings Decimal accepts."""
    m = draw(st.integers(1, 10**7))
    p = draw(st.integers(0, 7))
    plain = f"{m // 10**p}.{m % 10**p:0{p}d}" if p else str(m)
    spellings = [plain, plain, plain + "00" if p else plain + ".00", plain.lstrip("0"),
                 f"{m}E-{p}", f"{m}e-{p + 1}", f"+{plain}", f"00{plain}", f"{m}E+2"]
    if hostile:
        spellings += [f"{m}E-{p + 20}", "0", "0.000", "-1.2", "x", "NaN", "Infinity", "", "1.2.3",
                      "1.00000000000000000000001", "99999999999999999999"]
    return draw(st.sampled_from(spellings))


def _timestamp_text(draw, t, iso):
    if not iso:
        signed = [f"+{t}", f"0{t}"] if t >= 0 else [f" {t}"]
        return draw(st.sampled_from([str(t), *signed]))
    text = datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    millis, micros = draw(st.integers(0, 999)), draw(st.integers(0, 999_999))
    return text + draw(st.sampled_from(
        ["", "Z", f".{millis:03d}", f".{millis:03d}Z", f".{micros:06d}", "+00:00", "z"]
    ))


def _decorated(draw, text):
    return draw(st.sampled_from([text, text, text, f" {text}", f"{text}\t", f'"{text}"',
                                 f'" {text} "']))


@st.composite
def tick_files(draw):
    """(file text, window): tick rows around a weekend, before or after 1970,
    in epoch or ISO form, with blank lines, CRLF, quotes, whitespace and
    mixed price spellings; `hostile` files also hold bad values, wrong field
    counts, decreasing timestamps and a truncated last row."""
    iso, hostile = draw(st.booleans()), draw(st.booleans())
    base = draw(st.sampled_from([MONDAY - 5, -3 * 86400 - 5, 1_772_956_795]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    t = base
    lines = ["timestamp,bid,ask"]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        t += draw(st.sampled_from([0, 1, 1, 1, 2, 3] + ([-1] if hostile else [])))
        fields = [_timestamp_text(draw, t, iso), _price_text(draw, hostile),
                  _price_text(draw, hostile)]
        if hostile and draw(st.integers(0, 19)) == 0:
            fields = fields[:draw(st.integers(1, 4))] + ["1.3"]
        lines.append(",".join(_decorated(draw, f) for f in fields))
    text = eol.join(lines) + eol
    if hostile and draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
        text += '"' * (text.count('"') % 2)  # the reference reads an open quote to the end
    start = base + draw(st.integers(-3, 12))
    weekdays = draw(st.one_of(st.none(), st.frozensets(st.integers(0, 6), min_size=1)))
    return text, SeriesWindow(start, start + draw(st.integers(1, 40)), weekdays)


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


@given(tick_files(), st.integers(min_value=100, max_value=200))
@settings(max_examples=300, deadline=None)
def test_loader_matches_reference(case, block_bytes):
    # blocks of 100-200 bytes hold a few rows, so most files have rows that straddle two
    text, window = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "ticks.csv"
        path.write_bytes(text.encode())
        expected = _outcome(reference.load_pair_series, path, window)
        assert _outcome(load_pair_series, path, window) == expected


class TestSeriesWindow:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            SeriesWindow(10, 10)

    def test_grid_length_matches_seconds(self):
        assert SeriesWindow(0, 3600).grid_times().size == 3600

    def test_days_enumeration(self):
        w = SeriesWindow(MONDAY, MONDAY + 3 * 86400, frozenset({0, 1, 2, 3, 4}))
        days = w.days()
        assert len(days) == 3
        assert days[0].isoweekday() == 1


class TestTriangleSpec:
    def test_chf_triangle_reproduces_leg_recipes(self):
        spec = TriangleSpec.from_currencies("EUR", "USD", "CHF")
        assert [(p.name, s) for p, s in spec.legs_dir1] == [
            ("EUR/USD", Side.BID),
            ("USD/CHF", Side.BID),
            ("EUR/CHF", Side.INV_ASK),
        ]
        assert sorted((p.name, s.value) for p, s in spec.legs_dir2) == [
            ("EUR/CHF", "bid"),
            ("EUR/USD", "inv_ask"),
            ("USD/CHF", "inv_ask"),
        ]

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
        spec = TriangleSpec.from_currencies("EUR", "USD", "CHF")
        with pytest.raises(ValueError):
            TriangleSpec(currencies=("EUR", "EUR", "CHF"), pairs=spec.pairs)


class TestAlignTriangle:
    """`compute_rate_products` aligns the three series by pair and checks their grid."""

    def setup_method(self):
        self.spec = TriangleSpec.from_currencies("EUR", "USD", "CHF")
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
        with pytest.raises(AlignmentError, match="missing series for pair EUR/CHF"):
            compute_rate_products((a, b, other), self.spec)

    def test_duplicate_pair_raises(self):
        a, b, _ = (self.full_series(p) for p in self.spec.pairs)
        with pytest.raises(AlignmentError, match="three distinct pairs"):
            compute_rate_products((a, b, b), self.spec)
        with pytest.raises(AlignmentError, match="three distinct pairs"):
            compute_rate_products((a, b), self.spec)

    def test_alignment_is_idempotent(self):
        # the inputs are left as they were: a second call gives the same array
        series = [self.full_series(p, skip={2}) for p in self.spec.pairs]
        copies = copy.deepcopy(series)
        first = compute_rate_products(series, self.spec)
        assert all(s == c for s, c in zip(series, copies))
        assert np.array_equal(compute_rate_products(series, self.spec), first)

    def test_order_independent_of_argument_order(self):
        rng = np.random.default_rng(3)
        series = [
            self.full_series(p, bid=bid, ask=ask, skip={int(rng.integers(10))})
            for p, bid, ask in zip(self.spec.pairs, ("1.2065", "1.3030", "1.5721"),
                                    ("1.2067", "1.3032", "1.5723"))
        ]
        expected = compute_rate_products(series, self.spec)
        for order in itertools.permutations(series):
            assert np.array_equal(compute_rate_products(order, self.spec), expected)
