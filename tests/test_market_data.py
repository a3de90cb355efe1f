"""Tick loading and writing, grid construction, and triangle alignment."""

import copy
import itertools
import tempfile
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
from triarb.market_data import (
    Pair,
    PairSeries,
    SeriesWindow,
    Side,
    TriangleSpec,
    load_pair_series,
    market_convention_pair,
    write_pair_series_csv,
)
from triarb.rate_product import compute_rate_products

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
        assert series.times[0] == MONDAY

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

    def test_roundtrip_through_writer(self, tmp_path):
        # 5 at scale 7 is written in str(Decimal)'s exponent notation
        window = SeriesWindow(7, 10)
        series = PairSeries(
            EURUSD, window, window.grid_times(),
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
    return PairSeries(EURUSD, window, window.grid_times(), bid, ask, missing, scale)


@given(pair_series())
@settings(max_examples=200, deadline=None)
def test_writer_loader_roundtrip(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ticks.csv"
        write_pair_series_csv(path, series)
        assert load_pair_series(path, EURUSD, series.window) == series


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
        assert Pair("EUR", "JPY").point_size == Decimal("0.01")
        assert Pair("EUR", "USD").point_size == Decimal("0.0001")

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
        for i, t in enumerate(series[0].times.tolist()):
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
