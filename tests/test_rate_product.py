"""Rate-product computation against exact-arithmetic oracles."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triarb.market_data import Direction, PairSeries, SeriesWindow, Side, TriangleSpec
from triarb.rate_product import compute_rate_products, leg_rate

from conftest import load_rows


def triangle(a="EUR", b="USD", c="CHF"):
    return TriangleSpec((a, b, c))


def tick_series(spec, rows_by_pair, window):
    return [load_rows(pair, window, rows_by_pair[pair.name]) for pair in spec.pairs]


def single_second(spec, prices):
    """prices: {pair_name: (bid, ask)} for one grid second at t=0."""
    window = SeriesWindow(0, 1)
    rows = {name: [(0, b, a)] for name, (b, a) in prices.items()}
    return tick_series(spec, rows, window)


class TestWorkedExample:
    def test_jpy_example_to_nine_decimals(self):
        spec = triangle("EUR", "USD", "JPY")
        series = single_second(
            spec,
            {
                "EUR/USD": ("1.2065", "1.2066"),
                "USD/JPY": ("115.72", "115.73"),
                "EUR/JPY": ("139.59", "139.60"),
            },
        )
        s1, _ = compute_rate_products(series, spec)
        assert s1[0] == pytest.approx(1.000115903, abs=0.5e-9)

    def test_parity_with_zero_spread_gives_one(self):
        spec = triangle()
        series = single_second(
            spec,
            {
                "EUR/USD": ("1.2", "1.2"),
                "USD/CHF": ("1.0", "1.0"),
                "EUR/CHF": ("1.2", "1.2"),
            },
        )
        s1, s2 = compute_rate_products(series, spec)
        assert s1[0] == pytest.approx(1.0, rel=1e-12)
        assert s2[0] == pytest.approx(1.0, rel=1e-12)

    def test_missing_leg_zeroes_both_directions(self):
        spec = triangle()
        window = SeriesWindow(0, 2)
        rows = {
            "EUR/USD": [(0, "1.2", "1.21"), (1, "1.2", "1.21")],
            "USD/CHF": [(0, "1.3", "1.31")],  # missing at t=1
            "EUR/CHF": [(0, "1.56", "1.57"), (1, "1.56", "1.57")],
        }
        series = tick_series(spec, rows, window)
        s1, s2 = compute_rate_products(series, spec)
        assert s1[1] == 0.0
        assert s2[1] == 0.0
        assert s1[0] > 0.0


def masked_rate_products(series, spec):
    """Both directions' rate products by the masked formula: each leg's rate with
    1.0 put in at its missing seconds, and zero wherever any leg is missing."""
    by_pair = dict(zip(spec.pairs, series))
    any_missing = np.logical_or.reduce([s.bid_m == 0 for s in series])
    gammas = np.ones((2, len(series[0])))
    for gamma, direction in zip(gammas, Direction):
        for pair, side in spec.legs(direction):
            s = by_pair[pair]
            price = (s.bid_m if side is Side.BID else s.ask_m) / 10.0**s.scale
            price[s.bid_m == 0] = 1.0
            gamma *= price if side is Side.BID else 1.0 / price
    gammas[:, any_missing] = 0.0
    return gammas


@st.composite
def gapped_triangle(draw):
    """Three series of the tick grammar on one window, each with random gaps."""
    spec = triangle()
    n = draw(st.integers(1, 30))
    window = SeriesWindow(0, n)
    mantissa = st.one_of(st.integers(1, 10**6), st.integers(1, 10**18 - 1))
    series = []
    for pair in spec.pairs:
        bid = np.array(draw(st.lists(mantissa, min_size=n, max_size=n)), dtype=np.int64)
        ask = np.array(draw(st.lists(mantissa, min_size=n, max_size=n)), dtype=np.int64)
        gap = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        bid[gap] = ask[gap] = 0
        series.append(PairSeries(pair, window, bid, ask, draw(st.integers(0, 17))))
    return spec, series


class TestMissingSeconds:
    @given(gapped_triangle())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # 1/0 at a missing ask fails
    def test_zero_legs_match_the_masked_formula_bit_for_bit(self, case):
        spec, series = case
        gammas = compute_rate_products(series, spec)
        assert gammas.tobytes() == masked_rate_products(series, spec).tobytes()
        assert np.array_equal(gammas[0] == 0, np.logical_or.reduce([s.missing for s in series]))


class TestOracleAgreement:
    def test_random_triples_match_fraction_oracle(self):
        spec = triangle()
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            bids = rng.uniform(0.5, 150.0, size=3)
            spreads = rng.uniform(1e-5, 1e-2, size=3)
            prices = {}
            for pair, b, s in zip(spec.pairs, bids, spreads):
                prices[pair.name] = (round(b, 6), round(b + s, 6))
            series = single_second(spec, prices)
            gammas = compute_rate_products(series, spec)
            for gamma, direction in zip(gammas, Direction):
                exact = Fraction(1)
                for pair, side in spec.legs(direction):
                    b, a = prices[pair.name]
                    exact *= (
                        Fraction(str(b)) if side.value == "bid" else 1 / Fraction(str(a))
                    )
                assert abs(gamma[0] - float(exact)) <= 1e-12 * float(exact)


def quote_strategy():
    ticks = st.integers(min_value=1000, max_value=2_000_000)
    spread = st.integers(min_value=0, max_value=500)
    return st.tuples(ticks, spread).map(
        lambda ts: (Decimal(ts[0]).scaleb(-4), Decimal(ts[0] + ts[1]).scaleb(-4))
    )


class TestProperties:
    @given(quote_strategy(), quote_strategy(), quote_strategy())
    @settings(max_examples=60, deadline=None)
    def test_zero_spread_parity_product(self, q1, q2, q3):
        # with bid == ask on all pairs, the two directions are exact inverses
        spec = triangle()
        prices = {
            "EUR/USD": (q1[0], q1[0]),
            "USD/CHF": (q2[0], q2[0]),
            "EUR/CHF": (q3[0], q3[0]),
        }
        series = single_second(spec, prices)
        s1, s2 = compute_rate_products(series, spec)
        assert s1[0] * s2[0] == pytest.approx(1.0, rel=1e-12)

    @given(quote_strategy(), quote_strategy())
    @settings(max_examples=60, deadline=None)
    def test_positive_spread_exact_parity_mids_below_one(self, q1, q2):
        # cross mid = product of mids; all spreads strictly positive
        spec = triangle()
        b1 = q1[0]
        b2 = q2[0]
        cross = (b1 * b2).quantize(Decimal("0.000001"))
        prices = {
            "EUR/USD": (b1 - Decimal("0.0001"), b1 + Decimal("0.0001")),
            "USD/CHF": (b2 - Decimal("0.0001"), b2 + Decimal("0.0001")),
            "EUR/CHF": (cross - Decimal("0.0001"), cross + Decimal("0.0001")),
        }
        if any(b <= 0 for b, _ in prices.values()):
            return
        series = single_second(spec, prices)
        s1, s2 = compute_rate_products(series, spec)
        assert s1[0] < 1.0
        assert s2[0] < 1.0

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_widening_ask_never_raises_gamma(self, widen_ticks):
        spec = triangle()
        base = {
            "EUR/USD": ("1.2065", "1.2067"),
            "USD/CHF": ("1.3030", "1.3032"),
            "EUR/CHF": ("1.5723", "1.5725"),
        }
        widened = dict(base)
        widened["EUR/CHF"] = (
            base["EUR/CHF"][0],
            str(Decimal(base["EUR/CHF"][1]) + Decimal(widen_ticks).scaleb(-4)),
        )
        g_base = compute_rate_products(single_second(spec, base), spec)
        g_wide = compute_rate_products(single_second(spec, widened), spec)
        assert g_wide[0, 0] <= g_base[0, 0]  # dir1 uses 1/ask(EUR/CHF)
        assert g_wide[1, 0] == g_base[1, 0]  # dir2 uses its bid only

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_raising_bid_never_lowers_gamma(self, raise_ticks):
        spec = triangle()
        base = {
            "EUR/USD": ("1.2065", "1.2067"),
            "USD/CHF": ("1.3030", "1.3032"),
            "EUR/CHF": ("1.5723", "1.5725"),
        }
        raised = dict(base)
        raised["EUR/USD"] = (
            str(Decimal(base["EUR/USD"][0]) + Decimal(raise_ticks).scaleb(-4)),
            base["EUR/USD"][1],
        )
        g_base = compute_rate_products(single_second(spec, base), spec)
        g_raised = compute_rate_products(single_second(spec, raised), spec)
        assert g_raised[0, 0] >= g_base[0, 0]


class TestScaleFreePrices:
    def test_extra_precise_tick_leaves_other_gammas_alone(self):
        # 300 seconds quoted at 5 dp; one more tick at 7 dp raises EUR/USD's
        # scale to 7, and every gamma of the 5 dp seconds stays bit-identical
        spec = triangle()
        rng = np.random.default_rng(77)
        n = 300
        mids = {"EUR/USD": 120_650, "USD/CHF": 130_300, "EUR/CHF": 157_200}
        rows = {}
        for name, mid in mids.items():
            bids = mid + rng.integers(-5000, 5000, size=n)
            rows[name] = [(t, f"{b / 1e5:.5f}", f"{(b + 3) / 1e5:.5f}")
                          for t, b in enumerate(bids.tolist())]
        five = compute_rate_products(tick_series(spec, rows, SeriesWindow(0, n + 1)), spec)
        rows["EUR/USD"] = rows["EUR/USD"] + [(n, "1.2065001", "1.2065301")]
        seven_series = tick_series(spec, rows, SeriesWindow(0, n + 1))
        assert [s.scale for s in seven_series] == [7, 5, 5]
        seven = compute_rate_products(seven_series, spec)
        assert np.array_equal(five[:, :n], seven[:, :n])

    # (extra places, a mantissa whose finer form still lies below 2**53)
    @given(st.integers(1, 7).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(1, (2**53 - 1) // 10**k))),
        st.integers(0, 15))
    @settings(max_examples=200, deadline=None)
    def test_price_does_not_depend_on_scale(self, extra_and_mantissa, scale):
        # the same price written with `extra` more decimal places gives the same rate
        extra, mantissa = extra_and_mantissa

        def series(m, s):
            mantissas = np.array([m], dtype=np.int64)
            return PairSeries(triangle().pairs[0], SeriesWindow(0, 1), mantissas, mantissas, s)

        coarse, fine = series(mantissa, scale), series(mantissa * 10**extra, scale + extra)
        for side in Side:
            assert leg_rate(coarse, side)[0] == leg_rate(fine, side)[0]


class TestSeriesShape:
    def test_direction_coverage_every_second_once(self):
        spec = triangle()
        window = SeriesWindow(0, 50)
        rows = {p.name: [(t, "1.2", "1.21") for t in range(0, 50, 2)] for p in spec.pairs}
        series = tick_series(spec, rows, window)
        gammas = compute_rate_products(series, spec)
        assert gammas.shape == (2, 50)
        assert gammas.dtype == np.float64
        assert not gammas[:, 1::2].any()  # odd seconds carry no quote
        assert gammas[:, ::2].all()
