"""Synthetic data generation: recoverable injections, liquidity profiles."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triarb.cli import main
from triarb.errors import SynthConfigError
from triarb.market_data import Direction, SeriesWindow
from triarb.opportunity import segment_opportunities
from triarb.rate_product import compute_rate_products
from triarb.synth import (
    OPEN_SESSIONS,
    Injections,
    SynthConfig,
    _validate_injections,
    generate,
    liquidity_preset,
    seasonal_injection_schedule,
)

import synth_reference as reference
from conftest import MONDAY, episode_rows, episodes, points

WEEKDAYS = frozenset({0, 1, 2, 3, 4})


def base_config(chf_triangle, injections=(), seed=42, hours=1, gap_rate=0.001):
    """A one-hour Monday config; `injections` are (start, duration, magnitude, direction) rows."""
    window = SeriesWindow(MONDAY, MONDAY + hours * 3600, WEEKDAYS)
    return SynthConfig(
        seed=seed,
        window=window,
        triangle=chf_triangle,
        points=points(chf_triangle),
        mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
        volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
        spread_points={p.name: tuple([2.0] * 24) for p in chf_triangle.pairs},
        gap_rate=tuple([gap_rate] * 24),
        injections=episodes(*injections),
    )


def detect(cfg, spec):
    a, b, c = generate(cfg)
    gammas = compute_rate_products((a, b, c), spec)
    ops = segment_opportunities(cfg.window.grid_times(), gammas)
    ops1, ops2 = ([o for o in ops if o.direction is d] for d in Direction)
    return ops1, ops2, gammas


class TestGenerate:
    def test_no_injections_no_opportunities(self, chf_triangle):
        cfg = base_config(chf_triangle, seed=1)
        ops1, ops2, _ = detect(cfg, chf_triangle)
        assert ops1 == [] and ops2 == []

    def test_single_injection_recovered_exactly(self, chf_triangle):
        cfg = base_config(chf_triangle, injections=[(MONDAY + 600, 3, 2.0, 1)], seed=2)
        ops1, ops2, _ = detect(cfg, chf_triangle)
        assert len(ops1) == 1 and ops2 == []
        got = ops1[0]
        assert got.start == MONDAY + 600
        assert got.run_length == 3
        assert got.magnitude_bp == pytest.approx(2.0, abs=0.05)

    def test_direction_two_injection(self, chf_triangle):
        cfg = base_config(chf_triangle, injections=[(MONDAY + 100, 2, 1.0, 2)], seed=3)
        ops1, ops2, _ = detect(cfg, chf_triangle)
        assert ops1 == []
        assert [(o.start, o.run_length) for o in ops2] == [(MONDAY + 100, 2)]

    def test_same_seed_is_bit_identical(self, chf_triangle):
        cfg = base_config(chf_triangle, seed=11)
        a1, b1, c1 = generate(cfg)
        a2, b2, c2 = generate(cfg)
        assert a1 == a2 and b1 == b2 and c1 == c2

    def test_different_seeds_differ(self, chf_triangle):
        a1, _, _ = generate(base_config(chf_triangle, seed=11))
        a2, _, _ = generate(base_config(chf_triangle, seed=12))
        assert a1 != a2

    def test_parity_discipline_everywhere(self, chf_triangle):
        cfg = base_config(chf_triangle, injections=[(MONDAY + 50, 2, 3.0, 1)], seed=4)
        _, _, (s1, s2) = detect(cfg, chf_triangle)
        both = (s1 > 0) & (s2 > 0)
        assert np.all((s1 * s2)[both] < 1.0)

    def test_gap_rate_produces_missing_seconds(self, chf_triangle):
        cfg = base_config(chf_triangle, seed=5, gap_rate=0.01)
        a, b, c = generate(cfg)
        total_missing = sum(np.count_nonzero(s.missing) for s in (a, b, c))
        expected = 3 * 3600 * 0.01
        assert 0.5 * expected < total_missing < 2 * expected

    def test_injection_survives_gap_draw(self, chf_triangle):
        # even at a high gap rate the injected seconds stay quoted
        cfg = base_config(chf_triangle, injections=[(MONDAY + 600, 5, 2.0, 1)], seed=6,
                          gap_rate=0.2)
        ops1, _, _ = detect(cfg, chf_triangle)
        assert [(o.start, o.run_length) for o in ops1] == [(MONDAY + 600, 5)]

    def test_coarse_point_grid_is_infeasible(self, chf_triangle):
        # conventional 4-digit points cannot land within 0.05 bp; both episodes
        # miss, and the error names the first one in list order, not in time
        for magnitude, reason in [
            (0.7, "point grid of EUR/CHF only reaches 0.5059 bp (target 0.7 +/- 0.05)"),
            (0.1, "rounding to EUR/CHF's point grid erases it"),
        ]:
            cfg = SynthConfig(
                seed=7,
                window=SeriesWindow(MONDAY, MONDAY + 3600, WEEKDAYS),
                triangle=chf_triangle,
                points=points(chf_triangle, "0.0001"),
                mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
                volatilities={"EUR/USD": 0.0, "USD/CHF": 0.0},
                spread_points={p.name: tuple([2.0] * 24) for p in chf_triangle.pairs},
                injections=episodes((MONDAY + 30, 2, magnitude, 2), (MONDAY + 10, 1, 0.7, 1)),
            )
            with pytest.raises(SynthConfigError) as err:
                generate(cfg)
            assert str(err.value) == (
                f"infeasible injection at t={MONDAY + 30} (duration_seconds 2, "
                f"magnitude_bp {magnitude}, direction 2): {reason}"
            )

    def test_overlapping_injections_rejected(self, chf_triangle):
        injections = [(MONDAY + 10, 3, 1.0, 1), (MONDAY + 12, 2, 1.0, 2)]
        with pytest.raises(SynthConfigError, match=f"overlap or touch near t={MONDAY + 12}"):
            base_config(chf_triangle, injections=injections)

    def test_injection_outside_window_rejected(self, chf_triangle):
        with pytest.raises(SynthConfigError, match=f"second {MONDAY + 7200} is outside"):
            base_config(chf_triangle, injections=[(MONDAY + 7200, 1, 1.0, 1)])

    def test_rotated_currency_order_still_recovers(self):
        # cycle CHF->USD->EUR->CHF: the direct pair enters direction 1 at its bid
        from triarb.market_data import TriangleSpec

        spec = TriangleSpec(("CHF", "USD", "EUR"))
        window = SeriesWindow(MONDAY, MONDAY + 3600, WEEKDAYS)
        cfg = SynthConfig(
            seed=31,
            window=window,
            triangle=spec,
            points=points(spec),
            mid_prices={"USD/CHF": 1.3030, "EUR/USD": 1.2065},
            volatilities={"USD/CHF": 2e-6, "EUR/USD": 2e-6},
            spread_points={p.name: tuple([2.0] * 24) for p in spec.pairs},
            injections=episodes((MONDAY + 40, 2, 1.5, 1), (MONDAY + 90, 1, 2.5, 2)),
        )
        ops1, ops2, _ = detect(cfg, spec)
        assert [(o.start, o.run_length) for o in ops1] == [(MONDAY + 40, 2)]
        assert [(o.start, o.run_length) for o in ops2] == [(MONDAY + 90, 1)]
        assert ops1[0].magnitude_bp == pytest.approx(1.5, abs=0.05)

    def test_many_injections_full_recall(self, chf_triangle):
        rng = np.random.default_rng(17)
        injections = []
        t = MONDAY + 30
        for _ in range(40):
            dur = int(rng.integers(1, 8))
            mag = float(rng.uniform(0.5, 8.0))
            direction = int(rng.integers(1, 3))
            injections.append((t, dur, round(mag, 2), direction))
            t += dur + int(rng.integers(2, 40))
        cfg = base_config(chf_triangle, injections=injections, seed=8)
        ops1, ops2, _ = detect(cfg, chf_triangle)
        recovered = {(o.start, o.run_length, o.direction.value) for o in ops1 + ops2}
        expected = {(start, dur, direction) for start, dur, _, direction in injections}
        assert recovered == expected


class TestBounds:
    # each bound keeps numpy's float arithmetic finite, for a config built in
    # Python as for one read from JSON
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("changes, message", [
        (lambda: {"mid_prices": {"EUR/USD": 1e308, "USD/CHF": 1.3030}},
         "pairs.EUR/USD.mid: expected a number at most 1e+18, got 1e+308"),
        (lambda: {"volatilities": {"EUR/USD": 2e-6, "USD/CHF": 1e308}},
         "pairs.USD/CHF.vol: expected a number at most 0.01, got 1e+308"),
        (lambda: {"injections": episodes((MONDAY + 60, 2, 1e300, 2))},
         "injections[0].magnitude_bp: expected a number at most 10000, got 1e+300"),
        # numpy's seeding would refuse it inside generate
        (lambda: {"seed": -1}, "seed: expected a non-negative integer, got -1"),
        (lambda: {"window": SeriesWindow(MONDAY - 2 * 86400, MONDAY, WEEKDAYS)},
         f"window {MONDAY - 2 * 86400}..{MONDAY} holds no second on its weekdays "
         "mon,tue,wed,thu,fri: its grid is empty"),
        (lambda: {"gap_rate": (0.0,) * 23 + (1.5,)}, "gap_rate must be 24 probabilities in [0, 1]"),
        (lambda: {"gap_rate": (-0.1,) + (0.0,) * 23}, "gap_rate must be 24 probabilities in [0, 1]"),
        (lambda: {"gap_rate": (0.0,) * 23}, "gap_rate must be 24 probabilities in [0, 1]"),
    ])
    def test_python_config_out_of_bounds(self, chf_triangle, changes, message):
        with pytest.raises(SynthConfigError) as err:
            generate(dataclasses.replace(base_config(chf_triangle), **changes()))
        assert str(err.value) == message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_schedule_magnitude_out_of_bounds(self):
        window = SeriesWindow(MONDAY, MONDAY + 3600, WEEKDAYS)
        with pytest.raises(SynthConfigError, match="at most 10000, got 1e[+]308"):
            seasonal_injection_schedule(seed=1, window=window, magnitude_range=(0.5, 1e308))

    def test_schedule_refuses_a_negative_seed(self):
        window = SeriesWindow(MONDAY, MONDAY + 3600, WEEKDAYS)
        with pytest.raises(SynthConfigError, match="^seed: expected a non-negative integer, got -1"):
            seasonal_injection_schedule(seed=-1, window=window)

    @pytest.mark.parametrize("row, message", [
        ((MONDAY, 0, 1.0, 1), "injections[1].duration_seconds: expected at least 1, got 0"),
        ((MONDAY, 1, -1.0, 1), "injections[1].magnitude_bp: expected a positive number, got -1.0"),
        ((MONDAY, 1, float("nan"), 1),
         "injections[1].magnitude_bp: expected a positive number, got nan"),
        ((MONDAY, 1, 1.0, 3), "injections[1].direction: expected 1 or 2, got 3"),
        ((MONDAY, 2**64, 1.0, 1), "injections.duration_seconds: a value is past 64 bits"),
    ])
    def test_injection_columns_checked(self, row, message):
        # the second row is the bad one, so each message names its index
        with pytest.raises(SynthConfigError) as err:
            episodes((MONDAY, 1, 1.0, 1), row)
        assert str(err.value) == message

    def test_injection_columns_of_one_length(self):
        with pytest.raises(SynthConfigError, match="of one length"):
            Injections([MONDAY], [1, 2], [1.0], [1])


class TestLiquidityPreset:
    def test_monotone_in_overlap(self):
        prof = liquidity_preset()
        assert prof.spread_points[14] < prof.spread_points[23]  # 2 open markets vs 1
        for h1 in range(24):
            for h2 in range(24):
                if OPEN_SESSIONS[h1] > OPEN_SESSIONS[h2]:
                    assert prof.spread_points[h1] < prof.spread_points[h2]
                    assert prof.gap_rate[h1] < prof.gap_rate[h2]


class TestSchedule:
    def test_rates_scale_with_overlap(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        injections = seasonal_injection_schedule(
            seed=3, window=window, base_rate_per_hour=2.0
        )
        counts = [0] * 24
        for start in injections.start.tolist():
            counts[(start % 86400) // 3600] += 1
        liquid = sum(counts[13:16])   # overlap 2
        quiet = counts[22] + counts[23] + counts[0]  # overlap 1
        assert liquid > quiet

    def test_durations_shorter_in_liquid_hours(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        injections = seasonal_injection_schedule(
            seed=4, window=window, base_rate_per_hour=3.0
        )
        hours = injections.start % 86400 // 3600
        liquid = injections.duration_seconds[(13 <= hours) & (hours <= 15)]
        quiet = injections.duration_seconds[np.isin(hours, (22, 23, 0))]
        assert np.mean(liquid) < np.mean(quiet)

    def test_schedule_is_valid_config(self, chf_triangle):
        window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
        injections = seasonal_injection_schedule(seed=5, window=window)
        cfg = SynthConfig(
            seed=5,
            window=window,
            triangle=chf_triangle,
            points=points(chf_triangle),
            mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
            volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
            spread_points={p.name: tuple([2.0] * 24) for p in chf_triangle.pairs},
            injections=injections,
        )
        assert len(cfg.injections) > 10

    def test_deterministic(self):
        window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
        s1 = seasonal_injection_schedule(seed=6, window=window)
        s2 = seasonal_injection_schedule(seed=6, window=window)
        assert episode_rows(s1) == episode_rows(s2)


class TestInjectionsJson:
    def test_round_trip(self, tmp_path):
        injections = [(MONDAY + 5, 3, 2.5, 1), (MONDAY + 20, 1, 0.5, 2)]
        payload = {
            "seed": 4,
            "window": {"start": MONDAY, "end": MONDAY + 60},
            "pairs": {
                "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
                "USD/CHF": {"mid": 1.3030, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
                "EUR/CHF": {"point": "0.00001", "spread_points": 2},
            },
            "injections": [
                {"start": start, "duration_seconds": dur, "magnitude_bp": mag, "direction": d}
                for start, dur, mag, d in injections
            ],
        }
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "data"
        assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(out)]) == 0
        with open(out / "injections.json") as fh:
            written = json.load(fh)
        assert written == payload["injections"]
        assert episode_rows(episodes(*(
            (d["start"], d["duration_seconds"], d["magnitude_bp"], d["direction"]) for d in written
        ))) == injections


@st.composite
def windows(draw, max_span):
    """A window from a random second of two weeks, often near a midnight, over
    a random set of weekdays."""
    day = draw(st.integers(0, 13))
    second = draw(st.integers(0, 86_399) | st.integers(86_400 - 7200, 86_399))
    start = MONDAY + day * 86_400 + second
    days, seconds = divmod(max_span - 1, 86_400)  # each number of whole days as likely
    span = draw(st.sampled_from(range(days + 1))) * 86_400 + draw(st.integers(1, seconds + 1))
    every = frozenset(range(7))
    weekdays = (st.just(every) | st.integers(0, 6).map(lambda excluded: every - {excluded})
                | st.frozensets(st.integers(0, 6), min_size=1))
    return SeriesWindow(start, start + span, draw(weekdays))


# the reference walks one object per candidate, so the window shrinks as the rate grows
MAX_SPAN = {0.2: 3 * 86_400, 1.0: 3 * 86_400, 12.0: 86_400, 600.0: 8 * 3600, 3600.0: 2 * 3600}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), rate=st.sampled_from(sorted(MAX_SPAN)),
       lo=st.floats(0.01, 5.0), width=st.floats(0.0, 5.0))
def test_schedule_matches_reference(data, seed, rate, lo, width):
    window = data.draw(windows(MAX_SPAN[rate]))
    expected = reference.seasonal_injection_schedule(seed, window, rate, (lo, lo + width))
    got = seasonal_injection_schedule(seed, window, rate, (lo, lo + width))
    assert episode_rows(got) == expected


@st.composite
def episode_sets(draw, window):
    """One to six episodes, each from and to a second inside the window, or near
    one of its ends, a midnight, an edge of a gap in its grid or the end of the
    episode before."""
    grid = window.grid_times()
    gap = np.flatnonzero(np.diff(grid) > 1)
    edges = [window.start, window.end, *range(window.start // 86_400 * 86_400, window.end, 86_400),
             *grid[gap].tolist(), *grid[gap + 1].tolist()]
    inside = st.integers(window.start, window.end - 1)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        ends = [rows[-1][0] + rows[-1][1]] if rows else []
        near = st.tuples(st.sampled_from(edges + ends), st.integers(-3, 3)).map(sum)
        start = draw(inside | near)
        last = draw(st.integers(start, start + 4) | near.map(lambda t: max(t, start)))
        rows.append((start, last - start + 1, 1.0, 1))
    return rows


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validation_matches_reference(data):
    window = data.draw(windows(9 * 86_400))
    rows = data.draw(episode_sets(window))

    def outcome(validate, injections):
        try:
            validate(injections, window)
        except SynthConfigError as err:
            return str(err)
        return None

    expected = outcome(reference.validate_injections, [reference.Episode(*r) for r in rows])
    assert outcome(_validate_injections, episodes(*rows)) == expected
