"""Synthetic data generation: recoverable injections, liquidity profiles."""

import json

import numpy as np
import pytest

from triarb.cli import main
from triarb.errors import SynthConfigError
from triarb.market_data import Direction, SeriesWindow
from triarb.opportunity import segment_opportunities
from triarb.rate_product import compute_rate_products
from triarb.seasonal import SessionTable, overlap_by_hour
from triarb.synth import (
    InjectionSpec,
    SynthConfig,
    generate,
    liquidity_preset,
    seasonal_injection_schedule,
)

from conftest import MONDAY

WEEKDAYS = frozenset({0, 1, 2, 3, 4})


def base_config(fine_chf_triangle, injections=(), seed=42, hours=1, gap_rate=0.001):
    window = SeriesWindow(MONDAY, MONDAY + hours * 3600, WEEKDAYS)
    return SynthConfig(
        seed=seed,
        window=window,
        triangle=fine_chf_triangle,
        mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
        volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
        spread_points={p.name: tuple([2.0] * 24) for p in fine_chf_triangle.pairs},
        gap_rate=tuple([gap_rate] * 24),
        injections=tuple(injections),
    )


def detect(cfg, spec):
    a, b, c, _ = generate(cfg)
    gammas = compute_rate_products((a, b, c), spec)
    ops = segment_opportunities(cfg.window.grid_times(), gammas)
    ops1, ops2 = ([o for o in ops if o.direction is d] for d in Direction)
    return ops1, ops2, gammas


class TestGenerate:
    def test_no_injections_no_opportunities(self, fine_chf_triangle):
        cfg = base_config(fine_chf_triangle, seed=1)
        ops1, ops2, _ = detect(cfg, fine_chf_triangle)
        assert ops1 == [] and ops2 == []

    def test_single_injection_recovered_exactly(self, fine_chf_triangle):
        inj = InjectionSpec(MONDAY + 600, 3, 2.0, Direction.DIR1)
        cfg = base_config(fine_chf_triangle, injections=[inj], seed=2)
        ops1, ops2, _ = detect(cfg, fine_chf_triangle)
        assert len(ops1) == 1 and ops2 == []
        got = ops1[0]
        assert got.start == inj.start
        assert got.run_length == 3
        assert got.magnitude_bp == pytest.approx(2.0, abs=0.05)

    def test_direction_two_injection(self, fine_chf_triangle):
        inj = InjectionSpec(MONDAY + 100, 2, 1.0, Direction.DIR2)
        cfg = base_config(fine_chf_triangle, injections=[inj], seed=3)
        ops1, ops2, _ = detect(cfg, fine_chf_triangle)
        assert ops1 == []
        assert [(o.start, o.run_length) for o in ops2] == [(inj.start, 2)]

    def test_same_seed_is_bit_identical(self, fine_chf_triangle):
        cfg = base_config(fine_chf_triangle, seed=11)
        a1, b1, c1, _ = generate(cfg)
        a2, b2, c2, _ = generate(cfg)
        assert a1 == a2 and b1 == b2 and c1 == c2

    def test_different_seeds_differ(self, fine_chf_triangle):
        a1, _, _, _ = generate(base_config(fine_chf_triangle, seed=11))
        a2, _, _, _ = generate(base_config(fine_chf_triangle, seed=12))
        assert a1 != a2

    def test_parity_discipline_everywhere(self, fine_chf_triangle):
        inj = InjectionSpec(MONDAY + 50, 2, 3.0, Direction.DIR1)
        cfg = base_config(fine_chf_triangle, injections=[inj], seed=4)
        _, _, (s1, s2) = detect(cfg, fine_chf_triangle)
        both = (s1 > 0) & (s2 > 0)
        assert np.all((s1 * s2)[both] < 1.0)

    def test_gap_rate_produces_missing_seconds(self, fine_chf_triangle):
        cfg = base_config(fine_chf_triangle, seed=5, gap_rate=0.01)
        a, b, c, _ = generate(cfg)
        total_missing = a.n_missing + b.n_missing + c.n_missing
        expected = 3 * 3600 * 0.01
        assert 0.5 * expected < total_missing < 2 * expected

    def test_injection_survives_gap_draw(self, fine_chf_triangle):
        # even at a high gap rate the injected seconds stay quoted
        inj = InjectionSpec(MONDAY + 600, 5, 2.0, Direction.DIR1)
        cfg = base_config(fine_chf_triangle, injections=[inj], seed=6, gap_rate=0.2)
        ops1, _, _ = detect(cfg, fine_chf_triangle)
        assert [(o.start, o.run_length) for o in ops1] == [(inj.start, 5)]

    def test_coarse_point_grid_is_infeasible(self, chf_triangle):
        # conventional 4-digit points cannot land within 0.05 bp
        cfg = dict(
            seed=7,
            window=SeriesWindow(MONDAY, MONDAY + 3600, WEEKDAYS),
            triangle=chf_triangle,
            mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
            volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
            spread_points={p.name: tuple([2.0] * 24) for p in chf_triangle.pairs},
            injections=(InjectionSpec(MONDAY + 10, 1, 0.7, Direction.DIR1),),
        )
        with pytest.raises(SynthConfigError):
            generate(SynthConfig(**cfg))

    def test_overlapping_injections_rejected(self, fine_chf_triangle):
        injections = [
            InjectionSpec(MONDAY + 10, 3, 1.0, Direction.DIR1),
            InjectionSpec(MONDAY + 12, 2, 1.0, Direction.DIR2),
        ]
        with pytest.raises(SynthConfigError):
            base_config(fine_chf_triangle, injections=injections)

    def test_injection_outside_window_rejected(self, fine_chf_triangle):
        with pytest.raises(SynthConfigError):
            base_config(
                fine_chf_triangle,
                injections=[InjectionSpec(MONDAY + 7200, 1, 1.0, Direction.DIR1)],
            )

    def test_rotated_currency_order_still_recovers(self):
        # cycle CHF->USD->EUR->CHF: the direct pair enters direction 1 at its bid
        from decimal import Decimal

        from triarb.market_data import Pair, TriangleSpec

        base = TriangleSpec.from_currencies("CHF", "USD", "EUR")
        spec = TriangleSpec(
            currencies=base.currencies,
            pairs=tuple(Pair(p.base, p.quote, Decimal("0.00001")) for p in base.pairs),
        )
        window = SeriesWindow(MONDAY, MONDAY + 3600, WEEKDAYS)
        cfg = SynthConfig(
            seed=31,
            window=window,
            triangle=spec,
            mid_prices={"USD/CHF": 1.3030, "EUR/USD": 1.2065},
            volatilities={"USD/CHF": 2e-6, "EUR/USD": 2e-6},
            spread_points={p.name: tuple([2.0] * 24) for p in spec.pairs},
            injections=(
                InjectionSpec(MONDAY + 40, 2, 1.5, Direction.DIR1),
                InjectionSpec(MONDAY + 90, 1, 2.5, Direction.DIR2),
            ),
        )
        ops1, ops2, _ = detect(cfg, spec)
        assert [(o.start, o.run_length) for o in ops1] == [(MONDAY + 40, 2)]
        assert [(o.start, o.run_length) for o in ops2] == [(MONDAY + 90, 1)]
        assert ops1[0].magnitude_bp == pytest.approx(1.5, abs=0.05)

    def test_many_injections_full_recall(self, fine_chf_triangle):
        rng = np.random.default_rng(17)
        injections = []
        t = MONDAY + 30
        for _ in range(40):
            dur = int(rng.integers(1, 8))
            mag = float(rng.uniform(0.5, 8.0))
            direction = Direction(int(rng.integers(1, 3)))
            injections.append(InjectionSpec(t, dur, round(mag, 2), direction))
            t += dur + int(rng.integers(2, 40))
        cfg = base_config(fine_chf_triangle, injections=injections, seed=8)
        ops1, ops2, _ = detect(cfg, fine_chf_triangle)
        recovered = {(o.start, o.run_length, o.direction) for o in ops1 + ops2}
        expected = {(i.start, i.duration_seconds, i.direction) for i in injections}
        assert recovered == expected


class TestLiquidityPreset:
    def test_monotone_in_overlap(self):
        table = SessionTable.default()
        prof = liquidity_preset(table)
        overlap = overlap_by_hour(table)
        assert prof.spread_points[14] < prof.spread_points[23]  # overlap 2 vs 1
        for h1 in range(24):
            for h2 in range(24):
                if overlap[h1] > overlap[h2]:
                    assert prof.spread_points[h1] < prof.spread_points[h2]
                    assert prof.gap_rate[h1] < prof.gap_rate[h2]

    def test_zero_overlap_hour_is_widest(self):
        table = SessionTable(sessions={"only": frozenset(range(8, 12))})
        prof = liquidity_preset(table)
        widest = max(prof.spread_points)
        for h in range(24):
            if h not in range(8, 12):
                assert prof.spread_points[h] == widest


class TestSchedule:
    def test_rates_scale_with_overlap(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        injections = seasonal_injection_schedule(
            seed=3, window=window, table=SessionTable.default(), base_rate_per_hour=2.0
        )
        counts = [0] * 24
        for inj in injections:
            counts[(inj.start % 86400) // 3600] += 1
        liquid = sum(counts[13:16])   # overlap 2
        quiet = counts[22] + counts[23] + counts[0]  # overlap 1
        assert liquid > quiet

    def test_durations_shorter_in_liquid_hours(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        injections = seasonal_injection_schedule(
            seed=4, window=window, table=SessionTable.default(), base_rate_per_hour=3.0
        )
        liquid = [i.duration_seconds for i in injections if 13 <= (i.start % 86400) // 3600 <= 15]
        quiet = [
            i.duration_seconds
            for i in injections
            if (i.start % 86400) // 3600 in (22, 23, 0)
        ]
        assert np.mean(liquid) < np.mean(quiet)

    def test_schedule_is_valid_config(self, fine_chf_triangle):
        window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
        injections = seasonal_injection_schedule(
            seed=5, window=window, table=SessionTable.default()
        )
        cfg = SynthConfig(
            seed=5,
            window=window,
            triangle=fine_chf_triangle,
            mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
            volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
            spread_points={p.name: tuple([2.0] * 24) for p in fine_chf_triangle.pairs},
            injections=injections,
        )
        assert len(cfg.injections) > 10

    def test_deterministic(self):
        window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
        s1 = seasonal_injection_schedule(seed=6, window=window, table=SessionTable.default())
        s2 = seasonal_injection_schedule(seed=6, window=window, table=SessionTable.default())
        assert s1 == s2


class TestInjectionsJson:
    def test_round_trip(self, tmp_path):
        injections = [
            InjectionSpec(MONDAY + 5, 3, 2.5, Direction.DIR1),
            InjectionSpec(MONDAY + 20, 1, 0.5, Direction.DIR2),
        ]
        payload = {
            "seed": 4,
            "window": {"start": MONDAY, "end": MONDAY + 60},
            "pairs": {
                "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
                "USD/CHF": {"mid": 1.3030, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
                "EUR/CHF": {"point": "0.00001", "spread_points": 2},
            },
            "injections": [
                {"start": inj.start, "duration_seconds": inj.duration_seconds,
                 "magnitude_bp": inj.magnitude_bp, "direction": inj.direction.value}
                for inj in injections
            ],
        }
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "data"
        assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(out)]) == 0
        with open(out / "injections.json") as fh:
            written = json.load(fh)
        assert written == payload["injections"]
        assert [
            InjectionSpec(d["start"], d["duration_seconds"], d["magnitude_bp"],
                          Direction(d["direction"]))
            for d in written
        ] == injections
