"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a PASS/FAIL line via the conftest report hook. The
empirical magnitudes of any particular market dataset (opportunity counts,
profit levels) are data properties and are not asserted here; everything is
verified on synthetic data against independent oracles and closed forms.
"""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from triarb.cli import main
from triarb.market_data import Direction, SeriesWindow, TriangleSpec
from triarb.opportunity import (
    duration_stats,
    hourly_profile,
    segment_opportunities,
    threshold_table,
)
from triarb.rate_product import compute_rate_products
from triarb.simulator import (
    Scenario,
    SimulationConfig,
    analytic_break_even,
    analytic_total_profit,
    simulate_trades,
)
from triarb.synth import (
    SynthConfig,
    generate,
    liquidity_preset,
    seasonal_injection_schedule,
)

from conftest import (
    MONDAY,
    brute_force_segments,
    episode_rows,
    episodes,
    load_rows,
    make_series,
    points,
)

WEEKDAYS = frozenset({0, 1, 2, 3, 4})


def test_worked_gamma_example():
    """EUR->USD->JPY->EUR at the quoted prices gives 1.000115903 to 9 d.p."""
    spec = TriangleSpec(("EUR", "USD", "JPY"))
    window = SeriesWindow(0, 1)
    rows = {
        "EUR/USD": [(0, "1.2065", "1.2066")],
        "USD/JPY": [(0, "115.72", "115.73")],
        "EUR/JPY": [(0, "139.59", "139.60")],
    }
    series = [load_rows(p, window, rows[p.name]) for p in spec.pairs]
    gammas = compute_rate_products(series, spec)
    assert abs(gammas[0, 0] - 1.000115903) <= 0.5e-9


def _simulation_series(seed=20250810, n_runs=900):
    rng = np.random.default_rng(seed)
    inits = 1.0 + rng.uniform(0.05, 3.0, size=n_runs) * 1e-4
    lengths = rng.integers(1, 7, size=n_runs)
    values = [0.9999]
    for g, l in zip(inits, lengths):
        values.append(float(g))
        values.extend([float(g)] * (int(l) - 1))
        values.append(0.9999)
    return make_series(values, start=0)


def test_analytic_simulation_agreement():
    """Simulated totals track the closed forms at 3 standard errors; break-even within 0.02."""
    series = _simulation_series()
    all_ops = segment_opportunities(*series)
    assert len(all_ops) >= 500
    volume = 1e6
    p = 0.6
    for scenario in (Scenario.FIXED_FILL, Scenario.DURATION_FILL):
        for gamma_t in (1.0, 1.00005, 1.0001):
            trades = [op for op in all_ops if op.initial_gamma > gamma_t]
            excess_bp = np.array([t.initial_gamma - 1.0 for t in trades]) / 1e-4
            # runs of 2 s or more fill surely under the duration model, none under fixed
            certain = np.array([t.run_length >= 2 for t in trades])
            if scenario is Scenario.FIXED_FILL:
                certain[:] = False
            split = (
                int(certain.sum()), int((~certain).sum()),
                float(excess_bp[certain].mean()) if certain.any() else 0.0,
                float(excess_bp[~certain].mean()) if (~certain).any() else 0.0,
            )
            for loss_bp in (1.0, 1.5, 2.0):
                cfg = SimulationConfig(
                    gamma_t=gamma_t, scenario=scenario, fill_prob=p, loss_bp=loss_bp,
                    volume=volume, runs=1000, seed=314159,
                )
                (result,) = simulate_trades(all_ops, [cfg], [loss_bp])
                result = result.summary
                expected = analytic_total_profit(*split, volume, p, loss_bp)
                assert result.analytic_total_profit == pytest.approx(expected, rel=1e-12)
                stderr = result.total_profit_std / math.sqrt(cfg.runs)
                assert abs(result.total_profit - expected) <= 3 * stderr, (
                    scenario, gamma_t, loss_bp
                )
                be_cfg = dataclasses.replace(cfg, runs=300, seed=2718)
                (be_result,) = simulate_trades(all_ops, [be_cfg], [loss_bp])
                (be,) = be_result.break_even
                assert abs(be.simulated_p - be.analytic_p) <= 0.02, (scenario, gamma_t, loss_bp)
                assert be.analytic_p == analytic_break_even(*split, loss_bp)[0]


def test_break_even_inversion_identity():
    """A 0.375 bp mean excess at a 1.5 bp loss breaks even at exactly 80% fill."""
    assert analytic_break_even(0, 1, 0.0, 0.375, 1.5) == (0.8, False)
    # same identity read in the other direction: p = 0.8 implies the excess
    implied_excess = 1.5 * (1.0 / 0.8 - 1.0)
    assert implied_excess == pytest.approx(0.375, rel=1e-12)


def test_oracle_equivalence_on_random_series():
    """Segmentation equals a brute-force scan on 10,000 seeded series exactly."""
    rng = np.random.default_rng(424242)
    n_series, length = 10_000, 1_000
    gammas = rng.uniform(0.9995, 1.0005, size=(n_series, length))
    zero_mask = rng.random((n_series, length)) < 0.02
    gammas[zero_mask] = 0.0
    times = np.arange(length, dtype=np.int64)
    time_list = list(range(length))
    for i in range(n_series):
        row = gammas[i]
        series = make_series(row, times=times)
        got = [
            (o.start, o.run_length, o.initial_gamma, o.peak_gamma)
            for o in segment_opportunities(*series)
        ]
        expected = brute_force_segments(time_list, row.tolist())
        assert got == expected, f"series {i}"


def test_injection_recovery_hundred_episodes():
    """100 injected episodes recovered with 100% precision and recall."""
    spec = TriangleSpec(("EUR", "USD", "CHF"))
    rng = np.random.default_rng(77)
    injections = []
    t = MONDAY + 60
    for _ in range(100):
        dur = int(rng.integers(1, 11))
        mag = round(float(rng.uniform(0.5, 10.0)), 2)
        direction = int(rng.integers(1, 3))
        injections.append((t, dur, mag, direction))
        t += dur + int(rng.integers(2, 60))
    window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
    cfg = SynthConfig(
        seed=123,
        window=window,
        triangle=spec,
        points=points(spec, "0.000001"),
        mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
        volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
        spread_points={p.name: tuple([2.0] * 24) for p in spec.pairs},
        gap_rate=tuple([0.001] * 24),
        injections=episodes(*injections),
    )
    a, b, c = generate(cfg)
    detected = {
        (o.start, o.run_length, o.direction): o
        for o in segment_opportunities(window.grid_times(), compute_rate_products((a, b, c), spec))
    }
    expected = {(start, dur, Direction(d)): mag
                for start, dur, mag, d in episode_rows(cfg.injections)}
    assert set(detected) == set(expected)  # recall and precision both exact
    for key, magnitude in expected.items():
        assert detected[key].magnitude_bp == pytest.approx(magnitude, abs=0.05)


def test_seasonality_mechanism_reproduction():
    """Liquid-session hours show more, shorter opportunities (sign test, p < 0.01)."""
    spec = TriangleSpec(("EUR", "USD", "CHF"))
    profiles = liquidity_preset(base_spread_points=6.0, base_gap_rate=0.001)
    month_seconds = 28 * 86400  # 20 weekdays under the filter
    liquid_hours = (13, 14, 15)
    quiet_hours = (22, 23, 0)
    count_wins = 0
    duration_wins = 0
    n_months = 10
    for month in range(n_months):
        window = SeriesWindow(MONDAY + month * month_seconds,
                              MONDAY + (month + 1) * month_seconds, WEEKDAYS)
        injections = seasonal_injection_schedule(
            seed=9000 + month, window=window, base_rate_per_hour=1.0
        )
        cfg = SynthConfig(
            seed=500 + month,
            window=window,
            triangle=spec,
            points=points(spec, "0.000001"),
            mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
            volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
            spread_points={p.name: profiles.spread_points for p in spec.pairs},
            gap_rate=profiles.gap_rate,
            injections=injections,
        )
        a, b, c = generate(cfg)
        ops = segment_opportunities(window.grid_times(), compute_rate_products((a, b, c), spec))
        counts, mean_durations = hourly_profile(ops)
        liquid_count = sum(counts[h] for h in liquid_hours)
        quiet_count = sum(counts[h] for h in quiet_hours)
        liquid_dur = sum(counts[h] * mean_durations[h] for h in liquid_hours) / liquid_count
        quiet_dur = sum(counts[h] * mean_durations[h] for h in quiet_hours) / quiet_count
        if liquid_count > quiet_count:
            count_wins += 1
        if liquid_dur < quiet_dur:
            duration_wins += 1

    def sign_test_p(wins, n):
        # one-sided: P(X >= wins) under fair coin
        return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n

    assert sign_test_p(count_wins, n_months) < 0.01
    assert sign_test_p(duration_wins, n_months) < 0.01


@pytest.fixture
def pipeline(tmp_path):
    """Full CLI pipeline over one synthetic dataset; returns the output dirs."""
    injections = []
    t = MONDAY + 120
    rng = np.random.default_rng(55)
    for _ in range(30):
        dur = int(rng.integers(1, 8))
        injections.append(
            {"start": t, "duration_seconds": dur,
             "magnitude_bp": round(float(rng.uniform(0.5, 6.0)), 2),
             "direction": int(rng.integers(1, 3))}
        )
        t += dur + int(rng.integers(5, 200))
    payload = {
        "seed": 31337,
        "window": {"start": MONDAY, "end": MONDAY + 7200, "weekdays": "mon-fri"},
        "pairs": {
            "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
            "USD/CHF": {"mid": 1.3030, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
            "EUR/CHF": {"point": "0.00001", "spread_points": 2},
        },
        "gap_rate": 0.0005,
        "injections": injections,
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(payload))
    window = f"{MONDAY}..{MONDAY + 7200}"
    dirs = {name: tmp_path / name for name in ("data", "detect", "seasonal", "sim", "cmp")}
    assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(dirs["data"])]) == 0
    base = ["--data-dir", str(dirs["data"]), "--window", window]
    assert main(["detect", *base, "--out-dir", str(dirs["detect"]),
                 "--thresholds", "0,0.5,1,2,3,4,5,6,7,8,9,10"]) == 0
    assert main(["seasonal", *base, "--out-dir", str(dirs["seasonal"])]) == 0
    assert main(["simulate", *base, "--out-dir", str(dirs["sim"]),
                 "--runs", "100", "--seed", "11"]) == 0
    assert main(["compare", "--dataset", f"a={dirs['data']}", "--dataset", f"b={dirs['data']}",
                 "--window", window, "--out-dir", str(dirs["cmp"])]) == 0
    return dirs


def _header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def test_table_shape_fidelity(pipeline):
    """Every emitted file carries its documented column structure."""
    stats = json.loads((pipeline["detect"] / "duration_stats.json").read_text())
    assert set(stats) == {"count", "mean", "median", "min", "max", "bucket_pct"}
    assert list(stats["bucket_pct"]) == ["1s", "2s", "3s", "4s", "5s", ">5s"]
    assert sum(stats["bucket_pct"].values()) == pytest.approx(100.0, abs=0.5)

    assert _header(pipeline["detect"] / "threshold_table.csv") == [
        "threshold_bp", "count", "mean_duration"
    ]
    with open(pipeline["detect"] / "threshold_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    counts = [int(r[1]) for r in rows]
    assert counts == sorted(counts, reverse=True)

    assert _header(pipeline["detect"] / "histogram.csv") == ["bin_left", "bin_right", "count"]
    assert _header(pipeline["detect"] / "opportunities.csv") == [
        "direction", "start", "run_length", "duration_label",
        "initial_gamma", "peak_gamma", "magnitude_bp",
    ]
    assert _header(pipeline["seasonal"] / "hourly.csv") == ["hour", "count", "mean_duration"]
    assert _header(pipeline["seasonal"] / "daily.csv") == ["date", "count", "mean_duration"]
    assert _header(pipeline["sim"] / "profit_surface.csv") == ["p", "lambda_bp", "mean_profit_bp"]
    assert _header(pipeline["sim"] / "profit_curves.csv") == [
        "scenario", "gamma_t", "p", "total_profit_mean", "total_profit_std"
    ]
    assert _header(pipeline["sim"] / "breakeven.csv") == [
        "scenario", "gamma_t", "lambda_bp", "analytic_p", "simulated_p", "simulated_p_std"
    ]
    assert _header(pipeline["cmp"] / "comparison.csv") == [
        "label", "count", "1s", "2s", "3s", "4s", "5s", ">5s",
        "mean", "stdev", "delta_count", "delta_1s",
    ]
    # conservation across commands
    with open(pipeline["seasonal"] / "hourly.csv", newline="") as fh:
        hourly_total = sum(int(r[1]) for r in list(csv.reader(fh))[1:])
    assert hourly_total == stats["count"]


def test_determinism_byte_identical_reruns(pipeline, tmp_path):
    """Re-running every randomized command with the same manifest is byte-identical."""
    def tree_hash(root):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()
        }

    window = f"{MONDAY}..{MONDAY + 7200}"
    before = {name: tree_hash(path) for name, path in pipeline.items()}
    assert main(["synth", "--synth-config", str(tmp_path / "synth.json"),
                 "--out-dir", str(pipeline["data"])]) == 0
    base = ["--data-dir", str(pipeline["data"]), "--window", window]
    assert main(["detect", *base, "--out-dir", str(pipeline["detect"]),
                 "--thresholds", "0,0.5,1,2,3,4,5,6,7,8,9,10"]) == 0
    assert main(["seasonal", *base, "--out-dir", str(pipeline["seasonal"])]) == 0
    assert main(["simulate", *base, "--out-dir", str(pipeline["sim"]),
                 "--runs", "100", "--seed", "11"]) == 0
    assert main(["compare", "--dataset", f"a={pipeline['data']}",
                 "--dataset", f"b={pipeline['data']}",
                 "--window", window, "--out-dir", str(pipeline["cmp"])]) == 0
    after = {name: tree_hash(path) for name, path in pipeline.items()}
    assert after == before
