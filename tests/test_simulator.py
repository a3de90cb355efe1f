"""Monte Carlo simulation, analytic cross-checks, break-even."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from triarb.opportunity import segment_opportunities
from triarb.simulator import (
    BLOCK,
    BP,
    CERTAIN_FILL_MIN_RUN_LENGTH,
    P_GRID,
    Scenario,
    SimulationConfig,
    analytic_break_even,
    analytic_total_profit,
    filter_trades,
    simulate_trades,
)

import simulator_reference as reference
from conftest import make_series

# the sweep runs under one np.errstate; any numpy warning that escapes it fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def series_with_runs(specs, gap_value=0.9999, start=0):
    """Build a gamma series from (run_length, initial, peak) specs."""
    values = [gap_value]
    for run_length, initial, peak in specs:
        values.append(initial)
        values.extend([peak] * (run_length - 1))
        values.append(gap_value)
    return make_series(values, start=start)


def random_trade_series(seed=7, n_runs=600):
    rng = np.random.default_rng(seed)
    inits = 1.0 + rng.uniform(0.05, 3.0, size=n_runs) * 1e-4
    lengths = rng.integers(1, 7, size=n_runs)
    specs = [(int(l), float(g), float(g)) for l, g in zip(lengths, inits)]
    return series_with_runs(specs)


def select_trades(series, gamma_t):
    return filter_trades(segment_opportunities(*series), gamma_t)


def run_simulation(series, cfg, lambda_grid_bp=(1.5,)):
    (result,) = simulate_trades([(select_trades(series, cfg.gamma_t), cfg)], lambda_grid_bp)
    return result


class TestSelectTrades:
    def test_threshold_one_trades_every_opportunity(self):
        series = series_with_runs([(1, 1.00001, 1.00001), (3, 1.0002, 1.0003)])
        assert len(select_trades(series, 1.0)) == 2

    def test_initial_below_threshold_excluded(self):
        series = series_with_runs([(2, 1.00005, 1.0003)])
        # threshold tests the tradeable initial value, not the later peak
        assert select_trades(series, 1.0001) == []

    def test_filter_example(self):
        series = series_with_runs(
            [(1, 1.00002, 1.00002), (1, 1.00007, 1.00007), (1, 1.00012, 1.00012)]
        )
        assert len(select_trades(series, 1.00005)) == 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            filter_trades([], 0.99)


class TestRunSimulation:
    def test_full_fill_is_exact_with_zero_variance(self):
        series = series_with_runs([(1, 1.0001, 1.0001), (2, 1.0002, 1.0002)])
        cfg = SimulationConfig(fill_prob=1.0, loss_bp=1.5, volume=1e6, runs=50, seed=3)
        result = run_simulation(series, cfg).summary
        expected = 1e6 * ((1.0001 - 1) + (1.0002 - 1))
        assert result.total_profit == pytest.approx(expected, rel=1e-12)
        assert result.total_profit_std == 0.0
        assert result.trades_filled_mean == 2.0

    def test_zero_fill_loses_lambda_per_trade(self):
        series = series_with_runs([(1, 1.0001, 1.0001)] * 4)
        cfg = SimulationConfig(fill_prob=0.0, loss_bp=1.5, volume=1e6, runs=10, seed=3)
        result = run_simulation(series, cfg).summary
        assert result.total_profit == pytest.approx(-4 * 1e6 * 1.5 * BP, rel=1e-12)
        assert result.trades_attempted == 4

    def test_mean_converges_to_analytic_form(self):
        series = random_trade_series()
        trades = select_trades(series, 1.0)
        excess = np.array([t.initial_gamma - 1.0 for t in trades])
        cfg = SimulationConfig(
            fill_prob=0.5, loss_bp=1.5, volume=1e6, runs=1000, seed=11
        )
        (result,) = simulate_trades([(trades, cfg)], [1.5])
        result = result.summary
        analytic = analytic_total_profit(0, len(trades), 0.0, float(excess.mean()) / BP, 1e6, 0.5, 1.5)
        assert result.analytic_total_profit == pytest.approx(analytic, rel=1e-12)
        stderr = result.total_profit_std / np.sqrt(cfg.runs)
        assert abs(result.total_profit - analytic) < 3 * stderr

    def test_duration_scenario_fills_long_runs_surely(self):
        series = series_with_runs([(3, 1.0002, 1.0002), (1, 1.0001, 1.0001)])
        cfg = SimulationConfig(
            scenario=Scenario.DURATION_FILL, fill_prob=0.0, loss_bp=1.0,
            volume=1e6, runs=20, seed=5,
        )
        result = run_simulation(series, cfg).summary
        # the 3s run always fills; the 1s run never does at p=0
        expected = 1e6 * (1.0002 - 1) - 1e6 * 1.0 * BP
        assert result.total_profit == pytest.approx(expected, rel=1e-12)

    def test_trades_attempted_constant_across_runs(self):
        series = random_trade_series(seed=2, n_runs=50)
        cfg = SimulationConfig(fill_prob=0.3, runs=25, seed=9)
        result = run_simulation(series, cfg).summary
        assert result.trades_attempted == 50

    def test_determinism(self):
        series = random_trade_series(seed=4, n_runs=80)
        cfg = SimulationConfig(fill_prob=0.4, loss_bp=2.0, runs=60, seed=123)
        r1 = run_simulation(series, cfg).summary
        r2 = run_simulation(series, cfg).summary
        assert r1.total_profit == r2.total_profit
        assert np.array_equal(r1.run_totals, r2.run_totals)

    def test_scenario_dominance_per_run(self):
        # same uniforms: upgrading long runs to certain fills never hurts
        series = random_trade_series(seed=6, n_runs=200)
        base = dict(fill_prob=0.5, loss_bp=1.5, volume=1e6, runs=40, seed=21)
        fixed = run_simulation(series, SimulationConfig(scenario=Scenario.FIXED_FILL, **base)).summary
        duration = run_simulation(
            series, SimulationConfig(scenario=Scenario.DURATION_FILL, **base)
        ).summary
        assert np.all(duration.run_totals >= fixed.run_totals - 1e-9)

    def test_full_fill_profit_never_rises_with_threshold(self):
        series = random_trade_series(seed=8, n_runs=150)
        base = dict(fill_prob=1.0, loss_bp=1.5, volume=1e6, runs=1, seed=1)
        totals = []
        for gamma_t in (1.0, 1.00005, 1.0001, 1.0002):
            cfg = SimulationConfig(gamma_t=gamma_t, **base)
            totals.append(run_simulation(series, cfg).summary.total_profit)
        assert totals == sorted(totals, reverse=True)

    def test_monotone_in_p_and_lambda(self):
        series = random_trade_series(seed=9, n_runs=120)
        trades = select_trades(series, 1.0)
        curves = {}
        for loss_bp in (1.0, 2.0, 3.0):
            cfg = SimulationConfig(loss_bp=loss_bp, runs=15, seed=33)
            (result,) = simulate_trades([(trades, cfg)], [loss_bp])
            curves[loss_bp] = result.curve_mean
            assert np.all(np.diff(curves[loss_bp]) >= -1e-9)
        assert np.all(curves[3.0] <= curves[1.0] + 1e-9)

    def test_certain_fill_cutoff_is_two_seconds(self):
        # a 1-second run fills with the fill probability, a 2-second run surely
        series = series_with_runs([(1, 1.0002, 1.0002), (2, 1.0003, 1.0003)])
        base = dict(scenario=Scenario.DURATION_FILL, loss_bp=1.0, volume=1e6, runs=5, seed=2)
        never = run_simulation(series, SimulationConfig(fill_prob=0.0, **base)).summary
        assert (never.n_long, never.n_short, never.trades_filled_mean) == (1, 1, 1.0)
        assert never.total_profit == pytest.approx(1e6 * 3e-4 - 1e6 * BP)
        always = run_simulation(series, SimulationConfig(fill_prob=1.0, **base)).summary
        assert always.trades_filled_mean == 2.0

    def test_fee_deducted_per_transaction(self):
        series = series_with_runs([(1, 1.0001, 1.0001)] * 2)
        cfg = SimulationConfig(fill_prob=1.0, runs=1, seed=0, fee_per_trade=2.0)
        result = run_simulation(series, cfg).summary
        no_fee = run_simulation(series, SimulationConfig(fill_prob=1.0, runs=1, seed=0)).summary
        assert result.total_profit == pytest.approx(no_fee.total_profit - 2 * 3 * 2.0)


class TestAnalyticForms:
    """The closed forms over (n_certain, n_random, mean_certain_bp, mean_random_bp);
    the fixed fill model is the case n_certain = 0."""

    def test_full_fill_worked_example(self):
        assert analytic_total_profit(0, 100, 0.0, 1.0, 1e6, 1.0, 1.5) == pytest.approx(10_000.0)

    def test_zero_fill_worked_example(self):
        assert analytic_total_profit(0, 100, 0.0, 1.0, 1e6, 0.0, 1.5) == pytest.approx(-15_000.0)

    def test_duration_form_reduces_when_no_long_runs(self):
        # no sure fill: the certain mean does not enter
        with_mean = analytic_total_profit(0, 50, 3.0, 2.0, 1e6, 0.7, 1.5)
        assert with_mean == analytic_total_profit(0, 50, 0.0, 2.0, 1e6, 0.7, 1.5)
        assert with_mean == pytest.approx(50 * 1e6 * (0.7 * 2e-4 - 0.3 * 1.5e-4))

    def test_negative_count_rejected(self):
        for counts in ((0, -1), (-1, 5)):
            with pytest.raises(ValueError):
                analytic_total_profit(*counts, 1.0, 1.0, 1e6, 0.5, 1.5)

    def test_break_even_symmetric_case(self):
        # mean excess equal to the loss gives exactly one half
        assert analytic_break_even(0, 7, 0.0, 1.5, 1.5) == (pytest.approx(0.5), False)

    def test_break_even_inversion_consistency(self):
        # mean excess of 0.375 bp at a 1.5 bp loss breaks even at 80%
        assert analytic_break_even(0, 1, 0.0, 0.375, 1.5) == (0.8, False)

    def test_duration_break_even_clamps_at_zero(self):
        p, clamped = analytic_break_even(100, 1, 5.0, 0.5, 1.5)
        assert p == 0.0 and clamped

    def test_duration_break_even_no_shorts(self):
        p, clamped = analytic_break_even(10, 0, 1.0, 0.0, 1.5)
        assert p == 0.0 and clamped

    def test_break_even_needs_a_positive_loss(self):
        with pytest.raises(ValueError, match="loss_bp must be positive"):
            analytic_break_even(0, 3, 0.0, 1.0, 0.0)


def break_even(series, scenario, gamma_t, lambda_bp, runs, seed):
    cfg = SimulationConfig(gamma_t=gamma_t, scenario=scenario, runs=runs, seed=seed)
    (result,) = run_simulation(series, cfg, [lambda_bp]).break_even
    return result


class TestBreakEven:
    def test_simulated_tracks_analytic_fixed(self):
        series = random_trade_series(seed=13, n_runs=800)
        result = break_even(series, Scenario.FIXED_FILL, 1.0, 1.5, 300, 42)
        assert 0.0 <= result.analytic_p <= 1.0
        assert abs(result.simulated_p - result.analytic_p) <= 0.02

    def test_simulated_tracks_analytic_duration(self):
        series = random_trade_series(seed=14, n_runs=800)
        result = break_even(series, Scenario.DURATION_FILL, 1.0, 1.5, 300, 42)
        assert abs(result.simulated_p - result.analytic_p) <= 0.02

    def test_no_trades_above_threshold(self):
        series = series_with_runs([(1, 1.00001, 1.00001)])
        cfg = SimulationConfig(gamma_t=1.001, runs=10, seed=0)
        assert run_simulation(series, cfg).break_even == ()

    def test_invalid_loss(self):
        series = series_with_runs([(1, 1.0001, 1.0001)])
        with pytest.raises(ValueError):
            run_simulation(series, SimulationConfig(runs=10, seed=0), [0.0])

    def test_sign_consistency_with_analytic_total(self):
        # profit at p is positive iff p sits above the break-even point
        series = random_trade_series(seed=15, n_runs=500)
        trades = select_trades(series, 1.0)
        excess = np.array([t.initial_gamma - 1.0 for t in trades])
        (result,) = simulate_trades([(trades, SimulationConfig(runs=50, seed=7))], [1.5])
        (be,) = result.break_even
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            if abs(p - be.analytic_p) < 0.05:
                continue
            total = analytic_total_profit(0, len(trades), 0.0, float(excess.mean()) / BP, 1e6, p, 1.5)
            assert (total > 0) == (p > be.analytic_p)


class TestProfitSurface:
    def test_full_fill_row_ignores_lambda(self):
        series = random_trade_series(seed=16, n_runs=100)
        trades = select_trades(series, 1.0)
        excess = np.array([t.initial_gamma - 1.0 for t in trades])
        cfg = SimulationConfig(runs=10, seed=5)
        (result,) = simulate_trades([(trades, cfg)], [1.0, 1.5, 2.0])
        full_fill = result.surface.mean_profit_bp[-1]
        assert np.allclose(full_fill, excess.mean() / BP)
        assert np.allclose(full_fill, full_fill[0])

    def test_zero_fill_cell_is_minus_lambda(self):
        series = random_trade_series(seed=17, n_runs=100)
        cfg = SimulationConfig(runs=10, seed=5)
        surface = run_simulation(series, cfg, [1.5]).surface
        assert surface.mean_profit_bp[0, 0] == pytest.approx(-1.5)

    def test_zero_contour_matches_analytic(self):
        series = random_trade_series(seed=18, n_runs=800)
        trades = select_trades(series, 1.0)
        excess_bp = np.array([t.initial_gamma - 1.0 for t in trades]) / BP
        cfg = SimulationConfig(runs=200, seed=6)
        (result,) = simulate_trades([(trades, cfg)], [1.0, 1.5, 2.0])
        for lam, p_star in result.surface.breakeven_contour:
            analytic, _ = analytic_break_even(0, len(trades), 0.0, float(excess_bp.mean()), lam)
            assert p_star == pytest.approx(analytic, abs=0.02)

    def test_empty_grids_rejected(self):
        series = random_trade_series(seed=19, n_runs=10)
        with pytest.raises(ValueError):
            run_simulation(series, SimulationConfig(runs=2, seed=0), [])


ORACLE_LAMBDAS = [0.5, 1.5, 3.0]
ORACLE_CASES = {
    "fixed": dict(scenario=Scenario.FIXED_FILL, fill_prob=0.6, runs=40),
    "duration": dict(scenario=Scenario.DURATION_FILL, fill_prob=0.6, runs=40),
    "fixed_fee": dict(scenario=Scenario.FIXED_FILL, gamma_t=1.00005, fill_prob=0.3,
                      loss_bp=2.0, runs=25, fee_per_trade=1.25),
    "duration_fee_unreachable": dict(scenario=Scenario.DURATION_FILL, fill_prob=0.5,
                                     runs=20, fee_per_trade=50.0, volume=2.5e5),
    "one_run": dict(scenario=Scenario.DURATION_FILL, fill_prob=0.8, loss_bp=1.0, runs=1),
    "no_trades": dict(scenario=Scenario.DURATION_FILL, gamma_t=1.01, fill_prob=0.5, runs=10),
    "no_trades_one_run": dict(scenario=Scenario.FIXED_FILL, gamma_t=1.01, runs=1),
    # more than two blocks of runs, the last one partial
    "blocks": dict(scenario=Scenario.DURATION_FILL, fill_prob=0.4, loss_bp=2.5, runs=150,
                   fee_per_trade=0.5),
}
assert ORACLE_CASES["blocks"]["runs"] > 2 * BLOCK and ORACLE_CASES["blocks"]["runs"] % BLOCK


def assert_matches_reference(result, trades, cfg):
    """Every number of result equals the per-quantity reference loops exactly."""
    mean, std, per_trade_bp, n, filled_mean, run_totals = reference.summary(
        trades, cfg, CERTAIN_FILL_MIN_RUN_LENGTH
    )
    s = result.summary
    assert (s.total_profit, s.total_profit_std, s.mean_profit_per_trade_bp) == (
        mean, std, per_trade_bp
    )
    assert (s.trades_attempted, s.trades_filled_mean) == (n, filled_mean)
    assert np.array_equal(s.run_totals, run_totals)

    curve_mean, curve_std = reference.profit_curves(
        trades, P_GRID, cfg, CERTAIN_FILL_MIN_RUN_LENGTH
    )
    assert np.array_equal(result.curve_mean, curve_mean)
    assert np.array_equal(result.curve_std, curve_std)

    mean_bp, contour = reference.surface(
        trades, P_GRID, ORACLE_LAMBDAS, cfg, CERTAIN_FILL_MIN_RUN_LENGTH
    )
    assert np.array_equal(result.surface.p_grid, P_GRID)
    assert np.array_equal(result.surface.mean_profit_bp, mean_bp)
    assert np.array_equal(
        np.array(result.surface.breakeven_contour), np.array(contour), equal_nan=True
    )

    if not trades:
        assert result.break_even == ()
        return
    expected = [
        reference.break_even(trades, cfg.scenario, lam, cfg.runs, cfg.seed, cfg.volume,
                             CERTAIN_FILL_MIN_RUN_LENGTH)
        for lam in ORACLE_LAMBDAS
    ]
    got = [(be.analytic_p, be.simulated_p, be.simulated_p_std, be.analytic_clamped)
           for be in result.break_even]
    assert got == expected
    assert [be.lambda_bp for be in result.break_even] == ORACLE_LAMBDAS


def assert_same_result(a, b):
    """Two results hold the same numbers, bit for bit."""
    assert np.array_equal(a.summary.run_totals, b.summary.run_totals)
    assert (dataclasses.replace(a.summary, run_totals=None)
            == dataclasses.replace(b.summary, run_totals=None))
    for name in ("curve_mean", "curve_std"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.surface.mean_profit_bp, b.surface.mean_profit_bp)
    assert np.array_equal(np.array(a.surface.breakeven_contour),
                          np.array(b.surface.breakeven_contour), equal_nan=True)
    assert a.break_even == b.break_even


class TestReferenceOracle:
    """The single pass reproduces the per-quantity reference loops exactly."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_single_pass_matches_reference_loops(self, case):
        cfg = SimulationConfig(seed=2024, **ORACLE_CASES[case])
        trades = select_trades(random_trade_series(seed=21, n_runs=150), cfg.gamma_t)
        assert (len(trades) == 0) == case.startswith("no_trades")
        (result,) = simulate_trades([(trades, cfg)], ORACLE_LAMBDAS)
        assert_matches_reference(result, trades, cfg)
        if case == "duration_fee_unreachable":
            assert np.isnan(result.surface.breakeven_contour[-1][1])

    def test_one_call_over_jobs_matches_each_job_alone(self):
        # both scenarios, and trade counts that differ and include 0, share one draw per run
        series = random_trade_series(seed=21, n_runs=150)
        base = dict(fill_prob=0.6, runs=150, seed=2024)
        configs = [
            SimulationConfig(scenario=Scenario.FIXED_FILL, **base),
            SimulationConfig(scenario=Scenario.DURATION_FILL, gamma_t=1.0001, **base),
            SimulationConfig(scenario=Scenario.FIXED_FILL, gamma_t=1.01, **base),
            SimulationConfig(scenario=Scenario.DURATION_FILL, gamma_t=1.00005, loss_bp=2.0,
                             fee_per_trade=1.25, **base),
        ]
        jobs = [(select_trades(series, cfg.gamma_t), cfg) for cfg in configs]
        counts = [len(trades) for trades, _ in jobs]
        assert 0 in counts and len(set(counts)) == len(counts)
        for (trades, cfg), result in zip(jobs, simulate_trades(jobs, ORACLE_LAMBDAS)):
            (alone,) = simulate_trades([(trades, cfg)], ORACLE_LAMBDAS)
            assert_same_result(result, alone)
            assert_matches_reference(result, trades, cfg)

    def test_jobs_must_share_seed_and_runs(self):
        trades = select_trades(random_trade_series(seed=22, n_runs=20), 1.0)
        cfg = SimulationConfig(runs=4, seed=3)
        for other in (dataclasses.replace(cfg, seed=4), dataclasses.replace(cfg, runs=5)):
            with pytest.raises(ValueError, match="share one"):
                simulate_trades([(trades, cfg), (trades, other)], ORACLE_LAMBDAS)

    def test_break_even_ignores_fill_prob_loss_and_fees(self):
        trades = select_trades(random_trade_series(seed=22, n_runs=80), 1.0)
        cfg = SimulationConfig(runs=12, seed=3)
        other = dataclasses.replace(cfg, fill_prob=0.2, loss_bp=4.0, fee_per_trade=9.0)
        (result,) = simulate_trades([(trades, cfg)], ORACLE_LAMBDAS)
        (result_other,) = simulate_trades([(trades, other)], ORACLE_LAMBDAS)
        assert result.break_even == result_other.break_even


class TestSweepBounds:
    def test_memory_stays_below_one_curve_matrix(self):
        # runs x (losses + 2) floats plus one block, never a (runs x P_GRID) matrix
        runs = 20_000
        trades = select_trades(random_trade_series(seed=23, n_runs=40), 1.0)
        cfg = SimulationConfig(fill_prob=0.5, runs=runs, seed=5)
        tracemalloc.start()
        try:
            simulate_trades([(trades, cfg)], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < runs * P_GRID.size * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_total_profit_variance_matches_closed_form(self, scenario):
        # independent Bernoulli fills: each random trade adds p(1-p)(V*excess + V*loss)^2
        trades = select_trades(random_trade_series(seed=24, n_runs=300), 1.0)
        runs, p, loss_bp, volume = 4000, 0.6, 1.5, 1e6
        cfg = SimulationConfig(scenario=scenario, fill_prob=p, loss_bp=loss_bp, volume=volume,
                               runs=runs, seed=99)
        (result,) = simulate_trades([(trades, cfg)], [loss_bp])
        excess = np.array([t.initial_gamma - 1.0 for t in trades])
        is_random = np.ones(len(trades), dtype=bool)
        if scenario is Scenario.DURATION_FILL:
            is_random = np.array([t.run_length < CERTAIN_FILL_MIN_RUN_LENGTH for t in trades])
        variance = np.sum(p * (1 - p) * (volume * excess[is_random] + volume * loss_bp * BP) ** 2)
        # four standard errors of a sample variance
        tolerance = 4 * math.sqrt(2 / (runs - 1))
        assert abs(result.summary.total_profit_std ** 2 / variance - 1) < tolerance


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SimulationConfig(fill_prob=1.5)

    def test_zero_runs(self):
        with pytest.raises(ValueError):
            SimulationConfig(runs=0)

    def test_negative_loss(self):
        with pytest.raises(ValueError):
            SimulationConfig(loss_bp=-1)
