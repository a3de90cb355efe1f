"""Monte Carlo simulation, analytic cross-checks, break-even."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triarb import simulator
from triarb.errors import TriarbError
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


def trades_of(ops, gamma_t):
    """The opportunities a config with this threshold trades."""
    return [op for op in ops if op.initial_gamma > gamma_t]


def run_simulation(series, cfg, lambda_grid_bp=(1.5,)):
    (result,) = simulate_trades(segment_opportunities(*series), [cfg], lambda_grid_bp)
    return result


def trades_attempted(series, gamma_t):
    return run_simulation(series, SimulationConfig(gamma_t=gamma_t, runs=1)).summary.trades_attempted


class TestSelectTrades:
    def test_threshold_one_trades_every_opportunity(self):
        series = series_with_runs([(1, 1.00001, 1.00001), (3, 1.0002, 1.0003)])
        assert trades_attempted(series, 1.0) == 2

    def test_initial_below_threshold_excluded(self):
        series = series_with_runs([(2, 1.00005, 1.0003)])
        # threshold tests the tradeable initial value, not the later peak
        assert trades_attempted(series, 1.0001) == 0

    def test_filter_example(self):
        series = series_with_runs(
            [(1, 1.00002, 1.00002), (1, 1.00007, 1.00007), (1, 1.00012, 1.00012)]
        )
        assert trades_attempted(series, 1.00005) == 2

    def test_invalid_threshold(self):
        for gamma_t in (0.99, math.nan, math.inf):
            with pytest.raises(ValueError):
                SimulationConfig(gamma_t=gamma_t)


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
        ops = segment_opportunities(*random_trade_series())
        trades = trades_of(ops, 1.0)
        excess = np.array([t.initial_gamma - 1.0 for t in trades])
        cfg = SimulationConfig(
            fill_prob=0.5, loss_bp=1.5, volume=1e6, runs=1000, seed=11
        )
        (result,) = simulate_trades(ops, [cfg], [1.5])
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
        ops = segment_opportunities(*random_trade_series(seed=9, n_runs=120))
        curves = {}
        for loss_bp in (1.0, 2.0, 3.0):
            cfg = SimulationConfig(loss_bp=loss_bp, runs=15, seed=33)
            (result,) = simulate_trades(ops, [cfg], [loss_bp])
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
        ops = segment_opportunities(*random_trade_series(seed=15, n_runs=500))
        trades = trades_of(ops, 1.0)
        excess = np.array([t.initial_gamma - 1.0 for t in trades])
        (result,) = simulate_trades(ops, [SimulationConfig(runs=50, seed=7)], [1.5])
        (be,) = result.break_even
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            if abs(p - be.analytic_p) < 0.05:
                continue
            total = analytic_total_profit(0, len(trades), 0.0, float(excess.mean()) / BP, 1e6, p, 1.5)
            assert (total > 0) == (p > be.analytic_p)


class TestProfitSurface:
    def test_full_fill_row_ignores_lambda(self):
        ops = segment_opportunities(*random_trade_series(seed=16, n_runs=100))
        excess = np.array([t.initial_gamma - 1.0 for t in trades_of(ops, 1.0)])
        cfg = SimulationConfig(runs=10, seed=5)
        (result,) = simulate_trades(ops, [cfg], [1.0, 1.5, 2.0])
        full_fill = result.surface.mean_profit_bp[-1]
        assert np.allclose(full_fill, excess.mean() / BP)
        assert np.allclose(full_fill, full_fill[0])

    def test_zero_fill_cell_is_minus_lambda(self):
        series = random_trade_series(seed=17, n_runs=100)
        cfg = SimulationConfig(runs=10, seed=5)
        surface = run_simulation(series, cfg, [1.5]).surface
        assert surface.mean_profit_bp[0, 0] == pytest.approx(-1.5)

    def test_zero_contour_matches_analytic(self):
        ops = segment_opportunities(*random_trade_series(seed=18, n_runs=800))
        trades = trades_of(ops, 1.0)
        excess_bp = np.array([t.initial_gamma - 1.0 for t in trades]) / BP
        cfg = SimulationConfig(runs=200, seed=6)
        (result,) = simulate_trades(ops, [cfg], [1.0, 1.5, 2.0])
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
EPS = np.finfo(np.float64).eps / 2  # unit roundoff


def assert_curve_std_within_rounding(curve_std, curves):
    """The one-pass curve std equals numpy's two-pass std of the run curves
    up to the rounding of the two algorithms.

    For R runs with curves y_r (one P_GRID point at a time), S = sum (y_r - mean)^2,
    S_K = sum (y_r - y_0)^2 and Q = sum y_r^2, Chan, Golub & LeVeque (1983)
    bound the error of the sample variance S/(R-1): the textbook one-pass sums
    shifted by y_0 err by at most (R+3)u S_K/(R-1), and the two-pass algorithm
    by at most ((R+3)u S + (R+2)^2 u^2 Q)/(R-1), u being the unit roundoff.
    The sum of the two bounds caps the distance between the two variances;
    the factor 2 covers the sweep's divisions by R, the rounding of S, S_K
    and Q themselves and the squaring of the stds, all of relative order u.
    """
    runs = curves.shape[0]
    s = np.sum((curves - curves.mean(axis=0)) ** 2, axis=0)
    s_k = np.sum((curves - curves[0]) ** 2, axis=0)
    q = np.sum(curves ** 2, axis=0)
    bound = ((runs + 3) * EPS * (s + s_k) + (runs + 2) ** 2 * EPS ** 2 * q) / (runs - 1)
    two_pass = curves.std(axis=0, ddof=1)
    assert np.all(np.abs(curve_std ** 2 - two_pass ** 2) <= 2 * bound)


def assert_matches_reference(result, ops, cfg):
    """Every number of result equals the per-run reference loop exactly, but for
    the curve std, which is checked against numpy's two-pass std within its bound."""
    expected = reference.simulate(ops, cfg, ORACLE_LAMBDAS)
    s = result.summary
    assert dataclasses.asdict(dataclasses.replace(s, run_totals=None)) == dict(
        expected["summary"], run_totals=None)
    assert np.array_equal(s.run_totals, expected["run_totals"])
    assert np.array_equal(result.curve_mean, expected["curve_mean"])
    if cfg.runs > 1:
        assert_curve_std_within_rounding(result.curve_std, expected["curves"])
    else:
        assert np.array_equal(result.curve_std, np.zeros(P_GRID.size))
    assert np.array_equal(result.surface.p_grid, P_GRID)
    assert np.array_equal(result.surface.mean_profit_bp, expected["mean_profit_bp"])
    assert np.array_equal(
        np.array(result.surface.breakeven_contour), np.array(expected["contour"]), equal_nan=True
    )
    got = [(be.lambda_bp, be.analytic_p, be.simulated_p, be.simulated_p_std)
           for be in result.break_even]
    assert got == expected["break_even"]
    assert [be.lambda_bp for be in result.break_even] == (ORACLE_LAMBDAS if s.trades_attempted
                                                          else [])


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
    """The single pass reproduces the per-run reference loop."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_single_pass_matches_reference_loops(self, case):
        cfg = SimulationConfig(seed=2024, **ORACLE_CASES[case])
        ops = segment_opportunities(*random_trade_series(seed=21, n_runs=150))
        (result,) = simulate_trades(ops, [cfg], ORACLE_LAMBDAS)
        assert (result.summary.trades_attempted == 0) == case.startswith("no_trades")
        assert_matches_reference(result, ops, cfg)
        if case == "duration_fee_unreachable":
            assert np.isnan(result.surface.breakeven_contour[-1][1])

    def test_one_call_over_jobs_matches_each_job_alone(self):
        # both scenarios, and trade counts that differ and include 0, share one draw per run
        ops = segment_opportunities(*random_trade_series(seed=21, n_runs=150))
        base = dict(fill_prob=0.6, runs=150, seed=2024)
        configs = [
            SimulationConfig(scenario=Scenario.FIXED_FILL, **base),
            SimulationConfig(scenario=Scenario.DURATION_FILL, gamma_t=1.0001, **base),
            SimulationConfig(scenario=Scenario.FIXED_FILL, gamma_t=1.01, **base),
            SimulationConfig(scenario=Scenario.DURATION_FILL, gamma_t=1.00005, loss_bp=2.0,
                             fee_per_trade=1.25, **base),
        ]
        results = simulate_trades(ops, configs, ORACLE_LAMBDAS)
        counts = [r.summary.trades_attempted for r in results]
        assert 0 in counts and len(set(counts)) == len(counts)
        for cfg, result in zip(configs, results):
            (alone,) = simulate_trades(ops, [cfg], ORACLE_LAMBDAS)
            assert_same_result(result, alone)
            assert_matches_reference(result, ops, cfg)

    def test_jobs_must_share_seed_and_runs(self):
        ops = segment_opportunities(*random_trade_series(seed=22, n_runs=20))
        cfg = SimulationConfig(runs=4, seed=3)
        for other in (dataclasses.replace(cfg, seed=4), dataclasses.replace(cfg, runs=5)):
            with pytest.raises(ValueError, match="share one"):
                simulate_trades(ops, [cfg, other], ORACLE_LAMBDAS)
        with pytest.raises(ValueError, match="share one"):
            simulate_trades(ops, [], ORACLE_LAMBDAS)

    def test_break_even_ignores_fill_prob_loss_and_fees(self):
        ops = segment_opportunities(*random_trade_series(seed=22, n_runs=80))
        cfg = SimulationConfig(runs=12, seed=3)
        other = dataclasses.replace(cfg, fill_prob=0.2, loss_bp=4.0, fee_per_trade=9.0)
        (result,) = simulate_trades(ops, [cfg], ORACLE_LAMBDAS)
        (result_other,) = simulate_trades(ops, [other], ORACLE_LAMBDAS)
        assert result.break_even == result_other.break_even


# nondecreasing rows over P_GRID: whole-number steps, of which zero steps make
# plateaus, from a whole-number start, so that rows meet 0 exactly at grid points;
# scaled by factors that keep those zeros exact
grid_rows = st.builds(
    lambda start, steps, scale: np.cumsum([start, *steps]) * scale,
    st.integers(-300, 20), st.lists(st.integers(0, 6), min_size=P_GRID.size - 1,
                                    max_size=P_GRID.size - 1),
    st.sampled_from([2.0**-30, 0.5, 1.0, 3.0, 1e6]))


class TestZeroCrossings:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(grid_rows, min_size=1, max_size=6))
    def test_bisection_matches_the_reference_scan(self, drawn):
        # besides the drawn rows: one negative throughout (NaN, a break-even of 1),
        # one nonnegative from p = 0 and one with a plateau at exactly 0
        rows = np.array([*drawn, np.full(P_GRID.size, -1.0), np.zeros(P_GRID.size),
                         np.minimum(np.arange(P_GRID.size) - 40.0, 0.0) + np.maximum(
                             np.arange(P_GRID.size) - 60.0, 0.0)])
        lanes = np.arange(len(rows))
        with np.errstate(invalid="ignore"):  # 0/0 where no interpolation is needed, as in the sweep
            got = simulator._zero_crossings(lambda k: rows[lanes, k], lanes.shape)
        expected = [reference._zero_crossing(row) for row in rows]
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.isnan(got[-3]) and got[-2] == P_GRID[0] and got[-1] == P_GRID[40]


class TestDrawContract:
    def test_reference_generator_gives_splitmix64_known_answers(self):
        # the first outputs of splitmix64.c seeded with 0
        bitgen = reference.SplitMix64(0)
        assert [bitgen.next() for _ in range(4)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]

    @pytest.mark.parametrize("seed", [0, 2024, 2**63 + 5, 2**64 - 1])
    def test_uniform_is_a_function_of_seed_run_and_opportunity(self, seed):
        # run r's uniform for opportunity i: output i * 2**32 + r of SplitMix64,
        # so opportunity 0's uniforms are the generator's first outputs in order
        bitgen = reference.SplitMix64(seed)
        first = [bitgen.next() for _ in range(11)]
        u = reference.uniforms(seed, 11, 5)
        assert u[:, 0].tolist() == [(word >> 11) * 2.0**-53 for word in first]
        # the sweep draws them whatever the number of opportunities
        for n in (5, 3):
            drawn = np.concatenate([u.copy() for _, u, _ in simulator._uniform_blocks(seed, 11, n)])
            assert np.array_equal(drawn, u[:, :n])
        # the last run of the last opportunity, where (k + 1) * gamma wraps to 0
        last = np.array([2**32 - 1], dtype=np.uint64)
        word, scratch = np.empty((2, 1, 1), dtype=np.uint64)
        simulator._splitmix64(seed, last, last, word, scratch)
        assert int(word[0, 0]) == reference.splitmix64_output(seed, 2**64 - 1)

    @pytest.mark.parametrize("block", [7, BLOCK])
    def test_blocks_hold_the_reference_draws_and_their_cells(self, monkeypatch, block):
        monkeypatch.setattr(simulator, "BLOCK", block)
        blocks = [(start, u.copy(), cell.copy())
                  for start, u, cell in simulator._uniform_blocks(2024, 300, 9)]
        assert [start for start, _, _ in blocks] == list(range(0, 300, block))
        u = np.concatenate([u for _, u, _ in blocks])
        assert np.array_equal(u, reference.uniforms(2024, 300, 9))
        cells = np.concatenate([cell for _, _, cell in blocks])
        assert np.array_equal(cells, np.searchsorted(P_GRID, u, side="right"))

    def test_blocks_shrink_to_the_cell_cap(self, monkeypatch):
        n = 5000
        runs = simulator.BLOCK_CELLS // n
        assert runs < BLOCK
        blocks = list(simulator._uniform_blocks(3, 130, n))
        assert [start for start, _, _ in blocks] == list(range(0, 130, runs))
        assert [u.shape for _, u, _ in blocks] == [(runs, n), (runs, n), (130 - 2 * runs, n)]
        # more opportunities than the cap allows cells: one run per block
        monkeypatch.setattr(simulator, "BLOCK_CELLS", 4)
        blocks = [(start, u.copy(), cell) for start, u, cell in simulator._uniform_blocks(3, 5, 9)]
        assert [u.shape for _, u, _ in blocks] == [(1, 9)] * 5
        assert np.array_equal(np.concatenate([u for _, u, _ in blocks]),
                              reference.uniforms(3, 5, 9))

    def test_every_block_is_drawn_into_the_same_arrays(self):
        # 130 runs over 5000 opportunities: two full blocks, then a shorter one in
        # the leading rows of the same uniforms and cells
        firsts = [(u, cell, u[0, 0], cell[0, 0])
                  for _, u, cell in simulator._uniform_blocks(3, 130, 5000)]
        (u0, cell0, _, _), *rest = firsts
        assert len(rest) == 2
        assert all(np.shares_memory(u, u0) and np.shares_memory(cell, cell0)
                   for u, cell, _, _ in rest)
        expected = reference.uniforms(3, 130, 1)[::simulator.BLOCK_CELLS // 5000, 0]
        assert [x for _, _, x, _ in firsts] == expected.tolist()

    def test_cells_at_the_grid_points(self, monkeypatch):
        # the uniforms (multiples of 2**-53) next to each grid point, where u * 100
        # rounds; a fake word function hands the sweep the words that give them
        near = np.floor(P_GRID * 2.0**53).astype(np.int64)[:, None] + np.arange(-2, 3)
        k = np.unique(np.clip(near, 0, 2**53 - 1)).astype(np.uint64)
        u, words = k * 2.0**-53, k << np.uint64(11)

        def draw(seed, runs, ops, z, shifted):
            z[:] = words[runs.astype(np.intp)][:, None]

        monkeypatch.setattr(simulator, "_splitmix64", draw)
        monkeypatch.setattr(simulator, "BLOCK", u.size)
        ((_, drawn, cells),) = simulator._uniform_blocks(0, u.size, 1)
        assert np.array_equal(drawn[:, 0], u)
        assert np.array_equal(cells[:, 0], np.searchsorted(P_GRID, u, side="right"))

    def test_seed_and_runs_outside_the_draw_range_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(TriarbError, match="seed"):
                SimulationConfig(seed=seed)
        with pytest.raises(TriarbError, match="runs"):
            SimulationConfig(runs=2**32 + 1)
        SimulationConfig(seed=2**64 - 1, runs=2**32)

        class Many:  # more opportunities than a draw's counter indexes
            def __len__(self):
                return 2**32 + 1

        with pytest.raises(ValueError, match="2\\*\\*32 opportunities") as refused:
            simulate_trades(Many(), [SimulationConfig()], ORACLE_LAMBDAS)
        assert refused.type is ValueError  # an internal error, not an input one

    def test_results_do_not_depend_on_block_or_run_count(self, monkeypatch):
        base = dict(fill_prob=0.45, loss_bp=2.0, fee_per_trade=0.25, runs=130, seed=77)
        configs = [SimulationConfig(scenario=scenario, gamma_t=gamma_t, **base)
                   for scenario in Scenario for gamma_t in (1.0, 1.0001)]
        # at 5,000 opportunities the cell cap shrinks blocks of 64 and 130 runs to 52
        for n_runs in (60, 5000):
            ops = segment_opportunities(*random_trade_series(seed=25, n_runs=n_runs))
            results = {}
            for block in (1, 7, 64, base["runs"]):
                monkeypatch.setattr(simulator, "BLOCK", block)
                results[block] = simulate_trades(ops, configs, ORACLE_LAMBDAS)
            for block, got in results.items():
                for a, b in zip(got, results[base["runs"]]):
                    assert_same_result(a, b)
            # a shorter sweep draws the same uniforms for its runs
            fewer = [dataclasses.replace(cfg, runs=50) for cfg in configs]
            for a, b in zip(simulate_trades(ops, fewer, ORACLE_LAMBDAS), results[7]):
                assert np.array_equal(a.summary.run_totals, b.summary.run_totals[:50])
        assert simulator.BLOCK_CELLS // len(ops) < 64

    def test_thresholds_share_the_fills_of_shared_opportunities(self):
        # one opportunity below the higher threshold and twenty above it: under
        # common random numbers the two configs' run totals differ only by that
        # one trade, a gain when it fills and a loss when it does not
        low = 1.00002
        series = series_with_runs([(1, low, low)] + [(1, 1.0002 + 1e-5 * i, 1.0003)
                                                     for i in range(20)])
        ops = segment_opportunities(*series)
        base = dict(fill_prob=0.5, loss_bp=1.5, volume=1e6, runs=300, seed=8)
        every, high = simulate_trades(
            ops, [SimulationConfig(**base), SimulationConfig(gamma_t=1.0001, **base)], [1.5])
        assert (every.summary.trades_attempted, high.summary.trades_attempted) == (21, 20)
        diff = every.summary.run_totals - high.summary.run_totals
        gain, loss = 1e6 * (low - 1.0), -1e6 * 1.5 * BP
        filled = np.isclose(diff, gain, rtol=0, atol=1e-6)
        assert np.all(filled | np.isclose(diff, loss, rtol=0, atol=1e-6))
        assert 0 < filled.sum() < base["runs"]


class TestSweepBounds:
    def test_memory_stays_below_one_curve_matrix(self):
        # runs x (losses + 2) floats plus one block, never a (runs x P_GRID) matrix
        runs = 20_000
        ops = segment_opportunities(*random_trade_series(seed=23, n_runs=40))
        cfg = SimulationConfig(fill_prob=0.5, runs=runs, seed=5)
        tracemalloc.start()
        try:
            simulate_trades(ops, [cfg], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < runs * P_GRID.size * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("n_runs, lambdas", [
        (20_000, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        (40, np.linspace(0.01, 5.0, 500).tolist()),
    ], ids=["20000-opportunities", "40-opportunities-500-losses"])
    def test_memory_stays_within_the_block_cap(self, n_runs, lambdas):
        # 20,000 opportunities: blocks of 13 runs, so that no block array passes
        # BLOCK_CELLS elements. At most eight such arrays of 8-byte words are live
        # at once, beside four words per opportunity for each config and the sweep
        # and each config's per-run results. 40 opportunities and 500 losses:
        # blocks of 64 runs, whose break-evens need no (runs, losses, P_GRID) array.
        ops = segment_opportunities(*random_trade_series(seed=26, n_runs=n_runs))
        runs = 100
        configs = [SimulationConfig(scenario=scenario, gamma_t=gamma_t, fill_prob=0.5, runs=runs,
                                    seed=5) for scenario in Scenario for gamma_t in (1.0, 1.0001)]
        tracemalloc.start()
        try:
            simulate_trades(ops, configs, lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        words = (8 * simulator.BLOCK_CELLS + 4 * (len(configs) + 1) * len(ops)
                 + len(configs) * runs * (len(lambdas) + 1))
        assert peak < words * np.dtype(np.float64).itemsize

    def test_break_evens_take_a_few_arrays_per_loss(self):
        # 4 configs, 500 losses, blocks of 64 runs over 40 opportunities: besides each
        # config's per-run results and the block's curves over P_GRID, the bisection
        # holds at most seven arrays of one word per (config, loss, run of the block):
        # the profits and unfilled costs at a probed point, two int and two float
        # arrays of its own, and its masks, each at most one byte per element
        ops = segment_opportunities(*random_trade_series(seed=26, n_runs=40))
        runs, lambdas = 100, np.linspace(0.01, 5.0, 500).tolist()
        configs = [SimulationConfig(scenario=scenario, gamma_t=gamma_t, fill_prob=0.5, runs=runs,
                                    seed=5) for scenario in Scenario for gamma_t in (1.0, 1.0001)]
        block = simulator._block_runs(len(ops))
        tracemalloc.start()
        try:
            simulate_trades(ops, configs, lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        words = (len(configs) * runs * (len(lambdas) + 1)
                 + (2 * len(configs) + 1) * (block + 1) * P_GRID.size
                 + 7 * len(configs) * len(lambdas) * block)
        assert peak < words * np.dtype(np.float64).itemsize

    def test_per_run_results_past_memory_are_an_input_error(self, monkeypatch):
        # runs are at most 2**32, whose per-run results only some machines can hold
        def refuse(*args, **kwargs):
            raise MemoryError

        ops = segment_opportunities(*random_trade_series(seed=23, n_runs=10))
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(TriarbError, match=f"runs {2**32:,}: too many for the per-run results"):
            simulate_trades(ops, [SimulationConfig(runs=2**32)], ORACLE_LAMBDAS)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_total_profit_variance_matches_closed_form(self, scenario):
        # independent Bernoulli fills: each random trade adds p(1-p)(V*excess + V*loss)^2
        ops = segment_opportunities(*random_trade_series(seed=24, n_runs=300))
        trades = trades_of(ops, 1.0)
        runs, p, loss_bp, volume = 4000, 0.6, 1.5, 1e6
        cfg = SimulationConfig(scenario=scenario, fill_prob=p, loss_bp=loss_bp, volume=volume,
                               runs=runs, seed=99)
        (result,) = simulate_trades(ops, [cfg], [loss_bp])
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
