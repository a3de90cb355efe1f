"""Monte Carlo trading simulation over rate-product series.

A trade is attempted once per opportunity whose initial rate product exceeds
the trade threshold; it is taken at that initial value. Two fill models are
supported: every trade fills independently with a fixed probability, or
trades on runs of at least `certain_fill_min_run_length` grid seconds fill
with certainty while the rest fill with the configured probability. A filled
trade earns volume * (initial_gamma - 1); an unfilled one loses a fixed
number of basis points of volume.

`simulate_trades` makes one pass over per-run random streams spawned from
the config seed with numpy's SeedSequence, so runs are reproducible and
independent of execution order. Each run draws one uniform per trade, and
every quantity is reduced from that draw as the pass goes: the summary
totals at the configured fill probability, the profit curve over the fill
probability grid, the profit surface over (fill probability, loss) and the
per-run break-even fill probability for each loss. Sharing the draw across
the whole sweep (common random numbers) keeps profit monotone in the fill
probability within a run and makes zero crossings well defined.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .opportunity import ArbitrageOpportunity

BP = 1e-4
LEGS_PER_TRANSACTION = 3
# Fill probability grid of the profit curves, the surface and the break-even sweep.
P_GRID = np.linspace(0.0, 1.0, 101)


class Scenario(Enum):
    FIXED_FILL = "fixed"
    DURATION_FILL = "duration"


@dataclass(frozen=True)
class SimulationConfig:
    gamma_t: float = 1.0
    scenario: Scenario = Scenario.FIXED_FILL
    fill_prob: float = 1.0
    loss_bp: float = 1.5
    volume: float = 1_000_000.0
    runs: int = 100
    seed: int = 0
    fee_per_trade: float = 0.0
    # Runs at least this long (grid seconds) fill with certainty under
    # DURATION_FILL; a one-second label means the opportunity lasted under
    # a second, hence the default of 2.
    certain_fill_min_run_length: int = 2

    def __post_init__(self):
        if not 0.0 <= self.fill_prob <= 1.0:
            raise ValueError(f"fill_prob must be in [0, 1], got {self.fill_prob}")
        if self.loss_bp < 0:
            raise ValueError(f"loss_bp must be >= 0, got {self.loss_bp}")
        if self.volume <= 0:
            raise ValueError(f"volume must be positive, got {self.volume}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.gamma_t < 1.0:
            raise ValueError(f"gamma_t must be >= 1, got {self.gamma_t}")
        if self.fee_per_trade < 0:
            raise ValueError(f"fee_per_trade must be >= 0, got {self.fee_per_trade}")
        if self.certain_fill_min_run_length < 1:
            raise ValueError("certain_fill_min_run_length must be >= 1")


@dataclass(frozen=True)
class SimulationSummary:
    total_profit: float       # mean over runs
    total_profit_std: float   # sample std over runs
    mean_profit_per_trade_bp: float
    trades_attempted: int
    trades_filled_mean: float
    run_totals: np.ndarray
    # the closed forms' inputs: the duration scenario's long/short split and
    # the mean excess (initial gamma - 1) in bp of all, long and short trades
    n_long: int
    n_short: int
    mean_excess_bp: float
    mean_long_bp: float
    mean_short_bp: float


@dataclass(frozen=True)
class BreakEvenResult:
    lambda_bp: float
    analytic_p: float
    simulated_p: float
    simulated_p_std: float
    analytic_clamped: bool = False


@dataclass(frozen=True)
class ProfitSurface:
    p_grid: np.ndarray
    lambda_grid_bp: np.ndarray
    mean_profit_bp: np.ndarray          # shape (len(p_grid), len(lambda_grid_bp))
    breakeven_contour: tuple[tuple[float, float], ...]  # (lambda_bp, p) rows; p is NaN if unreachable


@dataclass(frozen=True)
class SimulationResult:
    summary: SimulationSummary          # totals at cfg.fill_prob and cfg.loss_bp
    curve_mean: np.ndarray              # total profit per P_GRID point, mean over runs
    curve_std: np.ndarray               # and its sample std over runs
    surface: ProfitSurface              # over P_GRID x lambda grid
    break_even: tuple[BreakEvenResult, ...]  # one per lambda; empty without trades


@dataclass(frozen=True)
class MaxVolumeResult:
    max_stake: Optional[float]
    unbounded: bool
    gamma: float
    profit_cap: Optional[float]


def filter_trades(
    ops: Sequence[ArbitrageOpportunity], gamma_t: float
) -> list[ArbitrageOpportunity]:
    """One trade per opportunity whose initial rate product strictly exceeds gamma_t."""
    if gamma_t < 1.0:
        raise ValueError(f"gamma_t must be >= 1, got {gamma_t}")
    return [op for op in ops if op.initial_gamma > gamma_t]


def check_lambda_grid(lambda_grid_bp: Sequence[float]) -> np.ndarray:
    """The loss grid (bp) as an array; it must be non-empty and positive."""
    lam_bp = np.asarray(lambda_grid_bp, dtype=np.float64)
    if lam_bp.size == 0 or not np.all(lam_bp > 0):
        raise ValueError(f"loss grid must be non-empty and positive, got {list(lambda_grid_bp)}")
    return lam_bp


def simulate_trades(
    trades: Sequence[ArbitrageOpportunity],
    cfg: SimulationConfig,
    lambda_grid_bp: Sequence[float],
) -> SimulationResult:
    """Monte Carlo fills over an already selected trade list, in one seeded pass.

    The summary and the profit curves charge cfg.loss_bp per unfilled trade
    and deduct fees; the surface charges each loss of the grid and deducts
    fees; the break-even estimates charge each loss of the grid and ignore
    fees. A run whose profit curve never reaches zero breaks even at 1.
    """
    lam_bp = check_lambda_grid(lambda_grid_bp)
    n = len(trades)
    excess, long_mask = _trade_arrays(trades, cfg.certain_fill_min_run_length)
    const_excess, random_idx = _scenario_split(excess, long_mask, cfg.scenario)
    random_excess = excess[random_idx]
    loss = cfg.volume * cfg.loss_bp * BP
    lam_cost = cfg.volume * (lam_bp * BP)
    fees = n * LEGS_PER_TRANSACTION * cfg.fee_per_trade

    totals = np.empty(cfg.runs, dtype=np.float64)
    filled_counts = np.empty(cfg.runs, dtype=np.float64)
    curves = np.empty((cfg.runs, P_GRID.size), dtype=np.float64)
    filled_sum = np.zeros(P_GRID.size, dtype=np.float64)
    unfilled = np.zeros(P_GRID.size, dtype=np.float64)
    # one row per loss, so that each row reduces as a contiguous 1-D array
    crossings = np.empty((lam_bp.size, cfg.runs), dtype=np.float64)
    for r, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.runs)):
        u = np.random.default_rng(child).random(n)
        filled = u < cfg.fill_prob
        if cfg.scenario is Scenario.DURATION_FILL:
            filled |= long_mask
        totals[r] = cfg.volume * excess[filled].sum() - loss * (n - filled.sum()) - fees
        filled_counts[r] = filled.sum()

        fs, nu = _sorted_fill_curves(u[random_idx], random_excess, P_GRID)
        filled_sum += fs
        unfilled += nu
        gains = cfg.volume * (const_excess + fs)
        curves[r] = gains - loss * nu - fees
        run_crossings = _zero_crossings(P_GRID, gains[:, None] - lam_cost[None, :] * nu[:, None])
        crossings[:, r] = np.where(np.isnan(run_crossings), 1.0, run_crossings)

    # shift by a run total before the moment computation; keeps the std of
    # bit-identical runs (p = 0 or 1) at exactly zero
    std = float((totals - totals[0]).std(ddof=1)) if cfg.runs > 1 else 0.0
    mean_total = float(totals.mean())
    excess_bp = excess / BP
    n_long = int(long_mask.sum())
    summary = SimulationSummary(
        total_profit=mean_total,
        total_profit_std=std,
        mean_profit_per_trade_bp=mean_total / (n * cfg.volume) / BP if n else 0.0,
        trades_attempted=n,
        trades_filled_mean=float(filled_counts.mean()),
        run_totals=totals,
        n_long=n_long,
        n_short=n - n_long,
        mean_excess_bp=_mean(excess_bp),
        mean_long_bp=_mean(excess_bp[long_mask]),
        mean_short_bp=_mean(excess_bp[~long_mask]),
    )

    # surface total(p, lam) = V*(const + mean filled excess[p]) - V*lam*mean unfilled[p] - fees
    surface_totals = (
        cfg.volume * (const_excess + filled_sum / cfg.runs)[:, None]
        - lam_cost[None, :] * (unfilled / cfg.runs)[:, None]
        - fees
    )
    contour = tuple(
        (float(lam), float(p)) for lam, p in zip(lam_bp, _zero_crossings(P_GRID, surface_totals))
    )
    mean_bp = surface_totals / (n * cfg.volume) / BP if n else np.zeros_like(surface_totals)

    return SimulationResult(
        summary=summary,
        curve_mean=curves.mean(axis=0),
        curve_std=curves.std(axis=0, ddof=1) if cfg.runs > 1 else np.zeros(P_GRID.size),
        surface=ProfitSurface(P_GRID, lam_bp, mean_bp, contour),
        # without trades the mean excess, hence the analytic break-even, is undefined
        break_even=_break_even(cfg.scenario, summary, lam_bp, crossings) if n else (),
    )


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _trade_arrays(trades: Sequence[ArbitrageOpportunity], min_long: int):
    excess = np.array([t.initial_gamma - 1.0 for t in trades], dtype=np.float64)
    long_mask = np.array([t.run_length >= min_long for t in trades], dtype=bool)
    return excess, long_mask


def _scenario_split(excess: np.ndarray, long_mask: np.ndarray, scenario: Scenario):
    """(certain excess sum, random-trade index array) for the scenario."""
    if scenario is Scenario.FIXED_FILL:
        return 0.0, np.arange(excess.size)
    return float(excess[long_mask].sum()), np.flatnonzero(~long_mask)


def _sorted_fill_curves(
    u: np.ndarray, excess: np.ndarray, p_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each p: (sum of excess over trades with u < p, number unfilled)."""
    order = np.argsort(u, kind="stable")
    u_sorted = u[order]
    prefix = np.concatenate(([0.0], np.cumsum(excess[order])))
    k = np.searchsorted(u_sorted, p_grid, side="left")
    return prefix[k], u.size - k


def _zero_crossings(p_grid: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """First zero crossing of each column of nondecreasing profit curves.

    Rows follow p_grid. A column that is nonnegative from the start crosses
    at p_grid[0]; one that never reaches zero on the grid gives NaN.
    """
    cols = np.arange(totals.shape[1])
    nonneg = totals >= 0.0
    k = nonneg.argmax(axis=0)
    prev = np.maximum(k - 1, 0)
    t0, t1 = totals[prev, cols], totals[k, cols]
    p0, p1 = p_grid[prev], p_grid[k]
    with np.errstate(invalid="ignore", divide="ignore"):
        crossing = p0 + (0.0 - t0) * (p1 - p0) / (t1 - t0)
    crossing[k == 0] = p_grid[0]
    crossing[~nonneg[k, cols]] = np.nan
    return crossing


def _break_even(
    scenario: Scenario, summary: SimulationSummary, lam_bp: np.ndarray, crossings: np.ndarray,
) -> tuple[BreakEvenResult, ...]:
    """Analytic break-even fill probability per loss, plus the mean and std of
    the per-run zero crossings (one row of `crossings` per loss)."""
    results = []
    for lam, estimates in zip(lam_bp.tolist(), crossings):
        analytic_p, clamped = analytic_break_even(summary, scenario, lam)
        results.append(BreakEvenResult(
            lambda_bp=lam,
            analytic_p=analytic_p,
            simulated_p=float(estimates.mean()),
            simulated_p_std=float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0,
            analytic_clamped=clamped,
        ))
    return tuple(results)


# ---------------------------------------------------------------------------
# analytic forms


def analytic_total_profit_fixed(
    n_trades: int, volume: float, fill_prob: float, loss_bp: float, mean_excess: float
) -> float:
    """Expected total profit when every trade fills independently with fill_prob."""
    _check_analytic_args(n_trades, volume, fill_prob, loss_bp)
    return n_trades * volume * (fill_prob * mean_excess - (1.0 - fill_prob) * loss_bp * BP)


def analytic_total_profit_duration(
    n_long: int,
    n_short: int,
    volume: float,
    fill_prob: float,
    loss_bp: float,
    mean_excess_long: float,
    mean_excess_short: float,
) -> float:
    """Expected total profit when long runs fill surely and short ones with fill_prob."""
    _check_analytic_args(n_long, volume, fill_prob, loss_bp)
    if n_short < 0:
        raise ValueError(f"counts must be >= 0, got n_short={n_short}")
    certain = n_long * volume * mean_excess_long
    return certain + analytic_total_profit_fixed(
        n_short, volume, fill_prob, loss_bp, mean_excess_short
    )


def analytic_break_even(
    summary: SimulationSummary, scenario: Scenario, loss_bp: float
) -> tuple[float, bool]:
    """(p, clamped): the scenario's closed-form break-even for the summary's trades."""
    if scenario is Scenario.FIXED_FILL:
        return analytic_break_even_fixed(summary.mean_excess_bp, loss_bp), False
    return analytic_break_even_duration(
        summary.n_long, summary.n_short, summary.mean_long_bp, summary.mean_short_bp, loss_bp
    )


def analytic_break_even_fixed(mean_excess_bp: float, loss_bp: float) -> float:
    """Fill probability at which the fixed-fill expected profit is zero."""
    if loss_bp <= 0:
        raise ValueError(f"loss_bp must be positive, got {loss_bp}")
    return 1.0 / (1.0 + mean_excess_bp / loss_bp)


def analytic_break_even_duration(
    n_long: int,
    n_short: int,
    mean_excess_long_bp: float,
    mean_excess_short_bp: float,
    loss_bp: float,
) -> tuple[float, bool]:
    """Break-even fill probability for the duration scenario, clamped to [0, 1].

    Returns (p, clamped); clamped is True when the certain long-run profits
    alone cover every possible short-run loss, which drives the raw value
    below zero (or there is no short trade at all).
    """
    if loss_bp <= 0:
        raise ValueError(f"loss_bp must be positive, got {loss_bp}")
    if n_long < 0 or n_short < 0:
        raise ValueError("counts must be >= 0")
    if n_short == 0:
        return 0.0, True
    raw = (1.0 - n_long * mean_excess_long_bp / (n_short * loss_bp)) / (
        1.0 + mean_excess_short_bp / loss_bp
    )
    if raw < 0.0:
        return 0.0, True
    return min(raw, 1.0), False


def _check_analytic_args(count: int, volume: float, fill_prob: float, loss_bp: float) -> None:
    if count < 0:
        raise ValueError(f"counts must be >= 0, got {count}")
    if volume <= 0:
        raise ValueError(f"volume must be positive, got {volume}")
    if not 0.0 <= fill_prob <= 1.0:
        raise ValueError(f"fill_prob must be in [0, 1], got {fill_prob}")
    if loss_bp < 0:
        raise ValueError(f"loss_bp must be >= 0, got {loss_bp}")


# ---------------------------------------------------------------------------
# leg volume arithmetic


def max_arb_volume(
    leg_limits: Sequence[Optional[float]], rates: Sequence[float]
) -> MaxVolumeResult:
    """Largest initial stake that keeps every leg inside its available volume.

    `leg_limits[i]` caps the amount entering leg i, denominated in that
    leg's input currency; None means unconstrained. `rates[i]` is the
    effective conversion rate of leg i, so the amount entering leg i equals
    the stake times the product of the previous legs' rates.
    """
    if len(leg_limits) != len(rates) or not rates:
        raise ValueError("need one limit per leg")
    gamma = 1.0
    bounds = []
    for limit, rate in zip(leg_limits, rates):
        if rate <= 0:
            raise ValueError(f"leg rates must be positive, got {rate}")
        if limit is not None:
            if limit <= 0:
                raise ValueError(f"leg limits must be positive, got {limit}")
            bounds.append(limit / gamma)  # gamma so far = product of previous rates
        gamma *= rate
    if not bounds:
        return MaxVolumeResult(None, True, gamma, None)
    stake = min(bounds)
    return MaxVolumeResult(stake, False, gamma, stake * (gamma - 1.0))


# ---------------------------------------------------------------------------
# emitters


def write_surface_csv(path, surface: ProfitSurface) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "lambda_bp", "mean_profit_bp"])
        for i, p in enumerate(surface.p_grid):
            for j, lam in enumerate(surface.lambda_grid_bp):
                writer.writerow(
                    [repr(float(p)), repr(float(lam)), repr(float(surface.mean_profit_bp[i, j]))]
                )


def write_contour_csv(path, surface: ProfitSurface) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda_bp", "break_even_p"])
        for lam, p in surface.breakeven_contour:
            writer.writerow([repr(lam), "" if np.isnan(p) else repr(p)])


def write_profit_curves_csv(path, rows: Sequence[tuple[str, float, float, float, float]]) -> None:
    """Rows: (scenario, gamma_t, p, total_profit_mean, total_profit_std)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "gamma_t", "p", "total_profit_mean", "total_profit_std"])
        for scenario, gamma_t, p, mean, std in rows:
            writer.writerow([scenario, repr(gamma_t), repr(p), repr(mean), repr(std)])


def write_breakeven_csv(
    path, rows: Sequence[tuple[str, float, float, float, float, float]]
) -> None:
    """Rows: (scenario, gamma_t, lambda_bp, analytic_p, simulated_p, simulated_p_std)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["scenario", "gamma_t", "lambda_bp", "analytic_p", "simulated_p", "simulated_p_std"]
        )
        for scenario, gamma_t, lam, ap, sp, sps in rows:
            writer.writerow([scenario, repr(gamma_t), repr(lam), repr(ap), repr(sp), repr(sps)])
