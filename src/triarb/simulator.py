"""Monte Carlo trading simulation over rate-product series.

A trade is attempted once per opportunity whose initial rate product exceeds
the trade threshold; it is taken at that initial value. Both fill models are
one model: some trades fill surely and the rest fill independently with the
configured probability. Under FIXED_FILL no trade fills surely; under
DURATION_FILL the trades on runs of at least `CERTAIN_FILL_MIN_RUN_LENGTH`
grid seconds do. A filled trade earns volume * (initial_gamma - 1); an
unfilled one loses a fixed number of basis points of volume.

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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .opportunity import ArbitrageOpportunity

BP = 1e-4
LEGS_PER_TRANSACTION = 3
# Fill probability grid of the profit curves, the surface and the break-even sweep.
P_GRID = np.linspace(0.0, 1.0, 101)
# Runs at least this long (grid seconds) fill with certainty under DURATION_FILL:
# a one-second label means the opportunity lasted under a second.
CERTAIN_FILL_MIN_RUN_LENGTH = 2


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

    def __post_init__(self):
        # each check states what must hold, so that NaN fails it too
        if not 0.0 <= self.fill_prob <= 1.0:
            raise ValueError(f"fill_prob must be in [0, 1], got {self.fill_prob}")
        if not 0.0 < self.loss_bp < math.inf:
            raise ValueError(f"loss_bp must be finite and positive, got {self.loss_bp}")
        if not 0.0 < self.volume < math.inf:
            raise ValueError(f"volume must be finite and positive, got {self.volume}")
        if not self.runs >= 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not 1.0 <= self.gamma_t < math.inf:
            raise ValueError(f"gamma_t must be finite and >= 1, got {self.gamma_t}")
        if not 0.0 <= self.fee_per_trade < math.inf:
            raise ValueError(f"fee_per_trade must be finite and >= 0, got {self.fee_per_trade}")


@dataclass(frozen=True)
class SimulationSummary:
    total_profit: float       # mean over runs
    total_profit_std: float   # sample std over runs
    mean_profit_per_trade_bp: float
    trades_attempted: int
    trades_filled_mean: float
    run_totals: np.ndarray
    # trades on long runs (see CERTAIN_FILL_MIN_RUN_LENGTH) and the others,
    # and the mean excess (initial gamma - 1) in bp of all trades
    n_long: int
    n_short: int
    mean_excess_bp: float
    # closed forms at cfg.fill_prob and cfg.loss_bp (no break-even without trades)
    analytic_total_profit: float
    analytic_break_even_p: Optional[float]
    analytic_break_even_clamped: bool


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


def filter_trades(
    ops: Sequence[ArbitrageOpportunity], gamma_t: float
) -> list[ArbitrageOpportunity]:
    """One trade per opportunity whose initial rate product strictly exceeds gamma_t."""
    if not gamma_t >= 1.0:
        raise ValueError(f"gamma_t must be >= 1, got {gamma_t}")
    return [op for op in ops if op.initial_gamma > gamma_t]


def check_lambda_grid(lambda_grid_bp: Sequence[float]) -> np.ndarray:
    """The loss grid (bp) as an array; it must be non-empty, finite and positive."""
    lam_bp = np.asarray(lambda_grid_bp, dtype=np.float64)
    if lam_bp.size == 0 or not np.all((0 < lam_bp) & (lam_bp < np.inf)):
        raise ValueError(
            f"loss grid must be non-empty, finite and positive, got {list(lambda_grid_bp)}"
        )
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
    excess, long_mask = _trade_arrays(trades)
    certain = _scenario_split(long_mask, cfg.scenario)
    random_idx = np.flatnonzero(~certain)
    const_excess = float(excess[certain].sum())
    random_excess = excess[random_idx]
    excess_bp = excess / BP
    # the closed forms' inputs: counts and mean excess (bp) of sure and random fills
    split = (int(certain.sum()), random_idx.size,
             _mean(excess_bp[certain]), _mean(excess_bp[random_idx]))
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
        filled = certain | (u < cfg.fill_prob)
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
    n_long = int(long_mask.sum())
    # without trades the mean excess, hence the break-even, is undefined
    p_be, clamped = analytic_break_even(*split, cfg.loss_bp) if n else (None, False)
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
        analytic_total_profit=analytic_total_profit(*split, cfg.volume, cfg.fill_prob, cfg.loss_bp),
        analytic_break_even_p=p_be,
        analytic_break_even_clamped=clamped,
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
        break_even=_break_even(split, lam_bp, crossings) if n else (),
    )


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _trade_arrays(trades: Sequence[ArbitrageOpportunity]):
    excess = np.array([t.initial_gamma - 1.0 for t in trades], dtype=np.float64)
    long_mask = np.array(
        [t.run_length >= CERTAIN_FILL_MIN_RUN_LENGTH for t in trades], dtype=bool
    )
    return excess, long_mask


def _scenario_split(long_mask: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Mask of the trades that fill surely: none under FIXED_FILL, the long
    runs under DURATION_FILL. Every other trade fills with the fill probability."""
    return long_mask if scenario is Scenario.DURATION_FILL else np.zeros_like(long_mask)


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


def _break_even(split: tuple, lam_bp: np.ndarray, crossings: np.ndarray):
    """Analytic break-even fill probability per loss, plus the mean and std of
    the per-run zero crossings (one row of `crossings` per loss)."""
    results = []
    for lam, estimates in zip(lam_bp.tolist(), crossings):
        analytic_p, clamped = analytic_break_even(*split, lam)
        results.append(BreakEvenResult(
            lambda_bp=lam,
            analytic_p=analytic_p,
            simulated_p=float(estimates.mean()),
            simulated_p_std=float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0,
            analytic_clamped=clamped,
        ))
    return tuple(results)


# ---------------------------------------------------------------------------
# closed forms over the sure/random split; FIXED_FILL is n_certain = 0


def analytic_total_profit(
    n_certain: int, n_random: int, mean_certain_bp: float, mean_random_bp: float,
    volume: float, fill_prob: float, loss_bp: float,
) -> float:
    """Expected total profit, before fees, when n_certain trades fill surely
    and n_random fill independently with fill_prob; means are excess in bp."""
    if n_certain < 0 or n_random < 0:
        raise ValueError(f"counts must be >= 0, got {n_certain} and {n_random}")
    return n_certain * volume * (mean_certain_bp * BP) + n_random * volume * (
        fill_prob * (mean_random_bp * BP) - (1.0 - fill_prob) * loss_bp * BP
    )


def analytic_break_even(
    n_certain: int, n_random: int, mean_certain_bp: float, mean_random_bp: float, loss_bp: float
) -> tuple[float, bool]:
    """Fill probability at which the expected total profit is zero, clamped to [0, 1].

    Returns (p, clamped); clamped is True when the sure fills alone cover
    every possible loss of the random ones, which drives the raw value below
    zero (or there is no random trade at all).
    """
    if loss_bp <= 0:
        raise ValueError(f"loss_bp must be positive, got {loss_bp}")
    if n_random == 0:
        return 0.0, True
    raw = (1.0 - n_certain * mean_certain_bp / (n_random * loss_bp)) / (
        1.0 + mean_random_bp / loss_bp
    )
    if raw < 0.0:
        return 0.0, True
    return min(raw, 1.0), False
