"""Monte Carlo trading simulation over rate-product series.

A trade is attempted once per opportunity whose initial rate product exceeds
the trade threshold; it is taken at that initial value. Both fill models are
one model: some trades fill surely and the rest fill independently with the
configured probability. Under FIXED_FILL no trade fills surely; under
DURATION_FILL the trades on runs of at least `CERTAIN_FILL_MIN_RUN_LENGTH`
grid seconds do. A filled trade earns volume * (initial_gamma - 1); an
unfilled one loses a fixed number of basis points of volume.

`simulate_trades` evaluates (trades, config) jobs that share one seed and
run count. Run r draws its uniforms once, from the r-th SeedSequence child
of the seed, so runs are reproducible and independent of execution order.
The draw is as long as the largest trade list and each job reads a prefix:
`default_rng(c).random(n)` is a prefix of `.random(N)` for N >= n, so a job
sees what it would draw alone. Runs come in blocks of `BLOCK`, reduced in
run order with no matrix over all runs: the summary totals, the profit curve
over the fill probability grid, the surface over (fill probability, loss)
and each run's break-even fill probability per loss. The curve std needs the
finished mean, so a second pass draws the same streams and adds up squared
deviations. Sharing one draw across the sweep (common random numbers) keeps
profit monotone in the fill probability within a run and makes zero
crossings well defined.
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
# Runs drawn and reduced together by simulate_trades.
BLOCK = 64


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
    jobs: Sequence[tuple[Sequence[ArbitrageOpportunity], SimulationConfig]],
    lambda_grid_bp: Sequence[float],
) -> list[SimulationResult]:
    """Monte Carlo fills for each job of already selected trades and a config.

    The jobs must share cfg.seed and cfg.runs. The summary and the profit
    curves charge cfg.loss_bp per unfilled trade and deduct fees; the surface
    charges each loss of the grid and deducts fees; the break-even estimates
    charge each loss of the grid and ignore fees. A run whose profit curve
    never reaches zero breaks even at 1.
    """
    lam_bp = check_lambda_grid(lambda_grid_bp)
    shared = {(cfg.seed, cfg.runs) for _, cfg in jobs}
    if len(shared) != 1:
        raise ValueError(f"jobs must share one (seed, runs), got {sorted(shared)}")
    ((seed, runs),) = shared
    sweeps = [_Sweep(trades, cfg, lam_bp) for trades, cfg in jobs]
    n_max = max(s.n for s in sweeps)
    # 0/0 at flat zero crossings, overflow at huge volumes: callers refuse non-finite results
    with np.errstate(all="ignore"):
        for start, u, cell in _uniform_blocks(seed, runs, n_max):
            for s in sweeps:
                s.add_block(start, u[:, :s.n], cell[:, :s.n])
        if runs > 1:
            for _, u, cell in _uniform_blocks(seed, runs, n_max):
                for s in sweeps:
                    s.add_squared_deviations(u[:, :s.n], cell[:, :s.n])
        return [s.result() for s in sweeps]


def _uniform_blocks(seed: int, runs: int, n: int):
    """Per block of BLOCK runs: its first run, its uniforms and their P_GRID cells."""
    parent = np.random.SeedSequence(seed)
    for start in range(0, runs, BLOCK):
        # successive spawn calls give the children of one spawn(runs), not all held at once
        children = parent.spawn(min(BLOCK, runs - start))
        u = np.array([np.random.default_rng(c).random(n) for c in children])
        yield start, u, np.searchsorted(P_GRID, u, side="right")


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc plus each row in turn: the order of a sum over axis 0 of all runs."""
    return np.concatenate((acc[None], rows)).sum(axis=0)


class _Sweep:
    """One job's trade arrays and its reductions over the blocks of runs."""

    def __init__(self, trades, cfg: SimulationConfig, lam_bp: np.ndarray):
        self.cfg, self.lam_bp, self.n = cfg, lam_bp, len(trades)
        self.excess = np.array([t.initial_gamma - 1.0 for t in trades], dtype=np.float64)
        self.long_mask = np.array(
            [t.run_length >= CERTAIN_FILL_MIN_RUN_LENGTH for t in trades], dtype=bool)
        # sure fills: none under FIXED_FILL, the long runs under DURATION_FILL
        self.certain = self.long_mask & (cfg.scenario is Scenario.DURATION_FILL)
        self.random_idx = np.flatnonzero(~self.certain)
        self.const_excess = float(self.excess[self.certain].sum())
        self.loss = cfg.volume * cfg.loss_bp * BP
        self.lam_cost = cfg.volume * (lam_bp * BP)
        self.fees = self.n * LEGS_PER_TRANSACTION * cfg.fee_per_trade
        self.totals, self.filled_counts = np.empty((2, cfg.runs))
        # per P_GRID point, summed over runs
        self.filled_sum, self.unfilled, self.curve_sum, self.curve_sq = np.zeros((4, P_GRID.size))
        # one row per loss, so that each row reduces as a contiguous 1-D array
        self.crossings = np.empty((lam_bp.size, cfg.runs), dtype=np.float64)

    def _fill_curves(self, u: np.ndarray, cell: np.ndarray):
        """Per run (row of u) and P_GRID point p: the summed excess of the
        random trades with u < p, the number of them unfilled, and the gain."""
        b, m = u.shape[0], self.random_idx.size
        order = np.argsort(u[:, self.random_idx], axis=1, kind="stable")
        prefix = np.zeros((b, m + 1))
        np.cumsum(self.excess[self.random_idx[order]], axis=1, out=prefix[:, 1:])
        # fills below each p: count the draws per cell (the number of grid
        # points at or below the draw), in cells offset per run
        bins = P_GRID.size + 1
        idx = cell[:, self.random_idx] + bins * np.arange(b)[:, None]
        k = np.bincount(idx.ravel(), minlength=b * bins).reshape(b, bins).cumsum(axis=1)[:, :-1]
        filled_excess = np.take_along_axis(prefix, k, axis=1)
        return filled_excess, m - k, self.cfg.volume * (self.const_excess + filled_excess)

    def add_block(self, start: int, u: np.ndarray, cell: np.ndarray) -> None:
        rows = slice(start, start + u.shape[0])
        filled = self.certain | (u < self.cfg.fill_prob)
        counts = filled.sum(axis=1)
        # one pairwise sum per run; a masked row sum adds in another order
        sums = np.array([self.excess[f].sum() for f in filled])
        self.totals[rows] = self.cfg.volume * sums - self.loss * (self.n - counts) - self.fees
        self.filled_counts[rows] = counts
        fs, nu, gains = self._fill_curves(u, cell)
        self.filled_sum = _add_rows(self.filled_sum, fs)
        self.unfilled = _add_rows(self.unfilled, nu)
        self.curve_sum = _add_rows(self.curve_sum, gains - self.loss * nu - self.fees)
        # break-even profit over (p, run, loss), one column per (run, loss)
        profit = gains.T[:, :, None] - self.lam_cost * nu.T[:, :, None]
        crossing = _zero_crossings(P_GRID, profit.reshape(P_GRID.size, -1))
        crossing[np.isnan(crossing)] = 1.0
        self.crossings[:, rows] = crossing.reshape(-1, self.lam_bp.size).T

    def add_squared_deviations(self, u: np.ndarray, cell: np.ndarray) -> None:
        _, nu, gains = self._fill_curves(u, cell)
        dev = gains - self.loss * nu - self.fees - self.curve_sum / self.cfg.runs
        self.curve_sq = _add_rows(self.curve_sq, np.square(dev))

    def result(self) -> SimulationResult:
        cfg, n, runs, totals = self.cfg, self.n, self.cfg.runs, self.totals
        excess_bp = self.excess / BP
        # the closed forms' inputs: counts and mean excess (bp) of sure and random fills
        split = (int(self.certain.sum()), self.random_idx.size,
                 _mean(excess_bp[self.certain]), _mean(excess_bp[self.random_idx]))
        mean_total = float(totals.mean())
        n_long = int(self.long_mask.sum())
        # without trades the mean excess, hence the break-even, is undefined
        p_be, clamped = analytic_break_even(*split, cfg.loss_bp) if n else (None, False)
        summary = SimulationSummary(
            total_profit=mean_total,
            # shift by a run total before the moment computation; keeps the std
            # of bit-identical runs (p = 0 or 1) at exactly zero
            total_profit_std=float((totals - totals[0]).std(ddof=1)) if runs > 1 else 0.0,
            mean_profit_per_trade_bp=mean_total / (n * cfg.volume) / BP if n else 0.0,
            trades_attempted=n, trades_filled_mean=float(self.filled_counts.mean()),
            run_totals=totals, n_long=n_long, n_short=n - n_long, mean_excess_bp=_mean(excess_bp),
            analytic_total_profit=analytic_total_profit(
                *split, cfg.volume, cfg.fill_prob, cfg.loss_bp),
            analytic_break_even_p=p_be, analytic_break_even_clamped=clamped,
        )
        # surface total(p, lam) = V*(const + mean filled excess[p]) - V*lam*mean unfilled[p] - fees
        surface_totals = (cfg.volume * (self.const_excess + self.filled_sum / runs)[:, None]
                          - self.lam_cost[None, :] * (self.unfilled / runs)[:, None] - self.fees)
        contour = tuple((float(lam), float(p)) for lam, p in
                        zip(self.lam_bp, _zero_crossings(P_GRID, surface_totals)))
        mean_bp = surface_totals / (n * cfg.volume) / BP if n else np.zeros_like(surface_totals)
        # the analytic break-even per loss, and the mean and std of the run crossings
        break_even = []
        for lam, estimates in zip(self.lam_bp.tolist(), self.crossings if n else ()):
            analytic_p, analytic_clamped = analytic_break_even(*split, lam)
            break_even.append(BreakEvenResult(
                lam, analytic_p, float(estimates.mean()),
                float(estimates.std(ddof=1)) if runs > 1 else 0.0, analytic_clamped))
        return SimulationResult(
            summary=summary,
            curve_mean=self.curve_sum / runs,
            curve_std=np.sqrt(self.curve_sq / (runs - 1)) if runs > 1 else np.zeros(P_GRID.size),
            surface=ProfitSurface(P_GRID, self.lam_bp, mean_bp, contour),
            break_even=tuple(break_even),
        )


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


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
    crossing = p0 + (0.0 - t0) * (p1 - p0) / (t1 - t0)
    crossing[k == 0] = p_grid[0]
    crossing[~nonneg[k, cols]] = np.nan
    return crossing


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
