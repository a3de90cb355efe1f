"""Monte Carlo trading simulation over rate-product series.

A trade is attempted, at its initial value, on each opportunity whose
initial rate product exceeds the trade threshold. Some trades fill surely
(none under FIXED_FILL; under DURATION_FILL those on runs of at least
`CERTAIN_FILL_MIN_RUN_LENGTH` grid seconds), the rest independently with the
fill probability. A filled trade earns volume * (initial_gamma - 1); an
unfilled one loses a fixed number of basis points of volume. All configs read
one uniform per (run, opportunity i), the run-th double that
`Generator(Philox(key=seed, counter=i * 2**128)).random` draws, so a higher
threshold reuses the uniforms of its trades (common random numbers) and profit
is monotone in the fill probability within a run. Runs come in blocks of
`BLOCK`, reduced with no per-run loop and summed in run order, so no result
depends on BLOCK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import TriarbError
from .opportunity import ArbitrageOpportunity

BP = 1e-4
LEGS_PER_TRANSACTION = 3
# Fill probability grid of the profit curves, the surface and the break-even sweep.
P_GRID = np.linspace(0.0, 1.0, 101)
# Runs at least this long (grid seconds) fill with certainty under DURATION_FILL:
# a one-second label means the opportunity lasted under a second.
CERTAIN_FILL_MIN_RUN_LENGTH = 2
BLOCK = 64  # runs drawn and reduced together by simulate_trades


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
        for holds, rule, value in (
            (0.0 <= self.fill_prob <= 1.0, "fill_prob must be in [0, 1]", self.fill_prob),
            (0.0 < self.loss_bp < math.inf, "loss_bp must be finite and positive", self.loss_bp),
            (0.0 < self.volume < math.inf, "volume must be finite and positive", self.volume),
            (self.runs >= 1, "runs must be >= 1", self.runs),
            (1.0 <= self.gamma_t < math.inf, "gamma_t must be finite and >= 1", self.gamma_t),
            (0.0 <= self.fee_per_trade < math.inf, "fee_per_trade must be finite and >= 0",
             self.fee_per_trade),
            (0 <= self.seed < 2**128, "seed (a Philox key) must be in [0, 2**128)", self.seed),
        ):
            if not holds:
                raise TriarbError(f"{rule}, got {value}")


@dataclass(frozen=True)
class SimulationSummary:
    total_profit: float       # mean over runs
    total_profit_std: float   # sample std over runs
    mean_profit_per_trade_bp: float
    trades_attempted: int
    trades_filled_mean: float
    run_totals: np.ndarray
    n_long: int               # trades on runs of CERTAIN_FILL_MIN_RUN_LENGTH or more
    n_short: int              # and the others
    mean_excess_bp: float     # of all trades: initial gamma - 1, in bp
    analytic_total_profit: float            # closed forms at cfg.fill_prob and cfg.loss_bp
    analytic_break_even_p: Optional[float]  # None without trades
    analytic_break_even_clamped: bool


@dataclass(frozen=True)
class BreakEvenResult:
    lambda_bp: float
    analytic_p: float
    simulated_p: float
    simulated_p_std: float


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


def check_lambda_grid(lambda_grid_bp: Sequence[float]) -> np.ndarray:
    """The loss grid (bp) as an array; it must be non-empty, finite and positive."""
    lam_bp = np.asarray(lambda_grid_bp, dtype=np.float64)
    if lam_bp.size == 0 or not np.all((0 < lam_bp) & (lam_bp < np.inf)):
        raise TriarbError(
            f"loss grid must be non-empty, finite and positive, got {lam_bp.tolist()}")
    return lam_bp


def simulate_trades(ops: Sequence[ArbitrageOpportunity], configs: Sequence[SimulationConfig],
                    lambda_grid_bp: Sequence[float]) -> list[SimulationResult]:
    """Monte Carlo fills for configs sharing seed and runs; each trades the
    opportunities whose initial rate product strictly exceeds its gamma_t.
    The summary and profit curves charge cfg.loss_bp per unfilled trade, the
    surface and the break-even estimates each loss of the grid; only the
    break-even ignores fees. A run whose curve never reaches zero breaks even at 1."""
    lam_bp = check_lambda_grid(lambda_grid_bp)
    shared = {(cfg.seed, cfg.runs) for cfg in configs}
    if len(shared) != 1:
        raise ValueError(f"configs must share one (seed, runs), got {sorted(shared)}")
    ((seed, runs),) = shared
    initial = np.array([op.initial_gamma for op in ops], dtype=np.float64)
    long_run = np.array([op.run_length >= CERTAIN_FILL_MIN_RUN_LENGTH for op in ops], dtype=bool)
    sweeps = [_Sweep(initial, long_run, cfg, lam_bp) for cfg in configs]
    # 0/0 at flat zero crossings, overflow at huge volumes: callers refuse non-finite results
    with np.errstate(all="ignore"):
        for start, u, cell in _uniform_blocks(seed, runs, initial.size):
            for s in sweeps:
                s.add_block(start, u, cell)
        return [s.result() for s in sweeps]


def _uniform_blocks(seed: int, runs: int, n: int):
    """Per block of BLOCK runs: its first run, its (run, opportunity) uniforms
    and their P_GRID cells (the number of grid points at or below each).
    Each opportunity keeps its own Philox stream, about 1 to 1.5 KB of memory
    apiece (10,000 opportunities held 10 to 15 MB)."""
    streams = [np.random.Philox(key=seed, counter=i << 128) for i in range(n)]
    steps = P_GRID.size - 1
    for start in range(0, runs, BLOCK):
        b = min(BLOCK, runs - start)
        raw = np.empty((b, n), dtype=np.uint64)
        for i, bitgen in enumerate(streams):
            raw[:, i] = bitgen.random_raw(b)
        u = (raw >> np.uint64(11)) * 2.0**-53  # Generator.random's doubles: the top 53 bits
        # u * steps is off by at most one cell; one comparison each way corrects it
        cell = np.minimum(u * steps, steps - 1).astype(np.intp) + 1
        cell += P_GRID[cell] <= u
        cell -= P_GRID[cell - 1] > u
        yield start, u, cell


class _Sweep:
    """One config's reductions over the blocks of runs; its trade arrays span
    every opportunity, zero or False off the config's trades."""

    def __init__(self, initial, long_run, cfg: SimulationConfig, lam_bp: np.ndarray):
        self.cfg, self.lam_bp = cfg, lam_bp
        self.trade = initial > cfg.gamma_t
        self.n = int(self.trade.sum())
        self.excess = np.where(self.trade, initial - 1.0, 0.0)
        self.long_mask = long_run & self.trade
        self.certain = self.long_mask & (cfg.scenario is Scenario.DURATION_FILL)
        self.random_idx = np.flatnonzero(self.trade & ~self.certain)
        self.const_excess = float(self.excess[self.certain].sum())
        self.loss = cfg.volume * cfg.loss_bp * BP
        self.lam_cost = cfg.volume * (lam_bp * BP)
        self.fees = self.n * LEGS_PER_TRANSACTION * cfg.fee_per_trade
        self.filled_total, self.shift = 0, None
        # per P_GRID point, summed over runs: the filled excess, the unfilled trades,
        # the profit curve's deviations from the first run's curve and their squares
        self.sums = np.zeros((4, P_GRID.size))
        try:
            self.totals = np.empty(cfg.runs)
            # one row per loss, so that each row reduces as a contiguous 1-D array
            self.crossings = np.empty((lam_bp.size, cfg.runs))
        except (MemoryError, ValueError):  # numpy's ValueError: a size past any address space
            raise TriarbError(
                f"runs {cfg.runs:,}: too many for the per-run results to fit in memory") from None

    def add_block(self, start: int, u: np.ndarray, cell: np.ndarray) -> None:
        cfg, b, bins = self.cfg, u.shape[0], P_GRID.size
        rows = slice(start, start + b)
        filled = self.certain | (self.trade & (u < cfg.fill_prob))
        counts = filled.sum(axis=1)
        sums = np.where(filled, self.excess, 0.0).sum(axis=1)
        self.totals[rows] = cfg.volume * sums - self.loss * (self.n - counts) - self.fees
        self.filled_total += int(counts.sum())
        # per run and P_GRID point p, the random trades with u < p (cell at or below p)
        # and their summed excess (float even with none), from cells offset per run
        idx = (cell[:, self.random_idx] + bins * np.arange(b)[:, None]).ravel()
        unfilled = self.random_idx.size - np.bincount(
            idx, minlength=b * bins).reshape(b, bins).cumsum(axis=1)
        filled_excess = np.bincount(idx, weights=np.tile(self.excess[self.random_idx], b),
                                    minlength=b * bins).reshape(b, bins).cumsum(axis=1, dtype=float)
        gains = cfg.volume * (self.const_excess + filled_excess)
        curves = gains - self.loss * unfilled - self.fees
        self.shift = curves[0].copy() if self.shift is None else self.shift
        dev = curves - self.shift
        # acc + row 0 + row 1 + ...: sums in run order, whatever the block
        block_sums = np.stack((filled_excess, unfilled, dev, dev * dev), axis=1)
        block_sums[0] += self.sums
        self.sums = block_sums.sum(axis=0)
        # break-even profit over (run, loss, p), C-contiguous so that the reshape is a view
        profit = unfilled[:, None, :] * self.lam_cost[:, None]
        np.subtract(gains[:, None, :], profit, out=profit)
        crossing = _zero_crossings(profit.reshape(-1, bins))
        self.crossings[:, rows] = np.where(np.isnan(crossing), 1.0, crossing).reshape(b, -1).T

    def result(self) -> SimulationResult:
        cfg, n, runs, totals = self.cfg, self.n, self.cfg.runs, self.totals
        excess_bp = self.excess / BP
        # the closed forms' inputs: counts and mean excess (bp) of sure and random
        # fills; without trades the mean excess, hence the break-even, is undefined
        split = (int(self.certain.sum()), self.random_idx.size,
                 _mean(excess_bp[self.certain]), _mean(excess_bp[self.random_idx]))
        mean_total, n_long = float(totals.mean()), int(self.long_mask.sum())
        p_be, clamped = analytic_break_even(*split, cfg.loss_bp) if n else (None, False)
        analytic_total = analytic_total_profit(*split, cfg.volume, cfg.fill_prob, cfg.loss_bp)
        summary = SimulationSummary(
            total_profit=mean_total,
            # shifted by a run total: bit-identical runs (p = 0 or 1) have std exactly 0
            total_profit_std=float((totals - totals[0]).std(ddof=1)) if runs > 1 else 0.0,
            mean_profit_per_trade_bp=mean_total / (n * cfg.volume) / BP if n else 0.0,
            trades_attempted=n, trades_filled_mean=self.filled_total / runs, run_totals=totals,
            n_long=n_long, n_short=n - n_long, mean_excess_bp=_mean(excess_bp[self.trade]),
            analytic_total_profit=analytic_total, analytic_break_even_p=p_be,
            analytic_break_even_clamped=clamped,
        )
        filled_mean, unfilled_mean, dev_mean, dev_sq_mean = self.sums / runs
        filled_mean += self.const_excess
        surface_totals = (cfg.volume * filled_mean[:, None]
                          - self.lam_cost[None, :] * unfilled_mean[:, None] - self.fees)
        contour = tuple(zip(self.lam_bp.tolist(), _zero_crossings(surface_totals.T).tolist()))
        mean_bp = surface_totals / (n * cfg.volume) / BP if n else np.zeros_like(surface_totals)
        break_even = tuple(
            BreakEvenResult(lam, analytic_break_even(*split, lam)[0], float(estimates.mean()),
                            float(estimates.std(ddof=1)) if runs > 1 else 0.0)
            for lam, estimates in zip(self.lam_bp.tolist(), self.crossings if n else ()))
        return SimulationResult(
            summary=summary,
            curve_mean=cfg.volume * filled_mean - self.loss * unfilled_mean - self.fees,
            # from the shifted sums: mean square deviation less squared mean deviation
            curve_std=np.sqrt(np.maximum(dev_sq_mean - dev_mean**2, 0.0) * (runs / (runs - 1)))
            if runs > 1 else np.zeros(P_GRID.size),
            surface=ProfitSurface(P_GRID, self.lam_bp, mean_bp, contour),
            break_even=break_even,
        )


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _zero_crossings(curves: np.ndarray) -> np.ndarray:
    """First zero crossing of each row of nondecreasing profit curves over P_GRID:
    P_GRID[0] for a row nonnegative from the start, NaN for one never reaching 0."""
    rows = np.arange(curves.shape[0])
    nonneg = curves >= 0.0
    k = nonneg.argmax(axis=1)
    prev = np.maximum(k - 1, 0)
    t0, t1 = curves[rows, prev], curves[rows, k]
    p0, p1 = P_GRID[prev], P_GRID[k]
    crossing = p0 + (0.0 - t0) * (p1 - p0) / (t1 - t0)
    crossing[k == 0] = P_GRID[0]
    crossing[~nonneg[rows, k]] = np.nan
    return crossing


# closed forms over the sure/random split; FIXED_FILL is n_certain = 0
def analytic_total_profit(n_certain: int, n_random: int, mean_certain_bp: float,
                          mean_random_bp: float, volume: float, fill_prob: float,
                          loss_bp: float) -> float:
    """Expected total profit, before fees, when n_certain trades fill surely
    and n_random fill independently with fill_prob; means are excess in bp."""
    if n_certain < 0 or n_random < 0:
        raise ValueError(f"counts must be >= 0, got {n_certain} and {n_random}")
    return n_certain * volume * (mean_certain_bp * BP) + n_random * volume * (
        fill_prob * (mean_random_bp * BP) - (1.0 - fill_prob) * loss_bp * BP)


def analytic_break_even(n_certain: int, n_random: int, mean_certain_bp: float,
                        mean_random_bp: float, loss_bp: float) -> tuple[float, bool]:
    """(p, clamped): the fill probability at which the expected total profit is
    zero, clamped to [0, 1]; clamped when the sure fills alone cover every loss
    of the random ones, or there is no random trade."""
    if loss_bp <= 0:
        raise ValueError(f"loss_bp must be positive, got {loss_bp}")
    if n_random == 0:
        return 0.0, True
    raw = (1.0 - n_certain * mean_certain_bp / (n_random * loss_bp)) / (
        1.0 + mean_random_bp / loss_bp)
    return (0.0, True) if raw < 0.0 else (min(raw, 1.0), False)
