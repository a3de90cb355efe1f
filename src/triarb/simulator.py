"""Monte Carlo trading simulation over rate-product series.

A trade is attempted, at its initial value, on each opportunity whose
initial rate product exceeds the trade threshold. Some trades fill surely
(none under FIXED_FILL; under DURATION_FILL those on runs of at least
`CERTAIN_FILL_MIN_RUN_LENGTH` grid seconds), the rest independently with the
fill probability. A filled trade earns volume * (initial_gamma - 1); an
unfilled one loses a fixed number of basis points of volume. All configs read
one uniform per (run r, opportunity i): the top 53 bits, scaled by 2**-53, of
output k = i * 2**32 + r of SplitMix64 seeded with the seed (Steele, Lea &
Flood 2014; Vigna's `splitmix64.c`). That output is a hash of
seed + (k + 1) * 0x9E3779B97F4A7C15 (mod 2**64), so numpy computes a block of
them as one uint64 array. A higher threshold reuses the uniforms of its trades
(common random numbers), and profit is monotone in the fill probability within
a run. Runs come in blocks of at most `BLOCK` and at most `BLOCK_CELLS`
(run, opportunity) cells, reduced with no per-run loop and summed in run
order, so no result depends on the block size. A block's draws and its
per-run curves over P_GRID go to arrays allocated once per call and reused
by every block. A run's break-even profit, gains less the loss times the
unfilled trades, is nondecreasing in the fill probability where finite, so
one bisection over P_GRID per block finds every config's, loss's and run's
first nonnegative point.
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
BLOCK_CELLS = 2**18  # and at most this many (run, opportunity) cells in a block
GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's state increment


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
            (1 <= self.runs <= 2**32, "runs must be in [1, 2**32]", self.runs),
            (1.0 <= self.gamma_t < math.inf, "gamma_t must be finite and >= 1", self.gamma_t),
            (0.0 <= self.fee_per_trade < math.inf, "fee_per_trade must be finite and >= 0",
             self.fee_per_trade),
            (0 <= self.seed < 2**64, "seed must be in [0, 2**64)", self.seed),
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
    if len(ops) > 2**32:  # an opportunity index must fit the high half of a draw's counter
        raise ValueError(f"at most 2**32 opportunities, got {len(ops)}")
    initial = np.array([op.initial_gamma for op in ops], dtype=np.float64)
    long_run = np.array([op.run_length >= CERTAIN_FILL_MIN_RUN_LENGTH for op in ops], dtype=bool)
    sweeps = [_Sweep(initial, long_run, cfg, lam_bp) for cfg in configs]
    # the block's per-run curves over P_GRID, allocated once: every config's
    # break-even gains and unfilled trades, and rows for one sum at a time
    block, bins = min(runs, _block_runs(initial.size)), P_GRID.size
    gains, unfilled = np.empty((2, len(sweeps), block, bins))
    rows = np.empty((block + 1, bins))
    # the flat offset of a (config, run) curve, and each (config, loss)'s cost per unfilled trade
    config, run = np.ogrid[:len(sweeps), :block]
    curve_at = ((config * block + run) * bins)[:, None]
    cost = np.array([s.lam_cost for s in sweeps])[:, :, None]
    # each (config, loss, run)'s profit at a probed point, and its unfilled trades' cost there
    values, charges = np.empty((2, len(sweeps) * lam_bp.size * block))
    # 0/0 at flat zero crossings, overflow at huge volumes: callers refuse non-finite results
    with np.errstate(all="ignore"):
        for start, u, cell in _uniform_blocks(seed, runs, initial.size):
            b = u.shape[0]
            for s, g, f in zip(sweeps, gains, unfilled):
                s.add_block(start, u, cell, g[:b], f[:b], rows[:b + 1])
            shape = (len(sweeps), lam_bp.size, b)
            value, charge = (a[:math.prod(shape)].reshape(shape) for a in (values, charges))
            at = curve_at[..., :b]

            def profit(k):  # at P_GRID index k of each (config, loss, run), into `value`
                k += at  # the flat index of each point, for the takes; k is restored after
                # "clip" takes the in-range indices straight into `out`, "raise" through a copy
                gains.take(k, out=value, mode="clip")
                unfilled.take(k, out=charge, mode="clip")
                k -= at
                return np.subtract(value, np.multiply(cost, charge, out=charge), out=value)

            crossing = _zero_crossings(profit, shape)
            crossing[np.isnan(crossing)] = 1.0
            for s, x in zip(sweeps, crossing):
                s.crossings[:, start:start + b] = x
            del crossing, x  # so that the next block's bisection does not hold it too
        return [s.result() for s in sweeps]


def _block_runs(n: int) -> int:
    """Runs in a block over n opportunities: at most BLOCK and BLOCK_CELLS cells, at least 1."""
    return min(BLOCK, max(1, BLOCK_CELLS // max(n, 1)))


def _uniform_blocks(seed: int, runs: int, n: int):
    """Per block of runs: its first run, its (run, opportunity) uniforms and
    their P_GRID cells (the number of grid points at or below each). A block
    holds at most BLOCK runs and BLOCK_CELLS cells, and at least one run.
    Every block is drawn into the same arrays, allocated once, a shorter last
    block into their leading rows: a block's uniforms and cells hold until
    the next block is drawn."""
    block = _block_runs(n)
    ops = np.arange(n, dtype=np.uint64)
    steps = P_GRID.size - 1
    words = np.empty((block, n), dtype=np.uint64)
    uniforms = np.empty((block, n))
    cells = np.empty((block, n), dtype=np.intp)
    flags = np.empty((block, n), dtype=bool)
    for start in range(0, runs, block):
        b = min(block, runs - start)
        w, u, cell, at_or_below = words[:b], uniforms[:b], cells[:b], flags[:b]
        # each of words and u is the other's scratch while it holds nothing
        # needed: u for SplitMix64's shifts, words, once u holds the draws, as
        # doubles for the cell arithmetic
        _splitmix64(seed, np.arange(start, start + b, dtype=np.uint64), ops, w, u.view(np.uint64))
        np.right_shift(w, np.uint64(11), out=w)
        np.multiply(w, 2.0**-53, out=u)  # the top 53 bits as a double in [0, 1)
        scratch = w.view(np.float64)
        # u * steps is off by at most one cell; one comparison each way corrects it
        np.minimum(np.multiply(u, steps, out=scratch), steps - 1, out=scratch)
        np.copyto(cell, scratch, casting="unsafe")  # truncated, as astype does
        cell += 1
        # "clip" takes the in-range cells straight into `out`, "raise" through a copy
        cell += np.less_equal(P_GRID.take(cell, out=scratch, mode="clip"), u, out=at_or_below)
        cell -= 1  # less 1 where the grid point below the cell is above u
        cell += np.less_equal(P_GRID.take(cell, out=scratch, mode="clip"), u, out=at_or_below)
        yield start, u, cell


def _splitmix64(seed: int, runs: np.ndarray, ops: np.ndarray, z: np.ndarray,
                shifted: np.ndarray) -> None:
    """Into the (runs, ops) uint64 array `z`: output k = op * 2**32 + run of
    SplitMix64 seeded with `seed`, the mix of the state seed + (k + 1) *
    GOLDEN_GAMMA; `shifted`, of z's shape, is scratch. Every operand is uint64
    and every operation an array one, so the arithmetic wraps mod 2**64
    without a warning."""
    np.add(((runs + np.uint64(1)) * GOLDEN_GAMMA + np.uint64(seed))[:, None],
           (ops << np.uint64(32)) * GOLDEN_GAMMA, out=z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)


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
        self.filled_total, self.shift = 0, np.zeros(P_GRID.size)  # the first run's curve
        # per P_GRID point, summed over runs: the filled excess, the profit curve's
        # deviations from the first run's curve, their squares and the unfilled trades
        self.sums = np.zeros((4, P_GRID.size))
        try:
            self.totals = np.empty(cfg.runs)
            # one row per loss, so that each row reduces as a contiguous 1-D array
            self.crossings = np.empty((lam_bp.size, cfg.runs))
        except (MemoryError, ValueError):  # numpy's ValueError: a size past any address space
            raise TriarbError(
                f"runs {cfg.runs:,}: too many for the per-run results to fit in memory") from None

    def add_block(self, start: int, u: np.ndarray, cell: np.ndarray, gains: np.ndarray,
                  unfilled: np.ndarray, rows: np.ndarray) -> None:
        """Add a block of runs: its first run, uniforms and cells. Each run's
        break-even gains and unfilled trades over P_GRID go to `gains` and
        `unfilled` (runs, P_GRID); `rows` (1 + runs, P_GRID) is scratch."""
        cfg, b, bins = self.cfg, u.shape[0], P_GRID.size
        filled = self.certain | (self.trade & (u < cfg.fill_prob))
        counts = filled.sum(axis=1)
        sums = np.where(filled, self.excess, 0.0).sum(axis=1)
        self.totals[start:start + b] = cfg.volume * sums - self.loss * (self.n - counts) - self.fees
        self.filled_total += int(counts.sum())
        # per run and P_GRID point p, the random trades with u < p (cell at or below p)
        # and their summed excess (float even with none), from cells offset per run
        idx = (cell[:, self.random_idx] + bins * np.arange(b)[:, None]).ravel()
        curves = rows[1:]  # each run's filled excess, then its profit curve's deviation
        np.cumsum(np.bincount(idx, weights=np.tile(self.excess[self.random_idx], b),
                              minlength=b * bins).reshape(b, bins), axis=1, out=curves)
        np.cumsum(np.bincount(idx, minlength=b * bins).reshape(b, bins), axis=1, out=unfilled)
        np.subtract(self.random_idx.size, unfilled, out=unfilled)
        np.multiply(cfg.volume, np.add(self.const_excess, curves, out=gains), out=gains)
        self._add_rows(0, rows)
        # the profit curves, then their deviations from the first run's curve
        np.subtract(gains, np.multiply(self.loss, unfilled, out=curves), out=curves)
        curves -= self.fees
        if start == 0:
            self.shift[:] = curves[0]
        curves -= self.shift
        self._add_rows(1, rows)
        curves *= curves
        self._add_rows(2, rows)
        # unfilled counts are whole numbers: below 2**53 they sum exactly in any order
        self.sums[3] += unfilled.sum(axis=0)

    def _add_rows(self, i: int, rows: np.ndarray) -> None:
        """Add rows 1 on to sum i as acc + row 1 + row 2 + ...: in run order, whatever the block."""
        rows[0] = self.sums[i]
        np.add.reduce(rows, axis=0, out=self.sums[i])

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
        filled_mean, dev_mean, dev_sq_mean, unfilled_mean = self.sums / runs
        filled_mean += self.const_excess
        surface_totals = (cfg.volume * filled_mean[:, None]
                          - self.lam_cost[None, :] * unfilled_mean[:, None] - self.fees)
        losses = np.arange(self.lam_bp.size)
        contour = tuple(zip(self.lam_bp.tolist(), _zero_crossings(
            lambda k: surface_totals[k, losses], losses.shape).tolist()))
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


def _zero_crossings(profit, shape: tuple) -> np.ndarray:
    """First zero crossing over P_GRID of the curves of `shape`, nondecreasing where
    finite: P_GRID[0] for a curve nonnegative from the start, NaN for one never
    reaching 0. `profit(k)` gives each curve's value at its P_GRID index in k, an
    int array of `shape` that it leaves as it found it; the values may be an array
    of its own, which is read, and may be overwritten, before its next call. A
    bisection in steps of powers of two counts the points below 0 (or NaN), in
    two int, two bool and two float arrays of `shape`."""
    n = P_GRID.size
    k, probe = np.zeros((2, *shape), dtype=np.intp)
    below, fits = np.empty((2, *shape), dtype=bool)
    step = 1 << n.bit_length()
    while step := step >> 1:
        np.add(k, step, out=probe)
        np.less_equal(probe, n, out=fits)
        np.minimum(probe, n, out=probe)
        probe -= 1
        np.logical_not(np.greater_equal(profit(probe), 0.0, out=below), out=below)
        below &= fits
        np.add(k, step, out=k, where=below)
    # the crossing p0 + (0 - t0) * (p1 - p0) / (t1 - t0) between the points prev
    # and at either side of it, looked up by k: prev = max(k - 1, 0), at = min(k, n - 1)
    ends = np.arange(n + 1, dtype=np.intp)
    prev, at = np.maximum(ends - 1, 0), np.minimum(ends, n - 1)
    p0, gap = P_GRID[prev], P_GRID[at] - P_GRID[prev]
    # k is in range, and "clip" takes it straight into `out`, "raise" through a copy
    crossing = np.copy(profit(prev.take(k, out=probe, mode="clip")))  # t0
    t1 = profit(at.take(k, out=probe, mode="clip"))
    t1 -= crossing
    np.subtract(0.0, crossing, out=crossing)
    spare = gap.take(k)
    crossing *= spare
    crossing /= t1
    crossing += p0.take(k, out=spare, mode="clip")
    crossing[k == 0] = P_GRID[0]
    crossing[k == n] = np.nan
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
