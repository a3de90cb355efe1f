"""Reference simulator: one loop over runs, one run at a time.

The draws follow the contract stated in `triarb.simulator`: run r's uniform
for opportunity i is the top 53 bits, times 2**-53, of output k = i * 2**32 + r
of SplitMix64 seeded with the seed, computed here with Python ints exactly as
Vigna's `splitmix64.c` computes it. Each run then places its uniforms with `searchsorted`, takes its fills and
totals with a masked sum, and its profit curves from a weighted `bincount`
and a `cumsum`, so `simulate_trades` must reproduce every number here
exactly, except the curve std: the reference keeps every run's curve and
takes numpy's two-pass std, which the package's one-pass shifted sums match
only within a rounding bound (see `tests/test_simulator.py`).
"""

from __future__ import annotations

import numpy as np

from triarb.simulator import (
    BP,
    CERTAIN_FILL_MIN_RUN_LENGTH,
    LEGS_PER_TRANSACTION,
    P_GRID,
    Scenario,
    analytic_break_even,
    analytic_total_profit,
)


MASK64 = 2**64 - 1


class SplitMix64:
    """`splitmix64.c`: next() adds the golden gamma to the state and mixes it."""

    def __init__(self, seed):
        self.x = seed

    def next(self):
        self.x = (self.x + 0x9E3779B97F4A7C15) & MASK64
        z = self.x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def splitmix64_output(seed, k):
    """Output k (from 0) of SplitMix64 seeded with `seed`: the state is then
    seed + (k + 1) times the golden gamma, so a generator set to one gamma
    short of it draws it next."""
    bitgen = SplitMix64((seed + k * 0x9E3779B97F4A7C15) & MASK64)
    return bitgen.next()


def uniforms(seed, runs, n_ops):
    """(runs, n_ops): run r's uniform for opportunity i, from output i * 2**32 + r."""
    u = np.empty((runs, n_ops))
    for r in range(runs):
        for i in range(n_ops):
            u[r, i] = (splitmix64_output(seed, (i << 32) + r) >> 11) * 2.0**-53
    return u


def _zero_crossing(totals):
    nonneg = np.flatnonzero(totals >= 0.0)
    if nonneg.size == 0:
        return float("nan")
    k = int(nonneg[0])
    if k == 0:
        return float(P_GRID[0])
    t0, t1 = totals[k - 1], totals[k]
    p0, p1 = P_GRID[k - 1], P_GRID[k]
    return float(p0 + (0.0 - t0) * (p1 - p0) / (t1 - t0))


def _mean(values):
    return float(values.mean()) if values.size else 0.0


def simulate(ops, cfg, lambda_grid_bp):
    """Every number of a SimulationResult, as a dict, plus each run's profit curve."""
    lam_bp = np.asarray(lambda_grid_bp, dtype=np.float64)
    initial = np.array([op.initial_gamma for op in ops], dtype=np.float64)
    trade = initial > cfg.gamma_t
    n = int(trade.sum())
    excess = np.where(trade, initial - 1.0, 0.0)
    long_mask = trade & np.array(
        [op.run_length >= CERTAIN_FILL_MIN_RUN_LENGTH for op in ops], dtype=bool)
    certain = long_mask & (cfg.scenario is Scenario.DURATION_FILL)
    random = trade & ~certain
    m = int(random.sum())
    const_excess = float(excess[certain].sum())
    loss = cfg.volume * cfg.loss_bp * BP
    lam_cost = cfg.volume * (lam_bp * BP)
    fees = n * LEGS_PER_TRANSACTION * cfg.fee_per_trade

    totals, filled_counts = np.empty((2, cfg.runs))
    curves = np.empty((cfg.runs, P_GRID.size))
    filled_sum = np.zeros(P_GRID.size)
    unfilled_sum = np.zeros(P_GRID.size)
    crossings = np.empty((lam_bp.size, cfg.runs))
    for r, u in enumerate(uniforms(cfg.seed, cfg.runs, initial.size)):
        filled = certain | (random & (u < cfg.fill_prob))
        totals[r] = (cfg.volume * np.where(filled, excess, 0.0).sum()
                     - loss * (n - filled.sum()) - fees)
        filled_counts[r] = filled.sum()
        cells = np.searchsorted(P_GRID, u[random], side="right")
        k = np.bincount(cells, minlength=P_GRID.size).cumsum()
        filled_excess = np.bincount(cells, weights=excess[random],
                                    minlength=P_GRID.size).cumsum(dtype=float)
        gains = cfg.volume * (const_excess + filled_excess)
        curves[r] = gains - loss * (m - k) - fees
        filled_sum = filled_sum + filled_excess
        unfilled_sum = unfilled_sum + (m - k)
        for j, cost in enumerate(lam_cost):
            crossing = _zero_crossing(gains - cost * (m - k))
            crossings[j, r] = 1.0 if np.isnan(crossing) else crossing

    excess_bp = excess / BP
    split = (int(certain.sum()), m, _mean(excess_bp[certain]), _mean(excess_bp[random]))
    mean_total = float(totals.mean())
    n_long = int(long_mask.sum())
    p_be, clamped = analytic_break_even(*split, cfg.loss_bp) if n else (None, False)
    filled_mean = const_excess + filled_sum / cfg.runs
    unfilled_mean = unfilled_sum / cfg.runs
    surface = np.empty((P_GRID.size, lam_bp.size))
    for j, cost in enumerate(lam_cost):
        surface[:, j] = cfg.volume * filled_mean - cost * unfilled_mean - fees
    return {
        "summary": dict(
            total_profit=mean_total,
            total_profit_std=float((totals - totals[0]).std(ddof=1)) if cfg.runs > 1 else 0.0,
            mean_profit_per_trade_bp=mean_total / (n * cfg.volume) / BP if n else 0.0,
            trades_attempted=n, trades_filled_mean=float(filled_counts.mean()),
            n_long=n_long, n_short=n - n_long, mean_excess_bp=_mean(excess_bp[trade]),
            analytic_total_profit=analytic_total_profit(
                *split, cfg.volume, cfg.fill_prob, cfg.loss_bp),
            analytic_break_even_p=p_be, analytic_break_even_clamped=clamped,
        ),
        "run_totals": totals,
        "curves": curves,
        "curve_mean": cfg.volume * filled_mean - loss * unfilled_mean - fees,
        "curve_std": curves.std(axis=0, ddof=1) if cfg.runs > 1 else np.zeros(P_GRID.size),
        "mean_profit_bp": surface / (n * cfg.volume) / BP if n else np.zeros_like(surface),
        "contour": [(float(lam), _zero_crossing(surface[:, j])) for j, lam in enumerate(lam_bp)],
        "break_even": [
            (float(lam), analytic_break_even(*split, lam)[0], float(row.mean()),
             float(row.std(ddof=1)) if cfg.runs > 1 else 0.0)
            for lam, row in zip(lam_bp, crossings)
        ] if n else [],
    }
