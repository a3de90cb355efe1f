"""Reference simulator: one seeded loop per quantity, as the simulator was first written.

Each function re-spawns the per-run streams from the config seed and reduces
one quantity from them. `min_long` is the run length from which trades fill
surely under DURATION_FILL. `simulate_trades` in the package must reproduce every
number here exactly, since it draws the same uniforms and keeps each
reduction's float arithmetic.
"""

from __future__ import annotations

import numpy as np

from triarb.simulator import (
    BP,
    LEGS_PER_TRANSACTION,
    Scenario,
    analytic_break_even,
)


def _run_rngs(seed, runs):
    children = np.random.SeedSequence(seed).spawn(runs)
    return [np.random.default_rng(c) for c in children]


def _trade_arrays(trades, min_long):
    excess = np.array([t.initial_gamma - 1.0 for t in trades], dtype=np.float64)
    long_mask = np.array([t.run_length >= min_long for t in trades], dtype=bool)
    return excess, long_mask


def _fills(u, cfg, long_mask):
    if cfg.scenario is Scenario.FIXED_FILL:
        return u < cfg.fill_prob
    return long_mask | (u < cfg.fill_prob)


def _scenario_split(excess, long_mask, scenario):
    if scenario is Scenario.FIXED_FILL:
        return 0.0, np.arange(excess.size)
    return float(excess[long_mask].sum()), np.flatnonzero(~long_mask)


def _sorted_fill_curves(u, excess, p_grid):
    order = np.argsort(u, kind="stable")
    u_sorted = u[order]
    prefix = np.concatenate(([0.0], np.cumsum(excess[order])))
    k = np.searchsorted(u_sorted, p_grid, side="left")
    return prefix[k], u.size - k


def _zero_crossing(p_grid, totals):
    nonneg = np.flatnonzero(totals >= 0.0)
    if nonneg.size == 0:
        return float("nan")
    k = int(nonneg[0])
    if k == 0:
        return float(p_grid[0])
    t0, t1 = totals[k - 1], totals[k]
    p0, p1 = p_grid[k - 1], p_grid[k]
    return float(p0 + (0.0 - t0) * (p1 - p0) / (t1 - t0))


def summary(trades, cfg, min_long):
    """(mean total, std, per-trade bp, trades, mean filled, run totals)."""
    n = len(trades)
    excess, long_mask = _trade_arrays(trades, min_long)
    loss = cfg.volume * cfg.loss_bp * BP
    fees = n * LEGS_PER_TRANSACTION * cfg.fee_per_trade
    totals = np.empty(cfg.runs, dtype=np.float64)
    filled_counts = np.empty(cfg.runs, dtype=np.float64)
    for r, rng in enumerate(_run_rngs(cfg.seed, cfg.runs)):
        u = rng.random(n)
        filled = _fills(u, cfg, long_mask)
        totals[r] = cfg.volume * excess[filled].sum() - loss * (n - filled.sum()) - fees
        filled_counts[r] = filled.sum()
    std = float((totals - totals[0]).std(ddof=1)) if cfg.runs > 1 else 0.0
    mean_total = float(totals.mean())
    per_trade_bp = mean_total / (n * cfg.volume) / BP if n else 0.0
    return mean_total, std, per_trade_bp, n, float(filled_counts.mean()), totals


def surface(trades, p_grid, lambda_grid_bp, cfg, min_long):
    """(mean profit bp matrix, contour rows)."""
    p = np.asarray(p_grid, dtype=np.float64)
    lam_bp = np.asarray(lambda_grid_bp, dtype=np.float64)
    n = len(trades)
    excess, long_mask = _trade_arrays(trades, min_long)
    const_excess, random_idx = _scenario_split(excess, long_mask, cfg.scenario)
    fees = n * LEGS_PER_TRANSACTION * cfg.fee_per_trade
    filled_sum = np.zeros(p.size, dtype=np.float64)
    unfilled = np.zeros(p.size, dtype=np.float64)
    for rng in _run_rngs(cfg.seed, cfg.runs):
        u = rng.random(n)
        fs, nu = _sorted_fill_curves(u[random_idx], excess[random_idx], p)
        filled_sum += fs
        unfilled += nu
    filled_sum /= cfg.runs
    unfilled /= cfg.runs
    totals = (
        cfg.volume * (const_excess + filled_sum)[:, None]
        - cfg.volume * (lam_bp * BP)[None, :] * unfilled[:, None]
        - fees
    )
    mean_bp = totals / (n * cfg.volume) / BP if n else np.zeros_like(totals)
    contour = tuple(
        (float(lam_bp[j]), _zero_crossing(p, totals[:, j])) for j in range(lam_bp.size)
    )
    return mean_bp, contour


def profit_curves(trades, p_grid, cfg, min_long):
    """(mean, std) of the total profit across runs at each fill probability."""
    p = np.asarray(p_grid, dtype=np.float64)
    excess, long_mask = _trade_arrays(trades, min_long)
    const_excess, random_idx = _scenario_split(excess, long_mask, cfg.scenario)
    fees = len(trades) * LEGS_PER_TRANSACTION * cfg.fee_per_trade
    lam = cfg.volume * cfg.loss_bp * BP
    totals = np.empty((cfg.runs, p.size), dtype=np.float64)
    for r, rng in enumerate(_run_rngs(cfg.seed, cfg.runs)):
        u = rng.random(excess.size)
        fs, nu = _sorted_fill_curves(u[random_idx], excess[random_idx], p)
        totals[r] = cfg.volume * (const_excess + fs) - lam * nu - fees
    std = totals.std(axis=0, ddof=1) if cfg.runs > 1 else np.zeros(p.size)
    return totals.mean(axis=0), std


def break_even(trades, scenario, lambda_bp, runs, seed, volume, min_long):
    """(analytic p, simulated p, its std, analytic clamped); trades must be non-empty."""
    excess, long_mask = _trade_arrays(trades, min_long)
    excess_bp = excess / BP
    if scenario is Scenario.FIXED_FILL:
        analytic_p, clamped = analytic_break_even(
            0, excess.size, 0.0, float(excess_bp.mean()), lambda_bp
        )
    else:
        n_long = int(long_mask.sum())
        n_short = int(excess.size - n_long)
        mean_long = float(excess_bp[long_mask].mean()) if n_long else 0.0
        mean_short = float(excess_bp[~long_mask].mean()) if n_short else 0.0
        analytic_p, clamped = analytic_break_even(n_long, n_short, mean_long, mean_short, lambda_bp)
    const_excess, random_idx = _scenario_split(excess, long_mask, scenario)
    p_grid = np.linspace(0.0, 1.0, 101)
    lam_frac = lambda_bp * BP
    estimates = np.empty(runs, dtype=np.float64)
    for r, rng in enumerate(_run_rngs(seed, runs)):
        u = rng.random(excess.size)
        fs, nu = _sorted_fill_curves(u[random_idx], excess[random_idx], p_grid)
        totals = volume * (const_excess + fs) - volume * lam_frac * nu
        crossing = _zero_crossing(p_grid, totals)
        estimates[r] = 1.0 if np.isnan(crossing) else crossing
    std = float(estimates.std(ddof=1)) if runs > 1 else 0.0
    return analytic_p, float(estimates.mean()), std, clamped
