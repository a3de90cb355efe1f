"""Multi-command entry point: synth, detect, seasonal, simulate, compare.

Every command writes its outputs plus a run manifest into --out-dir.
Outputs are plot-ready CSV/JSON; rendering is left to external tooling. All
randomness is controlled by an explicit seed, or by a generated one that is
recorded in the manifest, so any published number can be reproduced.

Exit codes: 0 success, 2 usage or input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import (
    AppConfig,
    load_app_config,
    parse_float_list,
    parse_window,
    synth_config_from_json,
    triangle_for_currencies,
)
from .errors import TriarbError
from .market_data import (
    SeriesWindow,
    TriangleSpec,
    load_pair_series,
    write_pair_series_csv,
)
from .opportunity import (
    ArbitrageOpportunity,
    check_histogram,
    check_thresholds,
    compare_periods,
    distribution_stats,
    duration_stats,
    segment_opportunities,
    threshold_table,
    write_comparison_csv,
    write_duration_stats_json,
    write_histogram_csv,
    write_opportunities_csv,
    write_threshold_table_csv,
)
from .rate_product import compute_rate_products
from .seasonal import daily_profile, hourly_profile, write_daily_csv, write_hourly_csv
from .simulator import (
    BP,
    P_GRID,
    Scenario,
    SimulationConfig,
    SimulationSummary,
    analytic_break_even,
    analytic_total_profit_duration,
    analytic_total_profit_fixed,
    check_lambda_grid,
    filter_trades,
    simulate_trades,
    write_breakeven_csv,
    write_contour_csv,
    write_profit_curves_csv,
    write_surface_csv,
)
from .synth import generate, write_injections_json

DEFAULT_THRESHOLDS = "0,0.5,1,2,3,4,5,6,7,8,9,10"
DEFAULT_GAMMA_T_SWEEP = "1,1.00005,1.0001"
DEFAULT_LAMBDA_GRID = "0.5,1,1.5,2,2.5,3"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (TriarbError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triarb",
        description="Triangular arbitrage analytics and trading simulation for FX tick data.",
    )
    parser.add_argument("--version", action="version", version=f"triarb {__version__}")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (default: $TRIARB_CONFIG)")
    common.add_argument("--out-dir", required=True, help="directory for outputs")
    common.add_argument("--seed", type=int, help="RNG seed (generated and recorded if omitted)")
    common.add_argument("--triangle", help="three currency codes, e.g. EUR,USD,CHF")

    window_args = argparse.ArgumentParser(add_help=False)
    window_args.add_argument("--window", required=True, help="START..END, epoch seconds or ISO-8601")
    window_args.add_argument("--weekdays", default="mon-fri", help="mon-fri (default), all, or a day list")
    window_args.add_argument("--data-dir", required=True, help="directory of <BASEQUOTE>.csv tick files")

    hist_args = argparse.ArgumentParser(add_help=False)
    hist_args.add_argument("--hist-lo", type=float, default=0.999)
    hist_args.add_argument("--hist-hi", type=float, default=1.001)
    hist_args.add_argument("--hist-bin-width", type=float, default=2e-5)

    p_synth = sub.add_parser("synth", parents=[common], help="generate synthetic triangle tick data")
    p_synth.add_argument("--synth-config", required=True, help="JSON synth config file")
    p_synth.add_argument("--window", help="override the config window (START..END)")
    p_synth.add_argument("--weekdays", default="mon-fri")
    p_synth.add_argument(
        "--preset",
        choices=["table3"],
        help="table3: built-in session hours drive the liquidity profiles",
    )
    p_synth.set_defaults(func=cmd_synth)

    p_detect = sub.add_parser("detect", parents=[common, window_args, hist_args], help="detect arbitrage opportunities")
    p_detect.add_argument("--thresholds", default=DEFAULT_THRESHOLDS, help="bp thresholds, ascending")
    p_detect.set_defaults(func=cmd_detect)

    p_seasonal = sub.add_parser("seasonal", parents=[common, window_args], help="hourly and daily statistics")
    p_seasonal.set_defaults(func=cmd_seasonal)

    p_sim = sub.add_parser("simulate", parents=[common, window_args], help="Monte Carlo trading simulation")
    p_sim.add_argument("--scenario", choices=["fixed", "duration", "both"], default="both")
    p_sim.add_argument("--gamma-t", default=DEFAULT_GAMMA_T_SWEEP, help="trade thresholds to sweep")
    p_sim.add_argument("--p", type=float, default=1.0, help="fill probability for the summary totals")
    p_sim.add_argument("--lambda-bp", type=float, default=1.5, help="loss per unfilled trade (bp)")
    p_sim.add_argument("--lambda-grid", default=DEFAULT_LAMBDA_GRID, help="bp losses for surface/break-even")
    p_sim.add_argument("--volume", type=float, default=1e6, help="stake per trade in base currency")
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--fee-per-trade", type=float, default=0.0, help="fee per leg trade; 3 legs per transaction")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[common, hist_args], help="compare detection statistics across periods")
    p_cmp.add_argument(
        "--dataset",
        action="append",
        required=True,
        metavar="LABEL=DIR",
        help="labelled tick directory; repeat for each period (need at least 2)",
    )
    p_cmp.add_argument("--window", required=True, help="START..END applied to every dataset")
    p_cmp.add_argument("--weekdays", default="mon-fri")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(np.random.SeedSequence().entropy) & 0xFFFF_FFFF_FFFF_FFFF


def _resolve_triangle(args, app: AppConfig) -> TriangleSpec:
    if getattr(args, "triangle", None):
        codes = [c.strip().upper() for c in args.triangle.split(",") if c.strip()]
        if len(codes) != 3:
            raise ValueError(f"--triangle needs three currency codes, got {args.triangle!r}")
        return triangle_for_currencies(app, codes)
    return app.triangle


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _window_json(window: SeriesWindow) -> dict:
    return {
        "start": window.start,
        "end": window.end,
        "weekdays": sorted(window.weekday_filter) if window.weekday_filter else "all",
    }


def _write_manifest(
    out: Path, command: str, app: AppConfig, triangle: TriangleSpec,
    window: Optional[SeriesWindow], seed: Optional[int], extra: dict,
) -> None:
    manifest = {
        "command": command,
        "config_path": app.config_path,
        "triangle": {
            "currencies": list(triangle.currencies),
            "pairs": [
                {"name": p.name, "point_size": str(p.point_size)} for p in triangle.pairs
            ],
        },
        "window": _window_json(window) if window else None,
        "out_dir": str(out),
        "tool_version": __version__,
        "seed": seed,
    }
    manifest.update(extra)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _detect(
    data_dir: str, triangle: TriangleSpec, window: SeriesWindow
) -> tuple[list[ArbitrageOpportunity], np.ndarray]:
    """The opportunities and the (2, grid) rate products of the triangle's tick files."""
    series = []
    for pair in triangle.pairs:
        path = Path(data_dir) / f"{pair.file_stem}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing tick file {path}")
        series.append(load_pair_series(path, pair, window))
    gammas = compute_rate_products(series, triangle)
    return segment_opportunities(series[0].times, gammas), gammas


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    app = load_app_config(args.config)
    with open(args.synth_config) as fh:
        payload = json.load(fh)
    if args.preset == "table3":
        payload.setdefault("liquidity_preset", True)
    if args.window:
        window = parse_window(args.window, args.weekdays)
        payload["window"] = {"start": window.start, "end": window.end, "weekdays": args.weekdays}
    if args.triangle:
        payload["currencies"] = [c.strip().upper() for c in args.triangle.split(",")]
    cfg = synth_config_from_json(payload, app, seed_override=args.seed)
    a, b, c, injections = generate(cfg)
    out = _out_dir(args)
    for series in (a, b, c):
        write_pair_series_csv(out / f"{series.pair.file_stem}.csv", series)
    write_injections_json(out / "injections.json", injections)
    _write_manifest(
        out, "synth", app, cfg.triangle, cfg.window, cfg.seed,
        {"synth_config": str(args.synth_config), "n_injections": len(injections)},
    )
    return 0


def cmd_detect(args) -> int:
    app = load_app_config(args.config)
    triangle = _resolve_triangle(args, app)
    window = parse_window(args.window, args.weekdays)
    thresholds = check_thresholds(parse_float_list(args.thresholds))
    hist_range = check_histogram(args.hist_bin_width, (args.hist_lo, args.hist_hi))
    ops, gammas = _detect(args.data_dir, triangle, window)

    out = _out_dir(args)
    write_opportunities_csv(out / "opportunities.csv", ops)
    write_duration_stats_json(out / "duration_stats.json", duration_stats(ops))
    write_threshold_table_csv(out / "threshold_table.csv", threshold_table(ops, thresholds))
    dist = distribution_stats(gammas, args.hist_bin_width, hist_range)
    write_histogram_csv(out / "histogram.csv", dist)
    _write_manifest(
        out, "detect", app, triangle, window, None,
        {"data_dir": str(args.data_dir), "thresholds_bp": thresholds,
         "histogram": {"lo": args.hist_lo, "hi": args.hist_hi, "bin_width": args.hist_bin_width}},
    )
    return 0


def cmd_seasonal(args) -> int:
    app = load_app_config(args.config)
    triangle = _resolve_triangle(args, app)
    window = parse_window(args.window, args.weekdays)
    ops, _ = _detect(args.data_dir, triangle, window)
    out = _out_dir(args)
    write_hourly_csv(out / "hourly.csv", hourly_profile(ops))
    write_daily_csv(out / "daily.csv", daily_profile(ops, window))
    _write_manifest(out, "seasonal", app, triangle, window, None, {"data_dir": str(args.data_dir)})
    return 0


def cmd_simulate(args) -> int:
    app = load_app_config(args.config)
    triangle = _resolve_triangle(args, app)
    window = parse_window(args.window, args.weekdays)
    seed = _resolve_seed(args)
    gamma_ts = parse_float_list(args.gamma_t)
    if not gamma_ts:
        raise ValueError(f"--gamma-t needs at least one threshold, got {args.gamma_t!r}")
    lambda_grid = parse_float_list(args.lambda_grid)
    check_lambda_grid(lambda_grid)
    scenarios = (
        [Scenario.FIXED_FILL, Scenario.DURATION_FILL]
        if args.scenario == "both"
        else [Scenario.FIXED_FILL if args.scenario == "fixed" else Scenario.DURATION_FILL]
    )
    shared = SimulationConfig(
        fill_prob=args.p,
        loss_bp=args.lambda_bp,
        volume=args.volume,
        runs=args.runs,
        seed=seed,
        fee_per_trade=args.fee_per_trade,
    )
    configs = [
        dataclasses.replace(shared, scenario=scenario, gamma_t=gamma_t)
        for scenario in scenarios
        for gamma_t in gamma_ts
    ]
    ops, _ = _detect(args.data_dir, triangle, window)
    out = _out_dir(args)

    curve_rows = []
    breakeven_rows = []
    summary: dict = {"per_config": []}
    for cfg in configs:
        trades = filter_trades(ops, cfg.gamma_t)
        result = simulate_trades(trades, cfg, lambda_grid)
        if not summary["per_config"]:  # the surface covers the first config only
            write_surface_csv(out / "profit_surface.csv", result.surface)
            write_contour_csv(out / "breakeven_contour.csv", result.surface)
        curve_rows.extend(
            (cfg.scenario.value, cfg.gamma_t, float(p), float(m), float(s))
            for p, m, s in zip(P_GRID, result.curve_mean, result.curve_std)
        )
        entry = _summary_entry(cfg, result.summary)
        for be in result.break_even:
            breakeven_rows.append(
                (cfg.scenario.value, cfg.gamma_t, be.lambda_bp, be.analytic_p, be.simulated_p,
                 be.simulated_p_std)
            )
            if be.lambda_bp == args.lambda_bp:
                entry["break_even"] = {
                    "lambda_bp": be.lambda_bp,
                    "analytic_p": be.analytic_p,
                    "simulated_p": be.simulated_p,
                    "simulated_p_std": be.simulated_p_std,
                }
        summary["per_config"].append(entry)

    write_profit_curves_csv(out / "profit_curves.csv", curve_rows)
    write_breakeven_csv(out / "breakeven.csv", breakeven_rows)
    summary.update(
        {"seed": seed, "runs": args.runs, "volume": args.volume,
         "p": args.p, "lambda_bp": args.lambda_bp}
    )
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out, "simulate", app, triangle, window, seed,
        {"data_dir": str(args.data_dir), "scenario": args.scenario,
         "gamma_t": gamma_ts, "lambda_grid_bp": lambda_grid, "runs": args.runs},
    )
    return 0


def _summary_entry(cfg: SimulationConfig, s: SimulationSummary) -> dict:
    n = s.trades_attempted
    entry = {
        "scenario": cfg.scenario.value,
        "gamma_t": cfg.gamma_t,
        "trades": n,
        "n_long": s.n_long,
        "n_short": s.n_short,
        "mean_excess_bp": s.mean_excess_bp,
    }
    if cfg.scenario is Scenario.FIXED_FILL:
        entry["analytic_total_profit"] = analytic_total_profit_fixed(
            n, cfg.volume, cfg.fill_prob, cfg.loss_bp, s.mean_excess_bp * BP
        )
    else:
        entry["analytic_total_profit"] = analytic_total_profit_duration(
            s.n_long, s.n_short, cfg.volume, cfg.fill_prob, cfg.loss_bp,
            s.mean_long_bp * BP, s.mean_short_bp * BP,
        )
    p_be, clamped = analytic_break_even(s, cfg.scenario, cfg.loss_bp) if n else (None, False)
    entry["analytic_break_even_p"] = p_be
    if cfg.scenario is Scenario.DURATION_FILL:
        entry["analytic_break_even_clamped"] = clamped
    if n:
        entry["simulated_total_profit"] = s.total_profit
        entry["simulated_total_profit_std"] = s.total_profit_std
        entry["mean_profit_per_trade_bp"] = s.mean_profit_per_trade_bp
        entry["trades_filled_mean"] = s.trades_filled_mean
    return entry


def cmd_compare(args) -> int:
    app = load_app_config(args.config)
    triangle = _resolve_triangle(args, app)
    window = parse_window(args.window, args.weekdays)
    datasets = []
    for spec in args.dataset:
        label, sep, path = spec.partition("=")
        if not sep:
            raise ValueError(f"bad --dataset {spec!r}, expected LABEL=DIR")
        datasets.append((label.strip(), path.strip()))
    if len(datasets) < 2:
        raise ValueError("compare needs at least two --dataset arguments")
    hist_range = check_histogram(args.hist_bin_width, (args.hist_lo, args.hist_hi))

    out = _out_dir(args)
    stats = []
    for label, data_dir in datasets:
        ops, gammas = _detect(data_dir, triangle, window)
        dist = distribution_stats(gammas, args.hist_bin_width, hist_range)
        write_histogram_csv(out / f"histogram_{label}.csv", dist)
        stats.append((label, dist, duration_stats(ops)))
    report = compare_periods(stats)
    write_comparison_csv(out / "comparison.csv", report)
    _write_manifest(
        out, "compare", app, triangle, window, None,
        {"datasets": [{"label": l, "data_dir": d} for l, d in datasets]},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
