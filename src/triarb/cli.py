"""Multi-command entry point: synth, detect, seasonal, simulate, compare.

Every command writes its outputs plus a run manifest into --out-dir.
Outputs are plot-ready CSV/JSON; rendering is left to external tooling. All
randomness is controlled by an explicit seed, or by a generated one that is
recorded in the manifest, so any published number can be reproduced.

The four tick commands read the triangle from --triangle (default
EUR,USD,CHF), each pair in market-convention order; synth reads every
setting, point sizes included, from its JSON file.

Exit codes: 0 success, 2 usage or input error (a TriarbError, or an OSError
on a path the user named), 1 internal error, with a traceback.

`main` is the in-process API: it returns the exit code and never ends the
process. `run`, the entry point of `python -m triarb.cli` and of the
`triarb` script, ends it: every output is closed before `main` returns,
then `run` flushes stdout and stderr and `os._exit` ends the process with
the exit code, which skips the interpreter's teardown (module cleanup and a
last garbage collection, about 20 ms). `sys.exit` ends it instead when a
flush fails, so that Python reports the failure as at any exit, or when a
tracer, profiler or monitoring tool is installed, so that it can write its
results. An output added later that buffers, a log file say, must be
flushed or closed before `main` returns.

`simulator` and `synth` are imported inside the commands that use them, so
that the other commands start without them. The CLI runs numpy's OpenBLAS
single-threaded unless OPENBLAS_NUM_THREADS is already set: triarb calls no
BLAS, and each extra worker thread would only spin at startup.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import traceback
from datetime import date
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

# triarb calls no BLAS, but numpy's bundled OpenBLAS starts one worker thread per
# extra CPU at import, and each one busy-waits for about 0.1 s of CPU; this must
# run before numpy's first import, and a value already set still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import parse_currencies, parse_float_list, parse_window, require_grid
from .errors import SynthConfigError, TriarbError
from .market_data import (
    ALL_DAYS,
    HOURS,
    BlockBuffer,
    SeriesWindow,
    TickReader,
    TriangleSpec,
    write_pair_series_csv,
)
from .opportunity import (
    BUCKET_LABELS,
    ArbitrageOpportunity,
    DistributionStats,
    check_histogram,
    check_thresholds,
    compare_periods,
    daily_profile,
    distribution_stats,
    duration_stats,
    hourly_profile,
    segment_opportunities,
    threshold_table,
)
from .rate_product import compute_rate_products

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
    except (TriarbError, OSError) as exc:
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
    common.add_argument("--out-dir", required=True, type=_path, help="directory for outputs")

    tick_args = argparse.ArgumentParser(add_help=False, parents=[common])
    tick_args.add_argument(
        "--triangle", default="EUR,USD,CHF", help="three currency codes (default: %(default)s)"
    )

    window_args = argparse.ArgumentParser(add_help=False)
    window_args.add_argument("--window", required=True, help="START..END, epoch seconds or ISO-8601")
    window_args.add_argument("--weekdays", default="mon-fri", help="mon-fri (default), all, or a day list")
    window_args.add_argument("--data-dir", required=True, type=_path, help="directory of <BASEQUOTE>.csv tick files")

    hist_args = argparse.ArgumentParser(add_help=False)
    hist_args.add_argument("--hist-lo", type=float, default=0.999)
    hist_args.add_argument("--hist-hi", type=float, default=1.001)
    hist_args.add_argument("--hist-bin-width", type=float, default=2e-5)

    p_synth = sub.add_parser("synth", parents=[common], help="generate synthetic triangle tick data")
    p_synth.add_argument("--synth-config", required=True, help="JSON synth config file")
    p_synth.set_defaults(func=cmd_synth)

    p_detect = sub.add_parser("detect", parents=[tick_args, window_args, hist_args], help="detect arbitrage opportunities")
    p_detect.add_argument("--thresholds", default=DEFAULT_THRESHOLDS, help="bp thresholds, ascending")
    p_detect.set_defaults(func=cmd_detect)

    p_seasonal = sub.add_parser("seasonal", parents=[tick_args, window_args], help="hourly and daily statistics")
    p_seasonal.set_defaults(func=cmd_seasonal)

    p_sim = sub.add_parser("simulate", parents=[tick_args, window_args], help="Monte Carlo trading simulation")
    p_sim.add_argument("--seed", type=int, help="RNG seed (generated and recorded if omitted)")
    p_sim.add_argument("--scenario", choices=["fixed", "duration", "both"], default="both")
    p_sim.add_argument("--gamma-t", default=DEFAULT_GAMMA_T_SWEEP, help="trade thresholds to sweep")
    p_sim.add_argument("--p", type=float, default=1.0, help="fill probability for the summary totals")
    p_sim.add_argument("--lambda-bp", type=float, default=1.5, help="loss per unfilled trade (bp)")
    p_sim.add_argument("--lambda-grid", default=DEFAULT_LAMBDA_GRID, help="bp losses for surface/break-even")
    p_sim.add_argument("--volume", type=float, default=1e6, help="stake per trade in base currency")
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--fee-per-trade", type=float, default=0.0, help="fee per leg trade; 3 legs per transaction")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[tick_args, hist_args], help="compare detection statistics across periods")
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


def _path(text: str) -> str:
    """A directory flag's value, refused if empty: '' would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path, which would mean the current directory")
    return text


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(
    out: Path, command: str, triangle: TriangleSpec,
    window: SeriesWindow, seed: Optional[int], extra: dict,
) -> None:
    days = window.weekday_filter
    manifest = {
        "command": command,
        "triangle": {
            "currencies": list(triangle.currencies),
            "pairs": [p.name for p in triangle.pairs],
        },
        "window": {"start": window.start, "end": window.end,
                   "weekdays": "all" if days == ALL_DAYS else sorted(days)},
        "out_dir": str(out),
        "tool_version": __version__,
        "seed": seed,
        **extra,
    }
    write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# output format: every output but the tick CSVs goes through these


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """A header line and one line per row, "\n"-terminated.

    Python floats are written as their repr, the shortest text that reads
    back to the same float.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, payload: Any) -> None:
    """Indented JSON with sorted keys and a trailing newline.

    NaN and infinity are refused before the file is opened, so a refused
    payload leaves no truncated file.
    """
    path.write_text(json_text(path.name, payload))


def json_text(name: str, payload: Any) -> str:
    """The text write_json writes to the file `name`. NaN or infinity, which only
    flags that overflow a result produce, raise TriarbError."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise TriarbError(f"cannot write {name}: a result is not finite ({exc})") from exc
    return text + "\n"


def write_histogram(path: Path, dist: DistributionStats) -> None:
    edges = dist.bin_edges.tolist()
    write_csv(path, ["bin_left", "bin_right", "count"], [
        ["-inf", edges[0], dist.underflow],
        *zip(edges, edges[1:], dist.counts.tolist()),
        [edges[-1], "inf", dist.overflow],
    ])


def _detect(
    data_dir: str, triangle: TriangleSpec, window: SeriesWindow,
    hist: Optional[tuple[float, tuple[float, float]]] = None,
) -> tuple[list[ArbitrageOpportunity], Optional[DistributionStats]]:
    """The opportunities in the triangle's tick files and, given `hist` (bin
    width and range), the statistics of their rate products.

    The window's grid is walked chunk by chunk (`SeriesWindow.chunks`), one
    `TickReader` per file, so nothing the size of the window is built. A
    window too long or with no grid second is an input error, and so is a
    missing file or one that is not a regular file, before any file is read;
    a bad row is reported in the order the files are read. The readers share
    one `BlockBuffer`, each reading its blocks at its own byte offset. Right
    before each reader's `finish`, a file with crossed quotes prints one
    `warning:` line with their count on stderr.
    """
    require_grid(window)
    chunks = window.chunks()
    paths = [Path(data_dir) / f"{pair.file_stem}.csv" for pair in triangle.pairs]
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"missing tick file {path}")
        if not path.is_file():  # a pipe, say, which cannot be read at an offset
            raise TriarbError(f"tick file {path} is not a regular file")
    ops, held, dist = [], {}, None
    buffer = BlockBuffer()
    with contextlib.ExitStack() as stack:
        readers = [stack.enter_context(TickReader(path, pair, window, buffer))
                   for path, pair in zip(paths, triangle.pairs)]
        for chunk in chunks:
            gammas = compute_rate_products([r.read(chunk) for r in readers], triangle)
            ops += segment_opportunities(chunk.grid_times(), gammas, held)
            if hist:
                part = distribution_stats(gammas, *hist)
                dist = part if dist is None else dist.pooled(part)
            del gammas  # so that the next chunk's reads do not hold it too
        ops += segment_opportunities(np.empty(0, dtype=np.int64), np.empty((2, 0)), held)
        for reader in readers:
            if reader.n_crossed:
                print(f"warning: {reader.path}: accepted {reader.n_crossed} crossed quote(s) "
                      "(bid > ask)", file=sys.stderr)
            reader.finish()
    ops.sort(key=lambda op: (op.start, op.direction.value))
    return ops, dist


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    import hashlib  # loads OpenSSL, about 3.5 MB of RSS that only synth needs

    from .synth import generate, synth_config_from_json

    raw = Path(args.synth_config).read_bytes()
    try:
        content = json.loads(raw)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise SynthConfigError(f"--synth-config {args.synth_config}: not JSON: {exc}") from None
    cfg = synth_config_from_json(content)
    triangle_series = generate(cfg)
    out = _out_dir(args)
    for series in triangle_series:
        write_pair_series_csv(out / f"{series.pair.file_stem}.csv", series)
    columns = {f.name: getattr(cfg.injections, f.name).tolist()
               for f in dataclasses.fields(cfg.injections)}
    write_json(out / "injections.json", [dict(zip(columns, row)) for row in zip(*columns.values())])
    _write_manifest(
        out, "synth", cfg.triangle, cfg.window, cfg.seed,
        # the file's bytes and content, so that a rerun can tell whether it changed
        {"synth_config": str(args.synth_config),
         "synth_config_sha256": hashlib.sha256(raw).hexdigest(),
         "synth_config_content": content, "n_injections": len(cfg.injections)},
    )
    return 0


def cmd_detect(args) -> int:
    triangle = TriangleSpec(parse_currencies(args.triangle))
    window = parse_window(args.window, args.weekdays)
    thresholds = check_thresholds(parse_float_list(args.thresholds, "--thresholds"))
    hist_range = check_histogram(args.hist_bin_width, (args.hist_lo, args.hist_hi))
    ops, dist = _detect(args.data_dir, triangle, window, (args.hist_bin_width, hist_range))

    out = _out_dir(args)
    write_csv(
        out / "opportunities.csv",
        ["direction", "start", "run_length", "duration_label",
         "initial_gamma", "peak_gamma", "magnitude_bp"],
        ([op.direction.value, op.start, op.run_length, op.run_length,
          op.initial_gamma, op.peak_gamma, op.magnitude_bp] for op in ops),
    )
    write_json(out / "duration_stats.json", dataclasses.asdict(duration_stats(ops)))
    write_csv(out / "threshold_table.csv", ["threshold_bp", "count", "mean_duration"],
              map(dataclasses.astuple, threshold_table(ops, thresholds)))
    write_histogram(out / "histogram.csv", dist)
    _write_manifest(
        out, "detect", triangle, window, None,
        {"data_dir": str(args.data_dir), "thresholds_bp": thresholds,
         "histogram": {"lo": args.hist_lo, "hi": args.hist_hi, "bin_width": args.hist_bin_width}},
    )
    return 0


def cmd_seasonal(args) -> int:
    triangle = TriangleSpec(parse_currencies(args.triangle))
    window = parse_window(args.window, args.weekdays)
    window.days()  # refuses a window past 9999-12-31, which daily.csv cannot name, before any read
    ops, _ = _detect(args.data_dir, triangle, window)
    out = _out_dir(args)
    write_csv(out / "hourly.csv", ["hour", "count", "mean_duration"],
              zip(range(HOURS), *hourly_profile(ops)))
    days, counts, mean_durations = daily_profile(ops, window)
    write_csv(out / "daily.csv", ["date", "count", "mean_duration"],
              zip(map(date.isoformat, days), counts, mean_durations))
    _write_manifest(out, "seasonal", triangle, window, None, {"data_dir": str(args.data_dir)})
    return 0


def cmd_simulate(args) -> int:
    from .simulator import P_GRID, Scenario, SimulationConfig, check_lambda_grid, simulate_trades

    triangle = TriangleSpec(parse_currencies(args.triangle))
    window = parse_window(args.window, args.weekdays)
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")  # not secrets: it loads OpenSSL
    gamma_ts = parse_float_list(args.gamma_t, "--gamma-t")
    if not gamma_ts:
        raise TriarbError(f"--gamma-t needs at least one threshold, got {args.gamma_t!r}")
    lambda_grid = parse_float_list(args.lambda_grid, "--lambda-grid")
    check_lambda_grid(lambda_grid)
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
        for scenario in Scenario  # fixed, then duration
        if args.scenario in ("both", scenario.value)
        for gamma_t in gamma_ts
    ]
    ops, _ = _detect(args.data_dir, triangle, window)
    results = simulate_trades(ops, configs, lambda_grid)

    surface = results[0].surface  # the surface covers the first config only
    curve_rows = []
    breakeven_rows = []
    summary = {"per_config": [], "seed": seed, "runs": args.runs, "volume": args.volume,
               "p": args.p, "lambda_bp": args.lambda_bp}
    for cfg, result in zip(configs, results):
        curve_rows.extend(
            (cfg.scenario.value, cfg.gamma_t, p, m, s)
            for p, m, s in zip(
                P_GRID.tolist(), result.curve_mean.tolist(), result.curve_std.tolist()
            )
        )
        entry = _summary_entry(cfg, result.summary)
        for be in result.break_even:
            breakeven_rows.append((cfg.scenario.value, cfg.gamma_t, *dataclasses.astuple(be)))
            if be.lambda_bp == args.lambda_bp:
                entry["break_even"] = dataclasses.asdict(be)
        summary["per_config"].append(entry)

    # serialised before the out-dir exists: an overflowed result leaves no output
    summary_text = json_text("summary.json", summary)
    out = _out_dir(args)
    (out / "summary.json").write_text(summary_text)
    p_grid, lambdas = surface.p_grid.tolist(), surface.lambda_grid_bp.tolist()
    write_csv(out / "profit_surface.csv", ["p", "lambda_bp", "mean_profit_bp"],
              ([p, lam, m] for p, row in zip(p_grid, surface.mean_profit_bp.tolist())
               for lam, m in zip(lambdas, row)))
    write_csv(out / "breakeven_contour.csv", ["lambda_bp", "break_even_p"],
              ([lam, "" if math.isnan(p) else p] for lam, p in surface.breakeven_contour))
    write_csv(out / "profit_curves.csv",
              ["scenario", "gamma_t", "p", "total_profit_mean", "total_profit_std"], curve_rows)
    write_csv(out / "breakeven.csv",
              ["scenario", "gamma_t", "lambda_bp", "analytic_p", "simulated_p", "simulated_p_std"],
              breakeven_rows)
    _write_manifest(
        out, "simulate", triangle, window, seed,
        {"data_dir": str(args.data_dir), "scenario": args.scenario,
         "gamma_t": gamma_ts, "lambda_grid_bp": lambda_grid, "runs": args.runs},
    )
    return 0


def _summary_entry(cfg: SimulationConfig, s: SimulationSummary) -> dict:
    from .simulator import Scenario

    n = s.trades_attempted
    entry = {
        "scenario": cfg.scenario.value,
        "gamma_t": cfg.gamma_t,
        "trades": n,
        "n_long": s.n_long,
        "n_short": s.n_short,
        "mean_excess_bp": s.mean_excess_bp,
        "analytic_total_profit": s.analytic_total_profit,
        "analytic_break_even_p": s.analytic_break_even_p,
    }
    if cfg.scenario is Scenario.DURATION_FILL:  # only a sure fill can clamp the break-even
        entry["analytic_break_even_clamped"] = s.analytic_break_even_clamped
    if n:
        entry["simulated_total_profit"] = s.total_profit
        entry["simulated_total_profit_std"] = s.total_profit_std
        entry["mean_profit_per_trade_bp"] = s.mean_profit_per_trade_bp
        entry["trades_filled_mean"] = s.trades_filled_mean
    return entry


def cmd_compare(args) -> int:
    triangle = TriangleSpec(parse_currencies(args.triangle))
    window = parse_window(args.window, args.weekdays)
    datasets = _parse_datasets(args.dataset)
    hist_range = check_histogram(args.hist_bin_width, (args.hist_lo, args.hist_hi))

    stats = []
    for label, data_dir in datasets:
        ops, dist = _detect(data_dir, triangle, window, (args.hist_bin_width, hist_range))
        stats.append((label, dist, duration_stats(ops)))

    out = _out_dir(args)
    for label, dist, _ in stats:
        write_histogram(out / f"histogram_{label}.csv", dist)
    deltas = compare_periods([dur for _, _, dur in stats])
    write_csv(out / "comparison.csv",
              ["label", "count", *BUCKET_LABELS, "mean", "stdev", "delta_count", "delta_1s"],
              ([label, dur.count, *(dur.bucket_pct[k] for k in BUCKET_LABELS),
                dist.mean, dist.std, *delta] for (label, dist, dur), delta in zip(stats, deltas)))
    _write_manifest(
        out, "compare", triangle, window, None,
        {"datasets": [{"label": l, "data_dir": d} for l, d in datasets]},
    )
    return 0


def _parse_datasets(specs: Sequence[str]) -> list[tuple[str, str]]:
    """(label, directory) per LABEL=DIR; a label names an output file, so it
    must be non-empty, unique and free of path separators."""
    datasets: dict[str, str] = {}
    for spec in specs:
        label, sep, path = (part.strip() for part in spec.partition("="))
        if not sep or not path:
            raise TriarbError(f"bad --dataset {spec!r}, expected LABEL=DIR")
        if not label or any(s and s in label for s in (os.sep, os.altsep)):
            raise TriarbError(
                f"bad --dataset label {label!r}: need a non-empty name without a path separator"
            )
        if label in datasets:
            raise TriarbError(f"repeated --dataset label {label!r}")
        datasets[label] = path
    if len(datasets) < 2:
        raise TriarbError("compare needs at least two --dataset arguments")
    return list(datasets.items())


def run() -> None:
    """`main`, then the process ended with its exit code: by `os._exit` after a
    flush of stdout and stderr, or by `sys.exit` (see the module docstring)."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on, tool ids 0 to 5
    if sys.gettrace() or sys.getprofile() or (
            monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a reader gone, say: the normal exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
