"""Workload definitions, input preparation and output checks for the benchmark.

Every workload builds its input with the real ``triarb synth`` command from a
seeded JSON config, then runs one real ``triarb`` command on it. The ground
truth is the ``injections.json`` that synth writes beside the tick files, so
every output can be checked exactly against it.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

SECONDS_PER_DAY = 86_400
MONDAY = "2026-03-02"  # every window starts on a Monday at 00:00 UTC
PAIR_STEMS = ("EURUSD", "USDCHF", "EURCHF")
PEAK_TOLERANCE_BP = 0.05  # synth's promise for an injected episode's magnitude
# The acceptance module checks simulated against analytic totals at 3
# standard errors for one seed. Here that check runs on six configs for every
# seed a benchmark run picks; a Bonferroni correction of the same two-sided
# level (0.0027) over 6 configs x 100 seeds gives 4.6, rounded up to 5.
TOTAL_PROFIT_SIGMAS = 5.0
SIMULATE_SEED = 7

DETECT_FILES = {"opportunities.csv", "duration_stats.json", "threshold_table.csv",
                "histogram.csv", "manifest.json"}
SEASONAL_FILES = {"hourly.csv", "daily.csv", "manifest.json"}
SIMULATE_FILES = {"profit_surface.csv", "breakeven_contour.csv", "profit_curves.csv",
                  "breakeven.csv", "summary.json", "manifest.json"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # triarb subcommand run in every iteration
    start: str            # ISO start of the window
    seconds: int          # window length in seconds (weekday grid)
    base_rate_per_hour: float
    raw_ticks: bool = False  # rewrite synth's files as raw ISO ticks
    runs: int = 0            # simulate --runs

    @property
    def window(self) -> str:
        start = _parse_iso(self.start)
        end = start + timedelta(seconds=self.seconds)
        return f"{start.strftime('%Y-%m-%dT%H:%M:%S')}..{end.strftime('%Y-%m-%dT%H:%M:%S')}"

    def synth_config(self, seed: int) -> dict:
        start, end = self.window.split("..")
        return {
            "seed": seed,
            "window": {"start": start, "end": end, "weekdays": "mon-fri"},
            "pairs": {
                "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001"},
                "USD/CHF": {"mid": 1.3030, "vol": 2e-6, "point": "0.00001"},
                "EUR/CHF": {"point": "0.00001"},
            },
            "liquidity_preset": True,
            "schedule": {"base_rate_per_hour": self.base_rate_per_hour,
                         "magnitude_range": [0.5, 4.0]},
        }

    def command_args(self, data_dir: Path, out_dir: Path) -> list[str]:
        args = [self.command, "--data-dir", str(data_dir), "--window", self.window,
                "--out-dir", str(out_dir)]
        if self.command == "simulate":
            args += ["--runs", str(self.runs), "--p", "0.8", "--seed", str(SIMULATE_SEED)]
        return args

    def check(self, out_dir: Path, injections: list[dict]) -> list[str]:
        """Problems found in one iteration's --out-dir; empty when correct."""
        expected = {"detect": DETECT_FILES, "seasonal": SEASONAL_FILES,
                    "simulate": SIMULATE_FILES}[self.command]
        found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
        if found != expected:
            return [f"out-dir holds {sorted(found)}, expected {sorted(expected)}"]
        if self.command == "detect":
            return check_detect(out_dir, injections)
        if self.command == "seasonal":
            return check_seasonal(out_dir, injections, self)
        return check_simulate(out_dir, injections, self.runs)


# Each iteration takes a few seconds, so that one run's median is over ~10 of them.
WORKLOADS = {
    w.name: w
    for w in (
        # Ingestion: one-row-per-second epoch files through detect.
        Workload("detect_day", "detect", MONDAY, SECONDS_PER_DAY, 1.0),
        # The Monte Carlo sweep dominates: a short, busy window keeps the load small.
        Workload("simulate_3h", "simulate", f"{MONDAY}T13:00:00", 3 * 3600, 12.0, runs=1000),
        # The same loader through ISO parsing, last-tick-wins and mixed scales.
        Workload("seasonal_raw_12h", "seasonal", f"{MONDAY}T06:00:00", 12 * 3600, 1.0,
                 raw_ticks=True),
    )
}


def _parse_iso(text: str) -> datetime:
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# input preparation


def rewrite_raw_ticks(data_dir: Path, seed: int) -> None:
    """Rewrite synth's tick files as raw ticks that load to the same grid.

    Each quoted second becomes three rows with ISO-8601 millisecond
    timestamps; only the last carries the synth quote, the two before it are
    wider quotes that last-tick-wins must discard. Prices lose their trailing
    zeros, so rows have mixed numbers of decimal places.
    """
    rng = random.Random(seed)
    for stem in PAIR_STEMS:
        path = data_dir / f"{stem}.csv"
        with open(path) as fh:
            lines = fh.read().splitlines()[1:]
        out = ["timestamp,bid,ask"]
        day_cache: dict[int, str] = {}
        for line in lines:
            t_s, bid_s, ask_s = line.split(",")
            t = int(t_s)
            day = t // SECONDS_PER_DAY
            prefix = day_cache.get(day)
            if prefix is None:
                prefix = (date(1970, 1, 1) + timedelta(days=day)).isoformat() + "T"
                day_cache[day] = prefix
            sod = t - day * SECONDS_PER_DAY
            stamp = f"{prefix}{sod // 3600:02d}:{sod // 60 % 60:02d}:{sod % 60:02d}."
            bid, ask = _mantissa(bid_s), _mantissa(ask_s)
            r = rng.getrandbits(40)  # one draw per second: 3 offsets, 4 widenings
            out.append(f"{stamp}{r % 333:03d}Z,{_price(bid - 1 - (r >> 30 & 3))},"
                       f"{_price(ask + (r >> 32 & 3))}")
            out.append(f"{stamp}{333 + (r >> 10) % 333:03d}Z,{_price(bid - 1 - (r >> 34 & 3))},"
                       f"{_price(ask + (r >> 36 & 3))}")
            out.append(f"{stamp}{666 + (r >> 20) % 334:03d}Z,{_price(bid)},{_price(ask)}")
        with open(path, "w") as fh:
            fh.write("\n".join(out))
            fh.write("\n")


def _mantissa(text: str) -> int:
    whole, frac = text.split(".")
    if len(frac) != 5:
        raise ValueError(f"expected a five-digit synth price, got {text!r}")
    return int(whole) * 100_000 + int(frac)


@functools.lru_cache(maxsize=None)
def _price(mantissa: int) -> str:
    return f"{mantissa // 100_000}.{mantissa % 100_000:05d}".rstrip("0").rstrip(".")


def input_sizes(data_dir: Path) -> dict:
    """Rows and bytes of each tick file plus the injected episode count."""
    files = {}
    for stem in PAIR_STEMS:
        raw = (data_dir / f"{stem}.csv").read_bytes()
        files[f"{stem}.csv"] = {"rows": raw.count(b"\n") - 1, "bytes": len(raw)}
    return {
        "rows": sum(f["rows"] for f in files.values()),
        "bytes": sum(f["bytes"] for f in files.values()),
        "files": files,
        "injected_episodes": len(load_injections(data_dir)),
    }


def load_injections(data_dir: Path) -> list[dict]:
    with open(data_dir / "injections.json") as fh:
        return json.load(fh)


def grid_seconds(workload: Workload) -> int:
    """Weekday-filtered grid size of the workload's window."""
    t = int(_parse_iso(workload.start).timestamp())
    end = t + workload.seconds
    total = 0
    while t < end:
        step = min(end, (t // SECONDS_PER_DAY + 1) * SECONDS_PER_DAY) - t
        if (date(1970, 1, 1) + timedelta(days=t // SECONDS_PER_DAY)).weekday() < 5:
            total += step
        t += step
    return total


# ---------------------------------------------------------------------------
# output checks


def recovered(ops: list[tuple[int, int, int, float]], injections: list[dict]) -> int:
    """Injected episodes found exactly once as (start, run_length, direction)
    with a peak within the synth tolerance, out of the given opportunities."""
    by_key = {}
    for start, run_length, direction, magnitude_bp in ops:
        by_key.setdefault((start, run_length, direction), []).append(magnitude_bp)
    hits = 0
    for inj in injections:
        mags = by_key.get((inj["start"], inj["duration_seconds"], inj["direction"]), [])
        if len(mags) == 1 and abs(mags[0] - inj["magnitude_bp"]) <= PEAK_TOLERANCE_BP:
            hits += 1
    return hits


def check_detect(out_dir: Path, injections: list[dict]) -> list[str]:
    with open(out_dir / "opportunities.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ops = [(int(r["start"]), int(r["run_length"]), int(r["direction"]),
            float(r["magnitude_bp"])) for r in rows]
    problems = []
    hits = recovered(ops, injections)
    if hits != len(injections) or len(ops) != len(injections):
        problems.append(f"opportunities.csv: {len(ops)} rows, {hits} of "
                        f"{len(injections)} injected episodes recovered exactly")
    with open(out_dir / "duration_stats.json") as fh:
        count = json.load(fh)["count"]
    if count != len(injections):
        problems.append(f"duration_stats.json: count {count}, expected {len(injections)}")
    with open(out_dir / "threshold_table.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    if float(first["threshold_bp"]) != 0.0 or int(first["count"]) != len(injections):
        problems.append(f"threshold_table.csv: first row {first}, expected 0 bp with "
                        f"{len(injections)} opportunities")
    return problems


def check_seasonal(out_dir: Path, injections: list[dict], workload: Workload) -> list[str]:
    hours = {h: [] for h in range(24)}
    days: dict[str, list[int]] = {}
    for inj in injections:
        hours[inj["start"] % SECONDS_PER_DAY // 3600].append(inj["duration_seconds"])
        day = (date(1970, 1, 1) + timedelta(days=inj["start"] // SECONDS_PER_DAY)).isoformat()
        days.setdefault(day, []).append(inj["duration_seconds"])
    expected_hourly = [[str(h), str(len(d)), repr(sum(d) / len(d) if d else 0.0)]
                       for h, d in hours.items()]
    start = _parse_iso(workload.start).date()
    end = (_parse_iso(workload.start) + timedelta(seconds=workload.seconds - 1)).date()
    expected_daily = []
    day = start
    while day <= end:
        if day.weekday() < 5:
            d = days.get(day.isoformat(), [])
            expected_daily.append([day.isoformat(), str(len(d)),
                                   repr(sum(d) / len(d) if d else 0.0)])
        day += timedelta(days=1)
    problems = []
    for name, expected in (("hourly.csv", expected_hourly), ("daily.csv", expected_daily)):
        with open(out_dir / name, newline="") as fh:
            got = list(csv.reader(fh))[1:]
        if got != expected:
            problems.append(f"{name} does not match the injected episodes")
    return problems


def check_simulate(out_dir: Path, injections: list[dict], runs: int) -> list[str]:
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    configs = summary["per_config"]
    problems = []
    if len(configs) != 6:
        problems.append(f"summary.json: {len(configs)} configs, expected 2 scenarios x 3 gamma_t")
    mags = [inj["magnitude_bp"] for inj in injections]
    for entry in configs:
        label = f"summary.json {entry['scenario']} gamma_t={entry['gamma_t']}"
        threshold_bp = (entry["gamma_t"] - 1.0) * 1e4
        n = entry["trades"]
        # initial excess is within the synth tolerance of the magnitude
        lo = sum(m - PEAK_TOLERANCE_BP > threshold_bp for m in mags)
        hi = sum(m + PEAK_TOLERANCE_BP > threshold_bp for m in mags)
        if not lo <= n <= hi:
            problems.append(f"{label}: {n} trades, expected {lo}..{hi}")
        if entry["gamma_t"] == 1.0:
            n_long = sum(inj["duration_seconds"] >= 2 for inj in injections)
            if n != len(injections) or entry["n_long"] != n_long:
                problems.append(f"{label}: {n} trades with {entry['n_long']} long, expected "
                                f"{len(injections)} with {n_long} long")
        if n == 0:
            continue
        analytic = entry["analytic_total_profit"]
        simulated = entry["simulated_total_profit"]
        stderr = entry["simulated_total_profit_std"] / math.sqrt(runs)
        tolerance = TOTAL_PROFIT_SIGMAS * stderr + 1e-9 * max(1.0, abs(analytic))
        if not abs(simulated - analytic) <= tolerance:
            problems.append(f"{label}: simulated total {simulated!r} is "
                            f"{abs(simulated - analytic) / max(stderr, 1e-300):.2f} standard "
                            f"errors from the analytic {analytic!r}")
    return problems
