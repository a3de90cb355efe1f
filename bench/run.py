"""Benchmark of the triarb command line on seeded synthetic triangles.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds the workload's input with ``triarb synth`` (several times; the
median is ``setup_s``), then runs the workload's command in a fresh child
process, one at a time, for S seconds: it starts no iteration that would end
after them, but always runs at least two. Every iteration's
--out-dir is checked against the injected ground truth and hashed; any
difference from the first iteration fails it. With ``--trace 1`` traced and
untraced iterations alternate and the per-layer metrics come from the traced
ones. Right before and right after every set-up and iteration the run times a
fixed reference task (machine_speed.py); each child's timings are scaled to
the reference speed by the mean of its two probes before the medians are
taken. The last line of stdout is the JSON result; a copy with the
environment, the raw timings and every sample goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from machine_speed import REFERENCE_PROBE_S, probe
from traced_cli import LAYER_FUNCTIONS
from workloads import (
    SIMULATE_SEED,
    WORKLOADS,
    Workload,
    grid_seconds,
    input_sizes,
    load_injections,
    recovered,
    rewrite_raw_ticks,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
PROBE_WARMUP = 3           # the first probes of a process run slow
MIN_ITERATIONS = 2          # the determinism check needs two out-dirs
CHILD_TIMEOUT_S = 150.0
STOP_STARTING_AFTER_S = 120.0  # keeps a slow program inside the 180 s run limit

SWEEP_KEYS = ("summary", "surface", "curves", "break_even")


class BenchError(Exception):
    pass


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    traced: bool = False
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    probe_s: tuple[float, float] = (REFERENCE_PROBE_S, REFERENCE_PROBE_S)

    @property
    def speed_factor(self) -> float:
        """Reference probe time / mean of the probes that bracket this child."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probe_s)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TRIARB_CONFIG", None)
    return env


class Spawner:
    """The spawner.py process that starts every child (see there for why)."""

    def __enter__(self) -> Spawner:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.terminate()  # kills and waits for a running child
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], log_path: Path) -> tuple[int, Iteration]:
        """Run one child to completion; wall time plus its rusage from wait4."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log_path),
                                          "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the child spawner exited")
        reply = json.loads(line)
        return reply["rc"], Iteration(wall_s=reply["wall_s"], cpu_s=reply["cpu_s"],
                                      peak_rss_mb=reply["maxrss_kb"] / 1024.0)

    def run_probed(self, argv: list[str], log_path: Path) -> tuple[int, Iteration]:
        """run() between two machine-speed probes, taken while no child runs."""
        before = probe()
        rc, it = self.run(argv, log_path)
        it.probe_s = (before, probe())
        return rc, it


def triarb_argv(args: list[str], trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "triarb.cli", *args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), "--", *args]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def log_tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


# ---------------------------------------------------------------------------
# one run


@dataclass
class RunRecord:
    workload: Workload
    seed: int
    trace: bool
    sizes: dict
    injections: list[dict]
    setups: list[Iteration]
    iterations: list[Iteration]
    measured_s: float


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 run_dir: Path, spawner: Spawner) -> RunRecord:
    began = time.perf_counter()
    data, out = run_dir / "data", run_dir / "out"
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "synth.json"
    config.write_text(json.dumps(workload.synth_config(seed)))
    for _ in range(PROBE_WARMUP):
        probe()

    setups = []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(data, ignore_errors=True)
        trace_path = run_dir / f"synth{i}.trace.json" if trace else None
        log = run_dir / f"synth{i}.log"
        rc, it = spawner.run_probed(triarb_argv(["synth", "--synth-config", str(config),
                                                 "--out-dir", str(data)], trace_path), log)
        if rc != 0:
            raise BenchError(f"triarb synth exited {rc}: {log_tail(log)}")
        if trace_path:
            it.trace = json.loads(trace_path.read_text())
        setups.append(it)
    if workload.raw_ticks:
        rewrite_raw_ticks(data, seed)
    sizes = input_sizes(data)
    sizes["grid_seconds"] = grid_seconds(workload)
    injections = load_injections(data)

    iterations: list[Iteration] = []
    first_digest = None
    measure_start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        trace_path = run_dir / f"iter{len(iterations)}.trace.json" if traced else None
        log = run_dir / f"iter{len(iterations)}.log"
        rc, it = spawner.run_probed(triarb_argv(workload.command_args(data, out), trace_path),
                                    log)
        it.traced = traced
        if rc != 0:
            it.problems.append(f"exit {rc}: {log_tail(log)}")
        else:
            try:
                it.problems.extend(workload.check(out, injections))
            except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
                it.problems.append(f"unreadable output: {exc!r}")
            digest = tree_digest(out)
            first_digest = first_digest or digest
            if digest != first_digest:
                it.problems.append("out-dir is not byte-identical to the first iteration's")
            if traced:
                it.trace = json.loads(trace_path.read_text())
                it.trace["bytes_out"] = tree_bytes(out)
        iterations.append(it)
        n = len(iterations)
        step = 2 if trace else 1  # traced runs measure untraced/traced pairs
        if n < MIN_ITERATIONS or n % step:
            continue
        # stop before a step that would end after the measuring window
        now = time.perf_counter()
        next_s = sum(i.wall_s for i in iterations[-step:])
        if now - measure_start + next_s > seconds or now - began >= STOP_STARTING_AFTER_S:
            break
    return RunRecord(workload, seed, trace, sizes, injections, setups, iterations,
                     time.perf_counter() - measure_start)


# ---------------------------------------------------------------------------
# metrics


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(rec: RunRecord, corrected: bool = True) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample count) over passing untraced iterations.

    Timings are medians of each child's time scaled by its own speed factor,
    or of the raw times when ``corrected`` is false.
    """
    def median_s(children, attr):
        return statistics.median(getattr(it, attr) * (it.speed_factor if corrected else 1.0)
                                 for it in children)

    good = [it for it in rec.iterations if not it.traced and not it.problems]
    if not good:
        raise BenchError("no untraced iteration passed its checks")
    attempted = len(rec.iterations)
    failed = sum(bool(it.problems) for it in rec.iterations)
    wall = median_s(good, "wall_s")
    values = {
        "wall_s": wall,
        "ticks_per_s": rec.sizes["rows"] / wall,
        "cpu_s": median_s(good, "cpu_s"),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in good),
        "setup_s": median_s(rec.setups, "wall_s"),
        "success_rate": (attempted - failed) / attempted,
    }
    samples = dict.fromkeys(values, len(good))
    samples["setup_s"] = len(rec.setups)
    samples["success_rate"] = attempted
    return values, samples


def self_times(trace: dict) -> dict[tuple[str, str], float]:
    """Self time per (layer, key): span duration minus its child spans."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[tuple[str, str], float] = {}
    for s, c in zip(spans, child):
        key = (s["layer"], s["key"])
        out[key] = out.get(key, 0.0) + (s["end"] - s["start"]) - c
    return out


def layer_values(it: Iteration, rec: RunRecord) -> dict:
    t = it.trace
    busy = self_times(t)
    counts = t["counts"]

    def s(layer, key):
        return busy.get((layer, key), 0.0)

    files = rec.sizes["files"]
    rows_read = sum(files[Path(p).name]["rows"] for p in t["loaded_paths"])
    load = s("market_data", "load")
    calls = sum(1 for sp in t["spans"] if sp["layer"] == "simulator" and sp["key"] in SWEEP_KEYS)
    n_inj = len(rec.injections)
    rss = counts["rss_before_load_kb"], counts["rss_after_load_kb"]
    return {
        "market_data.load_s": load,
        "market_data.rows_read": rows_read,
        "market_data.rows_per_s": rows_read / load if load else 0.0,
        "market_data.rows_kept_frac": counts["quoted_seconds"] / rows_read if rows_read else 0.0,
        "market_data.rss_delta_mb": (rss[1] - rss[0]) / 1024.0 if None not in rss else 0.0,
        "market_data.align_s": s("market_data", "align"),
        "rate_product.compute_s": s("rate_product", "compute"),
        "rate_product.grid_seconds": counts["grid_seconds"],
        "opportunity.segment_s": s("opportunity", "segment"),
        "opportunity.stats_s": s("opportunity", "stats"),
        "opportunity.count": len(t["opportunities"]),
        "opportunity.recovered_frac": (
            recovered([tuple(o) for o in t["opportunities"]], rec.injections) / n_inj
            if n_inj else 1.0
        ),
        "seasonal.profile_s": s("seasonal", "profile"),
        "simulator.summary_s": s("simulator", "summary"),
        "simulator.surface_s": s("simulator", "surface"),
        "simulator.curves_s": s("simulator", "curves"),
        "simulator.break_even_s": s("simulator", "break_even"),
        # filter_trades is part of the sweep layer, so the layers add up
        "simulator.sweep_s": sum(v for (layer, _), v in busy.items() if layer == "simulator"),
        "simulator.calls": calls,
        "simulator.draw_passes": calls * rec.workload.runs,
        "simulator.trades": statistics.fmean(counts["trades"]) if counts["trades"] else 0.0,
        "cli.emit_s": s("cli", "emit"),
        "cli.bytes_out": t["bytes_out"],
        "cli.self_s": it.wall_s - sum(busy.values()),
    }


def per_layer(rec: RunRecord) -> tuple[dict, dict, dict]:
    """(metric -> median value, metric -> sample count, layer -> mean self time)."""
    traced = [it for it in rec.iterations if it.traced and not it.problems]
    plain = [it for it in rec.iterations if not it.traced and not it.problems]
    if not traced or not plain:
        raise BenchError("no traced and untraced pair of iterations passed its checks")
    per_iter = [layer_values(it, rec) for it in traced]
    values = {k: statistics.median(v[k] for v in per_iter) for k in per_iter[0]}
    samples = dict.fromkeys(values, len(traced))
    for name, key in (("synth.generate_s", "generate"), ("synth.write_s", "write")):
        values[name] = statistics.median(
            self_times(it.trace).get(("synth", key), 0.0) for it in rec.setups)
        samples[name] = len(rec.setups)
    values["synth.bytes_written"] = statistics.median(
        it.trace["counts"]["bytes_written"] for it in rec.setups)
    samples["synth.bytes_written"] = len(rec.setups)
    values["trace.overhead_s"] = (statistics.median(it.wall_s for it in traced)
                                  - statistics.median(it.wall_s for it in plain))
    samples["trace.overhead_s"] = len(traced) + len(plain)
    layers = {}
    for it in traced:
        busy = self_times(it.trace)
        for layer in {layer for layer, _ in LAYER_FUNCTIONS.values()}:
            layers.setdefault(layer, []).append(
                sum(v for (name, _), v in busy.items() if name == layer))
        layers.setdefault("cli (self)", []).append(it.wall_s - sum(busy.values()))
    # means, not medians, so that the layers add up to the traced wall
    layers = {k: statistics.fmean(v) for k, v in layers.items()}
    layers["traced wall"] = statistics.fmean(it.wall_s for it in traced)
    return values, samples, layers


# ---------------------------------------------------------------------------
# environment and report


def environment(rec: RunRecord) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    seeds = {"benchmark": rec.seed, "synth": rec.seed}
    if rec.workload.raw_ticks:
        seeds["raw_rewrite"] = rec.seed
    if rec.workload.command == "simulate":
        seeds["simulate"] = SIMULATE_SEED
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": rec.workload.name,
        "command": ["triarb", *rec.workload.command_args(Path("DATA"), Path("OUT"))],
        "seeds": seeds,
        "input": {k: rec.sizes[k] for k in
                  ("rows", "bytes", "grid_seconds", "injected_episodes", "files")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "triarb" / "cli.py").is_file():
        print(f"error: no triarb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    # SIGTERM unwinds like an error, so that the spawner stops its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with Spawner() as spawner:
            rec = run_workload(workload, args.seed, args.seconds, bool(args.trace), run_dir,
                               spawner)
        result = report(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(rec: RunRecord) -> dict:
    """Print the readable report, save the full record, return the result line."""
    for i, it in enumerate(rec.iterations):
        for problem in it.problems:
            print(f"iteration {i} failed: {problem}", file=sys.stderr)
    attempted = len(rec.iterations)
    failed = sum(bool(it.problems) for it in rec.iterations)
    env = environment(rec)
    print(f"workload {rec.workload.name}  seed {rec.seed}  trace {int(rec.trace)}  "
          f"measured {rec.measured_s:.1f} s over {attempted} iterations")
    print("env " + json.dumps(env, sort_keys=True))
    children = rec.setups + rec.iterations
    print(f"machine speed: median probe "
          f"{statistics.median(p for it in children for p in it.probe_s):.4f} s, "
          f"reference {REFERENCE_PROBE_S} s, per-child speed factors "
          f"{min(it.speed_factor for it in children):.3f}"
          f"-{max(it.speed_factor for it in children):.3f}")
    raw = None
    if rec.trace:
        values, samples, layers = per_layer(rec)
        units = metric_units("per_layer")
    else:
        values, samples = end_to_end(rec)
        raw, _ = end_to_end(rec, corrected=False)
        units = metric_units("end_to_end")
    values = {name: values[name] for name in units}  # BENCHMARK.json's order
    for name, value in values.items():
        as_measured = f"  (measured {raw[name]:.6g})" if raw and raw[name] != value else ""
        print(f"  {name:28s} {value:>16.6g} {units[name]:9s} {samples[name]} samples"
              f"{as_measured}")
    print(f"  {'error_rate':28s} {failed / attempted:>16.6g} {'fraction':9s} "
          f"{failed} of {attempted} iterations failed")
    if rec.trace:
        print("  layer self times (means of traced iterations):")
        for layer, value in sorted(layers.items()):
            print(f"    {layer:24s} {value:10.4f} s")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "result": result, "env": env, "samples": samples,
        "iterations": [{"wall_s": it.wall_s, "cpu_s": it.cpu_s,
                        "peak_rss_mb": it.peak_rss_mb, "traced": it.traced,
                        "probe_s": it.probe_s, "problems": it.problems}
                       for it in rec.iterations],
        "setup_s": [it.wall_s for it in rec.setups],
        "setup_probe_s": [it.probe_s for it in rec.setups],
    }
    if raw:
        record["measured"] = raw
    if rec.trace:
        record["layer_self_s"] = layers
    name = f"{rec.workload.name}-seed{rec.seed}-trace{int(rec.trace)}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


if __name__ == "__main__":
    sys.exit(main())
