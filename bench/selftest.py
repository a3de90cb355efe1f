"""Fast self-check of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 bench/selftest.py

Runs every workload on a one-hour window (simulate with --runs 10), untraced
and traced, and checks that the outputs pass, that the metric names and units
match BENCHMARK.json, that the layer self times add up to the traced wall
time, that the output checks reject corrupted outputs, that a child's peak
RSS is its own and not the benchmark process's, and that the benchmark exits
non-zero without printing a result where the triarb sources are absent.
Takes well under a minute; it is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import resource
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SEED = 5
SELFTEST = run.WORK / "selftest"


def tiny(workload):
    return dataclasses.replace(workload, name=f"{workload.name}_tiny",
                               start="2026-03-02T13:00:00", seconds=3600,
                               runs=10 if workload.runs else 0)


def corrupt(workload, out):
    """Break one output the way a wrong program could."""
    if workload.command == "detect":
        path = out / "opportunities.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    elif workload.command == "seasonal":
        path = out / "hourly.csv"
        rows = path.read_text().splitlines()
        hour, count, mean = rows[14].split(",")
        rows[14] = f"{hour},{int(count) + 1},{mean}"
        path.write_text("\n".join(rows) + "\n")
    else:
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        entry = summary["per_config"][0]
        entry["simulated_total_profit"] += 50 * entry["simulated_total_profit_std"] + 1.0
        path.write_text(json.dumps(summary))


def check_workload(workload, spec, spawner):
    for trace in (False, True):
        run_dir = SELFTEST / f"{workload.name}-trace{int(trace)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        rec = run.run_workload(workload, SEED, 0, trace, run_dir, spawner)
        assert rec.injections, "the tiny window should hold injected episodes"
        for it in rec.iterations:
            assert not it.problems, it.problems
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report(rec)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        kind = "per_layer" if trace else "end_to_end"
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec[kind], kind
        if trace:
            _, _, layers = run.per_layer(rec)
            wall = layers.pop("traced wall")
            assert math.isclose(sum(layers.values()), wall, rel_tol=1e-9), (layers, wall)
            assert result["metrics"]["opportunity.recovered_frac"]["value"] == 1.0
            assert result["metrics"]["cli.self_s"]["value"] > 0
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            corrupt(workload, run_dir / "out")
            assert workload.check(run_dir / "out", rec.injections), "corruption not caught"
        shutil.rmtree(run_dir)
    print(f"ok  {workload.name}")


def check_spawner(spawner):
    """A bare interpreter's peak RSS must not include this process's."""
    SELFTEST.mkdir(parents=True, exist_ok=True)
    rc, it = spawner.run([sys.executable, "-c", "pass"], SELFTEST / "bare.log")
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert rc == 0 and 0 < it.peak_rss_mb < own_mb / 2, (it.peak_rss_mb, own_mb)
    print(f"ok  child peak RSS is its own ({it.peak_rss_mb:.0f} MB; "
          f"this process {own_mb:.0f} MB)")


def check_without_sources():
    bare = SELFTEST / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([*spec["command"], "--workload", "detect_day", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and not done.stdout.strip(), done
    shutil.rmtree(bare)
    print("ok  exits non-zero without the triarb sources")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    with run.Spawner() as spawner:
        for workload in WORKLOADS.values():
            check_workload(tiny(workload), units, spawner)
        check_spawner(spawner)
    check_without_sources()
    shutil.rmtree(SELFTEST, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
