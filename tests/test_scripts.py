"""The demo scripts under scripts/ run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_run_pipeline(tmp_path):
    proc = run_script("run_pipeline.py", "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "simulate[duration]: 60 trades" in proc.stdout
    assert (tmp_path / "out" / "compare" / "comparison.csv").exists()


def test_seasonality_experiment_one_month(tmp_path):
    # the exit status is the sign test's verdict, which one month cannot make
    # significant (p = 0.5), so a finished run exits 1 with both verdict lines
    proc = run_script("seasonality_experiment.py", "--months", "1", cwd=tmp_path)
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert "more opportunities in" in proc.stdout
    assert "shorter durations in" in proc.stdout
