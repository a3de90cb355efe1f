"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import argparse
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from triarb.cli import build_parser
from triarb.market_data import (
    Pair,
    PairSeries,
    SeriesWindow,
    TickReader,
    TriangleSpec,
)
from triarb.synth import Injections

# Monday 1970-01-05; keeps weekday-filtered grids simple.
MONDAY = 4 * 86400


def write_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("timestamp,bid,ask\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def load_pair_series(path, pair: Pair, window: SeriesWindow) -> PairSeries:
    """The tick file at `path` on the window's grid: a `TickReader` that reads
    the window as one chunk, then `finish`."""
    with TickReader(path, pair, window) as reader:
        series = reader.read(window)
        reader.finish()
    return series


def load_rows(pair: Pair, window: SeriesWindow, rows) -> PairSeries:
    """`rows` of (timestamp, bid, ask) as a grid series, through a tick file and the loader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{pair.file_stem}.csv"
        write_rows(path, rows)
        return load_pair_series(path, pair, window)


def make_series(gammas, start: int = MONDAY, times=None) -> tuple[np.ndarray, np.ndarray]:
    """(times, (2, n) rate products) with `gammas` as DIR1 and DIR2 all missing."""
    g = np.asarray(gammas, dtype=np.float64)
    t = np.asarray(times, dtype=np.int64) if times is not None else np.arange(
        start, start + g.size, dtype=np.int64
    )
    return t, np.stack([g, np.zeros_like(g)])


def brute_force_segments(times, gammas):
    """Independent scan oracle: (start, run_length, initial, peak) per run."""
    runs = []
    start = length = init = peak = None
    prev_t = None
    for t, g in zip(times, gammas):
        if g > 1.0:
            if start is not None and prev_t == t - 1:
                length += 1
                if g > peak:
                    peak = g
            else:
                if start is not None:
                    runs.append((int(start), length, init, peak))
                start, length, init, peak = t, 1, g, g
        elif start is not None:
            runs.append((int(start), length, init, peak))
            start = None
        prev_t = t
    if start is not None:
        runs.append((int(start), length, init, peak))
    return runs


def cli_flags() -> dict[str, list[str]]:
    """The sorted long flags of each `triarb` subcommand, without --help."""
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(f for f in sub._option_string_actions if f.startswith("--") and f != "--help")
        for name, sub in action.choices.items()
    }


@pytest.fixture
def chf_triangle() -> TriangleSpec:
    return TriangleSpec(("EUR", "USD", "CHF"))


def points(spec: TriangleSpec, point: str = "0.00001") -> dict[str, Decimal]:
    """One point size for every pair of `spec`; the default grid is fine enough
    for injections to hit tight targets."""
    return {p.name: Decimal(point) for p in spec.pairs}


def episodes(*rows) -> Injections:
    """Injections from (start, duration_seconds, magnitude_bp, direction) rows."""
    return Injections(*zip(*rows)) if rows else Injections((), (), (), ())


def episode_rows(injections: Injections) -> list[tuple]:
    """The (start, duration_seconds, magnitude_bp, direction) row of each episode."""
    return list(zip(injections.start.tolist(), injections.duration_seconds.tolist(),
                    injections.magnitude_bp.tolist(), injections.direction.tolist()))


@pytest.fixture
def weekday_window() -> SeriesWindow:
    return SeriesWindow(MONDAY, MONDAY + 3600, frozenset({0, 1, 2, 3, 4}))


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\n[ACCEPTANCE {outcome}] {name}")
