"""Golden outputs: every file that detect, seasonal, compare and simulate write.

The tick files are built here from literal decimal quotes (no random walk),
so the expected text does not depend on the platform's libm. The commands
run from the temp dir with relative paths, which keeps the manifests'
`out_dir` and `data_dir` fields fixed too.
"""

from pathlib import Path

import pytest

from triarb.cli import main

from conftest import MONDAY

GOLDEN = Path(__file__).parent / "golden"
# Friday 23:59:30 to Monday 00:00:30: two 30-second blocks of a mon-fri grid
START = MONDAY - 2 * 86400 - 30
END = MONDAY + 30
WINDOW = f"{START}..{END}"
GRID = [*range(START, START + 30), *range(MONDAY, END)]

BASE = {
    "EURUSD": ("1.2000", "1.2002"),
    "USDCHF": ("1.3000", "1.3002"),
    "EURCHF": ("1.5601", "1.5603"),
}
# EUR/CHF quotes that open the triangle: an ask below 1.56 lifts DIR1
# (EUR->USD->CHF->EUR), a bid above 1.5605 lifts DIR2 (EUR->CHF->USD->EUR)
PERIOD_A = {
    "EURCHF": {
        START + 5: ("1.5596", "1.5598"),
        START + 14: ("1.5607", "1.5609"),
        START + 15: ("1.5608", "1.5610"),
        START + 16: ("1.5607", "1.5609"),
        START + 28: ("1.5596", "1.5598"),  # a run cut by the weekend jump
        START + 29: ("1.5596", "1.5598"),
        MONDAY: ("1.5596", "1.5598"),
        MONDAY + 1: ("1.5595", "1.5597"),
        MONDAY + 10: ("1.5606", "1.5608"),
        MONDAY + 11: ("1.5606", "1.5608"),  # USD/CHF is missing here
        MONDAY + 12: ("1.5606", "1.5608"),
        MONDAY + 20: ("1.5597", "1.55990"),
        MONDAY + 21: ("1.5593", "1.5595"),
        MONDAY + 22: ("1.5597", "1.5599"),
        MONDAY + 23: ("1.5597", "1.5599"),
        MONDAY + 24: ("1.5597", "1.5599"),
        MONDAY + 25: ("1.5597", "1.5599"),
        MONDAY + 26: ("1.5597", "1.5599"),
    },
    "USDCHF": {MONDAY + 11: None, START + 20: None},
    "EURUSD": {MONDAY + 3: ("1.20005", "1.20015")},
}
PERIOD_B = {
    "EURCHF": {
        START + 7: ("1.5596", "1.5598"),
        MONDAY + 4: ("1.5608", "1.5610"),
        MONDAY + 5: ("1.5608", "1.5610"),
    },
}

RUNS = {
    "detect": ["detect", "--data-dir", "ticks_a", "--window", WINDOW,
               "--thresholds", "0,0.5,1,2,5", "--hist-bin-width", "1e-4"],
    "seasonal": ["seasonal", "--data-dir", "ticks_a", "--window", WINDOW],
    "compare": ["compare", "--dataset", "early=ticks_a", "--dataset", "late=ticks_b",
                "--window", WINDOW, "--hist-bin-width", "2.5e-4"],
    "simulate": ["simulate", "--data-dir", "ticks_a", "--window", WINDOW,
                 "--runs", "7", "--seed", "11"],
    # the fees exceed every trade's gain, so no break-even is reachable
    "simulate_fixed": ["simulate", "--data-dir", "ticks_a", "--window", WINDOW,
                       "--scenario", "fixed", "--p", "0.5", "--gamma-t", "1,1.0001",
                       "--lambda-grid", "0.25,1.5,4", "--fee-per-trade", "50",
                       "--runs", "5", "--seed", "3"],
}


def write_ticks(root: Path, overrides: dict) -> None:
    root.mkdir()
    for stem, quote in BASE.items():
        changed = overrides.get(stem, {})
        lines = ["timestamp,bid,ask"]
        for t in GRID:
            row = changed.get(t, quote)
            if row is not None:
                lines.append(f"{t},{row[0]},{row[1]}")
        (root / f"{stem}.csv").write_text("\n".join(lines) + "\n")


@pytest.fixture
def ticks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRIARB_CONFIG", raising=False)
    write_ticks(tmp_path / "ticks_a", PERIOD_A)
    write_ticks(tmp_path / "ticks_b", PERIOD_B)
    return tmp_path


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden(ticks, run):
    assert main([*RUNS[run], "--out-dir", run]) == 0
    produced = {p.name: p.read_bytes() for p in (ticks / run).iterdir()}
    expected = {p.name: p.read_bytes() for p in (GOLDEN / run).iterdir()}
    assert sorted(produced) == sorted(expected)
    for name, text in expected.items():
        assert produced[name] == text, f"{run}/{name}"
