"""The README's "Library use" block runs as written against the package, and
its flags and synth JSON example are ones the command line accepts."""

import json
import re
from pathlib import Path

from triarb.config import default_app_config, synth_config_from_json
from triarb.market_data import Direction, SeriesWindow, write_pair_series_csv
from triarb.opportunity import ArbitrageOpportunity
from triarb.synth import InjectionSpec, SynthConfig, generate

from conftest import MONDAY, cli_flags

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, fine_chf_triangle):
    start, end = MONDAY, MONDAY + 3600
    injections = (
        InjectionSpec(MONDAY + 600, 3, 2.0, Direction.DIR1),
        InjectionSpec(MONDAY + 1200, 1, 1.0, Direction.DIR2),
    )
    cfg = SynthConfig(
        seed=9,
        window=SeriesWindow(start, end, frozenset(range(5))),
        triangle=fine_chf_triangle,
        mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
        volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
        spread_points={p.name: tuple([2.0] * 24) for p in fine_chf_triangle.pairs},
        gap_rate=tuple([0.001] * 24),
        injections=injections,
    )
    for series in generate(cfg):
        write_pair_series_csv(tmp_path / f"{series.pair.file_stem}.csv", series)
    monkeypatch.chdir(tmp_path)  # the block reads <BASEQUOTE>.csv from the cwd

    namespace = {"start": start, "end": end}
    exec(compile(library_use_block(), str(README), "exec"), namespace)

    ops = namespace["ops"]
    assert all(isinstance(op, ArbitrageOpportunity) for op in ops)
    assert [(op.start, op.run_length, op.direction) for op in ops] == [
        (i.start, i.duration_seconds, i.direction) for i in injections
    ]
    result = namespace["result"]
    assert result.summary.trades_attempted == 2
    assert [be.lambda_bp for be in result.break_even] == [1.0, 1.5, 2.0]


def test_flags_are_accepted():
    text = README.read_text()
    flags = cli_flags()
    for command, rest in re.findall(r"^triarb +(\w+)(.*)$", text, re.M):
        for flag in re.findall(r"--[a-z][a-z-]*", rest):
            assert flag in flags[command], f"triarb {command} {flag}"
    known = set().union(*flags.values())
    for flag in set(re.findall(r"--[a-z][a-z-]*\*?", text)) - {"--no-build-isolation", "--out"}:
        if flag.endswith("*"):  # a prefix, such as --hist-*
            assert any(f.startswith(flag[:-1]) for f in known), flag
        else:
            assert flag in known, flag


def test_synth_json_example_is_accepted():
    section = README.read_text().split("\n## Configuration\n", 1)[1]
    payload = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cfg = synth_config_from_json(payload, default_app_config())
    assert len(cfg.injections) == 237  # one listed, the rest from the schedule
