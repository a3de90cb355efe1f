"""The README's "Library use" block runs as written against the package."""

import re
from pathlib import Path

from triarb.market_data import Direction, SeriesWindow, write_pair_series_csv
from triarb.opportunity import ArbitrageOpportunity
from triarb.synth import InjectionSpec, SynthConfig, generate

from conftest import MONDAY

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
