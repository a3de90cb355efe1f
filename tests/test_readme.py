"""The README's "Library use" blocks run as written against the package, and
its flags and synth JSON example are ones the command line accepts."""

import json
import re
from pathlib import Path

from triarb.opportunity import ArbitrageOpportunity
from triarb.synth import synth_config_from_json

from conftest import MONDAY, cli_flags, episode_rows

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the blocks write and read <BASEQUOTE>.csv in the cwd
    namespace = {"start": MONDAY, "end": MONDAY + 3600}
    for block in library_use_blocks():
        exec(compile(block, str(README), "exec"), namespace)

    ops = namespace["ops"]
    injections = namespace["synth_cfg"].injections
    assert len(injections) == 2
    assert all(isinstance(op, ArbitrageOpportunity) for op in ops)
    assert [(op.start, op.run_length, op.direction.value) for op in ops] == [
        (start, dur, direction) for start, dur, _, direction in episode_rows(injections)
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
    cfg = synth_config_from_json(payload)
    assert len(cfg.injections) == 237  # one listed, the rest from the schedule
