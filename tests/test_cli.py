"""End-to-end command line runs against synthetic data in temp dirs."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from triarb.cli import _summary_entry, main
from triarb.config import parse_window
from triarb.errors import EmptySeriesError, TickOrderingError, TickParseError
from triarb.market_data import Direction, TriangleSpec
from triarb.opportunity import ArbitrageOpportunity
from triarb.rate_product import compute_rate_products
from triarb.simulator import Scenario, SimulationConfig, simulate_trades

import loader_reference as reference
from conftest import MONDAY, cli_flags, episode_rows

WINDOW = f"{MONDAY}..{MONDAY + 7200}"


def synth_payload(injections, seed=42, hours=2, gap_rate=0.0005):
    return {
        "seed": seed,
        "window": {"start": MONDAY, "end": MONDAY + hours * 3600, "weekdays": "mon-fri"},
        "pairs": {
            "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
            "USD/CHF": {"mid": 1.3030, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
            "EUR/CHF": {"point": "0.00001", "spread_points": 2},
        },
        "gap_rate": gap_rate,
        "injections": injections,
    }


def five_injections():
    return [
        {"start": MONDAY + 100, "duration_seconds": 1, "magnitude_bp": 1.0, "direction": 1},
        {"start": MONDAY + 300, "duration_seconds": 2, "magnitude_bp": 2.0, "direction": 1},
        {"start": MONDAY + 600, "duration_seconds": 3, "magnitude_bp": 0.5, "direction": 2},
        {"start": MONDAY + 900, "duration_seconds": 1, "magnitude_bp": 4.0, "direction": 2},
        {"start": MONDAY + 1500, "duration_seconds": 5, "magnitude_bp": 1.5, "direction": 1},
    ]


def run_synth(tmp_path, injections, seed=42, name="data", **kwargs):
    cfg_path = tmp_path / f"synth_{name}.json"
    cfg_path.write_text(json.dumps(synth_payload(injections, seed=seed, **kwargs)))
    data_dir = tmp_path / name
    rc = main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(data_dir)])
    assert rc == 0
    return data_dir


def assert_exits_2_before_any_output(tmp_path, capsys, cases):
    """Each (argv, message) exits 2 with `message` on stderr and creates no --out-dir."""
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sha256_tree(root: Path, exclude=()) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file() and p.name not in exclude
    }


def fuzz_base_payload() -> dict:
    """A valid synth config that sets every key the synth config schema has."""
    payload = synth_payload(
        [{"start": MONDAY + 60, "duration_seconds": 2, "magnitude_bp": 1.5, "direction": 1}],
        hours=1,
    )
    payload["window"]["end"] = MONDAY + 600
    payload["pairs"]["USD/CHF"]["spread_points"] = [2] * 24
    del payload["pairs"]["EUR/CHF"]["spread_points"]
    payload.update(
        currencies="EUR,USD,CHF", liquidity_preset=True, base_spread_points=3.0,
        base_gap_rate=0.002, schedule={"base_rate_per_hour": 1.0, "magnitude_range": [0.5, 4.0]},
    )
    return payload


def value_paths(node, prefix=()) -> list[tuple]:
    """The key path of every value below `node`, except the window's bounds and
    list items after the first."""
    paths = []
    items = node.items() if isinstance(node, dict) else enumerate(node[:1])
    for key, value in items:
        path = (*prefix, key)
        if path not in (("window", "start"), ("window", "end")):
            paths.append(path)
        if isinstance(value, (dict, list)):
            paths += value_paths(value, path)
    return paths


def json_type(value) -> str:
    """JSON's name for the type of a parsed value."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array", dict: "object"}[type(value)]


def json_values():
    scalars = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.floats(-3, 3) | st.text(max_size=5))
    return (scalars | st.lists(scalars, max_size=3)
            | st.dictionaries(st.text(max_size=5), scalars, max_size=2))


class TestSynthCommand:
    def test_output_loads_without_warnings(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "detect"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["detect", "--data-dir", str(data_dir), "--window", WINDOW,
                 "--out-dir", str(out)]
            )
        assert rc == 0

    def test_same_seed_same_sha256(self, tmp_path):
        # distinct out dirs: everything but the path-carrying manifest matches
        d1 = run_synth(tmp_path, five_injections(), name="a")
        d2 = run_synth(tmp_path, five_injections(), name="b")
        assert sha256_tree(d1, exclude={"manifest.json"}) == sha256_tree(d2, exclude={"manifest.json"})
        # rerun into the same dir: manifest included, byte for byte
        before = sha256_tree(d1)
        cfg_path = tmp_path / "synth_a.json"
        assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(d1)]) == 0
        assert sha256_tree(d1) == before

    def test_manifest_records_seed_and_version(self, tmp_path):
        data_dir = run_synth(tmp_path, [], seed=77)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["seed"] == 77
        assert manifest["command"] == "synth"
        assert manifest["tool_version"]

    def test_manifest_records_config_hash_and_content(self, tmp_path):
        data_dir = run_synth(tmp_path, [], seed=77)
        cfg_path = tmp_path / "synth_data.json"
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["synth_config"] == str(cfg_path)
        assert manifest["synth_config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
        assert manifest["synth_config_content"] == json.loads(cfg_path.read_text())
        # editing the seed changes the recorded hash and content
        payload = json.loads(cfg_path.read_text())
        payload["seed"] = 78
        cfg_path.write_text(json.dumps(payload))
        rerun = tmp_path / "rerun"
        assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(rerun)]) == 0
        edited = json.loads((rerun / "manifest.json").read_text())
        assert edited["synth_config_sha256"] != manifest["synth_config_sha256"]
        assert edited["synth_config_content"]["seed"] == edited["seed"] == 78

    def test_infeasible_injection_exits_2(self, tmp_path):
        payload = synth_payload(
            [{"start": MONDAY + 10, "duration_seconds": 1, "magnitude_bp": 1.0, "direction": 1}]
        )
        payload["pairs"]["EUR/CHF"]["point"] = "0.0001"  # too coarse for 0.05 bp
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(payload))
        rc = main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        payload = synth_payload(
            [{"start": MONDAY + 60, "duration_seconds": 3, "magnitude_bp": 2.0, "direction": 2}]
        )
        for entry in payload["pairs"].values():
            del entry["spread_points"]
        payload["liquidity_preset"] = True  # the open sessions set the spreads
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(payload))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert main(["synth", "--synth-config", manifest["synth_config"],
                     "--out-dir", str(second)]) == 0
        produced = sha256_tree(second, exclude={"manifest.json"})
        assert sorted(produced) == ["EURCHF.csv", "EURUSD.csv", "USDCHF.csv", "injections.json"]
        assert produced == sha256_tree(first, exclude={"manifest.json"})

    def test_malformed_config_exits_2_naming_it(self, tmp_path, capsys):
        def without_end(p):
            del p["window"]["end"]

        def twice(p):
            p["pairs"]["eur/usd"] = p["pairs"]["EUR/USD"]

        def injected_past_18_digits(p):
            # EUR/CHF's parity mid is 9.9995 at 17 places; the episode lifts its bid
            p["pairs"]["EUR/USD"].update(mid=5.0, vol=0.0)
            p["pairs"]["USD/CHF"].update(mid=1.9999, vol=0.0)
            p["pairs"]["EUR/CHF"].update(point="1e-17")
            p["injections"] = [five_injections()[3]]  # 4 bp in direction 2

        edits = [
            (lambda p: [p], "synth config: expected an object"),
            (lambda p: {k: v for k, v in p.items() if k != "seed"},
             "synth config: missing key 'seed'"),
            (lambda p: p.update({"gap-rate": 0.1}), "synth config: unknown key 'gap-rate'"),
            (without_end, "window: missing key 'end'"),
            (lambda p: p["window"].update(weekdays=5), "unknown weekday '5'"),
            (lambda p: p.update(pairs=[]), "pairs: expected an object"),
            (lambda p: p["pairs"].update({"EUR/CHF": "x"}), "pairs.EUR/CHF: expected an object"),
            (lambda p: p["pairs"].update(EURCHF={}), "bad pair 'EURCHF', expected BASE/QUOTE"),
            (lambda p: p["pairs"].update({"CHF/EUR": {}}), "'CHF/EUR' is not a pair of the triangle"),
            (twice, "pairs: EUR/USD is given twice"),
            (lambda p: p["pairs"]["EUR/USD"].update(point="abc"), "bad point size 'abc' for EUR/USD"),
            (lambda p: p["pairs"]["EUR/USD"].update(point=1), "leaves EUR/USD no positive bid"),
            (lambda p: p["pairs"]["EUR/USD"].update(point="1e-300"),
             "EUR/USD needs a point size of 10**-k with k from 0 to 17, got 1E-300"),
            (lambda p: p["pairs"]["EUR/USD"].update(point="1e9999999"),
             "EUR/USD needs a point size of 10**-k with k from 0 to 17, got 1E+9999999"),
            (lambda p: p["pairs"]["EUR/USD"].update(point="1e-17", mid=12.0),
             "EUR/USD quotes reach 10**18 points"),
            (injected_past_18_digits, "drives the price of EUR/CHF non-positive or to 10**18"),
            (lambda p: p["pairs"]["EUR/USD"].update(mid="1.2"), "pairs.EUR/USD.mid: expected a"),
            (lambda p: p["pairs"]["USD/CHF"].update(vol=[]), "pairs.USD/CHF.vol: expected a"),
            # huge but finite values that overflowed synth's float arithmetic
            (lambda p: p["pairs"]["EUR/USD"].update(mid=1e308),
             "pairs.EUR/USD.mid: expected a number at most 1e+18, got 1e+308"),
            (lambda p: p["pairs"]["EUR/USD"].update(vol=1e308),
             "pairs.EUR/USD.vol: expected a number at most 0.01, got 1e+308"),
            (lambda p: p.update(injections=[{**five_injections()[3], "magnitude_bp": 1e300}]),
             "injections[0].magnitude_bp: expected a number at most 10000, got 1e+300"),
            (lambda p: p.update(schedule={"magnitude_range": [0.5, 1e308]}),
             "schedule.magnitude_range: expected a number at most 10000, got 1e+308"),
            (lambda p: p.update(gap_rate=float("nan")), "gap_rate: expected a finite number"),
            (lambda p: p.update(liquidity_preset=1), "liquidity_preset: expected true or false"),
            (lambda p: p.update(injections={}), "injections: expected a list"),
            (lambda p: p.update(injections=5), "injections: expected a list"),
            (lambda p: p.update(injections=[{}]), "injections[0]: missing key 'start'"),
            (lambda p: p.update(injections=[{**five_injections()[0], "duration_seconds": 2.5}]),
             "injections[0].duration_seconds: expected an integer"),
            (lambda p: p.update(schedule=[1]), "schedule: expected an object"),
            (lambda p: p.update(schedule={"magnitude_range": "ab"}),
             "schedule.magnitude_range: expected a list"),
            (lambda p: p.update(schedule={"magnitude_range": [1]}),
             "schedule.magnitude_range: expected [lo, hi]"),
            (lambda p: p.update(seed=-1), "seed: expected a non-negative integer, got -1"),
            *((lambda p, d=d: p.update(injections=[{**five_injections()[0], "direction": d}]),
               "injections[0].direction: expected 1 or 2") for d in (0, 3, -1)),
            (lambda p: p.update(injections=[{**five_injections()[0], "duration_seconds": 2**64}]),
             f"second {MONDAY + 7200} is outside the window grid (duration_seconds {2**64})"),
            (lambda p: p.update(schedule={"base_rate_per_hour": 1e308}),
             "schedule.base_rate_per_hour must be in (0, 3600]"),
            # a legal window whose per-second grid cannot be allocated
            (lambda p: p["window"].update(end=10**17),
             f"spans {10**17 - MONDAY:,} seconds, too many for its per-second grid"),
        ]
        cases = []
        for i, (edit, message) in enumerate(edits):
            payload = synth_payload([])
            payload = edit(payload) or payload  # an edit returns a new payload or changes this one
            bad_path = tmp_path / f"bad{i}.json"
            bad_path.write_text(json.dumps(payload))
            cases.append((["synth", "--synth-config", str(bad_path)], message))
        for i, raw in enumerate([b'{"seed": 1,', b'{"seed": "\xff"}']):  # not JSON, not UTF-8
            bad_path = tmp_path / f"raw{i}.json"
            bad_path.write_bytes(raw)
            cases.append((["synth", "--synth-config", str(bad_path)],
                          f"--synth-config {bad_path}: not JSON"))
        assert_exits_2_before_any_output(tmp_path, capsys, cases)

    def test_faults_the_python_api_refuses_exit_2_before_any_draw(self, tmp_path, capsys):
        # the reader passes these values on; SynthConfig and the schedule refuse them
        edits = [
            (lambda p: p["window"].update(start="1970-01-03", end="1970-01-05"),
             f"window {MONDAY - 2 * 86400}..{MONDAY} holds no second on its weekdays "
             "mon,tue,wed,thu,fri: its grid is empty"),
            (lambda p: p["pairs"]["EUR/CHF"].update(spread_points=0),
             "spreads must be positive for EUR/CHF"),
            (lambda p: p.update(schedule={"magnitude_range": [4, 0.5]}),
             "schedule.magnitude_range: bad range (4.0, 0.5)"),
        ]
        cases = []
        for i, (edit, message) in enumerate(edits):
            payload = synth_payload([])
            edit(payload)
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(payload))
            cases.append((["synth", "--synth-config", str(path)], message))
        assert_exits_2_before_any_output(tmp_path, capsys, cases)

    @pytest.mark.parametrize("mutation", ["retype_value", "add_key"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning exits 1
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_2_without_traceback(self, mutation, data):
        payload = fuzz_base_payload()

        def at(path):
            return reduce(lambda node, key: node[key], path, payload)

        if mutation == "retype_value":
            *parent, key = data.draw(st.sampled_from(value_paths(payload)), label="path")
            old = json_type(at(parent)[key])
            value = data.draw(json_values().filter(lambda v: json_type(v) != old), label="value")
        else:
            objects = [(), *(path for path in value_paths(payload) if isinstance(at(path), dict))]
            parent = data.draw(st.sampled_from(objects), label="object")
            key = data.draw(st.text(min_size=1, max_size=8), label="key")
            value = data.draw(json_values(), label="value")
        at(parent)[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "synth.json"
            cfg_path.write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["synth", "--synth-config", str(cfg_path), "--out-dir", f"{tmp}/out"])
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_bad_currency_list_exits_2(self, tmp_path, capsys):
        cases = []
        for i, (currencies, message) in enumerate([
            (["EUR", "USD"], "three currency codes"),
            (5, "three currency codes"),
            (["EUR", 1, "USD"], "bad currency code 1,"),
            (["EUR", None, "USD"], "bad currency code None"),
            ("EUR,USD,C/F", "bad currency code 'C/F'"),
            ("EUR,USD,CHF,", "bad currency code ''"),
            (["EUR", "USD", "SWFR"], "bad currency code 'SWFR'"),
            (["EUR", "USD", "ÇHF"], "bad currency code 'ÇHF'"),
        ]):
            bad_path = tmp_path / f"bad{i}.json"
            bad_path.write_text(json.dumps({**synth_payload([]), "currencies": currencies}))
            cases.append((["synth", "--synth-config", str(bad_path)], message))
        cases.append((["detect", "--triangle", "EUR,USD,C/F", "--data-dir", str(tmp_path),
                       "--window", WINDOW], "bad currency code 'C/F'"))
        assert_exits_2_before_any_output(tmp_path, capsys, cases)


class TestDetectCommand:
    def test_five_injections_five_rows(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "detect"
        rc = main(["detect", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "opportunities.csv")
        assert rows[0] == [
            "direction", "start", "run_length", "duration_label",
            "initial_gamma", "peak_gamma", "magnitude_bp",
        ]
        assert len(rows) - 1 == 5
        stats = json.loads((out / "duration_stats.json").read_text())
        assert stats["count"] == 5

    def test_no_opportunities_empty_outputs_exit_0(self, tmp_path):
        data_dir = run_synth(tmp_path, [], name="quiet")
        out = tmp_path / "detect"
        rc = main(["detect", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out)])
        assert rc == 0
        assert len(read_csv(out / "opportunities.csv")) == 1  # header only
        stats = json.loads((out / "duration_stats.json").read_text())
        assert stats["count"] == 0

    def test_threshold_flag_reproduces_column_structure(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "detect"
        rc = main(
            ["detect", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out),
             "--thresholds", "0,0.5,1,2,3,4,5,6,7,8,9,10"]
        )
        assert rc == 0
        rows = read_csv(out / "threshold_table.csv")
        assert rows[0] == ["threshold_bp", "count", "mean_duration"]
        assert [float(r[0]) for r in rows[1:]] == [0, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        counts = [int(r[1]) for r in rows[1:]]
        assert counts[0] == 5
        assert counts == sorted(counts, reverse=True)

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(
            ["detect", "--data-dir", str(tmp_path / "void"), "--window", WINDOW,
             "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 2

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_tick_file_not_regular_exits_2_before_any_output(self, tmp_path, capsys, kind):
        # a reader reads its blocks at byte offsets, which a pipe has not; the
        # check comes before any file is opened, so no open waits for a writer
        if kind == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        data_dir = run_synth(tmp_path, [])
        path = data_dir / "USDCHF.csv"
        path.unlink()
        if kind == "directory":
            path.mkdir()
        else:
            os.mkfifo(path)
        assert_exits_2_before_any_output(tmp_path, capsys, [
            (["detect", "--data-dir", str(data_dir), "--window", WINDOW],
             f"tick file {path} is not a regular file"),
        ])

    def test_bad_flags_exit_2_before_any_output(self, tmp_path, capsys, monkeypatch):
        data_dir = run_synth(tmp_path, five_injections())
        base = ["detect", "--data-dir", str(data_dir), "--window", WINDOW]
        # an empty directory flag would name the current directory, which holds tick files
        for name in ("EURUSD.csv", "USDCHF.csv", "EURCHF.csv"):
            shutil.copy(data_dir / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main([*base, "--out-dir", ""]) == 2
        assert "argument --out-dir: an empty path" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert_exits_2_before_any_output(tmp_path, capsys, [
            ([*base, "--data-dir", ""], "argument --data-dir: an empty path"),
            ([*base, "--thresholds", "2,1"], "sorted ascending"),
            ([*base, "--thresholds=-1,2"], "non-negative"),
            ([*base, "--hist-bin-width", "0"], "degenerate histogram"),
            ([*base, "--hist-lo", "1.001", "--hist-hi", "0.999"], "degenerate histogram"),
            ([*base, "--hist-bin-width", "nan"], "degenerate histogram"),
            ([*base, "--hist-bin-width", "inf"], "degenerate histogram"),
            ([*base, "--hist-hi", "inf"], "degenerate histogram"),
            ([*base, "--hist-lo=-inf"], "degenerate histogram"),
            ([*base, "--hist-lo", "nan"], "degenerate histogram"),
            ([*base, "--hist-lo=-1e308", "--hist-hi", "1e308"], "degenerate histogram"),
            ([*base, "--hist-bin-width", "1e-12"], "at most 1000000 bins"),
            ([*base, "--thresholds", "nan,1"], "finite and non-negative"),
            ([*base, "--thresholds", "1,inf"], "finite and non-negative"),
            ([*base, "--thresholds", "abc"], "bad --thresholds 'abc'"),
            ([*base, "--window", "2026-03-02"], "bad window '2026-03-02', expected START..END"),
            ([*base, "--window", "1970-W02-1..1970-01-06"], "bad timestamp '1970-W02-1'"),
            ([*base, "--window", "19700105T000000..1970-01-06"], "bad timestamp '19700105T"),
            ([*base, "--window", "1970-01-05T00:00:00+00:00..1970-01-06"], "bad timestamp"),
            ([*base, "--window", "1969-12-31..1970-01-06"], "bad timestamp '1969-12-31'"),
            # epoch seconds are the tick files' 1 to 18 ASCII digits
            ([*base, "--window", f"345_600..{MONDAY + 60}"], "bad timestamp '345_600'"),
            ([*base, "--window=-86400..0"], "bad timestamp '-86400'"),
            ([*base, "--window", f"+5..{MONDAY + 60}"], "bad timestamp '+5'"),
            ([*base, "--window", f"\u0663\u0664..{MONDAY + 60}"], "bad timestamp '\u0663\u0664'"),
            ([*base, "--window", f"{MONDAY}..1{'0' * 18}"], "bad timestamp '1000"),
            # a legal window whose per-second grid cannot be allocated
            ([*base, "--window", f"{MONDAY}..{'9' * 18}"],
             f"spans {10**18 - 1 - MONDAY:,} seconds, too many for its per-second grid"),
            # a weekend under the default mon-fri: no grid second, refused before any read
            ([*base, "--window", "1970-01-03..1970-01-05"],
             f"window {MONDAY - 2 * 86400}..{MONDAY} holds no second on its weekdays "
             "mon,tue,wed,thu,fri: its grid is empty"),
            ([*base, "--window", f"{MONDAY}..{MONDAY + 86400}", "--weekdays", "sat,sun"],
             "holds no second on its weekdays sat,sun"),
        ])

    def test_window_reads_iso_times_as_tick_files_do(self):
        window = parse_window("1970-01-05..1970-01-05T02:00:00.999Z")
        assert (window.start, window.end) == (MONDAY, MONDAY + 7200)
        window = parse_window(f"{MONDAY}..1970-01-05T02:00:00")
        assert (window.start, window.end) == (MONDAY, MONDAY + 7200)

    def test_mantissa_overflow_exits_2(self, tmp_path, capsys):
        # 14 digits at the file's 5 decimal places need 19
        data_dir = run_synth(tmp_path, five_injections())
        path = data_dir / "EURUSD.csv"
        lines = path.read_text().splitlines()
        t = lines[5].split(",")[0]
        lines[5] = f"{t},1.20649,12345678901234"
        path.write_text("\n".join(lines) + "\n")
        rc = main(
            ["detect", "--data-dir", str(data_dir), "--window", WINDOW,
             "--out-dir", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}:6:" in err and "more than 18 digits" in err
        assert "Traceback" not in err

    def test_non_finite_price_exits_2(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path, five_injections())
        path = data_dir / "USDCHF.csv"
        lines = path.read_text().splitlines()
        t = lines[3].split(",")[0]
        lines[3] = f"{t},NaN,1.3"
        path.write_text("\n".join(lines) + "\n")
        rc = main(
            ["detect", "--data-dir", str(data_dir), "--window", WINDOW,
             "--out-dir", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}:4:" in err and "bad price" in err
        assert "Traceback" not in err

    @staticmethod
    def _cross_one_quote(data_dir):
        """Swap the bid and ask of the first EUR/USD row whose bid is below its ask."""
        path = data_dir / "EURUSD.csv"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines[1:], 1)
                 if Decimal(line.split(",")[1]) < Decimal(line.split(",")[2]))
        t, bid, ask = lines[i].split(",")
        lines[i] = f"{t},{ask},{bid}"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("flags, env", [
        ([], {}),
        (["-W", "error"], {}),
        (["-W", "ignore"], {}),
        ([], {"PYTHONWARNINGS": "error"}),
    ], ids=["default", "-W error", "-W ignore", "PYTHONWARNINGS=error"])
    def test_crossed_quote_warns_in_one_line(self, tmp_path, flags, env):
        # a fresh interpreter, so that stderr is what a user sees; the line is
        # printed, not warned, so no warning filter changes it or the exit code
        data_dir = run_synth(tmp_path, five_injections())
        path = self._cross_one_quote(data_dir)
        env = {**os.environ, **env,
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "triarb.cli", "detect", "--data-dir", str(data_dir),
             "--window", WINDOW, "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"warning: {path}: accepted 1 crossed quote(s) (bid > ask)\n"

    def test_other_warnings_keep_their_format(self, tmp_path, capsys, monkeypatch):
        # main installs no warning hook: a warning goes to the handler in place,
        # here pytest's, and the crossed-quote line is printed all the same
        def warn_then_compute(*args):
            warnings.warn("another warning", UserWarning)
            return compute_rate_products(*args)

        data_dir = run_synth(tmp_path, five_injections())
        path = self._cross_one_quote(data_dir)
        monkeypatch.setattr("triarb.cli.compute_rate_products", warn_then_compute)
        with pytest.warns(UserWarning, match="another warning") as caught:
            assert main(["detect", "--data-dir", str(data_dir), "--window", WINDOW,
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert {str(w.message) for w in caught} == {"another warning"}
        assert capsys.readouterr().err == f"warning: {path}: accepted 1 crossed quote(s) (bid > ask)\n"

    @pytest.mark.parametrize("row, message", [
        (lambda t: t + b',1.20649,"1.20651', "bad price"),
        (lambda t: t + b",1.20649,1.2065\xff", "bad price"),
        (lambda t: t[:3] + b"_" + t[3:] + b",1.20649,1.20651", "bad timestamp"),
        (lambda t: t + b",1.2_0649,1.20651", "bad price"),
    ], ids=["open-quote", "non-utf8", "underscore-timestamp", "underscore-price"])
    def test_malformed_tick_row_exits_2_with_line(self, tmp_path, capsys, row, message):
        data_dir = run_synth(tmp_path, five_injections())
        path = data_dir / "EURUSD.csv"
        lines = path.read_bytes().splitlines()
        lines[5] = row(lines[5].split(b",")[0])
        path.write_bytes(b"\n".join(lines) + b"\n")
        rc = main(
            ["detect", "--data-dir", str(data_dir), "--window", WINDOW,
             "--out-dir", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}:6:" in err and message in err
        assert "Traceback" not in err

    def test_weekday_spellings_write_identical_outputs(self, tmp_path, monkeypatch):
        # run from two dirs with relative paths, so that the manifests' paths agree too
        data_dir = run_synth(tmp_path, five_injections())
        trees = []
        for name, weekdays in (("a", "all"), ("b", "mon,tue,wed,thu,fri,sat,sun")):
            shutil.copytree(data_dir, tmp_path / name / "ticks")
            monkeypatch.chdir(tmp_path / name)
            assert main(["detect", "--data-dir", "ticks", "--window", WINDOW,
                         "--weekdays", weekdays, "--out-dir", "out"]) == 0
            trees.append(sha256_tree(tmp_path / name / "out"))
        assert "manifest.json" in trees[0] and trees[0] == trees[1]

    def test_histogram_written(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "detect"
        main(["detect", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out)])
        rows = read_csv(out / "histogram.csv")
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert rows[1][0] == "-inf"
        assert rows[-1][1] == "inf"


@st.composite
def tick_file_bytes(draw):
    """A tick file near the grammar: rows of rising epoch seconds around MONDAY,
    a few of them with a fractional or millisecond time, an odd price or cut
    short; or arbitrary bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=80))
    t = draw(st.integers(MONDAY - 3, MONDAY + 20))
    lines = [b"timestamp,bid,ask"]
    for _ in range(draw(st.integers(1, 6))):
        t += draw(st.integers(0, 3))
        row = [str(t), "1.2065", "1.20671"]
        flaw = draw(st.integers(0, 24))
        if flaw == 0:
            row[0] += ".5"
        elif flaw == 1:
            row[0] += "000"  # milliseconds
        elif flaw == 2:
            row[draw(st.integers(1, 2))] = draw(st.sampled_from(["0", "1.", ".5", "-1", "", "1e3"]))
        line = ",".join(row).encode()
        if flaw == 3:
            line = line[:draw(st.integers(0, len(line)))]
        lines.append(line)
    return b"\n".join(lines) + b"\n"


class TestTickFileFuzz:
    # a weekday window over the fuzzed seconds, drawn three times as often as a
    # weekend window, which has no grid second
    WINDOWS = (*[f"{MONDAY}..{MONDAY + 40}"] * 3, f"{MONDAY - 2 * 86400}..{MONDAY}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning exits 1
    @settings(max_examples=100, deadline=None)
    @given(files=st.lists(tick_file_bytes(), min_size=3, max_size=3),
           window=st.sampled_from(WINDOWS))
    def test_detect_exits_0_only_on_files_the_reference_accepts(self, files, window):
        with tempfile.TemporaryDirectory() as tmp:
            accepted = True
            for pair, raw in zip(TriangleSpec(("EUR", "USD", "CHF")).pairs, files):
                path = Path(tmp) / f"{pair.file_stem}.csv"
                path.write_bytes(raw)
                try:
                    reference.load_pair_series(path, pair, parse_window(window))
                except (TickParseError, TickOrderingError, EmptySeriesError):
                    accepted = False
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["detect", "--data-dir", tmp, "--window", window,
                           "--out-dir", f"{tmp}/out"])
        assert rc == (0 if accepted else 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestSeasonalCommand:
    def test_hourly_has_24_rows_and_conserves_counts(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        det = tmp_path / "det"
        sea = tmp_path / "sea"
        main(["detect", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(det)])
        rc = main(["seasonal", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(sea)])
        assert rc == 0
        hourly = read_csv(sea / "hourly.csv")
        assert hourly[0] == ["hour", "count", "mean_duration"]
        assert len(hourly) - 1 == 24
        total = sum(int(r[1]) for r in hourly[1:])
        stats = json.loads((det / "duration_stats.json").read_text())
        assert total == stats["count"]

    def test_daily_rows_cover_window_days(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        sea = tmp_path / "sea"
        main(["seasonal", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(sea)])
        daily = read_csv(sea / "daily.csv")
        assert daily[0] == ["date", "count", "mean_duration"]
        assert len(daily) - 1 == 1  # two-hour window on one day

    def test_window_past_year_9999_exits_2_before_any_output(self, tmp_path, capsys):
        # epoch seconds reach past the last day a date can name; ISO times cannot
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for stem in ("EURUSD", "USDCHF", "EURCHF"):
            (data_dir / f"{stem}.csv").write_text(
                "timestamp,bid,ask\n253402300700,1.20650,1.20652\n253402300701,1.20650,1.20652\n")
        base = ["seasonal", "--data-dir", str(data_dir), "--weekdays", "all"]
        assert_exits_2_before_any_output(tmp_path, capsys, [
            ([*base, "--window", "253402300000..253402300801"],
             "window 253402300000..253402300801 ends after 253402300800 (9999-12-31)"),
        ])
        out = tmp_path / "last-day"
        assert main([*base, "--window", "253402300000..253402300800", "--out-dir", str(out)]) == 0
        assert [row[0] for row in read_csv(out / "daily.csv")[1:]] == ["9999-12-31"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSimulateCommand:
    def test_one_analytic_break_even_per_config(self):
        # the summary entry and the break-even row read the same closed-form inputs
        ops = [
            ArbitrageOpportunity(MONDAY + 10 * i, length, g, g, Direction.DIR1)
            for i, (g, length) in enumerate([(1.00005, 1), (1.00021, 3), (1.00033, 1)])
        ]
        for scenario in Scenario:
            cfg = SimulationConfig(scenario=scenario, loss_bp=1.5, runs=3, seed=1)
            (result,) = simulate_trades(ops, [cfg], [1.0, 1.5])
            entry = _summary_entry(cfg, result.summary)
            assert entry["analytic_break_even_p"] == result.break_even[1].analytic_p
            if scenario is Scenario.FIXED_FILL:
                assert entry["analytic_break_even_p"] == 0.4326923076922701

    def test_full_fill_matches_closed_form(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out),
             "--scenario", "fixed", "--p", "1", "--gamma-t", "1", "--runs", "10", "--seed", "5"]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["per_config"][0]
        assert entry["trades"] == 5
        assert entry["simulated_total_profit"] == pytest.approx(entry["analytic_total_profit"])
        assert entry["simulated_total_profit_std"] == 0.0

    def test_runs_flag_populates_std(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out),
             "--scenario", "fixed", "--p", "0.5", "--gamma-t", "1", "--runs", "100", "--seed", "5"]
        )
        assert rc == 0
        rows = read_csv(out / "profit_curves.csv")
        assert rows[0] == ["scenario", "gamma_t", "p", "total_profit_mean", "total_profit_std"]
        mid = [r for r in rows[1:] if r[2] == "0.5"]
        assert any(float(r[4]) > 0 for r in mid)

    def test_default_gamma_sweep(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out),
             "--runs", "10", "--seed", "5"]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        gamma_ts = sorted({e["gamma_t"] for e in summary["per_config"]})
        assert gamma_ts == [1.0, 1.00005, 1.0001]
        scenarios = {e["scenario"] for e in summary["per_config"]}
        assert scenarios == {"fixed", "duration"}

    def test_surface_and_breakeven_outputs(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "sim"
        main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out),
             "--scenario", "fixed", "--gamma-t", "1", "--runs", "20", "--seed", "5"]
        )
        surface = read_csv(out / "profit_surface.csv")
        assert surface[0] == ["p", "lambda_bp", "mean_profit_bp"]
        contour = read_csv(out / "breakeven_contour.csv")
        assert contour[0] == ["lambda_bp", "break_even_p"]
        be = read_csv(out / "breakeven.csv")
        assert be[0] == [
            "scenario", "gamma_t", "lambda_bp", "analytic_p", "simulated_p", "simulated_p_std"
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "sim"
        args = [
            "simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out),
            "--runs", "30", "--seed", "17",
        ]
        assert main(args) == 0
        before = sha256_tree(out)
        assert main(args) == 0
        assert sha256_tree(out) == before

    def test_invalid_probability_exits_2(self, tmp_path):
        data_dir = run_synth(tmp_path, [])
        rc = main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW,
             "--out-dir", str(tmp_path / "x"), "--p", "1.5", "--seed", "1"]
        )
        assert rc == 2

    def test_bad_lambda_grid_exits_2_before_any_output(self, tmp_path, capsys):
        # also every other simulate flag that is checked before the tick load
        data_dir = run_synth(tmp_path, five_injections())
        base = ["simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--seed", "1"]
        assert_exits_2_before_any_output(tmp_path, capsys, [
            ([*base, "--runs", "5", "--lambda-grid", "1,-1"], "loss grid"),
            ([*base, "--runs", "5", "--lambda-grid", "0,1.5"], "loss grid"),
            ([*base, "--runs", "5", "--lambda-grid", ","], "loss grid"),
            ([*base, "--runs", "5", "--gamma-t", ","], "--gamma-t"),
            ([*base, "--runs", "5", "--gamma-t", "1,0.5"], "gamma_t"),
            ([*base, "--p", "1.5"], "fill_prob"),
            ([*base, "--runs", "0"], "runs"),
            ([*base, "--runs", "4294967297"], "runs must be in [1, 2**32]"),
            ([*base[:-1], "18446744073709551616"], "seed must be in [0, 2**64)"),
            ([*base, "--volume", "0"], "volume"),
            ([*base, "--fee-per-trade", "-1"], "fee_per_trade"),
            ([*base, "--lambda-bp", "-1"], "loss_bp"),
            ([*base, "--runs", "5", "--lambda-bp", "0"], "loss_bp"),
            ([*base, "--runs", "5", "--lambda-bp", "0", "--gamma-t", "1.5"], "loss_bp"),
            ([*base, "--lambda-bp", "nan"], "loss_bp"),
            ([*base, "--lambda-bp", "inf"], "loss_bp"),
            ([*base, "--volume", "nan"], "volume"),
            ([*base, "--volume", "inf"], "volume"),
            ([*base, "--fee-per-trade", "nan"], "fee_per_trade"),
            ([*base, "--fee-per-trade", "inf"], "fee_per_trade"),
            ([*base, "--gamma-t", "nan"], "gamma_t"),
            ([*base, "--gamma-t", "1,inf"], "gamma_t"),
            ([*base, "--p", "nan"], "fill_prob"),
            ([*base, "--lambda-grid", "1,nan"], "loss grid"),
            ([*base, "--lambda-grid", "1,inf"], "loss grid"),
            ([*base, "--gamma-t", "x"], "bad --gamma-t 'x'"),
            ([*base, "--lambda-grid", "1,y"], "bad --lambda-grid '1,y'"),
        ])

    def test_runs_past_memory_exit_2_without_output(self, tmp_path, capsys):
        # per-run results of 10**17 runs need more bytes than any address space;
        # the draws' bound of 2**32 runs refuses them first
        data_dir = run_synth(tmp_path, five_injections())
        assert_exits_2_before_any_output(tmp_path, capsys, [
            (["simulate", "--data-dir", str(data_dir), "--window", WINDOW, "--seed", "1",
              "--runs", str(10**17)], f"runs must be in [1, 2**32], got {10**17}"),
        ])

    def test_overflowing_flags_exit_2_without_output_files(self, tmp_path, capsys):
        # finite flags whose totals overflow are only seen after the sweep
        data_dir = run_synth(tmp_path, five_injections())
        base = ["simulate", "--data-dir", str(data_dir), "--window", WINDOW,
                "--seed", "1", "--runs", "5"]
        for i, flag in enumerate(["--fee-per-trade", "--volume"]):
            out = tmp_path / f"out{i}"
            assert main([*base, flag, "1e308", "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert "summary.json: a result is not finite" in err
            assert "RuntimeWarning" not in err
            assert not out.exists()

    def test_gamma_t_above_every_opportunity_writes_zero_totals(self, tmp_path):
        # no trade: both closed-form totals are 0.0, never -0.0
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "sim"
        rc = main(["simulate", "--data-dir", str(data_dir), "--window", WINDOW,
                   "--out-dir", str(out), "--scenario", "both", "--p", "0.5",
                   "--gamma-t", "1.01", "--runs", "3", "--seed", "1"])
        assert rc == 0
        text = (out / "summary.json").read_text()
        assert "-0.0" not in text
        entries = json.loads(text)["per_config"]
        assert [e["scenario"] for e in entries] == ["fixed", "duration"]
        for e in entries:
            assert e["trades"] == 0 and e["analytic_break_even_p"] is None
            assert math.copysign(1.0, e["analytic_total_profit"]) == 1.0

    def test_no_opportunities_still_exits_0(self, tmp_path):
        data_dir = run_synth(tmp_path, [], name="flat")
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW,
             "--out-dir", str(out), "--runs", "5", "--seed", "1"]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(e["trades"] == 0 for e in summary["per_config"])


class TestCompareCommand:
    def test_identical_datasets_zero_deltas(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path, five_injections())
        path = TestDetectCommand._cross_one_quote(data_dir)
        out = tmp_path / "cmp"
        rc = main(
            ["compare", "--dataset", f"a={data_dir}", "--dataset", f"b={data_dir}",
             "--window", WINDOW, "--out-dir", str(out)]
        )
        assert rc == 0
        # one line per dataset, though both read the same file
        assert capsys.readouterr().err == 2 * f"warning: {path}: accepted 1 crossed quote(s) (bid > ask)\n"
        rows = read_csv(out / "comparison.csv")
        assert rows[0] == [
            "label", "count", "1s", "2s", "3s", "4s", "5s", ">5s",
            "mean", "stdev", "delta_count", "delta_1s",
        ]
        assert rows[2][10] == "0"  # delta_count for the second period
        assert float(rows[2][11]) == 0.0

    def test_dispersion_trend_detected(self, tmp_path):
        wide = run_synth(tmp_path, [], seed=3, name="wide")
        # a finer point grid shrinks the quantization scatter of the rate
        # product, so the distribution tightens
        payload = synth_payload([], seed=3)
        for pair in payload["pairs"].values():
            pair["point"] = "0.000001"
            pair["spread_points"] = 20  # same absolute spread as 2 coarse points
        cfg_path = tmp_path / "synth_narrow.json"
        cfg_path.write_text(json.dumps(payload))
        narrow = tmp_path / "narrow"
        assert main(["synth", "--synth-config", str(cfg_path), "--out-dir", str(narrow)]) == 0
        out = tmp_path / "cmp"
        rc = main(
            ["compare", "--dataset", f"wide={wide}", "--dataset", f"narrow={narrow}",
             "--window", WINDOW, "--out-dir", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "comparison.csv")
        assert float(rows[2][9]) < float(rows[1][9])  # stdev narrows
        assert (out / "histogram_wide.csv").exists()
        assert (out / "histogram_narrow.csv").exists()

    def test_degenerate_histogram_exits_2_before_any_output(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path, five_injections())
        base = ["compare", "--dataset", f"a={data_dir}", "--dataset", f"b={data_dir}",
                "--window", WINDOW]
        assert_exits_2_before_any_output(tmp_path, capsys, [
            ([*base, "--hist-bin-width", "-1"], "degenerate histogram"),
            ([*base, "--hist-lo", "1", "--hist-hi", "1"], "degenerate histogram"),
        ])

    def test_bad_labels_exit_2_before_any_output(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path, five_injections())
        base = ["compare", "--window", WINDOW, "--dataset", f"a={data_dir}"]
        assert_exits_2_before_any_output(tmp_path, capsys, [
            ([*base, "--dataset", f"a={data_dir}"], "repeated --dataset label 'a'"),
            ([*base, "--dataset", f" a ={data_dir}"], "repeated --dataset label 'a'"),
            ([*base, "--dataset", f"b/c={data_dir}"], "path separator"),
            ([*base, "--dataset", f"={data_dir}"], "path separator"),
            ([*base, "--dataset", f"b{data_dir}"], "expected LABEL=DIR"),
            # an empty directory would be the current one
            ([*base, "--dataset", "b="], "bad --dataset 'b=', expected LABEL=DIR"),
            ([*base, "--dataset", "b= "], "bad --dataset 'b= ', expected LABEL=DIR"),
        ])

    def test_missing_tick_file_exits_2_before_any_output(self, tmp_path, capsys):
        x = run_synth(tmp_path, [], name="x")
        y = run_synth(tmp_path, [], name="y")
        (y / "EURCHF.csv").unlink()
        assert_exits_2_before_any_output(tmp_path, capsys, [
            (["compare", "--dataset", f"x={x}", "--dataset", f"y={y}", "--window", WINDOW],
             f"missing tick file {y / 'EURCHF.csv'}"),
        ])

    def test_single_dataset_exits_2(self, tmp_path):
        data_dir = run_synth(tmp_path, [])
        rc = main(
            ["compare", "--dataset", f"a={data_dir}", "--window", WINDOW,
             "--out-dir", str(tmp_path / "cmp")]
        )
        assert rc == 2


class TestConfigHandling:
    def jpy_payload(self, seed=21):
        return {
            "seed": seed,
            "window": {"start": MONDAY, "end": MONDAY + 3600, "weekdays": "mon-fri"},
            "pairs": {
                "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001", "spread_points": 2},
                "USD/JPY": {"mid": 115.72, "vol": 2e-6, "point": "0.001", "spread_points": 2},
                "EUR/JPY": {"point": "0.001", "spread_points": 2},
            },
            "injections": [
                {"start": MONDAY + 60, "duration_seconds": 2, "magnitude_bp": 1.5, "direction": 1}
            ],
        }

    def test_jpy_triangle_end_to_end(self, tmp_path):
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps({**self.jpy_payload(), "currencies": "EUR,USD,JPY"}))
        data_dir = tmp_path / "data"
        rc = main(["synth", "--synth-config", str(synth_cfg), "--out-dir", str(data_dir)])
        assert rc == 0
        assert (data_dir / "USDJPY.csv").exists()
        out = tmp_path / "detect"
        rc = main(["detect", "--triangle", "EUR,USD,JPY", "--data-dir", str(data_dir),
                   "--window", f"{MONDAY}..{MONDAY + 3600}", "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "opportunities.csv")
        assert len(rows) - 1 == 1
        assert rows[1][2] == "2"  # run_length

    def test_triangle_flag_overrides_config(self, tmp_path, capsys):
        synth_cfg = tmp_path / "synth.json"
        payload = self.jpy_payload()
        payload["currencies"] = ["EUR", "USD", "JPY"]
        synth_cfg.write_text(json.dumps(payload))
        data_dir = tmp_path / "data"
        assert main(["synth", "--synth-config", str(synth_cfg), "--out-dir", str(data_dir)]) == 0
        args = ["--data-dir", str(data_dir), "--window", f"{MONDAY}..{MONDAY + 3600}"]
        # without the flag the triangle is EUR,USD,CHF
        assert main(["detect", *args, "--out-dir", str(tmp_path / "chf")]) == 2
        assert f"missing tick file {data_dir / 'USDCHF.csv'}" in capsys.readouterr().err
        out = tmp_path / "detect"
        assert main(["detect", "--triangle", "eur,usd,jpy", *args, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["triangle"] == {
            "currencies": ["EUR", "USD", "JPY"], "pairs": ["EUR/USD", "USD/JPY", "EUR/JPY"]
        }

    def test_pair_names_are_case_insensitive(self):
        from triarb.synth import synth_config_from_json

        payload = synth_payload([])
        payload["pairs"]["eur/usd "] = {**payload["pairs"].pop("EUR/USD"), "point": "0.001"}
        cfg = synth_config_from_json(payload)
        assert cfg.mid_prices["EUR/USD"] == 1.2065
        assert str(cfg.points["EUR/USD"]) == "0.001"

    def test_preset_scales_spreads_with_liquidity(self, tmp_path):
        from triarb.synth import synth_config_from_json

        payload = {
            "seed": 1,
            "window": {"start": MONDAY, "end": MONDAY + 3600},
            "liquidity_preset": True,
            "base_spread_points": 6.0,
            "pairs": {
                "EUR/USD": {"mid": 1.2065, "vol": 2e-6, "point": "0.00001"},
                "USD/CHF": {"mid": 1.3030, "vol": 2e-6, "point": "0.00001"},
                "EUR/CHF": {"point": "0.00001"},
            },
        }
        cfg = synth_config_from_json(payload)
        spreads = cfg.spread_points["EUR/USD"]
        assert spreads[14] < spreads[23]  # two liquid markets vs one
        assert cfg.gap_rate[14] < cfg.gap_rate[23]

    def test_omitted_keys_take_the_python_api_defaults(self):
        from triarb.synth import synth_config_from_json

        payload = synth_payload([], hours=6)
        del payload["gap_rate"]
        assert synth_config_from_json(payload).gap_rate == (0.0,) * 24
        for pair in payload["pairs"].values():
            del pair["spread_points"]
        payload.update(liquidity_preset=True, schedule={})
        stated = {**payload, "base_spread_points": 3, "base_gap_rate": 0.002,
                  "schedule": {"base_rate_per_hour": 1, "magnitude_range": [0.5, 4]}}
        omitted, given = synth_config_from_json(payload), synth_config_from_json(stated)
        assert len(omitted.injections) > 0
        for name in ("spread_points", "gap_rate"):
            assert getattr(omitted, name) == getattr(given, name)
        assert episode_rows(omitted.injections) == episode_rows(given.injections)


class TestCliBasics:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_flag_surface(self):
        """Every flag of every subcommand; a new option shows up here."""
        hist = ["--hist-bin-width", "--hist-hi", "--hist-lo"]
        ticks = ["--data-dir", "--triangle", "--weekdays", "--window"]
        flags = cli_flags()
        assert flags == {
            "synth": ["--out-dir", "--synth-config"],
            "detect": sorted(["--out-dir", *ticks, *hist, "--thresholds"]),
            "seasonal": sorted(["--out-dir", *ticks]),
            "simulate": sorted(["--out-dir", *ticks, "--fee-per-trade", "--gamma-t",
                                "--lambda-bp", "--lambda-grid", "--p", "--runs", "--scenario",
                                "--seed", "--volume"]),
            "compare": sorted(["--out-dir", *hist, "--dataset", "--triangle",
                               "--weekdays", "--window"]),
        }
        assert sum(map(len, flags.values())) == 38

    def test_removed_flags_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(synth_payload([])))
        synth = ["synth", "--synth-config", str(cfg_path)]
        ticks = ["--data-dir", str(tmp_path), "--window", WINDOW]
        assert_exits_2_before_any_output(tmp_path, capsys, [
            ([*synth, "--seed", "1"], "unrecognized arguments: --seed"),
            ([*synth, "--window", WINDOW], "unrecognized arguments: --window"),
            ([*synth, "--weekdays", "all"], "unrecognized arguments: --weekdays"),
            ([*synth, "--triangle", "EUR,USD,JPY"], "unrecognized arguments: --triangle"),
            ([*synth, "--preset", "table3"], "unrecognized arguments: --preset"),
            ([*synth, "--config", "triarb.ini"], "unrecognized arguments: --config"),
            (["detect", *ticks, "--config", "triarb.ini"], "unrecognized arguments: --config"),
            (["detect", *ticks, "--seed", "1"], "unrecognized arguments: --seed"),
            (["seasonal", *ticks, "--seed", "1"], "unrecognized arguments: --seed"),
            (["compare", "--dataset", f"a={tmp_path}", "--dataset", f"b={tmp_path}",
              "--window", WINDOW, "--seed", "1"], "unrecognized arguments: --seed"),
        ])

    def test_internal_key_error_exits_1_with_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr("triarb.cli.parse_window", broken)
        rc = main(["seasonal", "--data-dir", str(tmp_path), "--window", WINDOW,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "Traceback" in capsys.readouterr().err

    def test_internal_value_error_exits_1_with_traceback(self, tmp_path, capsys, monkeypatch):
        # an opportunity outside the window breaks an invariant of the tally, not the input
        data_dir = run_synth(tmp_path, five_injections())
        outside = ArbitrageOpportunity(0, 1, 1.0001, 1.0001, Direction.DIR1)
        monkeypatch.setattr("triarb.cli.segment_opportunities", lambda *args: [outside])
        rc = main(["seasonal", "--data-dir", str(data_dir), "--window", WINDOW,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: opportunity at 0 starts outside" in err

    @pytest.mark.parametrize("command", ["detect", "seasonal"])
    def test_tick_commands_import_neither_simulator_nor_synth(self, tmp_path, command):
        # a fresh interpreter, so that only what the command itself imports is loaded
        data_dir = run_synth(tmp_path, five_injections())
        argv = [command, "--data-dir", str(data_dir), "--window", WINDOW,
                "--out-dir", str(tmp_path / "out")]
        code = ("import sys\n"
                "from triarb.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('triarb.')))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == str(sorted(
            ["triarb.cli", "triarb.config", "triarb.errors", "triarb.market_data",
             "triarb.opportunity", "triarb.rate_product"]))

    def test_simulate_does_not_import_numpy_random(self, tmp_path):
        # a fresh interpreter, and a generated seed: the draws and the seed are
        # integer hashes and os.urandom, so numpy.random stays unloaded
        data_dir = run_synth(tmp_path, five_injections())
        argv = ["simulate", "--data-dir", str(data_dir), "--window", WINDOW,
                "--out-dir", str(tmp_path / "out"), "--runs", "5"]
        code = ("import sys\n"
                "from triarb.cli import main\n"
                "eager = 'numpy.random' in sys.modules\n"
                f"assert main({argv!r}) == 0\n"
                "print(eager, 'numpy.random' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        eager, loaded = proc.stdout.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random along with numpy itself")
        assert loaded == "False"

    @staticmethod
    def _import_cli_in_fresh_interpreter(code, **extra_env):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(extra_env, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", "from triarb.cli import main\n" + code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_import_starts_no_blas_worker_threads(self):
        code = "import os\nprint(len(os.listdir('/proc/self/task')))"
        assert self._import_cli_in_fresh_interpreter(code) == "1"

    def test_cli_import_keeps_a_preset_openblas_thread_count(self):
        code = "import os\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._import_cli_in_fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_generated_seed_recorded_in_manifest(self, tmp_path):
        data_dir = run_synth(tmp_path, [])
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--data-dir", str(data_dir), "--window", WINDOW,
             "--out-dir", str(out), "--runs", "5"]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["seed"], int) and 0 <= manifest["seed"] < 2**64


# the two ways to start a command in a process of its own
ENTRY_POINTS = {
    "module": ["-m", "triarb.cli"],
    "run": ["-c", "from triarb.cli import run; run()"],
}


def fresh_process(args, stdout=subprocess.PIPE):
    """`args` to a fresh interpreter on the package's source, with its output
    streams buffered as a user's are (no PYTHONUNBUFFERED)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


class TestProcessExit:
    """A command in a process of its own ends by os._exit after flushing its
    streams, with what an in-process `main` writes and returns."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_detect_writes_what_main_writes(self, tmp_path, entry):
        data_dir = run_synth(tmp_path, five_injections())
        out = tmp_path / "out"
        argv = ["detect", "--data-dir", str(data_dir), "--window", WINDOW, "--out-dir", str(out)]
        assert main(argv) == 0
        expected = sha256_tree(out)
        shutil.rmtree(out)
        proc = fresh_process([*ENTRY_POINTS[entry], *argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert sha256_tree(out) == expected

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_window_exits_2_with_one_line(self, tmp_path, entry):
        out = tmp_path / "out"
        proc = fresh_process([*ENTRY_POINTS[entry], "detect", "--data-dir", str(tmp_path),
                              "--window", "tomorrow", "--out-dir", str(out)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_internal_error_exits_1_with_traceback(self, tmp_path):
        code = ("import triarb.cli as cli\n"
                "def broken(*args):\n"
                "    raise KeyError('internal')\n"
                "cli.parse_window = broken\n"
                "cli.run()\n")
        proc = fresh_process(["-c", code, "seasonal", "--data-dir", str(tmp_path),
                              "--window", WINDOW, "--out-dir", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "KeyError: 'internal'" in proc.stderr

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_version_on_a_pipe_is_flushed(self, entry):
        # stdout on a pipe is block-buffered: os._exit alone would drop the line
        proc = fresh_process([*ENTRY_POINTS[entry], "--version"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "triarb 0.1.0\n", "")

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_stdout_reader_gone_exits_120_without_traceback(self, entry):
        # the flush fails, so the command exits as Python does on any exit
        read, write = os.pipe()
        os.close(read)
        try:
            proc = fresh_process([*ENTRY_POINTS[entry], "--version"], stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 120
        assert "BrokenPipeError" in proc.stderr and "Traceback" not in proc.stderr

    def test_exit_skips_atexit_handlers(self):
        code = ("import atexit\n"
                "atexit.register(print, 'atexit handler ran')\n"
                "from triarb.cli import run\n"
                "run()\n")
        proc = fresh_process(["-c", code, "--version"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "triarb 0.1.0\n", "")

    def test_profiler_still_prints_its_report(self):
        proc = fresh_process(["-m", "cProfile", "-m", "triarb.cli", "--version"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("triarb 0.1.0\n") and "function calls" in proc.stdout
