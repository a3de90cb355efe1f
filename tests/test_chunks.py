"""The tick commands walk a window in chunks of grid seconds; their outputs
must not depend on where the chunk edges fall."""

import csv
import math
import shutil
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from triarb import market_data
from triarb.cli import main
from triarb.market_data import SeriesWindow, TriangleSpec
from triarb.rate_product import compute_rate_products

from conftest import MONDAY, load_pair_series

FRIDAY_END = MONDAY - 2 * 86400  # Saturday 00:00
FRIDAY_SECONDS, MONDAY_SECONDS = 122, 80
WINDOW = SeriesWindow(FRIDAY_END - FRIDAY_SECONDS, MONDAY + MONDAY_SECONDS, frozenset(range(5)))
GRID = WINDOW.grid_times()
WHOLE = 1 << 20  # a chunk longer than the window
CHUNKS = (1, 7, 61)  # 61 puts an edge on the weekend jump (122) and on second 183
MISSING = 61  # no EUR/USD tick: a missing second on an edge of 61-second chunks
TRIPLE = 183  # three EUR/CHF ticks, the first two off the run; a block ends among them
# (direction, first grid index, last grid index) of the runs above one
RUNS = ((1, 10, 20), (1, 58, 65), (2, 118, 125), (2, 180, 201))
EXPECTED = [(1, 10, 11), (1, 58, 3), (1, 62, 4), (2, 118, 4), (2, 122, 4), (2, 180, 22)]


def _quotes():
    """Per pair stem, the (grid index, bid, ask) rows of the triangle EUR, USD, CHF."""
    rows = {"EURUSD": [], "USDCHF": [], "EURCHF": []}
    for i in range(GRID.size):
        if i != MISSING:
            # 4 decimal places on Friday, 5 on Monday
            rows["EURUSD"].append((i, "1.2000", "1.2002") if i < FRIDAY_SECONDS
                                  else (i, "1.20001", "1.20021"))
        rows["USDCHF"].append((i, "1.3", "1.3002"))  # 1 and 4 places in one chunk
        cross = ("1.56000", "1.56040")
        for direction, lo, hi in RUNS:
            if lo <= i <= hi:
                step = f"{i % 3}"
                cross = (f"1.5596{step}", f"1.5598{step}") if direction == 1 else (
                    f"1.5607{step}", f"1.5609{step}")
        if i == TRIPLE:
            rows["EURCHF"] += [(i, "1.56000", "1.56040")] * 2
        rows["EURCHF"].append((i, *cross))
    return rows


def _stamp(i: int, k: int, iso: bool) -> str:
    t = int(GRID[i])
    if not iso:
        return str(t)
    return datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S") + f".{k:03d}Z"


def _write(data_dir: Path, iso: bool) -> int:
    """Write the tick files; return the block size that ends a block among
    the ticks of second TRIPLE in EURCHF.csv."""
    data_dir.mkdir()
    block_bytes = None
    for stem, rows in _quotes().items():
        lines = ["timestamp,bid,ask"]
        for k, (i, bid, ask) in enumerate(rows):
            lines.append(f"{_stamp(i, k % 1000, iso)},{bid},{ask}")
        text = "\n".join(lines) + "\n"
        (data_dir / f"{stem}.csv").write_text(text)
        if stem == "EURCHF":
            second = text.index(f"\n{_stamp(TRIPLE, 0, iso)[:19]}")
            second = text.index("\n", second + 1) + 1  # the second tick of the three
            block_bytes = second + 3
    return block_bytes


@pytest.fixture(scope="module")
def ticks(tmp_path_factory):
    root = tmp_path_factory.mktemp("chunks")
    return {iso: (root / f"iso{iso}", _write(root / f"iso{iso}", iso)) for iso in (False, True)}


def _window_arg() -> str:
    return f"{WINDOW.start}..{WINDOW.end}"


def _run(monkeypatch, out: Path, chunk: int, block_bytes: int, argv) -> dict:
    """The bytes of every output of one command at the given chunk and block sizes."""
    monkeypatch.setattr(market_data, "CHUNK_SECONDS", chunk)
    monkeypatch.setattr(market_data, "BLOCK_BYTES", block_bytes)
    shutil.rmtree(out, ignore_errors=True)
    assert main([*argv, "--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _argv(command, data_dir):
    argv = [command, "--data-dir", str(data_dir), "--window", _window_arg(), "--weekdays", "mon-fri"]
    if command == "simulate":
        argv += ["--runs", "20", "--seed", "3"]
    return argv


def test_inputs_hold_what_the_chunk_tests_need(ticks, monkeypatch, tmp_path):
    assert GRID.size == FRIDAY_SECONDS + MONDAY_SECONDS
    assert GRID[FRIDAY_SECONDS] - GRID[FRIDAY_SECONDS - 1] > 1  # the weekend jump
    assert FRIDAY_SECONDS % 61 == 0 and TRIPLE % 61 == 0 and MISSING % 61 == 0
    for iso, (data_dir, block_bytes) in ticks.items():
        out = _run(monkeypatch, tmp_path / "out", WHOLE, block_bytes, _argv("detect", data_dir))
        rows = list(csv.DictReader(out["opportunities.csv"].decode().splitlines()))
        found = [(int(r["direction"]), int(r["start"]), int(r["run_length"])) for r in rows]
        assert found == [(d, int(GRID[i]), n) for d, i, n in EXPECTED]
        # the first block ends among the three ticks of second TRIPLE
        path = data_dir / "EURCHF.csv"
        reader = market_data.TickReader(path, TriangleSpec(("EUR", "USD", "CHF")).pairs[2], WINDOW)
        with reader:
            t, *_ = reader._next_rows()
            second, *_ = reader._next_rows()
        assert t[-1] == second[0] == GRID[TRIPLE]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("command", ["detect", "seasonal", "simulate"])
@pytest.mark.parametrize("iso", [False, True])
def test_outputs_do_not_depend_on_chunk_edges(ticks, monkeypatch, tmp_path, chunk, command, iso):
    data_dir, block_bytes = ticks[iso]
    argv = _argv(command, data_dir)
    whole = _run(monkeypatch, tmp_path / "out", WHOLE, block_bytes, argv)
    assert _run(monkeypatch, tmp_path / "out", chunk, block_bytes, argv) == whole
    # and with the default block size, which reads each file in one block
    assert _run(monkeypatch, tmp_path / "out", chunk, 1 << 18, argv) == whole


@pytest.mark.parametrize("chunk", CHUNKS)
def test_compare_pools_chunk_moments(ticks, monkeypatch, tmp_path, chunk):
    # histograms and counts are exact; mean and stdev pool per-chunk moments, so
    # they hold to 1e-12 of numpy's over the whole window
    (epoch_dir, block_bytes), (iso_dir, _) = ticks[False], ticks[True]
    argv = ["compare", "--dataset", f"epoch={epoch_dir}", "--dataset", f"iso={iso_dir}",
            "--window", _window_arg()]
    whole = _run(monkeypatch, tmp_path / "out", WHOLE, block_bytes, argv)
    split = _run(monkeypatch, tmp_path / "out", chunk, block_bytes, argv)
    assert {k: v for k, v in split.items() if k != "comparison.csv"} == {
        k: v for k, v in whole.items() if k != "comparison.csv"}
    spec = TriangleSpec(("EUR", "USD", "CHF"))
    gammas = compute_rate_products(
        [load_pair_series(epoch_dir / f"{p.file_stem}.csv", p, WINDOW) for p in spec.pairs], spec)
    valid = gammas[gammas != 0.0]
    rows = {name: list(csv.reader(out["comparison.csv"].decode().splitlines()))
            for name, out in (("whole", whole), ("split", split))}
    header = rows["whole"][0]
    mean_col, std_col = header.index("mean"), header.index("stdev")
    for whole_row, split_row in zip(rows["whole"][1:], rows["split"][1:]):
        assert whole_row[:mean_col] == split_row[:mean_col]
        assert whole_row[std_col + 1:] == split_row[std_col + 1:]
        for col, expected in ((mean_col, np.mean(valid)), (std_col, np.std(valid))):
            assert math.isclose(float(split_row[col]), expected, rel_tol=1e-12)
            assert math.isclose(float(whole_row[col]), expected, rel_tol=1e-12)


def _rows_file(path: Path, rows) -> None:
    path.write_text("".join(f"{line}\n" for line in ["timestamp,bid,ask", *rows]))


def _exit_2(capsys, monkeypatch, tmp_path, data_dir, chunk, block_bytes=64):
    monkeypatch.setattr(market_data, "CHUNK_SECONDS", chunk)
    monkeypatch.setattr(market_data, "BLOCK_BYTES", block_bytes)
    out = tmp_path / "out"
    assert main(["detect", "--data-dir", str(data_dir), "--window", f"{MONDAY}..{MONDAY + 60}",
                 "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def _good_rows(bid="1.2000", ask="1.2002"):
    return [f"{MONDAY + i},{bid},{ask}" for i in range(60)]


def _bad_fifth_line():
    rows = _good_rows("1.3", "1.3002")
    rows[3] = "1.3,1.3"  # line 5: the header is line 1
    return rows


@pytest.mark.parametrize("chunk", [7, WHOLE])
def test_bad_row_in_second_file_is_found_while_the_first_has_rows(
        capsys, monkeypatch, tmp_path, chunk):
    _rows_file(tmp_path / "EURUSD.csv", _good_rows())
    _rows_file(tmp_path / "USDCHF.csv", _bad_fifth_line())
    _rows_file(tmp_path / "EURCHF.csv", _good_rows("1.5600", "1.5604"))
    err = _exit_2(capsys, monkeypatch, tmp_path, tmp_path, chunk)
    assert f"{tmp_path / 'USDCHF.csv'}:5: expected 3 fields" in err


def test_first_bad_row_in_stream_order_wins(capsys, monkeypatch, tmp_path):
    # the first file's bad row lies past the first chunk, so the second file's
    # row 5, read for the first chunk, is found first; read as one chunk, the
    # whole first file is read before the second
    _rows_file(tmp_path / "EURUSD.csv", [*_good_rows()[:40], "x,1.2,1.3"])
    _rows_file(tmp_path / "USDCHF.csv", _bad_fifth_line())
    _rows_file(tmp_path / "EURCHF.csv", _good_rows("1.5600", "1.5604"))
    err = _exit_2(capsys, monkeypatch, tmp_path, tmp_path, 7)
    assert f"{tmp_path / 'USDCHF.csv'}:5: expected 3 fields" in err
    err = _exit_2(capsys, monkeypatch, tmp_path, tmp_path, WHOLE, block_bytes=1 << 18)
    assert f"{tmp_path / 'EURUSD.csv'}:42: bad timestamp" in err


@pytest.mark.parametrize("chunk", [7, WHOLE])
def test_file_with_no_tick_in_the_window_exits_2(capsys, monkeypatch, tmp_path, chunk):
    _rows_file(tmp_path / "EURUSD.csv", _good_rows())
    _rows_file(tmp_path / "USDCHF.csv", _good_rows("1.3", "1.3002"))
    _rows_file(tmp_path / "EURCHF.csv", [f"{MONDAY - 100 + i},1.5600,1.5604" for i in range(50)])
    err = _exit_2(capsys, monkeypatch, tmp_path, tmp_path, chunk)
    assert f"{tmp_path / 'EURCHF.csv'}: no tick falls inside window" in err


@pytest.mark.parametrize("chunk", [7, WHOLE])
def test_overflow_at_a_later_chunks_scale_names_its_line(capsys, monkeypatch, tmp_path, chunk):
    # 14 digits and no decimal places in the first chunk fit until a tick of the
    # last chunk sets the file's scale to 5 places: 19 digits
    rows = _good_rows("1", "2")
    rows[2] = f"{MONDAY + 2},1,12345678901234"
    rows[55] = f"{MONDAY + 55},1.00001,2"
    _rows_file(tmp_path / "EURUSD.csv", rows)
    _rows_file(tmp_path / "USDCHF.csv", _good_rows("1.3", "1.3002"))
    _rows_file(tmp_path / "EURCHF.csv", _good_rows("1.5600", "1.5604"))
    err = _exit_2(capsys, monkeypatch, tmp_path, tmp_path, chunk)
    assert (f"{tmp_path / 'EURUSD.csv'}:4: price needs more than 18 digits at the file's "
            "5 decimal places") in err
