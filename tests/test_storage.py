"""Grid files, CSV tables, and run manifests."""

import hashlib
import json
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gridpcr.storage
from gridpcr import FormatError
from gridpcr.storage import (
    GridRows,
    file_sha256,
    format_cell,
    make_manifest,
    numeric_columns,
    read_config,
    read_grid,
    read_manifest,
    read_table,
    write_grid,
    write_grid_chunks,
    write_manifest,
    write_table,
)


def reference_grid_bytes(values):
    # independent byte layout: magic, version, rank, extents u64 LE, f64 LE
    values = np.asarray(values, dtype=np.float64)
    out = b"HSG1" + struct.pack("<BB", 1, values.ndim)
    out += struct.pack(f"<{values.ndim}Q", *values.shape)
    out += struct.pack(f"<{values.size}d", *values.ravel(order="C"))
    return out


def test_grid_bytes_match_reference_layout(tmp_path):
    values = np.arange(24.0).reshape(2, 3, 4) / 7.0
    path = tmp_path / "a.hsg"
    write_grid(str(path), values)
    assert path.read_bytes() == reference_grid_bytes(values)


def test_grid_round_trip_exact(tmp_path):
    rng = np.random.default_rng(4)
    for shape in ((5,), (3, 4), (2, 3, 4), (2, 2, 2, 2)):
        values = rng.standard_normal(shape)
        path = tmp_path / "b.hsg"
        write_grid(str(path), values)
        back = read_grid(str(path))
        assert back.shape == shape
        np.testing.assert_array_equal(back, values)


def test_grid_write_streams_payload(tmp_path):
    # a 16 MiB grid is written from its own buffer, not copied into bytes
    values = np.random.default_rng(5).standard_normal((8, 512, 512))
    path = tmp_path / "big.hsg"
    tracemalloc.start()
    try:
        write_grid(str(path), values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 4
    back = read_grid(str(path))
    assert back.shape == values.shape
    assert back.tobytes() == values.tobytes()


def test_grid_chunks_write_the_bytes_of_the_whole_array(tmp_path):
    values = np.random.default_rng(6).standard_normal((5, 3, 4))
    path = tmp_path / "chunks.hsg"
    chunks = (values[i : i + 2] for i in range(0, 5, 2))
    write_grid_chunks(str(path), values.shape, chunks)
    assert path.read_bytes() == reference_grid_bytes(values)
    bad = values.copy()
    bad[4, 2, 3] = np.inf
    for chunks, message in (
        ([values[:2], values[2:4]], "do not hold the 60 values"),
        ([values, values[:1]], "do not hold the 60 values"),
        ([bad[:2], bad[2:]], "non-finite"),
    ):
        with pytest.raises(ValueError, match=message):
            write_grid_chunks(str(tmp_path / "bad.hsg"), values.shape, chunks)
    assert sorted(os.listdir(tmp_path)) == ["chunks.hsg"]


def test_grid_rows_read_any_row_range(tmp_path):
    values = np.arange(60.0).reshape(5, 3, 4) / 7.0
    path = tmp_path / "rows.hsg"
    write_grid(str(path), values)
    with GridRows(str(path)) as rows:
        assert rows.shape == (5, 3, 4)
        out = np.empty((2, 12))
        for start in (0, 2, 3):
            rows.readinto(start, out)
            np.testing.assert_array_equal(out, values[start : start + 2].reshape(2, 12))
        for start, size in ((4, 24), (-1, 12), (0, 5)):
            with pytest.raises(ValueError, match="whole rows"):
                rows.readinto(start, np.empty(size))
        # read_grid reads a row range of the open file into a given buffer.
        got = read_grid(rows, 3, out)
        assert got is out
        np.testing.assert_array_equal(got, values[3:5].reshape(2, 12))
        np.testing.assert_array_equal(read_grid(rows), values)
    np.testing.assert_array_equal(read_grid(str(path), 1), values[1:])


@pytest.mark.parametrize("preadv", [True, False], ids=["preadv", "seek"])
def test_grid_rows_reads_from_threads_do_not_interfere(tmp_path, monkeypatch, preadv):
    # Each thread reads its own interleaved row ranges of one open file;
    # a shared file position would let one thread's seek move another's
    # read. Three threads, switching often, with positional reads and with
    # the locked seek used where os.preadv is missing.
    if not preadv:
        monkeypatch.setattr(gridpcr.storage, "_preadv", None)
    values = np.random.default_rng(3).standard_normal((64, 2048))
    path = tmp_path / "rows.hsg"
    write_grid(str(path), values)
    mismatches = []

    def reader(rows, phase):
        out = np.empty((300, 3, 2048))
        starts = [(3 * rep + phase) % 61 for rep in range(len(out))]
        for start, rows_out in zip(starts, out):
            rows.readinto(start, rows_out)
        for start, rows_out in zip(starts, out):
            if not np.array_equal(rows_out, values[start : start + 3]):
                mismatches.append((phase, start))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with GridRows(str(path)) as rows:
            threads = [threading.Thread(target=reader, args=(rows, p)) for p in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_grid_rejects_nonfinite_and_empty(tmp_path):
    path = tmp_path / "c.hsg"
    with pytest.raises(ValueError):
        write_grid(str(path), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        write_grid(str(path), np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        write_grid(str(path), np.zeros(()))


def test_grid_read_errors_carry_byte_offsets(tmp_path):
    values = np.arange(6.0).reshape(2, 3)
    good = reference_grid_bytes(values)
    path = tmp_path / "d.hsg"

    path.write_bytes(b"XSG1" + good[4:])
    with pytest.raises(FormatError) as err:
        read_grid(str(path))
    assert err.value.offset == 0

    path.write_bytes(b"HSG1" + bytes([9]) + good[5:])
    with pytest.raises(FormatError) as err:
        read_grid(str(path))
    assert err.value.offset == 4

    # truncated payload
    path.write_bytes(good[:-8])
    with pytest.raises(FormatError) as err:
        read_grid(str(path))
    assert err.value.offset == len(good) - 8

    # trailing garbage
    path.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as err:
        read_grid(str(path))
    assert err.value.offset == len(good)

    # zero extent
    bad = b"HSG1" + struct.pack("<BB", 1, 1) + struct.pack("<Q", 0)
    path.write_bytes(bad)
    with pytest.raises(FormatError):
        read_grid(str(path))


def test_format_cell_round_trips_floats():
    values = [0.1, 1 / 3, 1e-300, 12345.6789, -0.0, 2.0**52 + 0.5]
    for v in values:
        assert float(format_cell(v)) == v
    assert format_cell(True) == "True"
    assert format_cell(3) == "3"
    assert format_cell("x") == "x"


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(9)
    rows = [[f"r{i}", rng.standard_normal(), int(rng.integers(100))] for i in range(7)]
    write_table(str(path), ["name", "value", "count"], rows)
    header, back = read_table(str(path))
    assert header == ["name", "value", "count"]
    for i in range(7):
        assert back[i][0] == rows[i][0]
        assert float(back[i][1]) == rows[i][1]
        assert int(back[i][2]) == rows[i][2]


def test_table_rejects_ragged(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_table(str(path), ["a", "b"], [[1, 2], [3]])
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(FormatError) as err:
        read_table(str(path))
    assert err.value.offset == 2


def test_numeric_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["a", "b", "c"], [[1, 2.5, "x"], [3, 4.5, "y"]])
    header, rows = read_table(str(path))
    got = numeric_columns(header, rows, ["b", "a"])
    np.testing.assert_array_equal(got, [[2.5, 1.0], [4.5, 3.0]])
    with pytest.raises(FormatError):
        numeric_columns(header, rows, ["c"])
    with pytest.raises(FormatError):
        numeric_columns(header, rows, ["missing"])


def test_manifest_round_trip_and_checksums(tmp_path):
    data = tmp_path / "x.bin"
    data.write_bytes(b"hello grid")
    digest = hashlib.sha256(b"hello grid").hexdigest()
    assert file_sha256(str(data)) == digest

    manifest = make_manifest(
        "fit", {"knots": 3, "degree": 2}, 42, {"x.bin": digest}, 1.25
    )
    assert manifest["command"] == "fit"
    assert manifest["seed"] == 42
    assert manifest["outputs"] == {"x.bin": digest}
    path = tmp_path / "manifest.json"
    write_manifest(str(path), manifest)
    assert read_manifest(str(path)) == manifest
    # timing is the only field expected to vary between identical runs
    again = make_manifest("fit", {"knots": 3, "degree": 2}, 42, {"x.bin": digest}, 9.0)
    a = {k: v for k, v in manifest.items() if k != "timing_seconds"}
    b = {k: v for k, v in again.items() if k != "timing_seconds"}
    assert a == b


def test_read_config_requires_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(FormatError):
        read_config(str(path))
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_config(str(path))
    path.write_text(json.dumps({"n": 10}))
    assert read_config(str(path)) == {"n": 10}
