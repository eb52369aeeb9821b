"""File formats: binary grids, CSV tables, JSON configs and run manifests.

Grid files ("HSG1") hold one float64 array of any rank: magic ``HSG1``, a
version byte (1), a rank byte, the extents as little-endian uint64, then the
values little-endian row-major. Round-trips are bitwise; trailing bytes and
truncation are format errors carrying the byte offset. A ``GridRows`` keeps
a file open so that ``read_grid`` can read its leading axis a few rows at a
time, and a sample larger than memory can be fitted; ``write_grid_chunks``
writes a payload that arrives in chunks.

Tables are plain CSV: UTF-8, header row, ``\\n`` line endings, ``.`` decimal
separator regardless of locale, floats rendered with shortest round-trip
precision so reading recovers the exact values.

All writers are atomic (temp file then rename).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import sys
import threading

import numpy as np

from .errors import ConformanceError, FormatError
from .util import atomic_file, atomic_write_text

GRID_MAGIC = b"HSG1"
GRID_VERSION = 1
_preadv = getattr(os, "preadv", None)


def write_grid(path, values) -> None:
    """Write one array (element, sample stack, or any rank) as a grid file."""
    arr = np.asarray(values, dtype=float)
    write_grid_chunks(path, arr.shape, [arr])


def write_grid_chunks(path, shape, chunks) -> None:
    """Write a grid file of ``shape`` from its values in row-major chunks.

    ``chunks`` may be a generator: each chunk is checked finite and written
    from its own buffer before the next one is drawn, so the whole payload
    is never held. The chunks must hold exactly prod(shape) values.
    """
    shape = tuple(int(d) for d in shape)
    if len(shape) == 0:
        raise ConformanceError("grid payload must have at least one axis")
    if len(shape) > 255:
        raise ConformanceError("grid rank exceeds the format limit of 255")
    count = math.prod(shape)
    written = 0
    with atomic_file(path) as handle:
        handle.write(GRID_MAGIC + bytes([GRID_VERSION, len(shape)]))
        handle.write(struct.pack(f"<{len(shape)}Q", *shape))
        for chunk in chunks:
            arr = np.asarray(chunk, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ConformanceError("grid payload contains non-finite values")
            written += arr.size
            handle.write(np.ascontiguousarray(arr, dtype="<f8"))
        if written != count:
            raise ConformanceError(
                f"grid chunks do not hold the {count} values of shape {shape}"
            )


class GridRows:
    """A grid file opened for reading its leading axis a few rows at a time.

    The header and the file size are checked on opening, with the same
    errors and byte offsets as ``read_grid``. ``shape`` is the stored
    array's shape; ``readinto(start, out)`` fills the contiguous float64
    array ``out`` with whole rows ``start, start + 1, ...`` of that axis,
    read straight from the file at their offset. Reads are positional, so
    threads may read one ``GridRows`` at once. The file stays open until
    ``close`` (or the end of a ``with`` block).
    """

    def __init__(self, path):
        self._file = open(path, "rb", buffering=0)
        try:
            self.shape, self._start = _check_grid_header(self._file)
        except BaseException:
            self._file.close()
            raise
        self._row_bytes = 8 * math.prod(self.shape[1:])
        self._end = self._start + self._row_bytes * self.shape[0]
        self._lock = threading.Lock()

    def readinto(self, start: int, out: np.ndarray) -> None:
        rows, extra = divmod(out.nbytes, self._row_bytes)
        if extra or start < 0 or start + rows > self.shape[0]:
            raise ConformanceError(
                f"cannot read {out.nbytes} bytes as whole rows from row {start} "
                f"of {self.shape[0]}"
            )
        self._pread(memoryview(out).cast("B"), self._start + start * self._row_bytes)
        if sys.byteorder != "little":
            out.byteswap(inplace=True)

    def _pread(self, view, pos: int) -> None:
        """Fill ``view`` from file offset ``pos`` without moving a shared offset.

        Where ``os.preadv`` is missing (Windows), a lock keeps each seek
        together with its read.
        """
        got = 0
        while got < view.nbytes:
            if _preadv is not None:
                step = _preadv(self._file.fileno(), [view[got:]], pos + got)
            else:
                with self._lock:
                    self._file.seek(pos + got)
                    step = self._file.readinto(view[got:])
            if not step:
                # A read past the end reports where the file ends, as a
                # read through its last byte does.
                found = min(pos + got, os.fstat(self._file.fileno()).st_size)
                raise FormatError(
                    f"grid file truncated: expected {self._end} bytes, found {found}",
                    offset=found,
                )
            got += step

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _check_grid_header(handle):
    """Check a grid file's header and size; return (shape, payload offset)."""
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(6)
    if len(head) < 6:
        raise FormatError("grid file shorter than its fixed header", offset=len(head))
    if head[:4] != GRID_MAGIC:
        raise FormatError(f"bad magic {head[:4]!r}, expected {GRID_MAGIC!r}", offset=0)
    if head[4] != GRID_VERSION:
        raise FormatError(f"unsupported grid version {head[4]}", offset=4)
    ndim = head[5]
    if ndim == 0:
        raise FormatError("grid rank must be positive", offset=5)
    dims_end = 6 + 8 * ndim
    extents = handle.read(8 * ndim)
    if len(extents) < 8 * ndim:
        raise FormatError(
            "grid file truncated inside its extents", offset=6 + len(extents)
        )
    dims = struct.unpack(f"<{ndim}Q", extents)
    if 0 in dims:
        raise FormatError(f"zero extent in dims {dims}", offset=6)
    expected_end = dims_end + 8 * math.prod(dims)
    if size < expected_end:
        raise FormatError(
            f"grid file truncated: expected {expected_end} bytes, found {size}",
            offset=size,
        )
    if size > expected_end:
        raise FormatError(
            f"{size - expected_end} trailing byte(s) after the payload",
            offset=expected_end,
        )
    return dims, dims_end


def read_grid(source, start: int = 0, out=None) -> np.ndarray:
    """Read a grid file back into the array shape it was written with.

    ``source`` is a path or an open ``GridRows``. The payload, or its rows
    from ``start`` on, is read once, straight into the returned array:
    ``out`` when given (a float64 array of whole rows of the leading axis,
    every one of which is filled), else a new array. The passes over a
    sample file read it this way, one row chunk at a time through one open
    descriptor.
    """
    grid = source if isinstance(source, GridRows) else GridRows(source)
    try:
        if out is None:
            out = np.empty((max(0, grid.shape[0] - start), *grid.shape[1:]))
        grid.readinto(start, out)
    finally:
        if grid is not source:
            grid.close()
    return out


def format_cell(value) -> str:
    """Render one table cell; floats use shortest round-trip precision."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_table(path, header, rows) -> None:
    """Write a rectangular CSV table with a header row; atomic."""
    header = [str(h) for h in header]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        cells = list(row)
        if len(cells) != len(header):
            raise ConformanceError(
                f"row {i} has {len(cells)} cells, header has {len(header)}"
            )
        writer.writerow([format_cell(c) for c in cells])
    atomic_write_text(path, buf.getvalue())


def read_table(path):
    """Read a CSV table; returns (header, rows of strings), rectangular."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("table file is empty", offset=0) from None
        rows = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise FormatError(
                    f"row {i + 1} has {len(row)} cells, header has {len(header)}",
                    offset=i + 1,
                )
            rows.append(row)
    return header, rows


def numeric_columns(header, rows, names) -> np.ndarray:
    """Parse named columns as floats; errors name the failing column and row."""
    idx = []
    for name in names:
        if name not in header:
            raise FormatError(f"column {name!r} not in header {header}")
        idx.append(header.index(name))
    out = np.empty((len(rows), len(idx)))
    for r, row in enumerate(rows):
        for c, col in enumerate(idx):
            try:
                out[r, c] = float(row[col])
            except ValueError:
                raise FormatError(
                    f"column {names[c]!r}, row {r + 1}: {row[col]!r} is not numeric",
                    offset=r + 1,
                ) from None
    return out


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_config(path) -> dict:
    """Read a JSON configuration object."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}", offset=exc.pos) from None
    if not isinstance(doc, dict):
        raise FormatError("configuration must be a JSON object")
    return doc


def make_manifest(command: str, config: dict, seed, outputs: dict, timing_s: float) -> dict:
    """Assemble the run manifest: config echo, seed, version, timing, checksums.

    ``outputs`` maps emitted file names to their sha256 hex digests. The
    timing field is the only entry expected to differ between identical
    seeded runs.
    """
    from . import __version__

    return {
        "command": command,
        "config": config,
        "seed": None if seed is None else int(seed),
        "version": __version__,
        "timing_seconds": float(timing_s),
        "outputs": dict(sorted(outputs.items())),
    }


def write_manifest(path, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return read_config(path)
