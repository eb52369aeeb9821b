"""Seeded input generator for the grid workloads, independent of gridpcr.

Samples are smooth and low rank: a fixed mean plus a few fixed polynomial
fields (products of shifted Legendre polynomials per axis, scaled to unit
mean square) with normal scores of the given variances, plus white noise.
Covariates are standard normal and the response is linear in covariates and
scores, with a treatment-modifier block when a treatment column is asked
for.

Everything is built from element-wise numpy arithmetic in a fixed order, not
BLAS products, so a given input set has the same bytes on any machine. The
generator writes the ``.hsg`` grid format itself and never imports gridpcr,
so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct

import numpy as np

# The seed selects one of this many input sets; the reference outputs of the
# correctness gate are recorded for every one of them.
INPUT_SETS = 16
# Input sets of one workload kept on disk at once (a volume set is ~400 MB).
CACHE_KEEP = 2
ROW_CHUNK = 10

_SALT = {"volume-3d": 3, "bootstrap-2d": 2}


def legendre(degree: int, t: np.ndarray) -> np.ndarray:
    """Shifted Legendre polynomial of degree 0..2 on [0, 1]."""
    if degree == 0:
        return np.ones_like(t)
    if degree == 1:
        return 2.0 * t - 1.0
    return 6.0 * t * t - 6.0 * t + 1.0


def grid_field(dims, degrees) -> np.ndarray:
    """Flattened product of per-axis polynomials at the unit-domain cell centres.

    Scaled to unit mean square; the exactly rounded sum keeps the scale the
    same on every machine.
    """
    out = np.ones(1)
    for extent, degree in zip(dims, degrees):
        t = (np.arange(extent) + 0.5) / extent
        out = np.multiply.outer(out, legendre(degree, t)).ravel()
    return out / math.sqrt(math.fsum((out * out).tolist()) / out.size)


def write_hsg_header(handle, shape) -> None:
    handle.write(b"HSG1" + bytes([1, len(shape)]) + struct.pack(f"<{len(shape)}Q", *shape))


def generate(spec: dict, seed: int, directory: str) -> dict:
    """Write one input set into ``directory``; return its file names.

    ``spec`` holds dims, n, the per-component (variance, degrees) pairs, the
    mean field's degrees, noise_sd, covariates and treatment (bool).
    """
    rng = np.random.default_rng([_SALT[spec["name"]], seed % INPUT_SETS])
    dims, n = tuple(spec["dims"]), spec["n"]
    comps = spec["components"]
    fields = [grid_field(dims, degrees) for _, degrees in comps]
    mean = 1.0 + 0.5 * grid_field(dims, spec["mean_degrees"])
    scores = rng.standard_normal((n, len(comps))) * np.sqrt([lam for lam, _ in comps])
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "sample.hsg"), "wb") as handle:
        write_hsg_header(handle, (n,) + dims)
        for start in range(0, n, ROW_CHUNK):
            rows = spec["noise_sd"] * rng.standard_normal((min(ROW_CHUNK, n - start), mean.size))
            for i, row in enumerate(rows):
                row += mean
                for k, field in enumerate(fields):
                    row += scores[start + i, k] * field
            handle.write(rows.astype("<f8").tobytes())

    d = spec["covariates"]
    x = rng.standard_normal((n, d))
    y = 1.0 + rng.standard_normal(n)
    for j in range(d):
        y += x[:, j]
    for k in range(len(comps)):
        y += (1.5 - 0.5 * k) * scores[:, k]
    columns = [("y", y)] + [(f"x{j + 1}", x[:, j]) for j in range(d)]
    if spec["treatment"]:
        a = (rng.random(n) < 0.5).astype(float)
        y += a * (0.5 + 0.5 * x[:, 0] - 0.5 * scores[:, 0])
        columns.append(("a", a))
    with open(os.path.join(directory, "design.csv"), "w", encoding="utf-8") as handle:
        handle.write(",".join(name for name, _ in columns) + "\n")
        for i in range(n):
            handle.write(",".join(repr(float(col[i])) for _, col in columns) + "\n")
    return {"data": "sample.hsg", "table": "design.csv"}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cached_inputs(spec: dict, seed: int, cache_root: str) -> tuple:
    """Return (directory, {file: sha256}) of the input set for ``seed``.

    The set is generated on first use into a temporary directory and moved
    into place, so an interrupted generation never leaves a partial set.
    Digests are recomputed on every use; a set whose files no longer match
    the digests recorded at generation is generated again.
    """
    set_id = seed % INPUT_SETS
    root = os.path.join(cache_root, spec["name"])
    directory = os.path.join(root, f"set{set_id:02d}")
    record = os.path.join(directory, "sha256.json")
    if os.path.exists(record):
        with open(record, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if all(sha256(os.path.join(directory, f)) == h for f, h in recorded.items()):
            os.utime(directory)
            return directory, recorded
        shutil.rmtree(directory)
    os.makedirs(root, exist_ok=True)
    tmp = directory + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    names = generate(spec, set_id, tmp)
    digests = {f: sha256(os.path.join(tmp, f)) for f in sorted(names.values())}
    with open(os.path.join(tmp, "sha256.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1)
    os.replace(tmp, directory)
    _evict(root, keep=directory)
    return directory, digests


def _evict(root: str, keep: str) -> None:
    sets = [os.path.join(root, e) for e in os.listdir(root) if not e.endswith(".tmp")]
    sets.sort(key=os.path.getmtime, reverse=True)
    for old in [s for s in sets if s != keep][CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)
