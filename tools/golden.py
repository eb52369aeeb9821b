"""Golden outputs: run every gridpcr command on small seeded inputs, compare two runs.

A refactor shows that it keeps the numbers by running this script on its
parent's source tree and on its own, then comparing the two output trees:

    python tools/golden.py run --src ../parent/src --out /tmp/golden-parent
    python tools/golden.py run --src src --out /tmp/golden-change
    python tools/golden.py compare /tmp/golden-parent /tmp/golden-change

``run`` writes its inputs with numpy and the standard library only, so the
program under test cannot change them: a 20x24 sample with a design table
(response, two covariates and a treatment column), a disk mask, a noise-free
12x14x10 sample of mirror-symmetric fields with its own design table (ties in
the peak entry of an eigenfunction decide its sign there, and its whitened
scores have rank 4 of 125), a noisy 64x60x56 sample with its own
design table, large enough that every pass over it spans several row chunks,
a copy of the 2D sample whose row 0 lies far from the rest (a fit's total
variance then needs its exact second read), a 1-axis sample of smooth
curves plus noise with its own design table, the 12x14x10 sample plus
noise, two copies of the 64x60x56
sample, one with a NaN in a middle row and one cut inside a middle chunk,
a triangulation of the unit square in the text mesh format and a
``simulate --config`` JSON file. Each command then
runs in a fresh interpreter with ``PYTHONPATH=<src>`` and
``OPENBLAS_NUM_THREADS=1``; its output files, stdout, stderr and exit code go
to ``<out>/<case>/``. The ``*-unknown-response``, ``*-missing-table``,
``*-few-blocks``, ``*-nonfinite`` and ``*-cut`` cases exit 2 on purpose, so
that their error messages and exit codes are compared too.

``compare`` reports, for each case and file, ``identical`` or the largest
deviation relative to the largest |value| of its column (CSV columns, each
leading-axis slice of a grid file, the numbers of a stdout or stderr line).
The manifest's ``timing_seconds`` is skipped. Exit status is 1 when any
deviation exceeds 1e-12 or the trees differ in structure, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np

TOLERANCE = 1e-12
DIMS_2D = (20, 24)
DIMS_3D = (12, 14, 10)
N_2D = 120
N_3D = 40
# Six row chunks of at most 2**20 values (four rows each) per pass.
DIMS_CHUNKED = (64, 60, 56)
N_CHUNKED = 24
# The middle row of the chunked sample that holds a NaN in one copy, and
# the row inside which the other copy is cut.
NAN_ROW = 10
CUT_ROW = 13
DIM_1D = 400
N_1D = 60
MESH_CELLS = 4


def _write_hsg(path, arr) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    with open(path, "wb") as handle:
        handle.write(b"HSG1" + bytes([1, arr.ndim]))
        handle.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        handle.write(arr.tobytes())


def _read_hsg(path) -> np.ndarray:
    with open(path, "rb") as handle:
        raw = handle.read()
    ndim = raw[5]
    dims = struct.unpack(f"<{ndim}Q", raw[6 : 6 + 8 * ndim])
    return np.frombuffer(raw, dtype="<f8", offset=6 + 8 * ndim).reshape(dims)


def _legendre(degree, t):
    """Shifted Legendre polynomials of degree 0..2 on [0, 1]."""
    return (np.ones_like(t), 2.0 * t - 1.0, 6.0 * t * t - 6.0 * t + 1.0)[degree]


def _field(dims, degrees) -> np.ndarray:
    """Product of per-axis polynomials at the unit-domain cell centres."""
    out = np.ones(1)
    for extent, degree in zip(dims, degrees):
        t = (np.arange(extent) + 0.5) / extent
        out = np.multiply.outer(out, _legendre(degree, t)).ravel()
    return out


def _write_design(path, columns) -> None:
    """A CSV table of named float columns."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def write_inputs(directory) -> None:
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(20260)

    fields = [_field(DIMS_2D, d) for d in ((1, 0), (0, 1), (1, 1), (2, 0))]
    variances = np.array([4.0, 2.0, 1.5, 1.0])
    scores = rng.standard_normal((N_2D, len(fields))) * np.sqrt(variances)
    sample = 1.0 + 0.5 * _field(DIMS_2D, (2, 1)) + scores @ np.array(fields)
    sample += 0.1 * rng.standard_normal(sample.shape)
    _write_hsg(os.path.join(directory, "sample2d.hsg"), sample.reshape(N_2D, *DIMS_2D))
    far = sample.copy()
    far[0] += 100.0
    _write_hsg(os.path.join(directory, "sample2d-far.hsg"), far.reshape(N_2D, *DIMS_2D))
    x = rng.standard_normal((N_2D, 2))
    a = (rng.random(N_2D) < 0.5).astype(float)
    y = 1.0 + x.sum(axis=1) + scores[:, :2] @ [1.5, -1.0] + rng.standard_normal(N_2D)
    y += a * (0.5 - 0.5 * scores[:, 0])
    _write_design(os.path.join(directory, "design.csv"),
                  {"y": y, "x1": x[:, 0], "x2": x[:, 1], "a": a})

    cx, cy = np.meshgrid(*[(np.arange(d) + 0.5) / d for d in DIMS_2D], indexing="ij")
    disk = ((cx - 0.5) ** 2 + (cy - 0.5) ** 2 <= 0.45**2).astype(float)
    _write_hsg(os.path.join(directory, "disk.hsg"), disk)

    # Even-degree fields are symmetric under t -> 1 - t on every axis.
    fields = [_field(DIMS_3D, d) for d in ((2, 0, 0), (0, 2, 0), (2, 2, 2))]
    scores3d = rng.standard_normal((N_3D, len(fields))) * np.sqrt([3.0, 2.0, 1.0])
    sample = 1.0 + scores3d @ np.array(fields)
    _write_hsg(os.path.join(directory, "sample3d.hsg"), sample.reshape(N_3D, *DIMS_3D))

    fields = [_field(DIMS_CHUNKED, d) for d in ((1, 0, 0), (0, 1, 1), (2, 0, 1))]
    scores = rng.standard_normal((N_CHUNKED, len(fields))) * np.sqrt([3.0, 2.0, 1.0])
    sample = 1.0 + scores @ np.array(fields)
    sample += 0.05 * rng.standard_normal(sample.shape)
    _write_hsg(
        os.path.join(directory, "chunked3d.hsg"), sample.reshape(N_CHUNKED, *DIMS_CHUNKED)
    )
    x = rng.standard_normal((N_CHUNKED, 2))
    y = 1.0 + x.sum(axis=1) + scores[:, :2] @ [1.5, -1.0] + rng.standard_normal(N_CHUNKED)
    _write_design(os.path.join(directory, "design3d.csv"),
                  {"y": y, "x1": x[:, 0], "x2": x[:, 1]})

    k = MESH_CELLS
    ticks = [i / k for i in range(k + 1)]
    lines = [f"TRI 2 {(k + 1) ** 2} {2 * k * k}"]
    lines += [f"{u!r} {v!r}" for u in ticks for v in ticks]
    for i in range(k):
        for j in range(k):
            v00 = i * (k + 1) + j
            v10 = v00 + k + 1
            lines += [f"{v00} {v10} {v10 + 1}", f"{v00} {v10 + 1} {v00 + 1}"]
    with open(os.path.join(directory, "mesh.tri"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    study = {"n": 60, "reps": 3, "dims": [10, 12], "lambdas": [3.0, 1.0],
             "gamma0": [1.5, -1.0], "beta0": [1.0], "degree": 2, "knots": "2,3",
             "inference": "plugin", "seed": 4}
    with open(os.path.join(directory, "study.json"), "w", encoding="utf-8") as handle:
        json.dump(study, handle)

    # Its own stream, so the inputs above keep their bytes.
    rng = np.random.default_rng(20261)
    x = rng.standard_normal((N_3D, 2))
    a = (rng.random(N_3D) < 0.5).astype(float)
    y = 1.0 + x.sum(axis=1) + scores3d[:, :2] @ [1.5, -1.0] + rng.standard_normal(N_3D)
    y += a * (0.5 - 0.5 * scores3d[:, 0])
    _write_design(os.path.join(directory, "design-sample3d.csv"),
                  {"y": y, "x1": x[:, 0], "x2": x[:, 1], "a": a})

    sample = _read_hsg(os.path.join(directory, "chunked3d.hsg")).copy()
    sample[NAN_ROW, 3, 5, 7] = np.nan
    _write_hsg(os.path.join(directory, "chunked3d-nan.hsg"), sample)
    with open(os.path.join(directory, "chunked3d.hsg"), "rb") as handle:
        raw = handle.read()
    row_bytes = 8 * int(np.prod(DIMS_CHUNKED))
    cut = len(raw) - (N_CHUNKED - CUT_ROW) * row_bytes + row_bytes // 2
    with open(os.path.join(directory, "chunked3d-cut.hsg"), "wb") as handle:
        handle.write(raw[:cut])

    # Smooth curves on one axis: the sample is a (N_1D, DIM_1D) file.
    rng = np.random.default_rng(20262)
    t = (np.arange(DIM_1D) + 0.5) / DIM_1D
    curves = np.array([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), _legendre(2, t)])
    scores1d = rng.standard_normal((N_1D, len(curves))) * np.sqrt([3.0, 2.0, 1.0])
    sample = 1.0 + t + scores1d @ curves + 0.05 * rng.standard_normal((N_1D, DIM_1D))
    _write_hsg(os.path.join(directory, "sample1d.hsg"), sample)
    x = rng.standard_normal((N_1D, 2))
    y = 1.0 + x.sum(axis=1) + scores1d[:, :2] @ [1.5, -1.0] + rng.standard_normal(N_1D)
    _write_design(os.path.join(directory, "design1d.csv"),
                  {"y": y, "x1": x[:, 0], "x2": x[:, 1]})

    # The 3D sample plus noise off the basis span, so that the diagnostic's
    # residual sums are not rounding noise.
    rng = np.random.default_rng(20263)
    sample = _read_hsg(os.path.join(directory, "sample3d.hsg"))
    sample = sample + 0.1 * rng.standard_normal(sample.shape)
    _write_hsg(os.path.join(directory, "sample3d-noisy.hsg"), sample)


def cases(inputs) -> dict:
    """Case name -> CLI arguments (without --out)."""
    d2 = ["--data", os.path.join(inputs, "sample2d.hsg"), "--degree", "3", "--knots", "4"]
    d3 = ["--data", os.path.join(inputs, "sample3d.hsg"), "--degree", "2", "--knots", "2"]
    chunked = ["--data", os.path.join(inputs, "chunked3d.hsg"), "--degree", "2",
               "--knots", "2"]
    d1 = ["--data", os.path.join(inputs, "sample1d.hsg"), "--degree", "3", "--knots", "12"]
    table = ["--table", os.path.join(inputs, "design.csv"), "--response", "y",
             "--covariates", "x1,x2"]
    table3d = ["--table", os.path.join(inputs, "design-sample3d.csv"), "--response", "y",
               "--covariates", "x1,x2"]
    arms = {"one": [], "two": ["--treatment", "a"]}
    mask = ["--mask", os.path.join(inputs, "disk.hsg")]
    out = {
        "fit-2d": ["fit", *d2],
        "fit-3d": ["fit", *d3],
        "pve-2d": ["pve", *d2],
        "diagnose-auto": ["diagnose", *d2[:2], "--knots", "1", "--auto-knots"],
        "diagnose-3d": ["diagnose", *d3],
        "diagnose-3d-noisy": ["diagnose", "--data",
                              os.path.join(inputs, "sample3d-noisy.hsg"), *d3[2:]],
        "fit-mask": ["fit", *d2, *mask],
        "diagnose-mask": ["diagnose", *d2, *mask],
        "regress-mask": ["regress", *d2, *table, *mask],
        "fit-tri": ["fit", *d2[:2], "--basis", "tri",
                    "--mesh", os.path.join(inputs, "mesh.tri")],
        "diagnose-tri": ["diagnose", *d2[:2], "--basis", "tri",
                         "--mesh", os.path.join(inputs, "mesh.tri")],
        # The disk drops two corner vertices of the mesh: a dense basis with
        # dropped rows.
        "fit-tri-mask": ["fit", *d2[:2], "--basis", "tri",
                         "--mesh", os.path.join(inputs, "mesh.tri"), *mask],
        "regress-tri": ["regress", *d2[:2], "--basis", "tri",
                        "--mesh", os.path.join(inputs, "mesh.tri"), *table],
        "simulate-config": ["simulate", "--config", os.path.join(inputs, "study.json")],
        "fit-chunked": ["fit", *chunked],
        "diagnose-chunked": ["diagnose", *chunked],
        "diagnose-auto-chunked": ["diagnose", *chunked[:4], "--knots", "1", "--auto-knots"],
        "fit-far-first-row": ["fit", "--data", os.path.join(inputs, "sample2d-far.hsg"),
                              *d2[2:]],
        "regress-chunked": ["regress", *chunked, "--table",
                            os.path.join(inputs, "design3d.csv"), "--response", "y"],
        "fit-nonfinite": ["fit", "--data", os.path.join(inputs, "chunked3d-nan.hsg"),
                          *chunked[2:]],
        "diagnose-nonfinite": ["diagnose", "--data",
                               os.path.join(inputs, "chunked3d-nan.hsg"), *chunked[2:]],
        "fit-cut": ["fit", "--data", os.path.join(inputs, "chunked3d-cut.hsg"),
                    *chunked[2:]],
        "fit-1d": ["fit", *d1],
        "regress-1d": ["regress", *d1, "--table", os.path.join(inputs, "design1d.csv"),
                       "--response", "y"],
        "jackknife-3d": ["jackknife", *d3, *table3d],
        "bootstrap-3d-coefficients": ["bootstrap", *d3, *table3d, "--treatment", "a",
                                      "--reps", "40", "--seed", "5"],
        "bootstrap-3d-eigenvalues": ["bootstrap", *d3, "--target", "eigenvalues",
                                     "--kind", "nonparametric", "--reps", "40",
                                     "--seed", "5"],
        "regress-unknown-response": ["regress", *d2, *table[:2], "--response", "nope"],
        "bootstrap-missing-table": ["bootstrap", *d2, "--table",
                                    os.path.join(inputs, "missing.csv"), "--response", "y"],
        "jackknife-few-blocks": ["jackknife", *d2, *table, "--m", "2", "--blocks", "3"],
        # Replicate counts that are not a multiple of the resampling batch,
        # on a pool that actually runs two workers.
        "bootstrap-wild-threads": ["bootstrap", *d2, *table, "--treatment", "a",
                                   "--kind", "wild", "--reps", "21", "--seed", "5",
                                   "--threads", "2"],
        "jackknife-threads": ["jackknife", *d2, *table, "--treatment", "a", "--m", "2",
                              "--blocks", "13", "--threads", "2"],
    }
    # Interval settings away from their defaults.
    out["regress-one-level"] = ["regress", *d2, *table, "--level", "0.9"]
    out["bootstrap-eigenvalues-level"] = [
        "bootstrap", *d2, "--target", "eigenvalues", "--reps", "40", "--seed", "5",
        "--level", "0.8",
    ]
    for arm, flags in arms.items():
        out[f"regress-{arm}"] = ["regress", *d2, *table, *flags]
        out[f"jackknife-{arm}"] = ["jackknife", *d2, *table, *flags]
    for kind in ("wild", "nonparametric"):
        out[f"bootstrap-{kind}-coefficients"] = [
            "bootstrap", *d2, *table, "--treatment", "a", "--kind", kind,
            "--reps", "40", "--seed", "5",
        ]
        out[f"bootstrap-{kind}-eigenvalues"] = [
            "bootstrap", *d2, "--target", "eigenvalues", "--kind", kind,
            "--reps", "40", "--seed", "5",
        ]
    for family in ("synthetic2d", "quadratic_gauss3d"):
        for inference in ("plugin", "bootstrap", "jackknife"):
            out[f"simulate-{family}-{inference}"] = [
                "simulate", "--family", family, "--n", "150", "--reps", "3",
                "--inference", inference, "--boot-reps", "30", "--seed", "3",
            ]
        # More blocks than the default coefficients + 2 of either family.
        out[f"simulate-{family}-jackknife-blocks"] = [
            "simulate", "--family", family, "--n", "150", "--reps", "3",
            "--inference", "jackknife", "--blocks", "20", "--level", "0.8",
            "--seed", "3",
        ]
        # 19 replicates on a two-worker pool: Monte Carlo batches of 8, 8
        # and 3.
        for inference in ("none", "plugin"):
            out[f"simulate-{family}-{inference}-threads"] = [
                "simulate", "--family", family, "--n", "150", "--reps", "19",
                "--inference", inference, "--seed", "3", "--threads", "2",
            ]
    out["simulate-bootstrap-nonparametric"] = [
        "simulate", "--family", "synthetic2d", "--n", "150", "--reps", "3",
        "--inference", "bootstrap", "--kind", "nonparametric", "--level", "0.9",
        "--boot-reps", "30", "--seed", "3",
    ]
    # --tau 0.5 selects m = 2 for some replicates and m = 3 for others,
    # within every batch.
    out["simulate-mixed-m"] = [
        "simulate", "--family", "synthetic2d", "--n", "150", "--reps", "19",
        "--inference", "plugin", "--tau", "0.5", "--seed", "3", "--threads", "2",
    ]
    # Knot counts spelled per axis and as one count for every axis.
    for family, basis in (("quadratic_gauss3d", ["--degree", "1", "--knots", "3,2,2"]),
                          ("synthetic2d", ["--knots", "5"])):
        out[f"simulate-{family}-knots"] = [
            "simulate", "--family", family, *basis, "--n", "150", "--reps", "3",
            "--inference", "plugin", "--seed", "3",
        ]
    for table_id in range(1, 6):
        out[f"reproduce-{table_id}"] = [
            "reproduce", "--table", str(table_id), "--reps", "2", "--boot-reps", "20",
        ]
    out["reproduce-6"] = ["reproduce", "--table", "6", "--reps", "2"]
    return out


def run(src, out) -> int:
    write_inputs(os.path.join(out, "inputs"))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    env.pop("GRIDPCR_THREADS", None)
    # Paths are relative to ``out``, so the manifests' config echoes match.
    for name, argv in cases("inputs").items():
        case_dir = os.path.join(out, name)
        os.makedirs(case_dir, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "gridpcr.cli", *argv, "--out", name],
            cwd=out, env=env, capture_output=True, text=True,
        )
        for fname, text in (("stdout.txt", proc.stdout), ("stderr.txt", proc.stderr),
                            ("exit.txt", f"{proc.returncode}\n")):
            with open(os.path.join(case_dir, fname), "w", encoding="utf-8") as handle:
                handle.write(text)
        print(f"{name}: exit {proc.returncode}")
    return 0


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _max_rel(a, b) -> float:
    """Largest |a - b| relative to the largest |a|; inf on a NaN mismatch."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return math.inf
    keep = ~np.isnan(a)
    if not keep.any():
        return 0.0
    diff = np.abs(a[keep] - b[keep]).max()
    scale = np.abs(a[keep]).max()
    return float(diff / scale) if scale > 0 else (0.0 if diff == 0 else math.inf)


def _compare_text(a: str, b: str) -> float:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return math.inf
    worst = 0.0
    for la, lb in zip(lines_a, lines_b):
        if _NUMBER.sub("#", la) != _NUMBER.sub("#", lb):
            return math.inf
        na, nb = _NUMBER.findall(la), _NUMBER.findall(lb)
        for x, y in zip(na, nb):
            worst = max(worst, _max_rel([float(x)], [float(y)]))
    return worst


def _compare_csv(path_a, path_b) -> float:
    with open(path_a, newline="", encoding="utf-8") as ha, open(
        path_b, newline="", encoding="utf-8"
    ) as hb:
        rows_a, rows_b = list(csv.reader(ha)), list(csv.reader(hb))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return math.inf
    if any(len(ra) != len(rb) for ra, rb in zip(rows_a, rows_b)):
        return math.inf
    worst = 0.0
    for col in zip(*[zip(ra, rb) for ra, rb in zip(rows_a[1:], rows_b[1:])]):
        try:
            va = [float(x) for x, _ in col]
            vb = [float(y) for _, y in col]
        except ValueError:
            if any(x != y for x, y in col):
                return math.inf
            continue
        worst = max(worst, _max_rel(va, vb))
    return worst


def _compare_hsg(path_a, path_b) -> float:
    a, b = _read_hsg(path_a), _read_hsg(path_b)
    if a.shape != b.shape:
        return math.inf
    if a.ndim < 2:
        return _max_rel(a, b)
    return max(_max_rel(ra, rb) for ra, rb in zip(a, b))


def _compare_manifest(path_a, path_b) -> float:
    with open(path_a, encoding="utf-8") as ha, open(path_b, encoding="utf-8") as hb:
        ma, mb = json.load(ha), json.load(hb)
    for m in (ma, mb):
        m.pop("timing_seconds", None)
        m.pop("outputs", None)  # digests; the files themselves are compared
    return 0.0 if ma == mb else math.inf


def _compare_file(name, path_a, path_b) -> float:
    if name == "manifest.json":
        return _compare_manifest(path_a, path_b)
    if name.endswith(".csv"):
        return _compare_csv(path_a, path_b)
    if name.endswith(".hsg"):
        return _compare_hsg(path_a, path_b)
    with open(path_a, encoding="utf-8") as ha, open(path_b, encoding="utf-8") as hb:
        return _compare_text(ha.read(), hb.read())


def compare(root_a, root_b) -> int:
    names = sorted(set(os.listdir(root_a)) | set(os.listdir(root_b)))
    failed = False
    for case in names:
        if case == "inputs":
            continue
        dir_a, dir_b = os.path.join(root_a, case), os.path.join(root_b, case)
        if not (os.path.isdir(dir_a) and os.path.isdir(dir_b)):
            print(f"{case}: present on one side only")
            failed = True
            continue
        for name in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
            path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
            if not (os.path.isfile(path_a) and os.path.isfile(path_b)):
                verdict, dev = "present on one side only", math.inf
            else:
                with open(path_a, "rb") as ha, open(path_b, "rb") as hb:
                    same = ha.read() == hb.read()
                dev = 0.0 if same else _compare_file(name, path_a, path_b)
                if same:
                    verdict = "identical"
                elif name == "manifest.json" and dev == 0.0:
                    verdict = "identical apart from timing and output digests"
                elif dev == 0.0:
                    verdict = "equal values, different bytes (e.g. the sign of a zero)"
                else:
                    verdict = f"max relative deviation {dev:.3e}"
            failed |= dev > TOLERANCE
            print(f"{case}/{name}: {verdict}")
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="write the inputs and run every case")
    p.add_argument("--src", required=True, help="directory that holds the gridpcr package")
    p.add_argument("--out", required=True, help="output directory")
    p = sub.add_parser("compare", help="compare two output trees")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.action == "run":
        return run(args.src, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
