"""The benchmark's workloads: inputs, CLI commands and their output files.

One iteration of a workload runs its commands one after another, closed
loop, in a single process through ``gridpcr.cli.main``. An operation is one
command or one replicate that a command runs.

- volume-3d: the paper's 3D grid (79x95x66) at n=100, read from disk;
  grid- and memory-bound (basis build, Gram, projection, diagnostic).
- bootstrap-2d: the desk 2D grid at n=500 with a two-arm design; bound by
  the per-replicate eigensolve and regression of the wild bootstrap and the
  block jackknife, with grid work a few percent.
- montecarlo-3d: a Monte Carlo study on the desk 3D grid; data generated in
  process, the basis, Gram and whitener rebuilt for every replicate.
"""

from __future__ import annotations

import os

BOOTSTRAP_REPS = 100
MONTE_CARLO_REPS = 10
MAX_THREADS = 2
# A run is split over this many workload processes, one after another, so
# that what differs between processes (memory layout, thread placement)
# averages out of the medians. volume-3d's iterations are long, so its
# processes run one iteration each.
PROCESSES = {"volume-3d": 3, "bootstrap-2d": 6, "montecarlo-3d": 6}

WORKLOADS = {
    "volume-3d": {
        "name": "volume-3d",
        "dims": (79, 95, 66),
        "n": 100,
        "components": [(4.0, (1, 0, 0)), (2.0, (0, 1, 0)), (1.5, (0, 0, 1)), (1.0, (1, 1, 0))],
        "mean_degrees": (2, 0, 2),
        "noise_sd": 0.1,
        "covariates": 4,
        "treatment": False,
    },
    "bootstrap-2d": {
        "name": "bootstrap-2d",
        "dims": (20, 24),
        "n": 500,
        "components": [(4.0, (1, 0)), (2.0, (0, 1)), (1.5, (1, 1)), (1.0, (2, 0))],
        "mean_degrees": (2, 1),
        "noise_sd": 0.1,
        "covariates": 4,
        "treatment": True,
    },
    "montecarlo-3d": {"name": "montecarlo-3d"},
}


def needs_inputs(name: str) -> bool:
    return "dims" in WORKLOADS[name]


def commands(name: str, inputs_dir: str, out_dir: str, seed: int, threads: int) -> list:
    """(command name, argv, replicates it runs, output files) for one iteration."""
    threads = str(min(threads, MAX_THREADS))
    if name == "montecarlo-3d":
        out = os.path.join(out_dir, "simulate")
        argv = [
            "simulate", "--family", "quadratic_gauss3d", "--n", "500",
            "--reps", str(MONTE_CARLO_REPS), "--inference", "plugin",
            "--seed", str(seed), "--threads", threads, "--out", out,
        ]
        return [("simulate", argv, MONTE_CARLO_REPS, ["metrics.csv", "mhat.csv"])]
    data = ["--data", os.path.join(inputs_dir, "sample.hsg")]
    table = ["--table", os.path.join(inputs_dir, "design.csv"), "--response", "y"]
    if name == "volume-3d":
        basis = ["--degree", "2", "--knots", "2"]
        return [
            ("diagnose", ["diagnose", *data, *basis, "--out", os.path.join(out_dir, "diagnose")],
             0, ["diagnostic.csv"]),
            ("regress", ["regress", *data, *table, *basis, "--out", os.path.join(out_dir, "regress")],
             0, ["coefficients.csv"]),
        ]
    design = [*data, *table, "--treatment", "a", "--degree", "3", "--knots", "7"]
    return [
        ("bootstrap", ["bootstrap", *design, "--reps", str(BOOTSTRAP_REPS), "--kind", "wild",
                       "--seed", str(seed), "--threads", threads,
                       "--out", os.path.join(out_dir, "bootstrap")],
         BOOTSTRAP_REPS, ["coefficients.csv"]),
        ("jackknife", ["jackknife", *design, "--out", os.path.join(out_dir, "jackknife")],
         None, ["coefficients.csv"]),
    ]
