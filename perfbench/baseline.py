"""Measure the baseline of the current commit and write perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--workloads a,b]

Entries of workloads not named are kept from the existing file.

For each workload: one untraced run per seed, with the run length from
BENCHMARK.json, then one traced run on the first seed. Records the median,
quartiles and spread ((q3 - q1) / median) of every end-to-end metric over
the seeds with the sample count, the traced run's per-module table, the
exact counts, the tracing overhead and the environment. It exits nonzero if
a run is incorrect or a spread other than setup_s reaches a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
OUT = os.path.join(run.HERE, "baseline.json")

# Which end-to-end metric each module's metrics should move, and where.
MODULE_MAP = {
    "storage": {"metrics": ["storage.read_grid.*"],
                "moves": {"wall_s": ["volume-3d"], "peak_rss_mb": ["volume-3d"]}},
    "bases": {"metrics": ["bases.bspline_tensor_basis.*"],
              "moves": {"wall_s": ["volume-3d"], "peak_rss_mb": ["volume-3d"],
                        "ops_per_s": ["montecarlo-3d"]}},
    "space": {"metrics": ["space.gram.*", "space.whiten.*", "space.project_scores.*"],
              "moves": {"wall_s": ["volume-3d"], "ops_per_s": ["montecarlo-3d"]}},
    "decomp": {"metrics": ["decomp.fit_subspace_pca.*", "decomp.diagnose_projection.*",
                           "decomp.component_scores.*", "decomp.centered_scores.*",
                           "decomp._eig_from_scores.*"],
               "moves": {"wall_s": ["volume-3d", "bootstrap-2d"],
                         "ops_per_s": ["bootstrap-2d", "montecarlo-3d"]},
               "note": "fit and scores metrics move wall_s on volume-3d; "
                       "fit_subspace_pca.calls (one extra refit per resampling command) "
                       "moves wall_s on bootstrap-2d; _eig_from_scores moves ops_per_s "
                       "on bootstrap-2d and montecarlo-3d"},
    "regression": {"metrics": ["regression.plugin_cov.*", "regression.fit_pcr.*",
                               "regression.fit_precision.*"],
                   "moves": {"wall_s": ["volume-3d"],
                             "ops_per_s": ["montecarlo-3d", "bootstrap-2d"]},
                   "note": "plugin_cov moves wall_s on volume-3d and ops_per_s on "
                           "montecarlo-3d; fit_precision moves ops_per_s on bootstrap-2d"},
    "resampling": {"metrics": ["resampling.bootstrap_theta.self_s",
                               "resampling.block_jackknife.self_s", "resampling.replicates.*"],
                   "moves": {"ops_per_s": ["bootstrap-2d"], "error_rate": ["bootstrap-2d"]}},
    "simulate": {"metrics": ["simulate.generate_dataset.*", "simulate.make_family.*",
                             "simulate.run_replicate.*"],
                 "moves": {"ops_per_s": ["montecarlo-3d"], "error_rate": ["montecarlo-3d"]}},
    "util": {"metrics": ["util.run_indexed.*"],
             "moves": {"ops_per_s": ["bootstrap-2d", "montecarlo-3d"]}},
    "cli": {"metrics": ["cli.main.<command>.s", "cli.main.cpu_s"],
            "moves": {"wall_s": ["volume-3d", "bootstrap-2d", "montecarlo-3d"]}},
}


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("environment "))
    return json.loads(lines[-1]), env


def stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"workloads": {}}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as handle:
            doc = json.load(handle)
    doc.update(run_seconds=bench["run_seconds"], seeds=seeds, module_map=MODULE_MAP)
    ok = True
    for workload in names:
        results = []
        for seed in seeds:
            started = time.monotonic()
            result, doc["environment"] = bench_run(workload, seed, bench["run_seconds"], 0)
            ok &= result["correct"] and result["failed"] == 0
            results.append(result)
            print(workload, seed, f"{time.monotonic() - started:.1f}s", json.dumps(result),
                  flush=True)
        traced, _ = bench_run(workload, seeds[0], bench["run_seconds"], 1)
        ok &= traced["correct"]
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        e2e = {}
        for name in bounds:
            e2e[name] = stats([r["metrics"][name]["value"] for r in results])
            steady = e2e[name]["spread"] < bounds[name] / 3
            print(f"{workload} {name} median {e2e[name]['median']:.6g} "
                  f"spread {e2e[name]['spread']:.4f} bound {bounds[name]}"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
            ok &= steady or name == "setup_s"
        why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
        doc["workloads"][workload] = {
            "why": why,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": e2e,
            "per_layer": layer,
            "counts": {k: v for k, v in layer.items()
                       if k.endswith((".calls", ".bytes", ".flops", ".failed"))
                       or k.startswith("resampling.replicates.")},
            "trace_overhead_ratio": layer["trace.overhead_ratio"],
        }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
