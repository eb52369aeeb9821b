"""gridpcr benchmark: end-to-end and per-module metrics on three CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload volume-3d --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): volume-3d, bootstrap-2d, montecarlo-3d. The
seed picks the input set (seed mod 16) that the benchmark's own generator
writes (inputs.py, cached under .perfbench-work/ with sha256 digests); for
montecarlo-3d and bootstrap-2d the input set is also the --seed of the
study and of the bootstrap weights. The program itself runs from
``src`` in fresh workload processes (worker.py), closed loop, one command
after another, for ``--seconds`` in all.

Every iteration's outputs are compared with the references recorded for the
input set (gate.py); a mismatch or a nonzero exit fails the command. An
operation is one command or one replicate; ``failed`` also counts the
failures the bootstrap and simulate commands report.

With --trace 0 the last stdout line carries the end-to-end metrics:
wall_s (median wall time of one pass of the workload's commands), ops_per_s
(operations completed per second of those commands), peak_rss_mb
(ru_maxrss of a workload process, median over processes) and setup_s (median time from process
start to ready: interpreter, ``import gridpcr`` and the first LAPACK call,
over set-up-only processes and the workload processes). With
--trace 1 it carries the per-module metrics of spans.py and the tracing
overhead. The lines above it give the same metrics with sample counts and
quartiles, error_rate, replicates_per_s, the environment and the input
digests.

Exit status is 0 when a result is printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import gate
import inputs
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
SETUP_PROBES = 6
TIME_LIMIT_S = 175.0
# Kept out of the workload process so the program's own defaults are measured.
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GRIDPCR_THREADS")

_FAILURES = re.compile(r"failures=(\d+)")
_JACKKNIFE_BLOCKS = re.compile(r"jackknife: r=(\d+)")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    paths = [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def prepare_inputs(workload: str, seed: int) -> tuple:
    """(input directory or None, {file: sha256}) for the seed's input set."""
    if not workloads.needs_inputs(workload):
        return None, {}
    return inputs.cached_inputs(
        workloads.WORKLOADS[workload], seed, os.path.join(WORK_DIR, "inputs"))


def worker_args(workload: str, inputs_dir, seed: int, seconds: float, trace: int) -> list:
    """worker.py arguments; the workload's own seeds are the input set's number."""
    return ["--workload", workload, "--inputs", str(inputs_dir),
            "--work", os.path.join(WORK_DIR, "out", workload),
            "--seed", str(seed % inputs.INPUT_SETS), "--seconds", str(seconds),
            "--trace", str(trace)]


def spawn(args, deadline: float) -> tuple:
    """Run worker.py with ``args``; return (its JSON result, set-up seconds)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the time limit and was killed") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def score_command(command: dict, reference) -> tuple:
    """(attempted, failed, replicates completed, problems) of one command run."""
    name = command["name"]
    if command["rc"] != 0:
        return 1, 1, 0, [f"{name}: exit status {command['rc']}"]
    replicates = command["replicates"]
    if replicates is None:
        replicates = int(_JACKKNIFE_BLOCKS.search(command["stdout"]).group(1))
    found = _FAILURES.search(command["stdout"])
    rep_failed = int(found.group(1)) if found else 0
    if reference is None:
        problems = [f"{name}: no reference outputs recorded for this input set"]
    else:
        expected = {k: v for k, v in reference["outputs"].items() if k.startswith(name + "/")}
        problems = gate.check_outputs({"outputs": expected}, command["outputs"])
    failed = rep_failed + (1 if problems else 0)
    return 1 + replicates, failed, replicates - rep_failed, problems


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(workload: str, seed: int, trace: int, result: dict, setup: list,
              digests: dict, reference) -> tuple:
    """(human-readable lines, final JSON object) for one run."""
    attempted = failed = 0
    problems = []
    if reference is not None and reference["inputs"] != digests:
        problems.append("inputs differ from those the reference outputs were recorded from")
    walls, ops_rates, rep_rates = [], [], []
    for it in result["iterations"]:
        done, reps, rep_wall = 0, 0, 0.0
        for command in it["commands"]:
            a, f, r, p = score_command(command, reference)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            done += a - f
            if command["replicates"] != 0:
                reps += r
                rep_wall += command["wall_s"]
        if not it["traced"]:
            walls.append(it["wall_s"])
            ops_rates.append(done / it["wall_s"])
            if rep_wall:
                rep_rates.append(reps / rep_wall)
    e2e = {
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(ops_rates), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    lines = [
        f"workload {workload}, seed {seed} (input set {seed % inputs.INPUT_SETS}), "
        f"{len(result['iterations'])} iterations in {len(setup) - SETUP_PROBES} processes",
        "environment " + json.dumps(result["environment"], sort_keys=True),
        "inputs " + json.dumps(digests, sort_keys=True),
        f"wall_s {e2e['wall_s'][0]:.6f} s (median of {len(walls)}; quartiles "
        "{:.6f} {:.6f})".format(*quartiles(walls)),
        f"ops_per_s {e2e['ops_per_s'][0]:.6f} 1/s (median of {len(ops_rates)})",
    ]
    if rep_rates:
        lines.append(f"replicates_per_s {statistics.median(rep_rates):.6f} 1/s "
                     f"(median of {len(rep_rates)})")
    lines += [
        f"peak_rss_mb {e2e['peak_rss_mb'][0]:.1f} MiB",
        f"setup_s {e2e['setup_s'][0]:.6f} s (median of {len(setup)}; quartiles "
        "{:.6f} {:.6f})".format(*quartiles(setup)),
        f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)",
    ]
    lines += [f"correctness: {p}" for p in problems[:20]]
    metrics = e2e
    if trace:
        traced = [it for it in result["iterations"] if it["traced"]]
        overhead = statistics.median(it["wall_s"] for it in traced) / e2e["wall_s"][0]
        metrics = spans.layer_metrics([it["summary"] for it in traced], overhead)
        lines += [f"{k} {v!r} {u}" for k, (v, u) in metrics.items()]
    final = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, final


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.exists(os.path.join(ROOT, "src", "gridpcr", "__init__.py")):
        raise BenchError(f"no gridpcr sources under {os.path.join(ROOT, 'src')}")
    inputs_dir, digests = prepare_inputs(workload, seed)
    setup = [spawn(["--setup-only"], deadline)[1] for _ in range(SETUP_PROBES)]
    processes = []
    count = workloads.PROCESSES[workload]
    for _ in range(count):
        result, own_setup = spawn(
            worker_args(workload, inputs_dir, seed, seconds / count, trace), deadline)
        processes.append(result)
        setup.append(own_setup)
    merged = {
        "iterations": [it for p in processes for it in p["iterations"]],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in processes),
        "environment": processes[0]["environment"],
    }
    reference = gate.load_reference(workload, seed % inputs.INPUT_SETS)
    return summarize(workload, seed, trace, merged, setup, digests, reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, final = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
