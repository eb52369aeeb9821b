"""One workload process: set up, run the workload's commands closed loop, report.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH and
without BLAS or gridpcr thread variables, so the program's own defaults are
measured. Set-up ends after ``import gridpcr`` and the first LAPACK call;
the moment is reported as a CLOCK_MONOTONIC reading, which the parent
compares with the moment it started this process.

With ``--setup-only`` the process exits after set-up. Otherwise it runs
iterations while a typical one still fits in ``--seconds`` (at least one,
or two with tracing). With ``--trace 1`` every second iteration runs with
the spans of ``spans.py`` installed, so the untraced iterations in between
give the tracing overhead. The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time


def _ready() -> float:
    import numpy as np

    import gridpcr  # noqa: F401

    np.linalg.eigh(np.eye(16) + np.ones((16, 16)))
    return time.monotonic()


def environment() -> dict:
    """Machine, interpreter and BLAS facts, read without changing anything."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
    }
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        try:
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except AttributeError:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        env["blas"] = f"{os.path.basename(path)}: {get_config().decode()}"
        env["blas_threads"] = get_threads()
    return env


def run_iteration(commands, work_dir, tracer) -> dict:
    """Run one pass of the workload's commands; keep their output files' text."""
    from gridpcr import cli

    shutil.rmtree(work_dir, ignore_errors=True)
    results = []
    for name, argv, replicates, files in commands:
        out_dir = argv[argv.index("--out") + 1]
        buffer = io.StringIO()
        span = tracer.open(f"cli.main.{name}") if tracer else None
        cpu0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if span is not None:
            span.cpu = cpu
            tracer.close(span, failed=rc != 0)
        outputs = {}
        for f in files:
            path = os.path.join(out_dir, f)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    outputs[f"{name}/{f}"] = handle.read()
        results.append({"name": name, "rc": rc, "wall_s": wall, "cpu_s": cpu,
                        "replicates": replicates, "stdout": buffer.getvalue(),
                        "outputs": outputs})
    return {"commands": results, "wall_s": sum(c["wall_s"] for c in results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--work")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    ready = _ready()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import spans
    import workloads

    threads = len(os.sched_getaffinity(0))
    commands = workloads.commands(args.workload, args.inputs, args.work, args.seed, threads)
    tracer = spans.Tracer() if args.trace else None
    minimum = 2 if args.trace else 1
    iterations = []
    start = time.perf_counter()
    # Start another iteration only while a typical one still fits in --seconds.
    while len(iterations) < minimum or (
        time.perf_counter() - start + statistics.median(it["wall_s"] for it in iterations)
        <= args.seconds
    ):
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            tracer.install()
        try:
            iteration = run_iteration(commands, args.work, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        iteration["traced"] = traced
        if traced:
            iteration["summary"] = spans.iteration_summary(tracer.take())
        iterations.append(iteration)
    shutil.rmtree(args.work, ignore_errors=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "peak_rss_mb": peak_kib / 1024.0,
                      "environment": environment(), "iterations": iterations}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
