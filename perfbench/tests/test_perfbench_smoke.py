"""Tiny runs of each workload's commands, traced, plus the runner's exit paths."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import spans
import worker
import workloads

TINY_DIMS = {"volume-3d": (9, 10, 8), "bootstrap-2d": (12, 14)}

# Per-module call counts each tiny workload must produce.
EXERCISED = {
    "volume-3d": ["storage.read_grid", "bases.bspline_tensor_basis", "space.gram",
                  "decomp.diagnose_projection", "decomp.fit_subspace_pca",
                  "regression.plugin_cov", "decomp.centered_scores"],
    "bootstrap-2d": ["resampling.replicates.attempted", "decomp._eig_from_scores",
                     "regression.fit_precision"],
    "montecarlo-3d": ["simulate.run_replicate", "simulate.generate_dataset",
                      "simulate.make_family", "regression.plugin_cov"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_traced_and_repeats_its_outputs(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BOOTSTRAP_REPS", 20)
    monkeypatch.setattr(workloads, "MONTE_CARLO_REPS", 3)
    inputs_dir = None
    if workloads.needs_inputs(name):
        spec = dict(workloads.WORKLOADS[name], dims=TINY_DIMS[name], n=60)
        inputs_dir = str(tmp_path / "inputs")
        inputs.generate(spec, 1, inputs_dir)
    work = str(tmp_path / "work")
    commands = workloads.commands(name, inputs_dir, work, 1, 2)
    plain = worker.run_iteration(commands, work, None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = worker.run_iteration(commands, work, tracer)
    finally:
        tracer.uninstall()
    reference = {"inputs": {}, "outputs": {k: v for c in plain["commands"]
                                           for k, v in c["outputs"].items()}}
    assert reference["outputs"]
    for command in traced["commands"]:
        attempted, failed, _, problems = run.score_command(command, reference)
        assert (failed, problems) == (0, []) and attempted >= 1
    metrics = spans.layer_metrics([spans.iteration_summary(tracer.take())], 1.0)
    for prefix in EXERCISED[name]:
        key = prefix if prefix in metrics else f"{prefix}.calls"
        assert metrics[key][0] > 0, key


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo-3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_runner_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo-3d", "--seed", "17",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % (1 + workloads.MONTE_CARLO_REPS) == 0
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert "error_rate 0 ratio" in proc.stdout
