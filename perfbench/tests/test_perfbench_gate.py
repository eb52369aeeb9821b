"""The correctness gate accepts rounding-level noise and rejects real changes."""

import json
import os

import gate
import run
import workloads

REFERENCE = "line,value,flag\na,1.5,True\nb,-0.25,False\nc,nan,True\n"


def test_identical_and_rounding_level_outputs_pass():
    assert gate.compare_csv(REFERENCE, REFERENCE) == []
    nudged = REFERENCE.replace("1.5", repr(1.5 * (1 + 1e-14)))
    assert gate.compare_csv(REFERENCE, nudged) == []


def test_perturbed_outputs_fail():
    assert gate.compare_csv(REFERENCE, REFERENCE.replace("1.5", repr(1.5 * (1 + 1e-9))))
    assert gate.compare_csv(REFERENCE, REFERENCE.replace("False", "True"))
    assert gate.compare_csv(REFERENCE, REFERENCE.replace("nan", "0.0"))
    assert gate.compare_csv(REFERENCE, REFERENCE + "d,1.0,True\n")


def test_recorded_references_cover_every_input_set():
    for name in workloads.WORKLOADS:
        with open(gate.reference_path(name), encoding="utf-8") as handle:
            sets = json.load(handle)
        assert sorted(map(int, sets)) == list(range(16))


def _command(outputs, stdout):
    return {"name": "bootstrap", "rc": 0, "replicates": 400, "stdout": stdout,
            "outputs": outputs}


def test_perturbed_output_counts_as_a_failed_operation():
    reference = gate.load_reference("bootstrap-2d", 0)
    outputs = {k: v for k, v in reference["outputs"].items() if k.startswith("bootstrap/")}
    stdout = "bootstrap: kind=wild, completed=400/400, failures=0\n"
    assert run.score_command(_command(outputs, stdout), reference) == (401, 0, 400, [])

    text = outputs["bootstrap/coefficients.csv"]
    cells = text.splitlines()[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    perturbed = text.replace(text.splitlines()[1], ",".join(cells))
    attempted, failed, _, problems = run.score_command(
        _command({"bootstrap/coefficients.csv": perturbed}, stdout), reference)
    assert (attempted, failed) == (401, 1) and len(problems) == 1


def test_reported_replicate_failures_are_counted():
    reference = gate.load_reference("bootstrap-2d", 0)
    outputs = {k: v for k, v in reference["outputs"].items() if k.startswith("bootstrap/")}
    stdout = "bootstrap: kind=wild, completed=397/400, failures=3\n"
    assert run.score_command(_command(outputs, stdout), reference)[:3] == (401, 3, 397)


def test_benchmark_json_names_match_the_metrics_printed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    summary = {"x": {"calls": 1, "self_s": 0.0, "wall_s": 0.0, "durations": [], "failed": 0,
                     "busy_s": 0.0, "cpu_s": 0.0}}
    layer = run.spans.layer_metrics([summary], 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layer.values()]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
