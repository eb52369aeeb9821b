"""Correctness gate: compare a run's output files with recorded references.

References are the CSV outputs of every input set, recorded from the
program at the commit that defined the benchmark (``record_reference.py``).
A refactor may change the order of floating-point arithmetic, so numeric
cells may differ by a relative 1e-12 of their column's scale; every other
cell must match exactly. The BLAS thread count and CPU kernel alone move
volume-3d's plugin standard errors by up to 1.3e-12 of the value itself but
well under 1e-12 of the column's scale.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

RTOL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, set_id: int):
    """The recorded {"inputs", "outputs"} of one input set, or None."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(str(set_id))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(expected: str, actual: str, rtol: float = RTOL) -> list:
    """Mismatches between two CSV texts, as readable strings (empty if equal).

    A numeric cell may differ from the reference by ``rtol`` times the
    largest finite magnitude in its reference column (a normwise relative
    difference per column); NaN must stay NaN and any other cell must match
    exactly.
    """
    want = list(csv.reader(io.StringIO(expected)))
    got = list(csv.reader(io.StringIO(actual)))
    if [len(row) for row in want] != [len(row) for row in got]:
        return [f"table shape {[len(r) for r in got]}, expected {[len(r) for r in want]}"]
    scale = {}
    for row in want:
        for j, text in enumerate(row):
            x = _number(text)
            if x is not None and math.isfinite(x):
                scale[j] = max(scale.get(j, 0.0), abs(x))
    problems = []
    for i, (row_want, row_got) in enumerate(zip(want, got)):
        for j, (a, b) in enumerate(zip(row_want, row_got)):
            x, y = _number(a), _number(b)
            if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
                same = abs(x - y) <= rtol * scale[j]
            elif x is not None and y is not None and math.isnan(x):
                same = math.isnan(y)
            else:
                same = a == b
            if not same:
                problems.append(f"line {i + 1} cell {j + 1}: {b!r}, expected {a!r}")
    return problems


def check_outputs(reference: dict, outputs: dict) -> list:
    """Mismatches of one iteration's {command/file: text} against a reference."""
    problems = []
    for name, text in sorted(reference["outputs"].items()):
        if name not in outputs:
            problems.append(f"{name}: missing")
        else:
            problems.extend(f"{name}: {p}" for p in compare_csv(text, outputs[name]))
    return problems
