"""Record the correctness gate's reference outputs for every input set.

    python3 perfbench/record_reference.py [workload ...]

Runs one iteration of each workload on each of the input sets and writes the
output files' text, with the inputs' sha256 digests, to
perfbench/reference/<workload>.json. Run it only on the commit whose outputs
are to become the reference; later commits are checked against them.
"""

from __future__ import annotations

import json
import os
import sys
import time

import gate
import inputs
import run
import workloads


def record(workload: str) -> dict:
    sets = {}
    for set_id in range(inputs.INPUT_SETS):
        inputs_dir, digests = run.prepare_inputs(workload, set_id)
        result, _ = run.spawn(run.worker_args(workload, inputs_dir, set_id, 0, 0),
                              time.monotonic() + run.TIME_LIMIT_S)
        commands = result["iterations"][0]["commands"]
        failed = [c["name"] for c in commands if c["rc"] != 0]
        if failed:
            raise run.BenchError(f"{workload} set {set_id}: {failed} failed")
        outputs = {k: v for c in commands for k, v in c["outputs"].items()}
        sets[str(set_id)] = {"inputs": digests, "outputs": outputs}
        print(f"{workload} set {set_id}: {sorted(outputs)}", flush=True)
    return sets


def main(argv) -> int:
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    for workload in argv or sorted(workloads.WORKLOADS):
        sets = record(workload)
        with open(gate.reference_path(workload), "w", encoding="utf-8") as handle:
            json.dump(sets, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
