"""Record the outputs every benchmark experiment must reproduce.

    PYTHONPATH=src python3 perfbench/record_expected.py [WORKLOAD ...]

Runs every input set of each named workload (all of them by default) once
through the ropeslr CLI and replaces its lines in perfbench/expected.jsonl.
Record only at a commit whose outputs are known good: the benchmark counts
any later difference as a failed experiment.
"""

from __future__ import annotations

import json
import sys

import layers
import workloads
from tracer import Tracer
from worker import cli, ropeslr_modules, run_one


def main(names) -> int:
    import ropeslr.flops as flops

    # the reconstruct probe notes the cutoffs each reconstruct call used
    tracer = Tracer({"lowrank.reconstruct": layers.probes(flops)["lowrank.reconstruct"]})
    rows = workloads.load_expected()
    for name in names or sorted(workloads.WORKLOADS):
        recorded = []
        for k in range(workloads.INPUT_SETS):
            for i, argv in enumerate(workloads.experiments(name, k)):
                tracer.experiment = (name, k, i)
                with tracer.installed(ropeslr_modules()):
                    rc, stdout, error = run_one(cli, argv)
                if rc != 0:
                    print(f"{argv} exited {rc}\n{error or ''}", file=sys.stderr)
                    return 1
                recorded.append({"workload": name, "set": k, "argv": argv, "stdout": stdout,
                                 "cutoffs": layers.cutoffs_used(tracer).get((name, k, i))})
            print(f"{name}: input set {k} recorded", file=sys.stderr)
        rows = [r for r in rows if r["workload"] != name] + recorded
        workloads.EXPECTED.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
