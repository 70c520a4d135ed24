"""Benchmark runner for the ropeslr lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root.  Every pass of the workload runs in a fresh
worker process (worker.py), one at a time, with `src` on PYTHONPATH,
ROPESLR_THREADS removed from the environment and BLAS left at its default
thread count.  It repeats passes for up to S seconds, and around
them launches workers that only import ropeslr, to time set-up.  Every
experiment's output is checked against expected.jsonl, and every pass must
print the same bytes as the first.  With --trace 1 one more pass runs with
the layer functions wrapped, its outputs must equal the untraced ones, and
the per-layer metrics are reported instead of the end-to-end ones.

Standard output ends with two JSON lines: the environment and the raw
samples, then the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up takes 0.13-0.3 s: on a shared host, phases of a few seconds in which
# other load slows every launch come and go.  So set-up is sampled many times,
# spread over the run (a burst of launches before each pass, then more after
# the last pass until there are SETUP_SAMPLES), and reported as the lower
# decile: load only adds time, and the decile is the set-up time outside the
# slow phases without resting on one launch.  The first launch also compiles
# bytecode and is not counted.
SETUP_SAMPLES = 40
SETUP_PER_PASS = 6
SETUP_TIMEOUT_S = 30
PASS_TIMEOUT_S = 150


def clock() -> float:
    """System-wide monotonic time, the clock the worker stamps T_READY with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(mode: str, workload: str, seed: int, timeout: float):
    """Run one worker; returns (report, None) or (None, reason)."""
    env = {k: v for k, v in os.environ.items() if k != "ROPESLR_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed)]
    t_launch = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} worker timed out after {timeout} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    report = json.loads(lines[-1])
    report["setup_s"] = report["t_ready"] - t_launch
    return report, None


def commit() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ropeslr" / "__init__.py").is_file():
        print(f"no ropeslr sources under {SRC}", file=sys.stderr)
        return 2

    launch_s = []  # how long each set-up launch took, exit included

    def setup_launch() -> dict:
        began = clock()
        report, error = launch("setup", args.workload, args.seed, SETUP_TIMEOUT_S)
        if report is None:
            sys.exit(error)
        launch_s.append(clock() - began)
        return report

    env = setup_launch()["env"]
    setup = []

    n_exp = len(workloads.experiments(args.workload, args.seed))
    attempted = failed = 0
    problems = []
    first = None

    def tally(report, error):
        """Count one pass's experiments and their failures."""
        nonlocal attempted, failed, first
        attempted += n_exp
        if report is None:
            failed += n_exp
            problems.append(error)
            return
        outputs = [r["stdout"] for r in report["results"]]
        first = first or outputs
        for i, r in enumerate(report["results"]):
            bad = r["problems"] + (["output differs from the first pass"]
                                   if outputs[i] != first[i] else [])
            if bad:
                failed += 1
                problems.append(f"experiment {i}: {'; '.join(bad)}")

    def next_pass_fits() -> bool:
        """Whether one more pass, as long as the median one so far, and the
        set-up launches still owed after it would end within --seconds."""
        owed = max(0, SETUP_SAMPLES - len(setup) - SETUP_PER_PASS)
        rest = statistics.median(durations) + owed * statistics.median(launch_s)
        return clock() - start + rest <= args.seconds

    # The first pass always runs.
    passes, durations = [], []
    start = clock()
    while not passes or next_pass_fits():
        began = clock()
        setup += [setup_launch()["setup_s"] for _ in range(SETUP_PER_PASS)]
        report, error = launch("run", args.workload, args.seed, PASS_TIMEOUT_S)
        tally(report, error)
        if report is None:
            break
        passes.append(report)
        durations.append(clock() - began)
    if not passes:
        print("\n".join(problems), file=sys.stderr)
        return 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_launch()["setup_s"])

    wall = statistics.median(p["wall_s"] for p in passes)
    traced = None
    if args.trace:
        traced, error = launch("trace", args.workload, args.seed, PASS_TIMEOUT_S)
        tally(traced, error)
        if traced is None:
            print("\n".join(problems), file=sys.stderr)
            return 1
        values = dict(traced["per_layer"], **{"trace.overhead_frac": traced["wall_s"] / wall - 1})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.quantiles(setup, n=10)[0], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in passes),
                            "unit": "MB"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }

    info = {
        "env": dict(env, commit=commit()),
        "workload": args.workload, "seed": args.seed, "input_set": workloads.input_set(args.seed),
        "samples": {"wall_s": [p["wall_s"] for p in passes],
                    "rss_mb": [p["rss_mb"] for p in passes], "setup_s": setup},
        "traced_wall_s": traced and traced["wall_s"],
        "absent_layers": traced and traced["absent"],
        "problems": problems,
    }
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
