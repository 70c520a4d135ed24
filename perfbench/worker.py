"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py {setup,run,trace} --workload NAME --seed N

`run.py` starts this with `src` on PYTHONPATH.  It imports ropeslr and notes
the monotonic clock, so the parent can time set-up from launch.  `setup`
stops there and reports the environment.  `run` drives each experiment of the
workload through `ropeslr.cli.main`, times the pass, notes peak RSS, then
checks every output against expected.jsonl.  `trace` does the same with the
layer functions wrapped by the tracer and adds the per-layer metrics.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

# ropeslr is imported before anything of the benchmark's own, so that set-up,
# from launch to T_READY, covers the interpreter and the program alone.
import ropeslr
import ropeslr.cli as cli

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def clock() -> float:
    """System-wide monotonic time, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def ropeslr_modules() -> dict:
    """The loaded ropeslr submodules by short name, e.g. 'lowrank'."""
    return {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("ropeslr.") and mod is not None}


def run_one(cli, argv):
    """Drive one experiment through the CLI; returns (exit code, stdout, error).
    An exception escaping the CLI is a failed experiment, not a failed pass."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except Exception:
        return None, buf.getvalue(), traceback.format_exc(limit=-3)
    return rc, buf.getvalue(), None


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "ropeslr_threads_unset": "ROPESLR_THREADS" not in os.environ,
    }


def timed_pass(cli, experiments, tracer=None):
    """Run every experiment once; returns (wall seconds, [(rc, stdout, error)])."""
    results = []
    start = clock()
    for i, argv in enumerate(experiments):
        if tracer is not None:
            tracer.experiment = i
        results.append(run_one(cli, argv))
    return clock() - start, results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    if src not in Path(ropeslr.__file__).resolve().parents:
        print(f"imported ropeslr from {ropeslr.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"t_ready": T_READY, "env": environment()}))
        return 0

    experiments = workloads.experiments(args.workload, args.seed)
    report = {"t_ready": T_READY}
    if args.mode == "trace":
        import ropeslr.flops as flops

        tracer = Tracer(layers.probes(flops))
        with tracer.installed(ropeslr_modules()):
            wall, results = timed_pass(cli, experiments, tracer)
        report["per_layer"] = layers.per_layer(tracer)
        report["absent"] = sorted(set(layers.TIMED) - tracer.present)
        cutoffs = layers.cutoffs_used(tracer)
    else:
        wall, results = timed_pass(cli, experiments)
        cutoffs = {}
    # ru_maxrss is a high-water mark in KiB; read it before the checks run
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["wall_s"] = wall
    report["results"] = []
    want = workloads.expected_for(args.workload, args.seed)
    if len(want) != len(experiments):
        raise ValueError("expected.jsonl does not match the workload; re-record it")
    for i, (argv, (rc, stdout, error), rec) in enumerate(zip(experiments, results, want)):
        problems = [error] if error else []
        if rc == 0:
            problems += workloads.check(argv, stdout, rec, cutoffs.get(i))
        elif not error:
            problems.append(f"exit code {rc}")
        report["results"].append({"stdout": stdout, "problems": problems})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
