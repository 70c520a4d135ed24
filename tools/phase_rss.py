"""Peak resident memory of one cap `reconstruct`, phase by phase.

    python3 tools/phase_rss.py [--grid G] [--favor-r R] [CHECKOUT [SET ...]]

For each input set (set 1 when none is named) a fresh Python process runs
the perfbench `reconstruct-cap` argument vector of that set through
`ropeslr.cli.main`, with CHECKOUT's `src` on the path (the checkout this
tool lives in by default) and CHECKOUT's `perfbench/workloads.py` imported
only to read the vector.  --grid and --favor-r replace those two values of
the vector, to run it small.  The functions of `ropeslr.lowrank` named in
PHASES are wrapped in that process, where they exist, and the process's
`ru_maxrss` is read when each call starts and when it returns.  ru_maxrss is
a high-water mark, so each reading is the peak of the process so far.  The
tool prints one JSON list, one object per input set.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The reconstruct stages whose calls are the phase boundaries, in the order
# of their first call at R < L.
PHASES = ("choose_truncation", "_truncated_svd_factors", "_lowrank_branch",
          "_gram_certificate", "_factored_rank")


def rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def child(checkout: Path, input_set: int, grid, favor_r) -> dict:
    """One cap call in this process, with the phases wrapped."""
    sys.path.insert(0, str(checkout / "perfbench"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from ropeslr import cli, lowrank

    (argv,) = workloads.experiments("reconstruct-cap", input_set)
    for flag, value in (("--grid", grid), ("--favor-r", favor_r)):
        if value is not None:
            argv[argv.index(flag) + 1] = value
    events = [dict(phase="start", rss_mb=rss_mb())]
    calls = dict.fromkeys(PHASES, 0)

    def wrapped(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            events.append(dict(phase=name, call=calls[name], at="enter", rss_mb=rss_mb()))
            out = fn(*args, **kwargs)
            events.append(dict(phase=name, call=calls[name], at="return", rss_mb=rss_mb()))
            return out
        return call

    for name in PHASES:
        if hasattr(lowrank, name):
            setattr(lowrank, name, wrapped(name, getattr(lowrank, name)))
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = stdout
    events.append(dict(phase="end", rss_mb=rss_mb()))
    return dict(input_set=input_set, argv=argv, exit_code=code, events=events)


def main(args) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--grid")
    parser.add_argument("--favor-r")
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    parser.add_argument("sets", nargs="*", type=int)
    opts = parser.parse_args(args)
    checkout = opts.checkout.resolve()
    if opts.child:
        print(json.dumps(child(checkout, opts.sets[0], opts.grid, opts.favor_r)))
        return 0
    runs = []
    for input_set in opts.sets or [1]:
        cmd = [sys.executable, __file__, "--child", str(checkout), str(input_set)]
        for flag, value in (("--grid", opts.grid), ("--favor-r", opts.favor_r)):
            if value is not None:
                cmd += [flag, value]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    print(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
