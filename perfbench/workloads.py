"""Benchmark workloads as lists of `ropeslr` CLI argument vectors, and the
checks every experiment's output must pass.

Each workload has INPUT_SETS input sets; `--seed n` selects set n mod
INPUT_SETS, so the same seed always gives the same inputs.  The outputs of
every set are recorded in expected.jsonl by record_expected.py, one
experiment per line.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

INPUT_SETS = 10
EXPECTED = Path(__file__).resolve().parent / "expected.jsonl"

# Real outputs are compared with this relative tolerance.  Reordering a sum
# or changing the BLAS thread count moves float64 results by about 1e-15
# relative per operation; 1e-9 leaves six orders of magnitude for that and
# still catches any change to what is computed.
REAL_RTOL = 1e-9
# Training losses are the end of 100 gradient steps, each of which feeds its
# rounding into the next, so they get a wider band.
LOSS_RTOL = 1e-6

SWEEP_RECONSTRUCT_SEEDS = 20


def _reconstruct(grid: str, tau: float, e_tol: float, seed: int) -> List[str]:
    return ["reconstruct", "--grid", grid, "--rope", "4,4,4", "--base", "10000",
            "--tau", repr(tau), "--e-tol", repr(e_tol), "--favor-r", "1024",
            "--seed", str(seed)]


def _reconstruct_cap(k: int) -> List[List[str]]:
    return [_reconstruct("16,16,16", 0.05, 0.02, k)]


def _sweep_small(k: int) -> List[List[str]]:
    out = [
        ["decompose-sweep", "--grids", "4,4,4;6,6,6;8,8,8;10,10,10;12,12,12",
         "--rope", "4,4,4", "--base", "10000", "--c", "0.5", "--seed", str(k)],
        ["stable-rank-sweep", "--grids", "5,5,5;8,8,8;10,10,10;12,12,12",
         "--rope", "4,4,4", "--base", "10000", "--energy", "0.9", "--seed", str(k)],
    ]
    # the main schedule: tau = c / sqrt(L) with c = 0.5, e_tol = tau / 2
    for grid, ell in (("4,4,4", 64), ("8,8,8", 512)):
        tau = 0.5 / math.sqrt(ell)
        for i in range(SWEEP_RECONSTRUCT_SEEDS):
            out.append(_reconstruct(grid, tau, tau / 2.0, SWEEP_RECONSTRUCT_SEEDS * k + i))
    return out


TRAIN_STEPS = 100


def _train_align(k: int) -> List[List[str]]:
    return [["train-align", "--grid", "8,12,12", "--rope", "8,4,4", "--base", "10000",
             "--heads", "4", "--block", "2,4,4", "--keep", "0.5", "--samples", "2",
             "--rank", "4", "--steps", str(TRAIN_STEPS), "--lr", "2.0", "--seed", str(k)]]


WORKLOADS = {
    "reconstruct-cap": _reconstruct_cap,
    "sweep-small": _sweep_small,
    "train-align": _train_align,
}


def experiments(workload: str, seed: int) -> List[List[str]]:
    return WORKLOADS[workload](seed % INPUT_SETS)


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def load_expected() -> List[dict]:
    if not EXPECTED.exists():
        return []
    with open(EXPECTED, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def expected_for(workload: str, seed: int) -> List[dict]:
    """The recorded entries of the seed's input set, in experiment order."""
    k = input_set(seed)
    return [r for r in load_expected() if r["workload"] == workload and r["set"] == k]


def _split_variants(text: str) -> Dict[str, str]:
    """train-align writes one '# variant=<name>' line before each CSV."""
    out: Dict[str, str] = {}
    name = None
    for line in text.splitlines(keepends=True):
        if line.startswith("# variant="):
            name = line[len("# variant="):].strip()
            out[name] = ""
        elif name is not None:
            out[name] += line
    return out


def _as_real(cell: str) -> Optional[float]:
    """The value of a cell written as a real (`6.25e-02`), else None."""
    if cell.lstrip("-").isdigit():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_ok(col: str, got: str, want: str, rtol: float, exact_zero: Sequence[str]) -> bool:
    if col in exact_zero:
        return _as_real(got) == 0.0
    want_real, got_real = _as_real(want), _as_real(got)
    if want_real is None:
        return got == want
    return (got_real is not None and math.isfinite(got_real)
            and abs(got_real - want_real) <= rtol * abs(want_real))


def compare_csv(got: str, want: str, rtol: float, exact_zero: Sequence[str] = ()) -> List[str]:
    """Cell-by-cell comparison: integers, booleans and labels exact, reals
    within `rtol` of the recorded value, columns in `exact_zero` exactly 0."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if not got_rows or got_rows[0] != want_rows[0]:
        return [f"header {got_rows[:1]} != recorded {want_rows[0]}"]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows) - 1} rows != recorded {len(want_rows) - 1}"]
    header = want_rows[0]
    problems = []
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        if len(g_row) != len(header):
            problems.append(f"row {r}: {len(g_row)} cells, expected {len(header)}")
            continue
        for col, g, w in zip(header, g_row, w_row):
            if not _cell_ok(col, g, w, rtol, exact_zero):
                problems.append(f"row {r} {col}: {g} vs recorded {w}")
    return problems


def check(argv: Sequence[str], stdout: str, want: dict,
          cutoffs: Optional[Sequence[int]]) -> List[str]:
    """Problems with the output of one experiment that exited 0; an empty
    list means it passed.

    `want` is the experiment's entry in expected.jsonl and `cutoffs` the
    truncation cutoffs a reconstruct experiment used, as the traced run
    records them; None, as in untraced runs, skips that comparison.
    """
    if list(argv) != want["argv"]:
        raise ValueError(f"expected.jsonl does not describe {argv}; re-record it")
    problems: List[str] = []
    command = argv[0]
    if command == "train-align":
        got, rec = _split_variants(stdout), _split_variants(want["stdout"])
        if sorted(got) != sorted(rec):
            return [f"variants {sorted(got)} != recorded {sorted(rec)}"]
        for name in rec:
            problems += [f"{name}: {p}" for p in compare_csv(got[name], rec[name], LOSS_RTOL)]
            losses = [float(line.split(",")[1]) for line in got[name].splitlines()[1:]]
            if len(losses) != TRAIN_STEPS + 1 or not all(map(math.isfinite, losses)):
                problems.append(f"{name}: diverged after {len(losses)} losses")
            elif not losses[-1] < losses[0]:
                problems.append(f"{name}: final loss {losses[-1]} >= initial {losses[0]}")
        return problems
    problems += compare_csv(stdout, want["stdout"], REAL_RTOL, exact_zero=("max_err_spike",))
    if command == "reconstruct" and cutoffs is not None and list(cutoffs) != want["cutoffs"]:
        problems.append(f"cutoffs {list(cutoffs)} != recorded {want['cutoffs']}")
    return problems
