"""sha256 digests of the program's outputs on every benchmark argument vector.

    PYTHONPATH=src python3 tools/output_digest.py [WORKLOAD ...]

Runs each argument vector of the perfbench workloads (all three when none is
named) on input sets 0-9, in this process through `ropeslr.cli.main`, and
prints one line per vector: the sha256 of its exit code, standard output and
standard error, then the workload, the input set and the vector.  Run it from
the root of two checkouts and diff the two outputs: equal lines mean
byte-identical outputs.  perfbench/workloads.py is only imported, to read the
vectors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from ropeslr import cli  # noqa: E402


def digest(argv) -> str:
    """The sha256 of (exit code, stdout, stderr) of one cli.main run.  An
    exception that escapes counts by its type and message as the exit code,
    so that no traceback's file paths enter the digest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(cli.main(list(argv)))
        except SystemExit as exc:  # argparse exits on a malformed argv
            code = repr(exc.code)
        except Exception as exc:  # noqa: BLE001 - a crash is an output to compare too
            code = "".join(traceback.format_exception_only(type(exc), exc))
    h = hashlib.sha256()
    for part in (code, out.getvalue(), err.getvalue()):
        data = part.encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        for k in range(workloads.INPUT_SETS):
            for argv in workloads.experiments(name, k):
                print(digest(argv), name, k, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
