"""Smoke test of tools/output_digest.py, the byte-identity check of the
benchmark's outputs, on one small argument vector."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_output_digest_of_one_small_argv():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = ["reconstruct", "--grid", "2,2,2", "--favor-r", "16"]
    got = tool.digest(argv)
    assert len(got) == 64 and int(got, 16) >= 0
    assert tool.digest(argv) == got  # the same bytes on every run
    assert tool.digest(["reconstruct", "--grid", "2,2,3", "--favor-r", "16"]) != got
    # a config error's exit code and message, and argparse's exit, are
    # outputs too
    assert tool.digest(argv + ["--tau", "2"]) != got
    assert tool.digest(argv + ["--no-such-option"]) != got
