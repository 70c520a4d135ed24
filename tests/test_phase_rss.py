"""Smoke test of tools/phase_rss.py, the per-phase peak memory of one cap
reconstruct, run small: L = 64 with R = 16 < L, so that every phase runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "phase_rss.py"


def test_phase_rss_names_every_phase_at_a_small_grid():
    spec = importlib.util.spec_from_file_location("phase_rss", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    done = subprocess.run([sys.executable, str(TOOL), "--grid", "4,4,4", "--favor-r", "16",
                           str(ROOT), "0", "3"], capture_output=True, text=True, check=True)
    runs = json.loads(done.stdout)
    assert [run["input_set"] for run in runs] == [0, 3]
    for run in runs:
        assert run["exit_code"] == 0
        assert run["argv"][run["argv"].index("--grid") + 1] == "4,4,4"
        events = run["events"]
        assert events[0]["phase"] == "start" and events[-1]["phase"] == "end"
        for phase in tool.PHASES:
            assert {e["at"] for e in events if e["phase"] == phase} == {"enter", "return"}, phase
        rss = [e["rss_mb"] for e in events]
        assert rss == sorted(rss) and rss[0] > 0.0  # a high-water mark
