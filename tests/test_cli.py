"""Golden and exit-code tests of the `ropeslr` command line.

The goldens under tests/golden/ hold, per case, the standard output
(`<case>.stdout`) and every file the case wrote (`<case>.<file name>`).
"""

import argparse
import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from ropeslr import (InvalidInput, analysis, cli, decomposition, flops, linalg, lowrank,
                     mechanism, rope3d)

GOLDEN = Path(__file__).parent / "golden"
REAL_RTOL = 1e-9
CONFIG_NAME = "cfg.txt"

# case -> (argv, exit code, config file text or None).  In argv, {dir} is the
# case's own scratch directory, which holds the config file and every output.
CASES = {
    "fourier_verify": (["fourier-verify", "--pairs", "200"], 0, None),
    "fourier_verify_corrupt": (["fourier-verify", "--pairs", "200"], 1, None),
    "decompose_sweep": (["decompose-sweep", "--grids", "2,2,2;3,3,3;4,4,4"], 0, None),
    "reconstruct": (["reconstruct", "--grid", "3,3,3", "--favor-r", "16,256"], 0, None),
    "reconstruct_config": (["reconstruct", "--config", "{dir}/cfg.txt", "--seed", "3",
                            "--out", "{dir}/rec.csv"], 0,
                           "# a reconstruct run\ngrid = 2,3,4\n\nfavor_r=64\nseed=1\n"),
    "spectral": (["spectral"], 0, None),
    "spectral_sampled": (["spectral", "--grid", "3,5,5", "--pairs", "200", "--seed", "2"],
                         0, None),
    "stable_rank_sweep": (["stable-rank-sweep", "--grids", "2,2,2;3,3,3;4,4,4"], 0, None),
    "gram_spectral": (["gram-spectral", "--grid", "2,5,5", "--steps", "2",
                       "--modes-out", "{dir}/modes.csv"], 0, None),
    "gram_spectral_nope": (["gram-spectral", "--grid", "2,5,5", "--use-pe", "false",
                            "--modes", "2", "--out", "{dir}/sigma.csv"], 0, None),
    "gate_map": (["gate-map", "--grid", "2,5,5", "--steps", "2"], 0, None),
    "train_align": (["train-align", "--steps", "3"], 0, None),
    "train_align_out": (["train-align", "--grid", "2,5,5", "--steps", "2",
                         "--out", "{dir}/loss"], 0, None),
    "grad_check": (["grad-check", "--instances", "3"], 0, None),
    "flops": (["flops"], 0, None),
    "flops_config": (["flops", "--config", "{dir}/cfg.txt", "--r", "32"], 0,
                     "l=4096\ns = 0.5\nd_h=64\n"),
}



def corrupt_schedule(monkeypatch):
    """Evaluate the trigonometric expansion on a perturbed schedule, which
    must trip fourier-verify's exactness check."""
    real = cli.rope3d.logit_fourier

    def perturbed(coeffs, delta, cfg):
        return real(coeffs, tuple(np.asarray(delta) * (1.0 + 1e-3)), cfg)

    monkeypatch.setattr(cli.rope3d, "logit_fourier", perturbed)


# case -> what it patches in the library before it runs
PATCHES = {"fourier_verify_corrupt": corrupt_schedule}

SUBCOMMANDS = ("fourier-verify", "decompose-sweep", "reconstruct", "spectral",
               "stable-rank-sweep", "gram-spectral", "gate-map", "train-align",
               "grad-check", "flops")


def run_cli(argv):
    """Run `cli.main` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_case(name, work: Path):
    """Run one case in the empty directory `work`: (exit code, outputs), where
    outputs maps `stdout` and each written file's name to its text."""
    argv, _, config = CASES[name]
    if config is not None:
        (work / CONFIG_NAME).write_text(config, encoding="utf-8")
    rc, stdout, _ = run_cli([a.replace("{dir}", str(work)) for a in argv])
    outputs = {"stdout": stdout}
    for path in sorted(work.iterdir()):
        if path.name != CONFIG_NAME:
            outputs[path.name] = path.read_text(encoding="utf-8")
    return rc, outputs


def _real(cell):
    """The value of a cell written as a real, else None (ints, bools, labels)."""
    if cell.lstrip("-").isdigit():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def assert_same_csv(got: str, want: str, what: str):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert got_rows[:1] == want_rows[:1], f"{what}: header"
    assert len(got_rows) == len(want_rows), f"{what}: row count"
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), f"{what} row {r}: cell count"
        for g, w in zip(g_row, w_row):
            want_real, got_real = _real(w), _real(g)
            if want_real is None:
                assert g == w, f"{what} row {r}: {g} != {w}"
            else:
                assert got_real is not None and math.isfinite(got_real), f"{what} row {r}: {g}"
                assert abs(got_real - want_real) <= REAL_RTOL * abs(want_real), \
                    f"{what} row {r}: {g} vs golden {w}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    if name in PATCHES:
        PATCHES[name](monkeypatch)
    first, second = tmp_path / "1", tmp_path / "2"
    first.mkdir()
    second.mkdir()
    rc, outputs = run_case(name, first)
    assert rc == CASES[name][1]
    want = {p.name[len(name) + 1:]: p.read_text(encoding="utf-8")
            for p in GOLDEN.glob(f"{name}.*")}
    assert sorted(outputs) == sorted(want)
    for key, text in outputs.items():
        assert_same_csv(text, want[key], f"{name} {key}")
    # a second run in the same process writes the same bytes
    assert run_case(name, second) == (rc, outputs)


def test_every_subcommand_has_a_golden():
    assert {argv[0] for argv, _, _ in CASES.values()} == set(SUBCOMMANDS) == set(cli._COMMANDS)


# Each of these is bad input: exit 2 with a config error.  {dir} holds a config
# file with unknown keys, one that is not UTF-8, and no directory "missing".
BAD_INPUT = [
    ["train-align", "--lr", "nan"],
    ["train-align", "--lr", "inf"],
    ["decompose-sweep", "--c", "nan"],
    ["decompose-sweep", "--grids", "3,3,3;2,2,2"],
    ["stable-rank-sweep", "--grids", "3,3,3;2,2,2"],
    ["reconstruct", "--grid", "17,17,17"],
    ["decompose-sweep", "--grids", "4,4,4;17,17,17"],
    ["stable-rank-sweep", "--energy", "1"],
    ["reconstruct", "--favor-r", "1,0"],
    ["reconstruct", "--tau", "0.01"],
    ["gram-spectral", "--modes", "0"],
    ["train-align", "--block", "2,2,2"],
    ["gate-map", "--block", "2,2,2"],
    ["grad-check", "--epsilon", "1"],
    ["flops", "--s", "1.5"],
    ["spectral", "--pairs", "10"],
    ["spectral", "--grid", "3,5,5", "--pairs", "99"],
    ["reconstruct", "--tau", "0.5", "--e-tol", "5e-324"],
    ["decompose-sweep", "--c", "1e-308", "--grids", "4,4,4"],
    ["decompose-sweep", "--c", "5e-324", "--grids", "4,4,4"],
    ["gram-spectral", "--grid", "1,1,1", "--rope", "4,4,4", "--block", "1,1,1", "--steps", "1",
     "--lr", "1e300"],
    ["gate-map", "--grid", "2,2,2", "--block", "1,1,1", "--steps", "2", "--lr", "1e300"],
    ["fourier-verify", "--pairs", "0"],
    ["fourier-verify", "--grid", "0,4,4"],
    ["spectral", "--rope", "3,4,4"],
    ["train-align", "--keep", "0"],
    ["train-align", "--heads", "0"],
    ["gate-map", "--samples", "0"],
    ["grad-check", "--rank", "0"],
    ["train-align", "--steps", "-1"],
    ["reconstruct", "--base", "-1"],
    ["decompose-sweep", "--seed", "x"],
    ["stable-rank-sweep", "--grids", ""],
    ["reconstruct", "--favor-r", ""],
    ["gram-spectral", "--use-pe", "maybe"],
    ["flops", "--config", "{dir}/cfg.txt"],
    ["flops", "--config", "{dir}/missing.txt"],
    ["flops", "--config", "{dir}/latin1.txt"],
    ["flops", "--out", "{dir}/missing/flops.csv"],
    ["train-align", "--steps", "0", "--out", "{dir}/missing/loss"],
    ["gram-spectral", "--out", "{dir}/sigma.csv", "--modes-out", "{dir}/missing/modes.csv"],
    ["gram-spectral", "--modes-out", "{dir}/missing/modes.csv"],
    ["train-align", "--steps", "2", "--out", "{dir}/missing/loss"],
    ["flops", "--out", "{dir}"],
    ["gate-map", "--out", "{dir}/"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=[" ".join(a) for a in BAD_INPUT])
def test_bad_input_exits_2(argv, tmp_path):
    (tmp_path / CONFIG_NAME).write_text("l=64\nwidth=3\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes(b"seed=\xff\n")
    rc, stdout, stderr = run_cli([a.replace("{dir}", str(tmp_path)) for a in argv])
    assert rc == 2
    assert stderr.startswith("config error: ")
    assert stdout == ""


def test_bad_output_path_fails_before_any_work_or_output(monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(mechanism, "make_alignment_task", never)
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("kept\n", encoding="utf-8")
    for argv in (["gram-spectral", "--out", str(sigma), "--modes-out", f"{tmp_path}/no/m.csv"],
                 ["train-align", "--out", f"{tmp_path}/no/loss"]):
        rc, stdout, stderr = run_cli(argv)
        assert (rc, stdout) == (2, "")
        assert stderr.startswith("config error: cannot write ")
    assert sigma.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sigma.csv"]


# Values the contract property draws for each config key: (good or edge
# values, bad values).  A good value may still be bad next to another key's
# (tau under 2 e_tol, a block that does not divide the grid).  A grid has at
# most 64 tokens and a sweep at most three grids; the keys in ALWAYS_GIVEN
# are always set, as their defaults make larger runs or do not divide these
# grids.  {dir} is the run's own scratch directory.
COUNTS = (["1", "64"], ["0", "-3", "1.5"])
CONTRACT_VALUES = {
    "grid": (["1,1,1", "2,2,2", "2,3,4", "2,4,4", "1,5,5", "4,4,4"],
             ["0,2,2", "2,2", "x,1,1"]),
    "grids": (["2,2,2", "1,1,1;2,2,2", "2,2,2;2,3,4;4,4,4", "2,2,2;;3,3,3"],
              ["3,3,3;2,2,2", "", "2,2,2;17,17,17"]),
    "rope": (["4,4,4", "2,2,0", "4,2,2", "2,0,0"], ["0,0,0", "3,2,2", "2,2"]),
    "base": (["10000", "1", "2.5", "1e-300"], ["0", "-1", "nan", "inf"]),
    "seed": (["0", "7"], ["-1", "x"]),
    "pairs": (["100", "1", "50"], ["99", "0"]),
    "tol": (["1e-9", "1"], ["0", "-1", "nan"]),
    "c": (["0.5", "1e-300", "1.4", "2.8"], ["0", "-1", "nan", "10", "1e-308", "5e-324"]),
    "tau": (["0.05", "0.04", "0.5", "0.99"], ["1", "0.01", "nan"]),
    "e_tol": (["0.02", "0.025", "1e-300", "5e-324"], ["0", "-0.01", "nan"]),
    "favor_r": (["16", "1", "4,64"], ["0", "", "1,x"]),
    "energy": (["0.9", "0.5", "1e-300"], ["1", "0", "nan"]),
    "heads": (["1", "2"], ["0"]),
    "rank": (["1", "2"], ["0"]),
    "block": (["1,1,1", "1,2,2", "1,5,5", "2,2,2"], ["0,1,1", "1,1"]),
    "keep": (["0.5", "1", "1e-300"], ["0", "1.5", "nan"]),
    "samples": (["1", "2"], ["0"]),
    "steps": (["0", "1", "2"], ["-1"]),
    "lr": (["2.0", "0", "1e300"], ["-1", "nan", "inf"]),
    "use_pe": (["true", "false"], ["maybe"]),
    "modes": (["1", "4"], ["0"]),
    "modes_out": (["", "{dir}/modes.csv"], ["{dir}/missing/modes.csv"]),
    "instances": (["1", "2"], ["0"]),
    "epsilon": (["1e-5", "1e-7", "1e-4"], ["1", "1e-8", "nan"]),
    "b": COUNTS, "h": COUNTS, "l": COUNTS, "d_h": COUNTS, "r": COUNTS,
    "s": (["0.9", "0", "0.999"], ["1", "-0.1", "nan"]),
}
ALWAYS_GIVEN = {"grid", "grids", "block", "pairs", "steps", "instances"}
OUTS = ([None, "{dir}/out.csv"], ["{dir}/missing/out.csv", "{dir}"])


def test_contract_values_cover_every_key_and_its_good_ones_parse():
    keys = {key for defaults, _ in cli._COMMANDS.values() for key in defaults}
    assert keys == set(CONTRACT_VALUES)
    for key, (good, _) in CONTRACT_VALUES.items():
        for value in good:
            cli.PARSERS.get(key, cli._COUNT)(value)


@st.composite
def contract_cases(draw):
    """(argv, config file text or None) of one run: each chosen key given as
    a flag or a config-file line, the file perhaps with an unknown key or
    missing, and an output path that is good, missing or a directory.  Each
    choice is bad about one time in eight, so that many runs do work."""

    def pick(values):
        good, bad = values
        return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))

    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv, lines = [command], []
    for key in sorted(cli._COMMANDS[command][0]):
        if key in ALWAYS_GIVEN or draw(st.booleans()):
            value = pick(CONTRACT_VALUES[key])
            if draw(st.booleans()):
                argv += [f"--{key.replace('_', '-')}", value]
            else:
                lines.append(f"{key}={value}\n")
    if pick(([False], [True])):
        lines.append("width=3\n")
    if lines:
        argv += ["--config", "{dir}/" + pick(([CONFIG_NAME], ["missing.txt"]))]
    out = pick(OUTS)
    if out is not None:
        argv += ["--out", out]
    return argv, "".join(lines) if lines else None


def run_contract_case(argv, config):
    """Run one case in a fresh directory: (exit code, stdout, stderr, the
    names of the files it wrote)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if config is not None:
            (work / CONFIG_NAME).write_text(config, encoding="utf-8")
        rc, stdout, stderr = run_cli([a.replace("{dir}", tmp) for a in argv])
        written = sorted(str(p.relative_to(work)) for p in work.rglob("*")
                         if p.name != CONFIG_NAME)
    return rc, stdout, stderr, written


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(contract_cases())
def test_cli_contract_on_generated_argvs(case):
    """Every run exits 0, 1 or 2; exit 2 reports a config error and writes
    nothing, to stdout or to a file."""
    rc, stdout, stderr, written = run_contract_case(*case)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert stderr.startswith("config error: ")
        assert (stdout, written) == ("", [])
    else:
        assert "config error" not in stderr


@pytest.mark.parametrize("field,value,message", [
    ("max_err_spike", 1e-3, "max_err_spike = 1.0000000000000000e-03, must be 0"),
    ("support_matches_spikes", False, "support_matches_spikes = false, must be true"),
])
def test_reconstruct_names_its_failed_check_on_stderr(monkeypatch, field, value, message):
    argv = ["reconstruct", "--grid", "2,2,2", "--favor-r", "16,32"]
    rc, clean, stderr = run_cli(argv)
    assert (rc, stderr) == (0, "")
    real = lowrank.reconstruct

    def failing(q, k, grid, cfg, tau, e_tol, favor_dim, seed):
        rec = real(q, k, grid, cfg, tau, e_tol, favor_dim, seed)
        return dataclasses.replace(rec, **{field: value}) if favor_dim == 32 else rec

    monkeypatch.setattr(lowrank, "reconstruct", failing)
    rc, stdout, stderr = run_cli(argv)
    assert rc == 1
    assert stderr == f"reconstruct: favor_R=32: check failed: {message}\n"
    # stdout is the CSV alone: the row of R = 32 shows the patched error
    want = [line.split(",") for line in clean.splitlines()]
    if field == "max_err_spike":
        want[2][6] = cli._fmt(value)
    assert stdout.splitlines() == [",".join(row) for row in want]


def test_library_error_is_not_a_config_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("library fault")

    monkeypatch.setattr(lowrank, "reconstruct", broken)
    with pytest.raises(ValueError, match="library fault"):
        cli.main(["reconstruct", "--grid", "2,2,2"])
    assert "config error" not in capsys.readouterr().err


GRID, ROPE = rope3d.GridShape(2, 2, 2), rope3d.RopeConfig(2, 0, 0)
RANGE_CHECKS = {
    "GridShape": lambda: rope3d.GridShape(0, 1, 1),
    "RopeConfig": lambda: rope3d.RopeConfig(3, 0, 0),
    "FlopsConfig": lambda: flops.FlopsConfig(1, 1, 1, 1, 1.0, 1),
    "SparseSettings": lambda: mechanism.SparseSettings((1, 1, 1), 0.0),
    "_block_ids": lambda: mechanism._block_ids(GRID, (1, 3, 1)),
    "init_params": lambda: mechanism.init_params(1, 2, 0, 0),
    "check_grids": lambda: decomposition.check_grids([]),
    "check_reconstruct": lambda: lowrank.check_reconstruct(GRID, 0.5, 0.3, 16),
}
SHAPE_CHECKS = {
    "as_matrix": lambda: linalg.as_matrix(np.zeros(3)),
    "rotate_rows": lambda: rope3d.rotate_rows(np.zeros((3, 2)), GRID, ROPE),
    "freq": lambda: rope3d.freq(ROPE, "t", 2),
}


@pytest.mark.parametrize("name", sorted(RANGE_CHECKS))
def test_range_check_raises_invalid_input(name):
    with pytest.raises(InvalidInput):
        RANGE_CHECKS[name]()


@pytest.mark.parametrize("name", sorted(SHAPE_CHECKS))
def test_shape_check_raises_a_plain_value_error(name):
    with pytest.raises(ValueError) as raised:
        SHAPE_CHECKS[name]()
    assert not isinstance(raised.value, InvalidInput)


def test_a_shape_check_in_a_handler_is_a_library_fault(monkeypatch, capsys):
    # a non-finite factor trips as_matrix's check inside reconstruct, a plain
    # ValueError that must propagate, not exit 2
    def non_finite(rq, rk, cfg, cutoffs):
        return np.full((len(rq), 1), np.nan), np.ones((len(rq), 1))

    monkeypatch.setattr(lowrank, "_truncated_svd_factors", non_finite)
    with pytest.raises(ValueError, match="finite") as raised:
        cli.main(["reconstruct", "--grid", "2,2,2"])
    assert not isinstance(raised.value, InvalidInput)
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--grid", "17,17,17"], ["--grid", "100,100,100"],
                                  ["--tau", "0.01"], ["--favor-r", "16,0"]])
def test_bad_reconstruct_arguments_fail_before_any_work(argv, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the inputs were drawn")

    monkeypatch.setattr(cli.decomposition, "synthetic_qk", never)
    rc, stdout, stderr = run_cli(["reconstruct"] + argv)
    assert (rc, stdout) == (2, "")
    assert stderr.startswith("config error: ")


@pytest.mark.parametrize("argv,module,work", [
    (["grad-check", "--epsilon", "1"], mechanism, "make_alignment_task"),
    (["stable-rank-sweep", "--grids", "2,2,2;3,3,3", "--energy", "1"], analysis,
     "synthetic_attention"),
], ids=["grad-check", "stable-rank-sweep"])
def test_bad_energy_and_epsilon_fail_before_any_work(argv, module, work, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(module, work, never)
    rc, stdout, stderr = run_cli(argv)
    assert (rc, stdout) == (2, "")
    assert stderr.startswith("config error: ")


def test_two_calls_build_the_parser_once(monkeypatch):
    builds = []
    real = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(1)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(["flops"])[0] == 0
    assert len(builds) == 1


def test_module_help_lists_every_subcommand():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "ropeslr.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    for name in SUBCOMMANDS:
        assert name in done.stdout


def test_train_align_runs_the_sparse_branch_once_per_sample_and_head(monkeypatch):
    calls = []
    real = mechanism.block_sparse_attention

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mechanism, "block_sparse_attention", counted)
    rc, _, _ = run_cli(["train-align", "--grid", "2,5,5", "--heads", "3", "--samples", "2",
                        "--steps", "2"])
    assert rc == 0
    # shared by the four variants and all their steps
    assert len(calls) == 2 * 3


DIVERGING = ["train-align", "--grid", "2,4,4", "--rope", "4,2,2", "--heads", "2",
             "--samples", "1", "--rank", "2", "--block", "1,2,2", "--lr", "1e300",
             "--steps", "2"]


def csv_rows(stdout):
    """The data rows of a CSV on stdout, each a list of its cells."""
    return [line.split(",") for line in stdout.splitlines()[1:]]


def test_fourier_verify_names_its_worst_pair_on_stderr():
    rc, clean, stderr = run_cli(["fourier-verify", "--pairs", "200"])
    assert (rc, stderr) == (0, "")
    rc, stdout, stderr = run_cli(["fourier-verify", "--pairs", "200", "--tol", "1e-30"])
    assert (rc, stdout) == (1, clean)  # the CSV bytes are those of a run that passes
    errs = [float(row[3]) for row in csv_rows(stdout)]
    worst = csv_rows(stdout)[errs.index(max(errs))]
    assert max(errs) > 0.0
    assert stderr == (f"fourier-verify: pair={worst[0]}: check failed: abs_err = {worst[3]}, "
                      f"must be <= {cli._fmt(1e-30)}\n")


def test_grad_check_names_each_failed_instance_on_stderr():
    argv = ["grad-check", "--instances", "2"]
    rc, clean, stderr = run_cli(argv)
    assert (rc, stderr) == (0, "")
    rc, stdout, stderr = run_cli(argv + ["--tol", "1e-30"])
    assert (rc, stdout) == (1, clean)
    assert stderr.splitlines() == [
        f"grad-check: instance={i}: check failed: deviation = {dev}, "
        f"must be <= {cli._fmt(1e-30)}" for i, dev in csv_rows(stdout)]


def test_decompose_sweep_names_each_failed_grid_on_stderr(monkeypatch):
    # a spike count over floor(1 / tau) in a row is a library fault, which no
    # input reaches: the sweep point of L = 64 is patched to report one
    argv = ["decompose-sweep", "--grids", "4,4,4;5,5,5"]
    rc, clean, stderr = run_cli(argv)
    assert (rc, stderr) == (0, "")
    real = decomposition.scaling_sweep_point

    def failing(grid, cfg, c, seed):
        point = real(grid, cfg, c, seed)
        if grid.size == 64:
            point.update(row_nnz=point["nnz_bound"] // 64 + 3, holds=False)
        return point

    monkeypatch.setattr(decomposition, "scaling_sweep_point", failing)
    rc, stdout, stderr = run_cli(argv)
    assert rc == 1
    want = [line.split(",") for line in clean.splitlines()]
    want[1][5] = "false"
    assert stdout.splitlines() == [",".join(row) for row in want]
    bound = int(want[1][3]) // 64
    assert stderr == (f"decompose-sweep: L=64: check failed: row_nnz = {bound + 3}, "
                      f"must be <= {bound}\n")


def test_train_align_names_each_diverged_variant_on_stderr(tmp_path):
    rc, stdout, stderr = run_cli(DIVERGING)
    assert rc == 0
    blocks = stdout.split("# variant=")[1:]
    names = [name for name, _, _ in cli.TRAIN_VARIANTS]
    assert [b.splitlines()[0] for b in blocks] == names
    want = []
    for name, block in zip(names, blocks):
        step, loss = block.splitlines()[-1].split(",")
        assert not math.isfinite(float(loss))
        want.append(f"train-align: variant {name} diverged at step {step} (loss {loss})")
    assert stderr.splitlines() == want
    assert want[0] == "train-align: variant lowrank_3dpe diverged at step 1 (loss nan)"
    # the CSV files are written as before, and the report still goes to stderr
    rc, out_stdout, out_stderr = run_cli(DIVERGING + ["--out", str(tmp_path / "loss")])
    assert (rc, out_stdout, out_stderr) == (0, "", stderr)
    for name, block in zip(names, blocks):
        text = (tmp_path / f"loss.{name}.csv").read_text(encoding="utf-8")
        assert text == block.split("\n", 1)[1]


def test_train_align_that_converges_writes_nothing_to_stderr():
    rc, stdout, stderr = run_cli(["train-align", "--grid", "2,5,5", "--steps", "2"])
    assert (rc, stderr) == (0, "")
    assert stdout.count("# variant=") == 4


def test_reconstruct_with_three_r_peaks_within_a_tenth_of_one_r():
    # each R's L x L arrays are freed before the next is rebuilt; holding
    # them would add two rebuilds (about 8.5 MB at L = 512) to the peak
    def peak(favor_r):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rc, stdout, _ = run_cli(["reconstruct", "--grid", "8,8,8", "--favor-r", favor_r])
            return rc, stdout, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rc_one, out_one, one = peak("64")
    rc_three, out_three, three = peak("16,32,64")
    assert rc_one == rc_three == 0
    assert out_three.splitlines()[-1] == out_one.splitlines()[-1]
    assert three <= 1.1 * one, (three, one)
