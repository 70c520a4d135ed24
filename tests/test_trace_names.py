"""The benchmark's traced pass finds the functions it times by name and reads
some of their arguments by parameter name (perfbench/layers.py).  A rename in
ropeslr would silently zero a per-layer metric or crash the traced pass, so
these tests pin the names."""

import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import pytest

from ropeslr import cli, flops

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

# Parameters the probes of perfbench/layers.py read from a call's arguments.
BOUND_PARAMETERS = {
    "linalg.numerical_rank": ("a",),
    "mechanism.block_sparse_attention": ("grid", "cfg"),
    "mechanism._fused_forward": ("x", "backbone", "params", "settings"),
}


def resolve(name):
    mod_name, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"ropeslr.{mod_name}"), attr, None)


@pytest.mark.parametrize("name", layers.TIMED)
def test_timed_name_resolves_to_a_callable(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", sorted(BOUND_PARAMETERS))
def test_bound_parameters_are_present(name):
    params = inspect.signature(resolve(name)).parameters
    for p in BOUND_PARAMETERS[name]:
        assert p in params, f"{name} lost parameter {p!r}"


def test_traced_cli_runs_record_every_probe():
    modules = {n.split(".", 1)[1]: m for n, m in list(sys.modules.items())
               if n.startswith("ropeslr.") and m is not None}
    tracer = Tracer(layers.probes(flops))
    # the first reconstruct (L <= R) certifies its rank; the second has
    # sigma_L / sigma_1 = 4.9e-10 and rank 511, so it falls back to
    # numerical_rank
    argvs = [["reconstruct", "--grid", "2,2,2", "--favor-r", "16"],
             ["reconstruct", "--grid", "8,8,8", "--rope", "4,4,4", "--base", "10000",
              "--tau", "0.022097086912079608", "--e-tol", "0.011048543456039804",
              "--favor-r", "1024", "--seed", "81"],
             ["stable-rank-sweep", "--grids", "2,2,2;3,3,3"],
             ["train-align", "--grid", "2,5,5", "--steps", "2"]]
    with tracer.installed(modules), contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0
    assert tracer.present == set(layers.TIMED)
    names = {s.name for s in tracer.spans}
    for name in ("lowrank.reconstruct", "mechanism.block_sparse_attention",
                 "mechanism._fused_forward", "linalg.numerical_rank"):
        assert name in names
    metrics = layers.per_layer(tracer)
    assert metrics["mechanism.block_sparse_attention.ns_per_mac"] > 0.0
    assert metrics["mechanism.compensator.ns_per_mac"] > 0.0
    assert metrics["linalg.numerical_rank.useful_ratio"] > 0.0
