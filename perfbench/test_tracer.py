"""Tests for the benchmark's tracer and output checks; they need no ropeslr.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import itertools
import json
import textwrap
import time
import types
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Probe, Tracer, group, self_seconds


def _modules():
    a = types.ModuleType("a")
    exec(textwrap.dedent("""
        import time

        def inner(x):
            time.sleep(0.002)
            return x + 1

        def outer(x):
            return inner(x) + inner(x)

        def boom():
            raise RuntimeError("boom")
    """), a.__dict__)
    b = types.ModuleType("b")
    b.inner = a.inner  # a name b binds from a, as `from .a import inner` does
    exec("def call(x):\n    return inner(x)\n", b.__dict__)
    return {"a": a, "b": b}


def test_spans_nest_and_follow_calls_between_modules():
    mods = _modules()
    tracer = Tracer({"a.outer": Probe(), "a.inner": Probe(), "b.call": Probe()})
    with tracer.installed(mods):
        tracer.experiment = 0
        assert mods["a"].outer(1) == 4
        tracer.experiment = 1
        assert mods["b"].call(1) == 2
    names = [(s.name, s.parent, s.experiment) for s in tracer.spans]
    assert names == [("a.outer", -1, 0), ("a.inner", 0, 0), ("a.inner", 0, 0),
                     ("b.call", -1, 1), ("a.inner", 3, 1)]
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    assert group(tracer.spans)["a.inner"] == [1, 2, 4]


def test_self_times_are_exact_and_sum_to_no_more_than_wall():
    mods = _modules()
    tracer = Tracer({"a.outer": Probe(), "a.inner": Probe()},
                    clock=itertools.count().__next__)
    with tracer.installed(mods):
        mods["a"].outer(1)
    # ticks: outer 0..5, inner 1..2 and 3..4
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 5), (1, 2), (3, 4)]
    assert self_seconds(tracer.spans) == [3, 1, 1]

    tracer = Tracer({"a.outer": Probe(), "a.inner": Probe(), "b.call": Probe()})
    start = time.perf_counter()
    with tracer.installed(mods):
        for _ in range(3):
            mods["a"].outer(1)
            mods["b"].call(1)
    wall = time.perf_counter() - start
    own = self_seconds(tracer.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) <= wall


def test_wrappers_restore_originals_even_after_an_error():
    mods = _modules()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    tracer = Tracer({"a.inner": Probe(), "a.boom": Probe()})
    with pytest.raises(RuntimeError):
        with tracer.installed(mods):
            assert mods["a"].inner is not before["a"]["inner"]
            assert mods["b"].inner is mods["a"].inner
            mods["a"].boom()
    for name, mod in mods.items():
        assert dict(vars(mod)) == before[name]
    assert tracer.spans[-1].name == "a.boom" and tracer.spans[-1].end >= tracer.spans[-1].start


def test_absent_names_are_reported_not_raised():
    mods = _modules()
    tracer = Tracer({"a.inner": Probe(), "a.gone": Probe(), "nomodule.f": Probe()})
    with tracer.installed(mods):
        mods["a"].inner(0)
    assert tracer.present == {"a.inner"}


def test_probes_annotate_by_parameter_name_and_measure_memory():
    mods = _modules()
    exec("def alloc(n, scale=3):\n    return bytearray(n * scale)\n", mods["a"].__dict__)
    probe = Probe(annotate=lambda args, result: {"n": args["n"], "scale": args["scale"],
                                                 "len": len(result)},
                  memory=True)
    tracer = Tracer({"a.alloc": probe})
    with tracer.installed(mods):
        mods["a"].alloc(1 << 20)
    info = tracer.spans[0].info
    assert (info["n"], info["scale"], info["len"]) == (1 << 20, 3, 3 << 20)
    assert info["peak_bytes"] >= 3 << 20


def test_benchmark_json_lists_every_per_layer_metric():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_compare_csv_tolerances():
    want = "L,rank,max_err_spike,err,holds\n64,12,0.0000000000000000e+00,1.0000000000000000e-01,true\n"
    assert workloads.compare_csv(want, want, 1e-9, ("max_err_spike",)) == []
    near = want.replace("1.0000000000000000e-01", "1.0000000000100000e-01")
    assert workloads.compare_csv(near, want, 1e-9, ("max_err_spike",)) == []
    far = want.replace("1.0000000000000000e-01", "1.0000001000000000e-01")
    assert len(workloads.compare_csv(far, want, 1e-9, ("max_err_spike",))) == 1
    for cell, bad in (("12", "13"), ("true", "false"),
                      ("0.0000000000000000e+00", "1.0000000000000000e-300")):
        broken = want.replace("," + cell, "," + bad, 1)
        assert len(workloads.compare_csv(broken, want, 1e-9, ("max_err_spike",))) == 1
