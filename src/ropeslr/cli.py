"""Command-line front end: one subcommand per experiment, flat key=value
configs, seeded reproducibility, full-precision CSV output.

Each value, from the defaults, a --config file or a --key flag, is parsed
once by the parser PARSERS names for its key (a positive integer otherwise).

Exit codes: 0 success, 1 a checked property is violated, 2 bad input, an
`InvalidInput`: a value that does not parse or that the library rejects as
out of range, an unknown key, a config file that cannot be read or is not
UTF-8, an --out or --modes-out path that cannot be written, or an lr under
which gram-spectral or gate-map training diverges.  A range is checked by
the library function or value object that takes the value; a parser here
checks one only where no library function does on every path.  Output
paths are checked before any work starts, so a bad one leaves no partial
output.  Any other error, a plain ValueError included, is a library fault
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import InvalidInput, analysis, decomposition, flops, lowrank, mechanism, rope3d


# ---------------------------------------------------------------------------
# Config parsing


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be a finite real")
    return value


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError("must be true or false")


def _triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("must be three comma-separated integers")
    return tuple(int(p) for p in parts)


def _grid(text: str) -> rope3d.GridShape:
    return rope3d.GridShape(*_triple(text))


def _grids(text: str) -> list:
    return [_grid(chunk) for chunk in text.split(";") if chunk.strip()]


def _favor_rs(text: str) -> list:
    values = [int(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError("must list one or more integers")
    return values


def _checked(parse, ok, what: str):
    """`parse`, then reject a value for which `ok` is false."""

    def run(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {what}")
        return value

    return run


_NON_NEGATIVE = _checked(int, lambda n: n >= 0, "a non-negative integer")
_COUNT = _checked(int, lambda n: n >= 1, "a positive integer")

PARSERS = {
    "grid": _grid, "grids": _grids, "rope": _triple, "block": _triple,
    "favor_r": _favor_rs, "use_pe": _bool, "modes_out": str,
    "base": _real, "c": _real, "tau": _real, "e_tol": _real, "keep": _real, "s": _real,
    "energy": _real, "epsilon": _real,
    # gram-spectral and gate-map with --steps 0 never pass lr to train_stage1
    "lr": _checked(_real, lambda x: x >= 0.0, "a non-negative real"),
    "tol": _checked(_real, lambda x: x > 0.0, "a positive real"),
    "seed": _NON_NEGATIVE, "steps": _NON_NEGATIVE,
}


def _load_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidInput(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _config(defaults: Dict[str, str], args: argparse.Namespace) -> Dict[str, object]:
    """Defaults, then the config file, then flags, each value parsed once."""
    cfg = dict(defaults)
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise InvalidInput(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    values = {}
    for key, text in cfg.items():
        try:
            values[key] = PARSERS.get(key, _COUNT)(text)
        except ValueError as exc:
            raise InvalidInput(f"{key}={text!r}: {exc}") from exc
    return values


def _rope(v) -> rope3d.RopeConfig:
    return rope3d.RopeConfig(*v["rope"], base=v["base"])


# ---------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.16e}"


def _write_csv(out: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {out}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse an output path that is a directory, whose directory is missing,
    or that cannot be written; the file is neither created nor truncated."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(directory):
        problem = f"no directory {directory}"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise InvalidInput(f"cannot write {path}: {problem}")


# ---------------------------------------------------------------------------
# Subcommands

# subcommand name -> (defaults of its config keys, handler)
_COMMANDS: Dict[str, tuple] = {}


def _command(name: str, **defaults: str):
    """Register a subcommand with the default of every config key it takes."""

    def register(handler):
        _COMMANDS[name] = (defaults, handler)
        return handler

    return register


@_command("fourier-verify", grid="4,4,4", rope="4,4,4", base="10000", seed="0",
          pairs="4096", tol="1e-9")
def cmd_fourier_verify(v, out: Optional[str]) -> int:
    grid, rope_cfg, seed, n_pairs = v["grid"], _rope(v), v["seed"], v["pairs"]
    q_mat, k_mat = decomposition.synthetic_qk(grid, rope_cfg, seed)
    ell = grid.size
    if ell * ell <= n_pairs:
        pairs = [(p, q) for p in range(ell) for q in range(ell)]
    else:
        rng = np.random.default_rng(seed + 1)
        idx = rng.integers(0, ell, size=(n_pairs, 2))
        pairs = [(int(a), int(b)) for a, b in idx]

    coords = grid.coords()
    rows = []
    max_err = 0.0
    for p, qpos in pairs:
        direct = rope3d.logit_direct(q_mat[p], k_mat[qpos], p, qpos, grid, rope_cfg)
        coeffs = rope3d.fourier_coeffs(q_mat[p], k_mat[qpos], rope_cfg)
        delta = coords[p] - coords[qpos]
        four = rope3d.logit_fourier(coeffs, tuple(delta), rope_cfg)
        err = abs(direct - four)
        max_err = max(max_err, err)
        rows.append((f"{p}-{qpos}", direct, four, err))
    _write_csv(out, ["pair", "direct", "fourier", "abs_err"], rows)
    return 0 if max_err <= v["tol"] else 1


@_command("decompose-sweep", grids="4,4,4;8,8,8;12,12,12", rope="4,4,4", base="10000",
          c="0.5", seed="0")
def cmd_decompose_sweep(v, out: Optional[str]) -> int:
    points = decomposition.theorem_scaling_sweep(v["grids"], _rope(v), v["c"], v["seed"])
    rows = [(r["L"], r["tau"], r["nnz"], r["nnz_bound"], r["bg_inf_norm"], r["holds"])
            for r in points]
    _write_csv(out, ["L", "tau", "nnz", "nnz_bound", "bg_inf_norm", "holds"], rows)
    return 0 if all(r["holds"] for r in points) else 1


@_command("reconstruct", grid="6,6,6", rope="4,4,4", base="10000", tau="0.05",
          e_tol="0.02", favor_r="1024", seed="0")
def cmd_reconstruct(v, out: Optional[str]) -> int:
    grid, rope_cfg, tau, e_tol, seed = v["grid"], _rope(v), v["tau"], v["e_tol"], v["seed"]
    # fail fast, before the inputs of a grid of any size are drawn
    for r_dim in v["favor_r"]:
        lowrank.check_reconstruct(grid, tau, e_tol, r_dim)
    q_mat, k_mat = decomposition.synthetic_qk(grid, rope_cfg, seed)

    def summary(r_dim):
        """The CSV row and the exit check of one R, with each failed check
        named on stderr; its L x L arrays are freed before the next R is
        rebuilt."""
        rec = lowrank.reconstruct(q_mat, k_mat, grid, rope_cfg, tau, e_tol, r_dim, seed)
        checks = (("max_err_spike", rec.max_err_spike == 0.0, "0"),
                  ("support_matches_spikes", rec.support_matches_spikes, "true"))
        for name, ok, must in checks:
            if not ok:
                print(f"reconstruct: favor_R={r_dim}: check failed: {name} = "
                      f"{_fmt(getattr(rec, name))}, must be {must}", file=sys.stderr)
        return ((grid.size, tau, e_tol, r_dim, rec.rank_lowrank,
                 rec.nnz_sparse, rec.max_err_spike, rec.max_err_bg),
                all(ok for _, ok, _ in checks))

    runs = [summary(r_dim) for r_dim in v["favor_r"]]
    _write_csv(out, ["L", "tau", "E_tol", "favor_R", "rank", "nnz",
                     "max_err_spike", "max_err_bg"], [row for row, _ in runs])
    return 0 if all(ok for _, ok in runs) else 1


@_command("spectral", grid="4,4,4", rope="4,4,4", base="10000", pairs="10000", seed="0")
def cmd_spectral(v, out: Optional[str]) -> int:
    grid, rope_cfg, pairs, seed = v["grid"], _rope(v), v["pairs"], v["seed"]
    q_mat, k_mat = decomposition.synthetic_qk(grid, rope_cfg, seed)
    report = analysis.spectral_decay_report(q_mat, k_mat, grid, rope_cfg, pairs, seed)
    rows = [(axis, m, mag, tail) for axis in rope3d.AXES
            for m, (mag, tail) in enumerate(zip(report.magnitude[axis], report.tail[axis]), 1)]
    _write_csv(out, ["axis", "m", "magnitude", "tail"], rows)
    return 0


@_command("stable-rank-sweep", grids="5,5,5;8,8,8;10,10,10", rope="4,4,4", base="10000",
          energy="0.9", seed="0")
def cmd_stable_rank_sweep(v, out: Optional[str]) -> int:
    points = analysis.residual_stable_rank_sweep(v["grids"], _rope(v), v["energy"], v["seed"])
    _write_csv(out, ["L", "retained_fraction", "residual_stable_rank"],
               [(r["L"], r["retained_fraction"], r["residual_stable_rank"]) for r in points])
    return 0


TASK_DEFAULTS = {
    "grid": "5,5,5", "rope": "4,2,2", "base": "10000", "heads": "2", "rank": "4",
    "block": "1,5,5", "keep": "0.5", "samples": "2", "seed": "0",
}


def _sparse(v, grid: rope3d.GridShape) -> mechanism.SparseSettings:
    sparse = mechanism.SparseSettings(block=v["block"], keep=v["keep"])
    # fail fast on indivisible blocks before any training starts
    mechanism._block_ids(grid, sparse.block)
    return sparse


def _task(v):
    """The alignment task and the sparse settings of a training command."""
    grid, rope_cfg = v["grid"], _rope(v)
    sparse = _sparse(v, grid)
    task = mechanism.make_alignment_task(grid, rope_cfg, v["heads"], v["samples"], v["seed"])
    return task, sparse


def _trained_forward(v, **settings_kw):
    """Train fresh parameters for `steps` steps, then run sample 0 forward.
    A learning rate under which the loss stops being finite is bad input:
    the diverged parameters have no gate map or spectrum to report."""
    task, sparse = _task(v)
    settings = mechanism.ForwardSettings(sparse=sparse, **settings_kw)
    params = mechanism.init_params(v["heads"], task.cfg.d_h, v["rank"], v["seed"])
    if v["steps"] > 0:
        samples = mechanism.prepare_samples(task.dataset, task.grid, task.cfg, task.backbone,
                                            sparse)
        result = mechanism.train_stage1(samples, task.grid, task.cfg, task.backbone, params,
                                        settings, v["lr"], v["steps"])
        if result.diverged:
            raise InvalidInput(f"lr={v['lr']} diverges: loss {result.final_loss} at step "
                               f"{result.losses.size - 1}")
    x = task.dataset[0][0]
    return task, mechanism.forward(x, task.grid, task.cfg, task.backbone, params, settings)


@_command("gram-spectral", **TASK_DEFAULTS, steps="0", lr="2.0", use_pe="true", modes="4",
          modes_out="")
def cmd_gram_spectral(v, out: Optional[str]) -> int:
    task, trace = _trained_forward(v, use_pe=v["use_pe"])
    spectrum = analysis.gram_spectral(trace.o_lowrank[0], task.grid, v["modes"])
    rows = [(i + 1, spectrum.sigma[i], spectrum.ratio[i], spectrum.energy_fraction[i])
            for i in range(spectrum.sigma.size)]
    _write_csv(out, ["i", "sigma", "ratio", "energy_fraction"], rows)
    if v["modes_out"]:
        grid = task.grid
        mode_rows = [(k + 1, t, x, y, spectrum.modes[k, t, x, y])
                     for k in range(spectrum.modes.shape[0])
                     for t in range(grid.t) for x in range(grid.h) for y in range(grid.w)]
        _write_csv(v["modes_out"], ["mode", "t", "x", "y", "value"], mode_rows)
    return 0


@_command("gate-map", **TASK_DEFAULTS, steps="0", lr="2.0")
def cmd_gate_map(v, out: Optional[str]) -> int:
    task, trace = _trained_forward(v)
    grid = task.grid
    gmap = analysis.gate_map(trace.g, grid)
    rows = [(t, x, y, gmap.values[t, x, y], gmap.frame_means[t])
            for t in range(grid.t) for x in range(grid.h) for y in range(grid.w)]
    _write_csv(out, ["t", "x", "y", "g", "frame_mean"], rows)
    return 0


TRAIN_VARIANTS = (
    ("lowrank_3dpe", "lowrank", True),
    ("lowrank_nope", "lowrank", False),
    ("linear_nope", "linear", False),
    ("linear_3dpe", "linear", True),
)


def _variant_csv(out: str, name: str) -> str:
    """The loss CSV of one train-align variant under the --out prefix."""
    return f"{out}.{name}.csv"


@_command("train-align", **TASK_DEFAULTS, steps="500", lr="2.0")
def cmd_train_align(v, out: Optional[str]) -> int:
    task, sparse = _task(v)
    # the sparse branch is the same for every variant: compute it once
    samples = mechanism.prepare_samples(task.dataset, task.grid, task.cfg, task.backbone,
                                        sparse)
    for name, compensator, use_pe in TRAIN_VARIANTS:
        settings = mechanism.ForwardSettings(sparse=sparse, compensator=compensator,
                                             use_pe=use_pe)
        params = mechanism.init_params(v["heads"], task.cfg.d_h, v["rank"], v["seed"])
        result = mechanism.train_stage1(samples, task.grid, task.cfg, task.backbone, params,
                                        settings, v["lr"], v["steps"])
        if result.diverged:
            print(f"train-align: variant {name} diverged at step {result.losses.size - 1} "
                  f"(loss {result.final_loss})", file=sys.stderr)
        rows = list(enumerate(result.losses))
        if out is None:
            sys.stdout.write(f"# variant={name}\n")
            _write_csv(None, ["step", "loss"], rows)
        else:
            _write_csv(_variant_csv(out, name), ["step", "loss"], rows)
    return 0


@_command("grad-check", grid="2,2,2", rope="2,2,0", base="10000", heads="2", rank="2",
          block="1,2,2", keep="0.5", instances="20", epsilon="1e-5", tol="1e-4", seed="0")
def cmd_grad_check(v, out: Optional[str]) -> int:
    grid, rope_cfg, heads, seed = v["grid"], _rope(v), v["heads"], v["seed"]
    settings = mechanism.ForwardSettings(sparse=_sparse(v, grid))
    mechanism.check_epsilon(v["epsilon"])  # fail fast, before any task is built
    devs = []
    for i in range(v["instances"]):
        task = mechanism.make_alignment_task(grid, rope_cfg, heads, 1, seed + i)
        params = mechanism.init_params(heads, rope_cfg.d_h, v["rank"], seed + 1000 + i)
        x, target = task.dataset[0]
        devs.append(mechanism.grad_check(params, x, target, grid, rope_cfg, task.backbone,
                                         settings, v["epsilon"]))
    _write_csv(out, ["instance", "deviation"], list(enumerate(devs)))
    return 0 if all(d <= v["tol"] for d in devs) else 1


@_command("flops", b="1", h="1", l="118800", d_h="128", s="0.9", r="64")
def cmd_flops(v, out: Optional[str]) -> int:
    fc = flops.FlopsConfig(**v)
    row = (fc.b, fc.h, fc.l, fc.d_h, fc.s, fc.r,
           flops.c_full(fc), flops.c_sparse(fc), flops.c_lowrank(fc),
           flops.c_fusion(fc), flops.c_linear_branch(fc), flops.total_ropeslr(fc),
           flops.lowrank_vs_linear_ratio(fc), flops.overhead_eta(fc))
    _write_csv(out, ["B", "H", "L", "d_h", "S", "r", "c_full", "c_sparse",
                     "c_lowrank", "c_fusion", "c_linear_branch", "c_total",
                     "lowrank_vs_linear_ratio", "overhead_eta"], [row])
    return 0


# ---------------------------------------------------------------------------
# Parser


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: main only
    parses with it."""
    parser = argparse.ArgumentParser(prog="ropeslr",
                                     description="sparse-plus-low-rank attention laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="CSV output path (stdout when omitted)")
        for key, value in defaults.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           help=f"override {key} (default {value or 'none'})")
    return parser


def _output_paths(command: str, v, out: Optional[str]) -> List[str]:
    """Every file a run of `command` writes."""
    paths = [v["modes_out"]] if v.get("modes_out") else []
    if out is not None:
        paths += ([_variant_csv(out, name) for name, _, _ in TRAIN_VARIANTS]
                  if command == "train-align" else [out])
    return paths


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    defaults, handler = _COMMANDS[args.command]
    try:
        v = _config(defaults, args)
        for path in _output_paths(args.command, v, args.out):
            _check_writable(path)
        return handler(v, args.out)
    except InvalidInput as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
