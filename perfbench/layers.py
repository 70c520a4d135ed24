"""The ropeslr functions the traced run times, and the per-layer metrics that
come from their spans.

Each function is named `<module>.<function>` after the ropeslr module that
defines it.  Besides the library's layer functions, the list holds every
library entry point the CLI calls for the benchmark's experiments, so that
`cli.main.self_s` is the CLI's own time (parsing, checks, CSV formatting).
"""

from __future__ import annotations

import math
from typing import Dict, List

from tracer import Probe, Tracer, group, self_seconds

MB = float(2 ** 20)

TIMED = (
    "cli.main",
    "decomposition.synthetic_qk",
    "decomposition.scaling_sweep_point",
    "rope3d.logit_matrix",
    "decomposition.softmax_attention",
    "decomposition.energy_split",
    "decomposition.row_energy_split",
    "rope3d.choose_truncation",
    "linalg.numerical_rank",
    "linalg.stable_rank",
    "lowrank.reconstruct",
    "lowrank._truncated_svd_factors",
    "lowrank.approx_kernel",
    "lowrank.normalize_rows",
    "lowrank.residual_sparse",
    "analysis.residual_stable_rank_sweep",
    "mechanism.make_alignment_task",
    "mechanism.train_stage1",
    "mechanism.block_sparse_attention",
    "mechanism._loss_and_grads",
    "mechanism._fused_forward",
    "mechanism._fused_backward",
)

# (name, unit, better) of every per-layer metric, in output order.  One
# `_loss_and_grads` call is one training step, hence `mechanism.train_step`.
PER_LAYER = [m for name in TIMED for m in ((f"{name}.s", "s", "lower"),
                                           (f"{name}.calls", "count", "lower"))] + [
    ("cli.main.self_s", "s", "lower"),
    ("linalg.numerical_rank.useful_ratio", "frac", "higher"),
    ("rope3d.choose_truncation.tmp_mb", "MB", "lower"),
    ("lowrank.reconstruct.self_s", "s", "lower"),
    ("lowrank.reconstruct.out_mb", "MB", "lower"),
    ("analysis.residual_stable_rank_sweep.self_s", "s", "lower"),
    ("mechanism.train_step.p50_s", "s", "lower"),
    ("mechanism.train_step.p90_s", "s", "lower"),
    ("mechanism.block_sparse_attention.sparsity", "frac", "higher"),
    ("mechanism.block_sparse_attention.ns_per_mac", "ns/MAC", "lower"),
    ("mechanism.compensator.ns_per_mac", "ns/MAC", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def probes(flops) -> Dict[str, Probe]:
    """Probes for every timed function; `flops` is ropeslr's cost model, used
    to count the multiply-accumulates each mechanism call should cost."""

    def rank_use(args, rank):
        return {"useful": rank, "computed": min(args["a"].shape)}

    def reconstruction(args, rec):
        return {"out_bytes": sum(v.nbytes for v in vars(rec).values() if hasattr(v, "nbytes")),
                "cutoffs": [int(m) for m in rec.cutoffs]}

    def sparse_macs(args, res):
        fc = flops.FlopsConfig(b=1, h=1, l=args["grid"].size, d_h=args["cfg"].d_h,
                               s=res.sparsity, r=1)
        return {"sparsity": res.sparsity, "macs": flops.c_sparse(fc)}

    def compensator_macs(args, res):
        if args["settings"].compensator != "lowrank":
            return {}
        backbone = args["backbone"]
        fc = flops.FlopsConfig(b=1, h=backbone.n_heads, l=args["x"].shape[0],
                               d_h=backbone.d_h, s=0.0, r=args["params"].rank)
        return {"macs": flops.c_lowrank(fc) + flops.c_fusion(fc)}

    out = {name: Probe() for name in TIMED}
    out["linalg.numerical_rank"] = Probe(annotate=rank_use)
    out["rope3d.choose_truncation"] = Probe(memory=True)
    out["lowrank.reconstruct"] = Probe(annotate=reconstruction)
    out["mechanism.block_sparse_attention"] = Probe(annotate=sparse_macs)
    out["mechanism._fused_forward"] = Probe(annotate=compensator_macs)
    return out


def cutoffs_used(tracer: Tracer) -> Dict[object, List[int]]:
    """The truncation cutoffs each experiment's `reconstruct` call used, by
    experiment id, as the `lowrank.reconstruct` probe recorded them."""
    return {s.experiment: s.info["cutoffs"] for s in tracer.spans
            if s.name == "lowrank.reconstruct" and s.info and "cutoffs" in s.info}


def _nearest_rank(sorted_values: List[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """Every PER_LAYER metric except `trace.overhead_frac`, which needs the
    untraced run.  A function that was never called, or that ropeslr no longer
    defines, reads 0 with 0 calls."""
    spans = tracer.spans
    own = self_seconds(spans)
    by_name = group(spans)

    def ids(name):
        return by_name.get(name, [])

    def infos(name, key):
        return [spans[i].info[key] for i in ids(name) if spans[i].info and key in spans[i].info]

    def self_s(name):
        return sum(own[i] for i in ids(name))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out: Dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.s"] = sum(spans[i].seconds for i in ids(name))
        out[f"{name}.calls"] = len(ids(name))
    out["cli.main.self_s"] = self_s("cli.main")
    out["linalg.numerical_rank.useful_ratio"] = ratio(
        sum(infos("linalg.numerical_rank", "useful")),
        sum(infos("linalg.numerical_rank", "computed")))
    out["rope3d.choose_truncation.tmp_mb"] = max(
        infos("rope3d.choose_truncation", "peak_bytes"), default=0) / MB
    out["lowrank.reconstruct.self_s"] = self_s("lowrank.reconstruct")
    out["lowrank.reconstruct.out_mb"] = max(infos("lowrank.reconstruct", "out_bytes"),
                                            default=0) / MB
    out["analysis.residual_stable_rank_sweep.self_s"] = self_s(
        "analysis.residual_stable_rank_sweep")
    steps = sorted(spans[i].seconds for i in ids("mechanism._loss_and_grads"))
    out["mechanism.train_step.p50_s"] = _nearest_rank(steps, 0.5)
    out["mechanism.train_step.p90_s"] = _nearest_rank(steps, 0.9)
    sparsity = infos("mechanism.block_sparse_attention", "sparsity")
    out["mechanism.block_sparse_attention.sparsity"] = ratio(sum(sparsity), len(sparsity))
    out["mechanism.block_sparse_attention.ns_per_mac"] = ratio(
        out["mechanism.block_sparse_attention.s"],
        sum(infos("mechanism.block_sparse_attention", "macs")), 1e9)
    fused = [i for i in ids("mechanism._fused_forward") if spans[i].info]
    out["mechanism.compensator.ns_per_mac"] = ratio(
        sum(spans[i].seconds for i in fused), sum(spans[i].info["macs"] for i in fused), 1e9)
    return out
