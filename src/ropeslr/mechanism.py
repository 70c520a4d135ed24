"""Gated sparse-plus-low-rank attention forward pass and its alignment trainer.

Per head, a block-sparse branch carries high-energy attention computed from
frozen backbone projections, while a two-layer sigmoid compensator decodes the
smooth global background from the token features after a gated sinusoidal
3D position table has been injected.  Both branches are RMS-normalized and
fused through a token-wise scalar sigmoid gate.  The trainer runs plain
gradient descent on the new parameters only, with hand-derived gradients that
a central finite-difference check validates coordinate by coordinate.

Each branch has one implementation, reached through `_fused_forward` and
`_fused_backward`, with per-head values in token-major (L, H, d_h) arrays
that reshape for free to (L, d_model); a head-wise matmul writes through the
(H, L, d_h) view.  Reductions keep numpy's order, sequential over L and over
heads (from 0) and pairwise over d_h: a matmul would round them differently,
and the trained loss would no longer be that of `forward`.  The L-axis sums
of products in the backward pass are einsums (`_token_sum`), which add in
the same token order without making the product array.

A step holds one sample's arrays at a time.  `_loss_and_grads` lets go of a
sample's output, forward cache and output gradient before the next sample's
forward pass, and writes the error and then the output gradient over the
output.  `_fused_forward` keeps the `_Fused` intermediates and no other
(L, H, d_h) array; `_fused_backward` writes d_u over d_y_lr and d_o_lr over
d_u, and with the lowrank compensator lets that buffer and d_z2 go once d_z1
is made; the linear branch caches its features but not its projections, builds
the projection gradients in place and reuses two (L, d_model) arrays across
its head loop.  No buffer outlives a step.

`train_stage1` takes its training data in one form, the list that
`prepare_samples` makes of the (x, target) pairs, and computes each value
only as often as it can change:

- once per task, `prepare_samples`: the RMS-normalised sparse branch of each
  sample, which reads the raw input through the frozen backbone and so is
  shared by every variant;
- once per variant, `_variant_inputs`: the position table, and with the
  linear compensator and no PE, that compensator's output and its RMS norm
  on each sample, since it then has no parameters and reads x itself;
- on each step, `_loss_and_grads`: the gate, the compensator where it has
  parameters or reads the injected input, the fusion and the backward pass.

`forward` recomputes every branch from x and returns the per-branch values
(the injected input, compensator outputs, normalized branches and the gate)
as a `ForwardTrace`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import InvalidInput
from .decomposition import count_for_mass, row_softmax
from .linalg import as_matrix
from .rope3d import GridShape, RopeConfig, logit_matrix, pair_angles, rotate_rows

RMS_EPS = 1e-6


def sigmoid(x):
    """1 / (1 + exp(-x)) without overflow: with t = exp(-|x|), 1 / (t + 1) for
    x >= 0 and t / (t + 1) below, worked out in one buffer.  The numerator is
    max(t, x >= 0), as t <= 1: a masked copy would branch on the sign."""
    x = np.asarray(x, dtype=np.float64)
    t = np.abs(x, out=np.empty_like(x))
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.maximum(t, x >= 0.0, out=t)
    return np.divide(t, d, out=t)


def elu_plus_one(x):
    """Positive C1 feature map x -> elu(x) + 1 of the linear compensator, as
    exp(min(x, 0)) + max(x, 0), one term of which is exactly 0 or 1."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) + np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# Frozen backbone stand-in


@dataclass(frozen=True)
class Backbone:
    """Fixed per-head query/key/value projections of a pre-trained attention
    layer; never part of the trainable set."""

    w_q: np.ndarray  # (H, d_model, d_h)
    w_k: np.ndarray
    w_v: np.ndarray

    @property
    def n_heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_h(self) -> int:
        return self.w_q.shape[2]


def random_backbone(n_heads: int, d_h: int, seed: int) -> Backbone:
    d_model = n_heads * d_h
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d_model)

    def draw():
        return rng.standard_normal((n_heads, d_model, d_h)) * scale

    return Backbone(w_q=draw(), w_k=draw(), w_v=draw())


def full_attention_reference(x, grid: GridShape, cfg: RopeConfig,
                             backbone: Backbone) -> np.ndarray:
    """Exact rotary softmax attention output, heads concatenated; the target
    the aligned mechanism is trained against."""
    x = as_matrix(x)
    out = np.empty((grid.size, backbone.d_model))
    d_h = backbone.d_h
    # One head's L x L attention is live at a time: it is let go before the
    # next head's logits are made.  Each stays whole.  Freeing it raises
    # glibc's dynamic mmap threshold to its size, so the trainer's later
    # (L, d_model) arrays come from the reused heap.  With 64-row blocks no
    # free exceeds those arrays, and each of them is mapped and unmapped
    # afresh: at L = 1152 a train-align pass then took about 1.0 M minor
    # page faults against 3.7 k, and 1.8 times the wall time.
    for h in range(backbone.n_heads):
        a, _ = row_softmax(logit_matrix(x @ backbone.w_q[h], x @ backbone.w_k[h], grid, cfg))
        out[:, h * d_h:(h + 1) * d_h] = a @ (x @ backbone.w_v[h])
        del a
    return out


# ---------------------------------------------------------------------------
# Trainable parameters


@dataclass
class MechanismParams:
    """The new parameter set: head-wise compensator projections, the PE gate,
    the fusion gate, and the per-branch RMSNorm scales."""

    w_a: np.ndarray  # (H, d_h, r)
    w_b: np.ndarray  # (H, r, d_h)
    alpha: np.ndarray  # (d_model,)
    w_g: np.ndarray  # (d_model,)
    b_g: np.ndarray  # () fusion gate bias
    rms_sparse: np.ndarray  # (d_h,)
    rms_lowrank: np.ndarray  # (d_h,)

    def __post_init__(self):
        # a Python float would not see the in-place updates made through `_leaves`
        self.b_g = np.asarray(self.b_g, dtype=np.float64)

    @property
    def rank(self) -> int:
        return self.w_a.shape[2]


def init_params(n_heads: int, d_h: int, rank: int, seed: int) -> MechanismParams:
    """Gaussian compensator weights at 1/sqrt(fan-in) scale, PE gate at 0.1,
    fusion gate weights at zero with bias -2 so training starts near the pure
    sparse output, unit RMS scales."""
    if min(n_heads, d_h, rank) < 1:
        raise InvalidInput("head count, head dim and rank must be positive")
    rng = np.random.default_rng(seed)
    d_model = n_heads * d_h
    return MechanismParams(
        w_a=rng.standard_normal((n_heads, d_h, rank)) / math.sqrt(d_h),
        w_b=rng.standard_normal((n_heads, rank, d_h)) / math.sqrt(rank),
        alpha=np.full(d_model, 0.1),
        w_g=np.zeros(d_model),
        b_g=-2.0,
        rms_sparse=np.ones(d_h),
        rms_lowrank=np.ones(d_h),
    )


def _leaves(params: MechanismParams) -> List[np.ndarray]:
    """Every parameter array in field order, the gate bias as a 0-d array, so
    that an in-place update of a leaf updates the parameter."""
    return [getattr(params, f.name) for f in fields(params)]


# ---------------------------------------------------------------------------
# 3D position table


def build_pe3d(grid: GridShape, d_model: int, cfg: RopeConfig) -> np.ndarray:
    """Fixed sinusoidal table over (t, x, y): the rotary pair schedule of `cfg`
    widened by s = d_model / d_h, so each axis block is s times as wide and
    keeps the frequency schedule at that width.  Pair j's angle gives sin at
    column 2j and cos at column 2j + 1."""
    if d_model % cfg.d_h != 0:
        raise ValueError(f"d_model={d_model} is not a multiple of the head dim {cfg.d_h}")
    s = d_model // cfg.d_h
    ang = pair_angles(grid, RopeConfig(cfg.d_t * s, cfg.d_x * s, cfg.d_y * s, cfg.base))
    table = np.empty((grid.size, d_model))
    table[:, 0::2] = np.sin(ang)
    table[:, 1::2] = np.cos(ang)
    return table


# ---------------------------------------------------------------------------
# Branches


@dataclass(frozen=True)
class SparseSettings:
    """Block partition of the grid and the cumulative block-score mass each
    query block keeps."""

    block: Tuple[int, int, int]
    keep: float

    def __post_init__(self):
        if len(self.block) != 3 or min(self.block) < 1:
            raise InvalidInput(f"block dims must be three positive counts, got {self.block}")
        if not (0.0 < self.keep <= 1.0):
            raise InvalidInput(f"keep must lie in (0, 1], got {self.keep}")


@dataclass(frozen=True)
class BlockSparseResult:
    output: np.ndarray
    selected: np.ndarray  # (n_blocks, n_blocks) bool, query block -> key blocks
    sparsity: float  # 1 - attended pairs / L^2


def _block_ids(grid: GridShape, block: Tuple[int, int, int]) -> Tuple[np.ndarray, int]:
    b_t, b_x, b_y = block
    if grid.t % b_t or grid.h % b_x or grid.w % b_y:
        raise InvalidInput(f"block dims {block} do not divide grid {(grid.t, grid.h, grid.w)}")
    n_x, n_y = grid.h // b_x, grid.w // b_y
    coords = grid.coords()
    ids = (coords[:, 0] // b_t) * (n_x * n_y) + (coords[:, 1] // b_x) * n_y + (coords[:, 2] // b_y)
    return ids, (grid.t // b_t) * n_x * n_y


def block_sparse_attention(x, grid: GridShape, cfg: RopeConfig, backbone: Backbone,
                           head: int, settings: SparseSettings) -> BlockSparseResult:
    """Threshold-driven block routing: key blocks are scored by mean-pooled
    rotated queries against mean-pooled rotated keys, the block-score softmax
    is accumulated until `keep` mass is covered (never fewer than one block),
    and exact softmax attention runs inside the selected token set."""
    x = as_matrix(x)
    if x.shape != (grid.size, backbone.d_model):
        raise ValueError(f"expected input shape {(grid.size, backbone.d_model)}, got {x.shape}")
    if not (0 <= head < backbone.n_heads):
        raise ValueError(f"head {head} out of range")
    rq = rotate_rows(x @ backbone.w_q[head], grid, cfg)
    rk = rotate_rows(x @ backbone.w_k[head], grid, cfg)
    v = x @ backbone.w_v[head]

    ids, n_blocks = _block_ids(grid, settings.block)
    members = [np.flatnonzero(ids == b) for b in range(n_blocks)]
    pooled_q = np.stack([rq[m].mean(axis=0) for m in members])
    pooled_k = np.stack([rk[m].mean(axis=0) for m in members])
    probs, _ = row_softmax((pooled_q @ pooled_k.T) / math.sqrt(cfg.d_h))

    out = np.empty((grid.size, backbone.d_h))
    selected = np.zeros((n_blocks, n_blocks), dtype=bool)
    attended = 0
    for qb in range(n_blocks):
        order = np.argsort(-probs[qb], kind="stable")
        n_keep = int(count_for_mass(probs[qb][order], settings.keep))
        chosen = order[:n_keep]
        selected[qb, chosen] = True
        keys = np.concatenate([members[b] for b in sorted(chosen)])
        qtok = members[qb]
        a, _ = row_softmax((rq[qtok] @ rk[keys].T) / math.sqrt(cfg.d_h))
        out[qtok] = a @ v[keys]
        attended += qtok.size * keys.size
    return BlockSparseResult(output=out, selected=selected,
                             sparsity=1.0 - attended / grid.size ** 2)


_LINEAR_FLOOR = 1e-8


def _heads(a, n_heads):
    """(L, H·d_h) -> (H, L, d_h) view: head h is columns h·d_h to (h+1)·d_h."""
    return a.reshape(a.shape[0], n_heads, -1).transpose(1, 0, 2)


def _linear_forward(x_hat, backbone):
    """Kernelized linear attention of every head through the frozen backbone,
    (L, H, d_h), O(L) in token count; the positive feature map cannot carry
    rotary structure, which is the gap the low-rank compensator closes.  Its
    intermediates are head-major; the cache is (v, pq, pk, smat, svec, raw,
    denom, numer), without the projections q and k, which the backward pass
    reads only through their features."""
    pq = elu_plus_one(x_hat @ backbone.w_q)
    pk = elu_plus_one(x_hat @ backbone.w_k)
    v = x_hat @ backbone.w_v
    smat = pk.swapaxes(1, 2) @ v
    svec = pk.sum(axis=1)
    raw = (pq @ svec[:, :, None])[:, :, 0]
    denom = np.maximum(raw, _LINEAR_FLOOR)
    numer = pq @ smat
    out = np.empty_like(numer.swapaxes(0, 1), order="C")
    np.divide(numer, denom[:, :, None], out=out.swapaxes(0, 1))
    return out, (v, pq, pk, smat, svec, raw, denom, numer)


def _linear_backward(g_out, cache, backbone):
    """Gradient of the linear branch with respect to its input matrix, from
    that of its (L, H, d_h) output: per head the q + k + v term, added to a
    sum from 0 in head order, without making an (H, L, d_model) array.  The
    projection gradients d_q and d_k are made in place from the feature
    gradients, and the head loop writes its products into two (L, d_model)
    arrays."""
    v, pq, pk, smat, svec, raw, denom, numer = cache
    g_out = g_out.swapaxes(0, 1)
    d_numer = g_out / denom[:, :, None]
    d_denom = -np.sum(g_out * numer, axis=2) / (denom * denom)
    d_raw = np.where(raw > _LINEAR_FLOOR, d_denom, 0.0)
    d_q = d_numer @ smat.swapaxes(1, 2)
    d_q += d_raw[:, :, None] * svec[:, None, :]
    d_smat = pq.swapaxes(1, 2) @ d_numer
    del d_numer
    d_svec = (pq.swapaxes(1, 2) @ d_raw[:, :, None])[:, :, 0]
    d_k = v @ d_smat.swapaxes(1, 2)
    d_k += d_svec[:, None, :]
    d_v = pk @ d_smat
    # the derivative of elu(x) + 1 is 1 above 0, where the feature is at least 1,
    # and the feature itself below
    d_q *= np.minimum(pq, 1.0)
    d_k *= np.minimum(pk, 1.0)
    total = np.zeros((v.shape[1], backbone.d_model))
    t = np.empty_like(total)
    u = np.empty_like(total)
    for h in range(backbone.n_heads):
        np.matmul(d_q[h], backbone.w_q[h].T, out=t)
        t += np.matmul(d_k[h], backbone.w_k[h].T, out=u)
        t += np.matmul(d_v[h], backbone.w_v[h].T, out=u)
        total += t
    return total


# ---------------------------------------------------------------------------
# Fused forward


@dataclass(frozen=True)
class ForwardSettings:
    sparse: SparseSettings
    compensator: str = "lowrank"  # "lowrank" or "linear"
    use_pe: bool = True

    def __post_init__(self):
        if self.compensator not in ("lowrank", "linear"):
            raise ValueError(f"unknown compensator {self.compensator!r}")


@dataclass(frozen=True)
class ForwardTrace:
    x_hat: np.ndarray
    o_sparse: np.ndarray  # (H, L, d_h)
    o_lowrank: np.ndarray  # (H, L, d_h) compensator outputs, pre-normalization
    norm_sparse: np.ndarray
    norm_lowrank: np.ndarray
    g: np.ndarray  # (L,)
    output: np.ndarray  # (L, d_model)
    sparsity: np.ndarray  # (H,) achieved per head


# The intermediates of one `_fused_forward`: (L, H, d_h) arrays, except x_hat
# (L, d_model), g (L,), inv_lowrank (L, H, 1) and the compensator's own
# head-major `branch`, which is None for a compensator fixed in training.
_Fused = namedtuple("_Fused", "x_hat g u_sparse y_sparse o_lowrank u_lowrank inv_lowrank "
                    "y_lowrank branch")


def _rms(o):
    """Each row over its root mean square, and the inverse root mean square."""
    inv = 1.0 / np.sqrt(np.mean(o * o, axis=-1, keepdims=True) + RMS_EPS)
    return o * inv, inv


def _fused_forward(x, u_sparse, pe, backbone, params, settings, fixed_compensator=None):
    """Forward pass against the RMS-normalised (L, H, d_h) sparse branch
    `u_sparse`; returns the fused output and its `_Fused` intermediates.
    `fixed_compensator`, when given, is the (o_lowrank, u_lowrank,
    inv_lowrank) of a compensator that is constant in training (linear, no
    PE), made once per sample by `_variant_inputs`; otherwise the compensator
    runs here."""
    x_hat = x + params.alpha[None, :] * pe if settings.use_pe else x
    g = sigmoid(x_hat @ params.w_g + params.b_g)
    branch = None
    if fixed_compensator is not None:
        o_lr, u_lr, inv_lr = fixed_compensator
    else:
        if settings.compensator == "lowrank":
            xh = _heads(x_hat, backbone.n_heads)
            h1 = sigmoid(xh @ params.w_a)
            z2 = np.empty_like(u_sparse)
            np.matmul(h1, params.w_b, out=z2.swapaxes(0, 1))
            o_lr = sigmoid(z2)
            del z2
            branch = (xh, h1)
        else:
            o_lr, branch = _linear_forward(x_hat, backbone)
        u_lr, inv_lr = _rms(o_lr)
    y_sp = u_sparse * params.rms_sparse
    y_lr = u_lr * params.rms_lowrank
    out = (y_sp + g[:, None, None] * y_lr).reshape(x.shape)
    return out, _Fused(x_hat, g, u_sparse, y_sp, o_lr, u_lr, inv_lr, y_lr, branch)


def _token_sum(a, b):
    """np.sum(a * b, axis=0) without the product array: an einsum over the
    token axis 0, which adds the products in token order as that sum does.
    It starts from +0 where the sum starts from the first product, so an
    exact zero may differ in sign; that cannot reach a gradient, which is
    accumulated onto +0.  A one-element result would be summed with several
    accumulators; every result here has at least d_h >= 2 elements."""
    return np.einsum("l...,l...->...", a, b)


def _fused_backward(g_out, fwd_cache, pe, backbone, params, settings,
                    grads: MechanismParams):
    """Accumulate gradients of a scalar loss (with d loss / d output = g_out)
    into `grads`; only the new-parameter set receives gradient.  The sparse
    branch is constant, so its only gradient is that of its RMS scale."""
    c = fwd_cache
    g3 = g_out.reshape(c.u_sparse.shape)
    d_y_lr = g3 * c.g[:, None, None]
    # the RMS scales are shared by all heads: sum each head over L in token
    # order, then add the heads one by one, as one sum over heads and tokens
    # would round a second sample differently
    for d_sp, d_lr in zip(_token_sum(g3, c.u_sparse), _token_sum(d_y_lr, c.u_lowrank)):
        grads.rms_sparse += d_sp
        grads.rms_lowrank += d_lr
    # the gate's gradient: per head a pairwise sum over d_h, then the heads from 0
    d_zg = np.zeros_like(c.g)
    for per_head in np.sum(g3 * c.y_lowrank, axis=2).T:
        d_zg += per_head
    d_zg = d_zg * c.g * (1.0 - c.g)
    grads.w_g += c.x_hat.T @ d_zg
    grads.b_g += d_zg.sum()
    lowrank = settings.compensator == "lowrank"
    # the linear compensator has no parameters: without PE, the gradient of
    # its output reaches none, and neither does the input gradient
    if not (lowrank or settings.use_pe):
        return
    # d_u is written over d_y_lr, and d_o_lr over d_u once dot is taken
    d_u = np.multiply(d_y_lr, params.rms_lowrank, out=d_y_lr)
    dot = np.sum(d_u * c.o_lowrank, axis=2, keepdims=True)
    d_o_lr = np.multiply(d_u, c.inv_lowrank, out=d_u)
    d_o_lr -= c.o_lowrank * (c.inv_lowrank ** 3 * dot / backbone.d_h)
    if lowrank:
        xh, h1 = c.branch
        d_z2 = (d_o_lr * c.o_lowrank * (1.0 - c.o_lowrank)).swapaxes(0, 1)
        grads.w_b += h1.swapaxes(1, 2) @ d_z2
        d_z1 = (d_z2 @ params.w_b.swapaxes(1, 2)) * h1 * (1.0 - h1)
        # d_z2 and the d_y_lr buffer are not read again: free them before d_branch
        del d_z2, d_o_lr, d_u, d_y_lr
        grads.w_a += xh.swapaxes(1, 2) @ d_z1
    if settings.use_pe:
        if lowrank:
            d_branch = np.empty_like(pe)
            np.matmul(d_z1, params.w_a.swapaxes(1, 2), out=_heads(d_branch, backbone.n_heads))
        else:
            d_branch = _linear_backward(d_o_lr, c.branch, backbone)
        d_branch += np.outer(d_zg, params.w_g)
        grads.alpha += _token_sum(d_branch, pe)


def _sparse_branch(x, grid, cfg, backbone, sparse: SparseSettings):
    """The block-sparse result of every head of one input, and their outputs
    stacked token-major, (L, H, d_h)."""
    results = [block_sparse_attention(x, grid, cfg, backbone, h, sparse)
               for h in range(backbone.n_heads)]
    return results, np.stack([r.output for r in results], axis=1)


def forward(x, grid: GridShape, cfg: RopeConfig, backbone: Backbone,
            params: MechanismParams, settings: ForwardSettings) -> ForwardTrace:
    """Full mechanism forward pass from x, every branch computed afresh;
    deterministic for identical inputs.  The per-head trace fields are
    (H, L, d_h) views of the token-major values."""
    x = as_matrix(x)
    if x.shape != (grid.size, backbone.d_model):
        raise ValueError(f"expected input shape {(grid.size, backbone.d_model)}, got {x.shape}")
    results, o_sparse = _sparse_branch(x, grid, cfg, backbone, settings.sparse)
    pe = build_pe3d(grid, backbone.d_model, cfg) if settings.use_pe else None
    out, c = _fused_forward(x, _rms(o_sparse)[0], pe, backbone, params, settings)
    return ForwardTrace(x_hat=c.x_hat, o_sparse=o_sparse.swapaxes(0, 1),
                        o_lowrank=c.o_lowrank.swapaxes(0, 1),
                        norm_sparse=c.y_sparse.swapaxes(0, 1),
                        norm_lowrank=c.y_lowrank.swapaxes(0, 1), g=c.g, output=out,
                        sparsity=np.array([r.sparsity for r in results]))


# ---------------------------------------------------------------------------
# Trainer and the finite-difference gradient check


@dataclass(frozen=True)
class PreparedSample:
    """One training pair with the values of it that training reuses."""

    x: np.ndarray
    target: np.ndarray
    u_sparse: np.ndarray  # (L, H, d_h) sparse branch, RMS-normalised, token-major
    # token-major (o_lowrank, u_lowrank, inv_lowrank) of a compensator constant in training
    fixed_compensator: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


def prepare_samples(dataset: Sequence[Tuple[np.ndarray, np.ndarray]], grid: GridShape,
                    cfg: RopeConfig, backbone: Backbone,
                    sparse: SparseSettings) -> List[PreparedSample]:
    """Check the (x, target) pairs and RMS-normalise the sparse branch of each,
    the form in which `train_stage1` takes its training data.  The sparse
    branch reads the raw input through the frozen backbone, so it is the same
    for every variant and step: every `train_stage1` on one task can share
    these samples."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    pairs = [(as_matrix(x), as_matrix(target)) for x, target in dataset]
    for x, target in pairs:
        if x.shape != (grid.size, backbone.d_model) or target.shape != x.shape:
            raise ValueError("dataset sample shapes must be (L, d_model)")
    return [PreparedSample(x=x, target=target,
                           u_sparse=_rms(_sparse_branch(x, grid, cfg, backbone, sparse)[1])[0])
            for x, target in pairs]


def _variant_inputs(samples, grid, cfg, backbone, settings):
    """What is constant for one variant: the position table (None without
    PE) and, for the linear compensator without PE, which has no parameters
    and reads x itself, its normalised output on each sample."""
    pe = build_pe3d(grid, backbone.d_model, cfg) if settings.use_pe else None
    if settings.compensator == "linear" and not settings.use_pe:
        constant = []
        for s in samples:
            o_lr, _ = _linear_forward(s.x, backbone)
            constant.append(replace(s, fixed_compensator=(o_lr, *_rms(o_lr))))
        samples = constant
    return samples, pe


def _loss_and_grads(samples, pe, backbone, params, settings, want_grads: bool = True):
    """Mean squared error over the samples, and its gradients when asked.

    One sample's step arrays are live at a time: its output, forward cache
    and backward temporaries are let go before the next sample's forward
    pass.  The error and then the output gradient are written over the
    output: out - target, then 2 * diff, then / (size * n)."""
    total = 0.0
    grads = MechanismParams(*map(np.zeros_like, _leaves(params))) if want_grads else None
    n = len(samples)
    for s in samples:
        diff, cache = _fused_forward(s.x, s.u_sparse, pe, backbone, params, settings,
                                     s.fixed_compensator)
        diff -= s.target
        total += float(np.mean(diff * diff)) / n
        if want_grads:
            diff *= 2.0
            diff /= diff.size * n
            _fused_backward(diff, cache, pe, backbone, params, settings, grads)
        del diff, cache
    return total, grads


@dataclass(frozen=True)
class TrainResult:
    losses: np.ndarray  # loss before each update plus the final loss
    diverged: bool

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def train_stage1(samples: Sequence[PreparedSample], grid: GridShape, cfg: RopeConfig,
                 backbone: Backbone, params: MechanismParams, settings: ForwardSettings,
                 lr: float, steps: int) -> TrainResult:
    """Plain gradient descent on the new parameters against fixed targets.

    `samples` are the `prepare_samples` of the training pairs under
    `settings.sparse`; variants trained on one task pass the same list, so
    the sparse branch is computed once for all of them.  Mutates `params` in
    place; a NaN loss aborts the run and reports it."""
    if not (np.isfinite(lr) and lr >= 0.0):
        raise InvalidInput(f"learning rate must be a non-negative real, got {lr}")
    if steps < 0:
        raise InvalidInput("step count must be non-negative")
    losses = []
    # overflow in an exploding run shows up as a non-finite loss and aborts
    # the loop; the warnings themselves are noise.  A constant compensator is
    # part of every step, so it is made under the same state.
    with np.errstate(over="ignore", invalid="ignore"):
        samples, pe = _variant_inputs(samples, grid, cfg, backbone, settings)
        for step in range(steps + 1):
            loss, grads = _loss_and_grads(samples, pe, backbone, params, settings,
                                          want_grads=step < steps)
            losses.append(loss)
            if not np.isfinite(loss):
                return TrainResult(losses=np.asarray(losses), diverged=True)
            if step == steps:
                break
            for leaf, grad in zip(_leaves(params), _leaves(grads)):
                leaf -= lr * grad
    return TrainResult(losses=np.asarray(losses), diverged=False)


def check_epsilon(epsilon: float) -> None:
    if not (1e-7 <= epsilon <= 1e-4):
        raise InvalidInput(f"epsilon must lie in [1e-7, 1e-4], got {epsilon}")


def grad_check(params: MechanismParams, x, target, grid: GridShape, cfg: RopeConfig,
               backbone: Backbone, settings: ForwardSettings,
               epsilon: float = 1e-5) -> float:
    """Max relative deviation between the analytic gradient and a central
    finite difference over every trainable coordinate."""
    check_epsilon(epsilon)
    samples = prepare_samples([(x, target)], grid, cfg, backbone, settings.sparse)
    samples, pe = _variant_inputs(samples, grid, cfg, backbone, settings)

    def loss_only():
        val, _ = _loss_and_grads(samples, pe, backbone, params, settings, want_grads=False)
        return val

    _, grads = _loss_and_grads(samples, pe, backbone, params, settings)
    worst = 0.0
    for arr, analytic in zip(_leaves(params), _leaves(grads)):
        flat = arr.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss_only()
            flat[i] = orig - epsilon
            down = loss_only()
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            worst = max(worst, abs(aflat[i] - numeric) / (abs(numeric) + 1e-8))
    return worst


# ---------------------------------------------------------------------------
# Synthetic alignment task


@dataclass(frozen=True)
class AlignmentTask:
    grid: GridShape
    cfg: RopeConfig
    backbone: Backbone
    dataset: List[Tuple[np.ndarray, np.ndarray]]


# Content classes per sample, the noise on their embeddings, and the
# query/key gain of the alignment task's backbone.
N_CLASSES = 3
CONTENT_NOISE = 0.05
QK_GAIN = 1.5


def make_alignment_task(grid: GridShape, cfg: RopeConfig, n_heads: int,
                        n_samples: int, seed: int) -> AlignmentTask:
    """Synthetic alignment data with exact full-attention targets.

    Tokens carry one of a few shared content embeddings plus small noise, so
    absolute coordinates are not recoverable from content alone and must be
    decoded from the injected position table; the query/key gain sharpens the
    rotary position structure of the target attention. Values stay at unit
    scale so targets are magnitude-matched to the normalized branches.
    """
    if n_samples < 1:
        raise InvalidInput("need at least one sample")
    base = random_backbone(n_heads, cfg.d_h, seed)
    backbone = Backbone(w_q=base.w_q * QK_GAIN, w_k=base.w_k * QK_GAIN, w_v=base.w_v)
    rng = np.random.default_rng(seed + 1)
    coords = grid.coords()
    group = (coords[:, 0] + coords[:, 1] + coords[:, 2]) % N_CLASSES
    dataset = []
    for _ in range(n_samples):
        emb = rng.standard_normal((N_CLASSES, backbone.d_model))
        x = emb[group] + CONTENT_NOISE * rng.standard_normal((grid.size, backbone.d_model))
        dataset.append((x, full_attention_reference(x, grid, cfg, backbone)))
    return AlignmentTask(grid=grid, cfg=cfg, backbone=backbone, dataset=dataset)
