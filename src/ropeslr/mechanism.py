"""Gated sparse-plus-low-rank attention forward pass and its alignment trainer.

Per head, a block-sparse branch carries high-energy attention computed from
frozen backbone projections, while a two-layer sigmoid compensator decodes the
smooth global background from the token features after a gated sinusoidal
3D position table has been injected.  Both branches are RMS-normalized and
fused through a token-wise scalar sigmoid gate.  The trainer runs plain
gradient descent on the new parameters only, with hand-derived gradients that
a central finite-difference check validates coordinate by coordinate.

Each branch has one implementation, inside `_fused_forward` and
`_fused_backward`; `forward` returns its per-branch values (the injected
input, compensator outputs, normalized branches and the gate) as the fields
of a `ForwardTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import count_for_mass, row_softmax
from .linalg import as_matrix
from .rope3d import AXES, GridShape, RopeConfig, logit_matrix, rotate_rows

RMS_EPS = 1e-6


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def elu_plus_one(x):
    """Positive C1 feature map x -> elu(x) + 1 of the linear compensator."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0.0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _elu_plus_one_grad(x):
    return np.where(x > 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


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
    for h in range(backbone.n_heads):
        a, _ = row_softmax(logit_matrix(x @ backbone.w_q[h], x @ backbone.w_k[h], grid, cfg))
        out[:, h * d_h:(h + 1) * d_h] = a @ (x @ backbone.w_v[h])
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
    def n_heads(self) -> int:
        return self.w_a.shape[0]

    @property
    def d_h(self) -> int:
        return self.w_a.shape[1]

    @property
    def rank(self) -> int:
        return self.w_a.shape[2]

    @property
    def d_model(self) -> int:
        return self.alpha.shape[0]


def init_params(n_heads: int, d_h: int, rank: int, seed: int) -> MechanismParams:
    """Gaussian compensator weights at 1/sqrt(fan-in) scale, PE gate at 0.1,
    fusion gate weights at zero with bias -2 so training starts near the pure
    sparse output, unit RMS scales."""
    if min(n_heads, d_h, rank) < 1:
        raise ValueError("head count, head dim and rank must be positive")
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


def zero_grads(params: MechanismParams) -> MechanismParams:
    return MechanismParams(*[np.zeros_like(a) for a in _leaves(params)])


def save_params(path, params: MechanismParams) -> None:
    """Checkpoint as a key -> array map with shape headers; float64 round
    trips exactly."""
    np.savez(path, **{f.name: getattr(params, f.name) for f in fields(params)})


def load_params(path) -> MechanismParams:
    with np.load(path) as data:
        return MechanismParams(**{f.name: data[f.name] for f in fields(MechanismParams)})


# ---------------------------------------------------------------------------
# 3D position table


def build_pe3d(grid: GridShape, d_model: int, cfg: RopeConfig) -> np.ndarray:
    """Fixed sinusoidal table over (t, x, y): the model width is split across
    axes proportionally to the rotary split, and each axis block interleaves
    (sin, cos) pairs of the frequency schedule at that block width."""
    d_h = cfg.d_h
    if d_model % d_h != 0:
        raise ValueError(f"d_model={d_model} is not a multiple of the head dim {d_h}")
    widths = []
    for axis in AXES:
        numer = d_model * cfg.axis_dim(axis)
        if numer % d_h != 0:
            raise ValueError(f"axis block width {numer}/{d_h} is not an integer")
        width = numer // d_h
        if width % 2 != 0:
            raise ValueError(f"axis block width {width} must be even")
        widths.append(width)
    coords = grid.coords()
    table = np.empty((grid.size, d_model))
    col = 0
    for ai, width in enumerate(widths):
        c = coords[:, ai].astype(np.float64)
        for m in range(1, width // 2 + 1):
            theta = cfg.base ** (-2.0 * (m - 1) / width)
            table[:, col] = np.sin(theta * c)
            table[:, col + 1] = np.cos(theta * c)
            col += 2
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
            raise ValueError(f"block dims must be three positive counts, got {self.block}")
        if not (0.0 < self.keep <= 1.0):
            raise ValueError(f"keep must lie in (0, 1], got {self.keep}")


@dataclass(frozen=True)
class BlockSparseResult:
    output: np.ndarray
    selected: np.ndarray  # (n_blocks, n_blocks) bool, query block -> key blocks
    sparsity: float  # 1 - attended pairs / L^2


def _block_ids(grid: GridShape, block: Tuple[int, int, int]) -> Tuple[np.ndarray, int]:
    b_t, b_x, b_y = block
    if grid.t % b_t or grid.h % b_x or grid.w % b_y:
        raise ValueError(f"block dims {block} do not divide grid {(grid.t, grid.h, grid.w)}")
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


def _linear_head_forward(x_hat, backbone, head):
    """Kernelized linear attention of one head through the frozen backbone,
    O(L) in token count; the positive feature map cannot carry rotary
    structure, which is the gap the low-rank compensator closes."""
    q = x_hat @ backbone.w_q[head]
    k = x_hat @ backbone.w_k[head]
    v = x_hat @ backbone.w_v[head]
    pq = elu_plus_one(q)
    pk = elu_plus_one(k)
    smat = pk.T @ v
    svec = pk.sum(axis=0)
    raw = pq @ svec
    denom = np.maximum(raw, _LINEAR_FLOOR)
    numer = pq @ smat
    out = numer / denom[:, None]
    return out, (q, k, v, pq, pk, smat, raw, denom, numer)


def _linear_head_backward(g_out, cache, backbone, head):
    """Gradient of the linear branch with respect to its input matrix."""
    q, k, v, pq, pk, smat, raw, denom, numer = cache
    d_numer = g_out / denom[:, None]
    d_denom = -np.sum(g_out * numer, axis=1) / (denom * denom)
    d_raw = np.where(raw > _LINEAR_FLOOR, d_denom, 0.0)
    svec = pk.sum(axis=0)
    d_pq = d_numer @ smat.T + d_raw[:, None] * svec[None, :]
    d_smat = pq.T @ d_numer
    d_svec = pq.T @ d_raw
    d_pk = v @ d_smat.T + d_svec[None, :]
    d_v = pk @ d_smat
    d_q = d_pq * _elu_plus_one_grad(q)
    d_k = d_pk * _elu_plus_one_grad(k)
    return (d_q @ backbone.w_q[head].T + d_k @ backbone.w_k[head].T
            + d_v @ backbone.w_v[head].T)


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


def _rms_cache(o, scale):
    """RMS norm of each row times the channel scales, and what its backward
    pass needs."""
    inv = 1.0 / np.sqrt(np.mean(o * o, axis=1, keepdims=True) + RMS_EPS)
    u = o * inv
    return u * scale[None, :], (o, inv, u)


def _rms_backward(d_y, cache, scale):
    o, inv, u = cache
    d_scale = np.sum(d_y * u, axis=0)
    d_u = d_y * scale[None, :]
    dot = np.sum(d_u * o, axis=1, keepdims=True)
    d_o = d_u * inv - o * (inv ** 3 * dot / o.shape[1])
    return d_o, d_scale


def _fused_forward(x, sparse_out, pe, backbone, params, settings):
    """Forward pass against precomputed per-head sparse outputs; returns the
    fused output plus every intermediate the backward pass needs."""
    if settings.use_pe:
        x_hat = x + params.alpha[None, :] * pe
    else:
        x_hat = x
    d_h = backbone.d_h
    zg = x_hat @ params.w_g + params.b_g
    g = sigmoid(zg)
    ell = x.shape[0]
    out = np.empty((ell, backbone.d_model))
    heads = []
    for h in range(backbone.n_heads):
        y_sp, c_sp = _rms_cache(sparse_out[h], params.rms_sparse)
        if settings.compensator == "lowrank":
            xh = x_hat[:, h * d_h:(h + 1) * d_h]
            z1 = xh @ params.w_a[h]
            h1 = sigmoid(z1)
            z2 = h1 @ params.w_b[h]
            o_lr = sigmoid(z2)
            branch_cache = (xh, h1, o_lr)
        else:
            o_lr, branch_cache = _linear_head_forward(x_hat, backbone, h)
        y_lr, c_lr = _rms_cache(o_lr, params.rms_lowrank)
        out[:, h * d_h:(h + 1) * d_h] = y_sp + g[:, None] * y_lr
        heads.append((c_sp, branch_cache, c_lr, y_sp, y_lr, o_lr))
    return out, (x_hat, g, heads)


def _fused_backward(g_out, fwd_cache, pe, backbone, params, settings,
                    grads: MechanismParams):
    """Accumulate gradients of a scalar loss (with d loss / d output = g_out)
    into `grads`; only the new-parameter set receives gradient."""
    x_hat, g, heads = fwd_cache
    d_h = backbone.d_h
    d_g = np.zeros(x_hat.shape[0])
    d_xhat = np.zeros_like(x_hat)
    for h in range(backbone.n_heads):
        c_sp, branch_cache, c_lr, _, y_lr, _ = heads[h]
        gh = g_out[:, h * d_h:(h + 1) * d_h]
        _, d_rms_sp = _rms_backward(gh, c_sp, params.rms_sparse)
        grads.rms_sparse += d_rms_sp
        d_g += np.sum(gh * y_lr, axis=1)
        d_y_lr = gh * g[:, None]
        d_o_lr, d_rms_lr = _rms_backward(d_y_lr, c_lr, params.rms_lowrank)
        grads.rms_lowrank += d_rms_lr
        if settings.compensator == "lowrank":
            xh, h1, o_lr = branch_cache
            d_z2 = d_o_lr * o_lr * (1.0 - o_lr)
            grads.w_b[h] += h1.T @ d_z2
            d_h1 = d_z2 @ params.w_b[h].T
            d_z1 = d_h1 * h1 * (1.0 - h1)
            grads.w_a[h] += xh.T @ d_z1
            d_xhat[:, h * d_h:(h + 1) * d_h] += d_z1 @ params.w_a[h].T
        else:
            d_xhat += _linear_head_backward(d_o_lr, branch_cache, backbone, h)
    d_zg = d_g * g * (1.0 - g)
    grads.w_g += x_hat.T @ d_zg
    grads.b_g += d_zg.sum()
    d_xhat += np.outer(d_zg, params.w_g)
    if settings.use_pe:
        grads.alpha += np.sum(d_xhat * pe, axis=0)


def _branch_inputs(xs, grid, cfg, backbone, settings):
    """The position table (None without PE) and, per input, the block-sparse
    result of every head.  The sparse branch reads the raw input through the
    frozen backbone, so it is constant during training."""
    pe = build_pe3d(grid, backbone.d_model, cfg) if settings.use_pe else None
    return pe, [[block_sparse_attention(x, grid, cfg, backbone, h, settings.sparse)
                 for h in range(backbone.n_heads)] for x in xs]


def forward(x, grid: GridShape, cfg: RopeConfig, backbone: Backbone,
            params: MechanismParams, settings: ForwardSettings) -> ForwardTrace:
    """Full mechanism forward pass; deterministic for identical inputs."""
    x = as_matrix(x)
    if x.shape != (grid.size, backbone.d_model):
        raise ValueError(f"expected input shape {(grid.size, backbone.d_model)}, got {x.shape}")
    pe, (sparse_results,) = _branch_inputs([x], grid, cfg, backbone, settings)
    sparse_out = [r.output for r in sparse_results]
    out, (x_hat, g, heads) = _fused_forward(x, sparse_out, pe, backbone, params, settings)
    return ForwardTrace(
        x_hat=x_hat,
        o_sparse=np.stack(sparse_out),
        o_lowrank=np.stack([head[5] for head in heads]),
        norm_sparse=np.stack([head[3] for head in heads]),
        norm_lowrank=np.stack([head[4] for head in heads]),
        g=g,
        output=out,
        sparsity=np.array([r.sparsity for r in sparse_results]),
    )


# ---------------------------------------------------------------------------
# Trainer and the finite-difference gradient check


@dataclass(frozen=True)
class _PreparedSample:
    x: np.ndarray
    target: np.ndarray
    sparse_out: List[np.ndarray]


def _prepare(dataset, grid, cfg, backbone, settings) -> Tuple[List[_PreparedSample], Optional[np.ndarray]]:
    """Check the samples and cache the sparse branch of each."""
    pairs = [(as_matrix(x), as_matrix(target)) for x, target in dataset]
    for x, target in pairs:
        if x.shape != (grid.size, backbone.d_model) or target.shape != x.shape:
            raise ValueError("dataset sample shapes must be (L, d_model)")
    pe, sparse = _branch_inputs([x for x, _ in pairs], grid, cfg, backbone, settings)
    return [_PreparedSample(x=x, target=target, sparse_out=[r.output for r in results])
            for (x, target), results in zip(pairs, sparse)], pe


def _loss_and_grads(samples, pe, backbone, params, settings, want_grads: bool = True):
    total = 0.0
    grads = zero_grads(params) if want_grads else None
    n = len(samples)
    for s in samples:
        out, cache = _fused_forward(s.x, s.sparse_out, pe, backbone, params, settings)
        diff = out - s.target
        total += float(np.mean(diff * diff)) / n
        if want_grads:
            g_out = 2.0 * diff / (diff.size * n)
            _fused_backward(g_out, cache, pe, backbone, params, settings, grads)
    return total, grads


@dataclass(frozen=True)
class TrainResult:
    losses: np.ndarray  # loss before each update plus the final loss
    diverged: bool

    @property
    def initial_loss(self) -> float:
        return float(self.losses[0])

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def train_stage1(dataset: Sequence[Tuple[np.ndarray, np.ndarray]], grid: GridShape,
                 cfg: RopeConfig, backbone: Backbone, params: MechanismParams,
                 settings: ForwardSettings, lr: float, steps: int) -> TrainResult:
    """Plain gradient descent on the new parameters against fixed targets.

    Mutates `params` in place; a NaN loss aborts the run and reports it."""
    if not (np.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"learning rate must be a non-negative real, got {lr}")
    if steps < 0:
        raise ValueError("step count must be non-negative")
    if not dataset:
        raise ValueError("dataset must be non-empty")
    samples, pe = _prepare(dataset, grid, cfg, backbone, settings)
    losses = []
    # overflow in an exploding run shows up as a non-finite loss and aborts
    # the loop; the warnings themselves are noise
    with np.errstate(over="ignore", invalid="ignore"):
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


def grad_check(params: MechanismParams, x, target, grid: GridShape, cfg: RopeConfig,
               backbone: Backbone, settings: ForwardSettings,
               epsilon: float = 1e-5) -> float:
    """Max relative deviation between the analytic gradient and a central
    finite difference over every trainable coordinate."""
    if not (1e-7 <= epsilon <= 1e-4):
        raise ValueError(f"epsilon must lie in [1e-7, 1e-4], got {epsilon}")
    samples, pe = _prepare([(x, target)], grid, cfg, backbone, settings)

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
        raise ValueError("need at least one sample")
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
