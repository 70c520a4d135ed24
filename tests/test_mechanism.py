import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ropeslr.analysis import gate_map, gram_spectral
from ropeslr.mechanism import (
    RMS_EPS,
    ForwardSettings,
    SparseSettings,
    block_sparse_attention,
    elu_plus_one,
    forward,
    full_attention_reference,
    grad_check,
    init_params,
    make_alignment_task,
    prepare_samples,
    random_backbone,
    sigmoid,
    train_stage1,
    _leaves,
    _loss_and_grads,
    _token_sum,
    _variant_inputs,
    build_pe3d,
)
from ropeslr.rope3d import AXES, GridShape, RopeConfig

VARIANTS = [(c, pe) for c in ("lowrank", "linear") for pe in (True, False)]
VARIANT_IDS = [f"{c}-{'pe' if pe else 'nope'}" for c, pe in VARIANTS]


def small_task(seed=0, samples=2, heads=2):
    grid = GridShape(2, 5, 5)
    task = make_alignment_task(grid, RopeConfig(4, 2, 2, 10000.0), heads, samples, seed)
    return task, SparseSettings(block=(1, 5, 5), keep=0.5)


def prepared(task, sparse):
    return prepare_samples(task.dataset, task.grid, task.cfg, task.backbone, sparse)


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_grad_check_agrees_with_finite_differences(compensator, use_pe):
    grid, cfg = GridShape(2, 2, 2), RopeConfig(2, 2, 0, 10000.0)
    settings = ForwardSettings(sparse=SparseSettings(block=(1, 2, 2), keep=0.5),
                               compensator=compensator, use_pe=use_pe)
    for heads, seed in ((2, 0), (2, 1), (2, 2), (3, 0)):
        task = make_alignment_task(grid, cfg, heads, 1, seed)
        params = init_params(heads, cfg.d_h, 2, seed + 1000)
        x, target = task.dataset[0]
        assert grad_check(params, x, target, grid, cfg, task.backbone, settings) < 1e-4


def pe3d_by_axis_loop(grid, d_model, cfg):
    """The 3D PE written out: axis block widths d_model * d_axis / d_h, each
    filled with interleaved (sin, cos) columns of the schedule at its width."""
    coords = grid.coords().astype(np.float64)
    table = np.empty((grid.size, d_model))
    col = 0
    for ai, axis in enumerate(AXES):
        width = d_model * cfg.axis_dim(axis) // cfg.d_h
        for m in range(1, width // 2 + 1):
            theta = cfg.base ** (-2.0 * (m - 1) / width)
            table[:, col] = np.sin(theta * coords[:, ai])
            table[:, col + 1] = np.cos(theta * coords[:, ai])
            col += 2
    assert col == d_model
    return table


@pytest.mark.parametrize("rope", [(8, 4, 4), (6, 0, 2), (4, 2, 2)])
def test_build_pe3d_matches_a_per_axis_loop_bitwise(rope):
    cfg = RopeConfig(*rope, base=37.5)
    for grid in (GridShape(1, 1, 1), GridShape(2, 3, 4), GridShape(5, 2, 3)):
        for s in range(1, 5):
            got = build_pe3d(grid, s * cfg.d_h, cfg)
            np.testing.assert_array_equal(got, pe3d_by_axis_loop(grid, s * cfg.d_h, cfg))
    for d_model in (cfg.d_h - 1, cfg.d_h + 2, 3 * cfg.d_h + 1):
        with pytest.raises(ValueError):
            build_pe3d(GridShape(2, 2, 2), d_model, cfg)


def test_block_sparse_keep_all_is_full_attention():
    grid, cfg = GridShape(2, 4, 4), RopeConfig(4, 2, 2, 10000.0)
    backbone = random_backbone(3, cfg.d_h, seed=5)
    x = np.random.default_rng(6).standard_normal((grid.size, backbone.d_model))
    full = full_attention_reference(x, grid, cfg, backbone)
    d_h = cfg.d_h
    for h in range(backbone.n_heads):
        res = block_sparse_attention(x, grid, cfg, backbone, h,
                                     SparseSettings(block=(1, 2, 2), keep=1.0))
        assert res.sparsity == 0.0
        assert res.selected.all()
        np.testing.assert_allclose(res.output, full[:, h * d_h:(h + 1) * d_h],
                                   rtol=0, atol=1e-12)


def test_block_sparse_partial_keep_is_sparse():
    task, sparse = small_task()
    x = task.dataset[0][0]
    res = block_sparse_attention(x, task.grid, task.cfg, task.backbone, 0, sparse)
    assert 0.0 < res.sparsity < 1.0
    assert res.selected.any(axis=1).all()  # never fewer than one key block


def test_float_gate_bias_is_trained():
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=0)
    params = dataclasses.replace(params, b_g=-2.0)
    train_stage1(prepared(task, sparse), task.grid, task.cfg, task.backbone, params,
                 ForwardSettings(sparse=sparse), lr=2.0, steps=1)
    assert float(params.b_g) != -2.0


def test_train_stage1_lowers_loss():
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=0)
    result = train_stage1(prepared(task, sparse), task.grid, task.cfg, task.backbone, params,
                          ForwardSettings(sparse=sparse), lr=2.0, steps=20)
    assert not result.diverged
    assert result.losses.shape == (21,)
    assert np.all(np.isfinite(result.losses))
    assert result.final_loss < result.losses[0]


def test_train_stage1_flags_divergence():
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=0)
    result = train_stage1(prepared(task, sparse), task.grid, task.cfg, task.backbone, params,
                          ForwardSettings(sparse=sparse), lr=1e8, steps=50)
    assert result.diverged
    assert not np.isfinite(result.final_loss)
    assert np.all(np.isfinite(result.losses[:-1]))


def test_train_stage1_rejects_bad_arguments():
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=0)
    settings = ForwardSettings(sparse=sparse)
    samples = prepared(task, sparse)
    for lr, steps in ((float("nan"), 1), (-1.0, 1), (1.0, -1)):
        with pytest.raises(ValueError):
            train_stage1(samples, task.grid, task.cfg, task.backbone, params, settings,
                         lr, steps)


def test_prepare_samples_rejects_an_empty_dataset():
    task, sparse = small_task()
    with pytest.raises(ValueError, match="non-empty"):
        prepare_samples([], task.grid, task.cfg, task.backbone, sparse)


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_forward_trace_invariants(compensator, use_pe):
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=3)
    settings = ForwardSettings(sparse=sparse, compensator=compensator, use_pe=use_pe)
    train_stage1(prepared(task, sparse), task.grid, task.cfg, task.backbone, params,
                 settings, lr=2.0, steps=2)
    x = task.dataset[0][0]
    trace = forward(x, task.grid, task.cfg, task.backbone, params, settings)
    ell, d_h, n_heads = task.grid.size, task.cfg.d_h, 2
    assert trace.g.shape == (ell,)
    assert np.all((trace.g > 0.0) & (trace.g < 1.0))
    for name in ("o_sparse", "o_lowrank", "norm_sparse", "norm_lowrank"):
        assert getattr(trace, name).shape == (n_heads, ell, d_h), name
    if compensator == "lowrank":
        assert np.all((trace.o_lowrank > 0.0) & (trace.o_lowrank < 1.0))
    if use_pe:
        assert not np.array_equal(trace.x_hat, x)
    else:
        np.testing.assert_array_equal(trace.x_hat, x)
    for h in range(n_heads):
        np.testing.assert_array_equal(
            trace.output[:, h * d_h:(h + 1) * d_h],
            trace.norm_sparse[h] + trace.g[:, None] * trace.norm_lowrank[h])
        # the sparse branch is the head's block-sparse output, RMS-normalised
        o = block_sparse_attention(x, task.grid, task.cfg, task.backbone, h, sparse).output
        inv = 1.0 / np.sqrt(np.mean(o * o, axis=1, keepdims=True) + RMS_EPS)
        np.testing.assert_array_equal(trace.norm_sparse[h], o * inv * params.rms_sparse)
    assert trace.sparsity.shape == (n_heads,)
    # the same inputs give the same trace
    again = forward(x, task.grid, task.cfg, task.backbone, params, settings)
    np.testing.assert_array_equal(again.output, trace.output)


@pytest.mark.parametrize("use_pe", (True, False), ids=("pe", "nope"))
def test_lowrank_compensator_weights_of_a_head_move_only_its_columns(use_pe):
    task, sparse = small_task(heads=3)
    settings = ForwardSettings(sparse=sparse, compensator="lowrank", use_pe=use_pe)
    params = init_params(3, task.cfg.d_h, 4, seed=2)
    x = task.dataset[0][0]
    before = forward(x, task.grid, task.cfg, task.backbone, params, settings).output
    params.w_a[1] += 0.5
    params.w_b[1] -= 0.5
    after = forward(x, task.grid, task.cfg, task.backbone, params, settings).output
    head = np.arange(before.shape[1]) // task.cfg.d_h
    assert np.all(after[:, head == 1] != before[:, head == 1])
    assert after[:, head != 1].tobytes() == before[:, head != 1].tobytes()


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_two_sample_gradients_are_the_mean_of_the_single_sample_ones(compensator, use_pe):
    task, sparse = small_task(heads=3)
    settings = ForwardSettings(sparse=sparse, compensator=compensator, use_pe=use_pe)
    params = init_params(3, task.cfg.d_h, 4, seed=5)
    params.w_g[:] = np.linspace(-0.5, 0.5, params.w_g.size)
    samples, pe = _variant_inputs(prepared(task, sparse), task.grid, task.cfg, task.backbone,
                                  settings)
    loss, grads = _loss_and_grads(samples, pe, task.backbone, params, settings)
    singles = [_loss_and_grads([s], pe, task.backbone, params, settings) for s in samples]
    np.testing.assert_allclose(loss, (singles[0][0] + singles[1][0]) / 2, rtol=1e-12)
    for got, one, two in zip(_leaves(grads), _leaves(singles[0][1]), _leaves(singles[1][1])):
        np.testing.assert_allclose(got, (one + two) / 2, rtol=1e-12)


def test_forward_rejects_wrong_input_shape():
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=0)
    with pytest.raises(ValueError):
        forward(np.zeros((3, 3)), task.grid, task.cfg, task.backbone, params,
                ForwardSettings(sparse=sparse))


def test_gram_spectral_and_gate_map_shapes():
    task, sparse = small_task()
    params = init_params(2, task.cfg.d_h, 4, seed=0)
    trace = forward(task.dataset[0][0], task.grid, task.cfg, task.backbone, params,
                    ForwardSettings(sparse=sparse))
    grid = task.grid
    spectrum = gram_spectral(trace.o_lowrank[0], grid, n_modes=3)
    assert spectrum.sigma.shape == (task.cfg.d_h,)
    assert spectrum.modes.shape == (3, grid.t, grid.h, grid.w)
    assert spectrum.ratio[0] == 1.0
    np.testing.assert_allclose(spectrum.energy_fraction.sum(), 1.0, rtol=1e-12)
    gmap = gate_map(trace.g, grid)
    assert gmap.values.shape == (grid.t, grid.h, grid.w)
    assert gmap.frame_means.shape == (grid.t,)
    assert (gmap.minimum, gmap.maximum) == (trace.g.min(), trace.g.max())
    assert gmap.mean == float(trace.g.mean())


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_trained_loss_is_bitwise_the_loss_of_forward(compensator, use_pe):
    # the trainer reuses the sparse branch of each sample, shared here between
    # runs as train-align shares it between variants, and, for the linear
    # compensator without PE, that compensator's output; `forward` recomputes
    # every branch from x
    task, sparse = small_task()
    settings = ForwardSettings(sparse=sparse, compensator=compensator, use_pe=use_pe)
    shared = prepared(task, sparse)
    results = []
    for samples in (prepared(task, sparse), shared, shared):
        params = init_params(2, task.cfg.d_h, 4, seed=3)
        results.append(train_stage1(samples, task.grid, task.cfg, task.backbone, params,
                                    settings, lr=2.0, steps=3))
    assert not results[0].diverged
    for other in results[1:]:
        assert other.losses.tobytes() == results[0].losses.tobytes()
    loss = 0.0
    for x, target in task.dataset:
        diff = forward(x, task.grid, task.cfg, task.backbone, params, settings).output - target
        loss += float(np.mean(diff * diff)) / len(task.dataset)
    assert loss == results[0].final_loss


# ---------------------------------------------------------------------------
# The fused step as it was written head-major, with the heads as the leading
# axis of (H, L, d_h) arrays and the activations in their first formulas: the
# oracle that the token-major step must match bit for bit.


def heads_oracle(a, n_heads):
    return a.reshape(a.shape[0], n_heads, -1).transpose(1, 0, 2)


def merge_heads_oracle(a):
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def rms_oracle(o):
    inv = 1.0 / np.sqrt(np.mean(o * o, axis=-1, keepdims=True) + RMS_EPS)
    return o * inv, inv


def linear_forward_oracle(x_hat, backbone):
    q = x_hat @ backbone.w_q
    k = x_hat @ backbone.w_k
    v = x_hat @ backbone.w_v
    pq = elu_plus_one_oracle(q)
    pk = elu_plus_one_oracle(k)
    smat = pk.swapaxes(1, 2) @ v
    svec = pk.sum(axis=1)
    raw = (pq @ svec[:, :, None])[:, :, 0]
    denom = np.maximum(raw, 1e-8)
    numer = pq @ smat
    return numer / denom[:, :, None], (q, k, v, pq, pk, smat, svec, raw, denom, numer)


def linear_backward_oracle(g_out, cache, backbone):
    q, k, v, pq, pk, smat, svec, raw, denom, numer = cache
    d_numer = g_out / denom[:, :, None]
    d_denom = -np.sum(g_out * numer, axis=2) / (denom * denom)
    d_raw = np.where(raw > 1e-8, d_denom, 0.0)
    d_pq = d_numer @ smat.swapaxes(1, 2) + d_raw[:, :, None] * svec[:, None, :]
    d_smat = pq.swapaxes(1, 2) @ d_numer
    d_svec = (pq.swapaxes(1, 2) @ d_raw[:, :, None])[:, :, 0]
    d_pk = v @ d_smat.swapaxes(1, 2) + d_svec[:, None, :]
    d_v = pk @ d_smat
    d_q = d_pq * np.where(q > 0.0, 1.0, pq)
    d_k = d_pk * np.where(k > 0.0, 1.0, pk)
    return (d_q @ backbone.w_q.swapaxes(1, 2) + d_k @ backbone.w_k.swapaxes(1, 2)
            + d_v @ backbone.w_v.swapaxes(1, 2))


def fused_forward_oracle(x, u_sparse, pe, backbone, params, settings, fixed=None):
    x_hat = x + params.alpha[None, :] * pe if settings.use_pe else x
    g = sigmoid_oracle(x_hat @ params.w_g + params.b_g)
    branch = None
    if fixed is not None:
        o_lr, u_lr, inv_lr = fixed
    else:
        if settings.compensator == "lowrank":
            xh = heads_oracle(x_hat, backbone.n_heads)
            h1 = sigmoid_oracle(xh @ params.w_a)
            o_lr = sigmoid_oracle(h1 @ params.w_b)
            branch = (xh, h1)
        else:
            o_lr, branch = linear_forward_oracle(x_hat, backbone)
        u_lr, inv_lr = rms_oracle(o_lr)
    y_sp = u_sparse * params.rms_sparse
    y_lr = u_lr * params.rms_lowrank
    out = merge_heads_oracle(y_sp + g[:, None] * y_lr)
    return out, (x_hat, g, u_sparse, y_sp, o_lr, u_lr, inv_lr, y_lr, branch)


def fused_backward_oracle(g_out, cache, pe, backbone, params, settings, grads):
    x_hat, g, u_sparse, y_sp, o_lr, u_lr, inv_lr, y_lr, branch = cache
    gh = heads_oracle(g_out, backbone.n_heads)
    d_y_lr = gh * g[:, None]
    for d_sp, d_lr in zip(np.sum(gh * u_sparse, axis=1), np.sum(d_y_lr * u_lr, axis=1)):
        grads.rms_sparse += d_sp
        grads.rms_lowrank += d_lr
    d_zg = np.sum(gh * y_lr, axis=2).sum(axis=0) * g * (1.0 - g)
    grads.w_g += x_hat.T @ d_zg
    grads.b_g += d_zg.sum()
    lowrank = settings.compensator == "lowrank"
    if not (lowrank or settings.use_pe):
        return
    d_u = d_y_lr * params.rms_lowrank
    dot = np.sum(d_u * o_lr, axis=2, keepdims=True)
    d_o_lr = d_u * inv_lr - o_lr * (inv_lr ** 3 * dot / backbone.d_h)
    if lowrank:
        xh, h1 = branch
        d_z2 = d_o_lr * o_lr * (1.0 - o_lr)
        grads.w_b += h1.swapaxes(1, 2) @ d_z2
        d_z1 = (d_z2 @ params.w_b.swapaxes(1, 2)) * h1 * (1.0 - h1)
        grads.w_a += xh.swapaxes(1, 2) @ d_z1
    if settings.use_pe:
        d_branch = (merge_heads_oracle(d_z1 @ params.w_a.swapaxes(1, 2)) if lowrank
                    else linear_backward_oracle(d_o_lr, branch, backbone).sum(axis=0))
        grads.alpha += np.sum((d_branch + np.outer(d_zg, params.w_g)) * pe, axis=0)


def prepared_oracle(task, settings):
    """(x, target, head-major u_sparse, fixed compensator) of each sample."""
    out = []
    for x, target in task.dataset:
        o_sp = np.stack([block_sparse_attention(x, task.grid, task.cfg, task.backbone, h,
                                                settings.sparse).output
                         for h in range(task.backbone.n_heads)])
        fixed = None
        if settings.compensator == "linear" and not settings.use_pe:
            o_lr, _ = linear_forward_oracle(x, task.backbone)
            fixed = (o_lr, *rms_oracle(o_lr))
        out.append((x, target, rms_oracle(o_sp)[0], fixed))
    return out


def loss_and_grads_oracle(samples, pe, backbone, params, settings):
    total = 0.0
    grads = init_params(backbone.n_heads, backbone.d_h, params.rank, seed=0)
    for leaf in _leaves(grads):
        leaf[...] = 0.0
    for x, target, u_sparse, fixed in samples:
        out, cache = fused_forward_oracle(x, u_sparse, pe, backbone, params, settings, fixed)
        diff = out - target
        total += float(np.mean(diff * diff)) / len(samples)
        g_out = 2.0 * diff / (diff.size * len(samples))
        fused_backward_oracle(g_out, cache, pe, backbone, params, settings, grads)
    return total, grads


def differential_task(rope, heads, seed):
    """An alignment task at head dim 8 or 16, and parameters with every
    leaf moved off its initial value."""
    cfg = RopeConfig(*rope, 10000.0)
    task = make_alignment_task(GridShape(2, 4, 4), cfg, heads, 2, seed)
    params = init_params(heads, cfg.d_h, 3, seed + 100)
    rng = np.random.default_rng(seed + 200)
    for leaf in _leaves(params):
        leaf += 0.1 * rng.standard_normal(leaf.shape)
    return task, params, SparseSettings(block=(1, 2, 2), keep=0.5)


# (rope, heads, seed); at nine heads numpy would sum a contiguous row of
# heads pairwise, not in head order
DIFFERENTIAL_CASES = [(rope, heads, seed) for rope in ((4, 2, 2), (8, 4, 4))
                      for heads in (2, 4) for seed in (0, 1, 2)] + [((8, 4, 4), 9, 0)]


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_token_major_step_is_bitwise_the_head_major_step(compensator, use_pe):
    for rope, heads, seed in DIFFERENTIAL_CASES:
        task, params, sparse = differential_task(rope, heads, seed)
        settings = ForwardSettings(sparse=sparse, compensator=compensator, use_pe=use_pe)
        samples, pe = _variant_inputs(prepared(task, sparse), task.grid, task.cfg,
                                      task.backbone, settings)
        loss, grads = _loss_and_grads(samples, pe, task.backbone, params, settings)
        want_loss, want = loss_and_grads_oracle(prepared_oracle(task, settings), pe,
                                                task.backbone, params, settings)
        case = (rope, heads, seed)
        assert loss == want_loss, case
        for f, got, exp in zip(dataclasses.fields(params), _leaves(grads), _leaves(want)):
            assert got.tobytes() == exp.tobytes(), (case, f.name)


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_forward_trace_is_bitwise_the_head_major_step(compensator, use_pe):
    for rope, heads, seed in DIFFERENTIAL_CASES:
        task, params, sparse = differential_task(rope, heads, seed)
        settings = ForwardSettings(sparse=sparse, compensator=compensator, use_pe=use_pe)
        case, x = (rope, heads, seed), task.dataset[0][0]
        trace = forward(x, task.grid, task.cfg, task.backbone, params, settings)
        o_sp = np.stack([block_sparse_attention(x, task.grid, task.cfg, task.backbone, h,
                                                sparse).output for h in range(heads)])
        pe = build_pe3d(task.grid, task.backbone.d_model, task.cfg) if use_pe else None
        out, (x_hat, g, _, y_sp, o_lr, _, _, y_lr, _) = fused_forward_oracle(
            x, rms_oracle(o_sp)[0], pe, task.backbone, params, settings)
        want = dict(x_hat=x_hat, o_sparse=o_sp, o_lowrank=o_lr, norm_sparse=y_sp,
                    norm_lowrank=y_lr, g=g, output=out)
        for name, value in want.items():
            got = getattr(trace, name)
            assert got.shape == value.shape, name
            assert np.ascontiguousarray(got).tobytes() == value.tobytes(), (case, name)


def sigmoid_oracle(x):
    """The sigmoid as first written: both branches over the whole array."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def elu_plus_one_oracle(x):
    """elu(x) + 1 as first written: both branches over the whole array."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0.0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def elu_plus_one_grad_oracle(x):
    """The derivative of elu(x) + 1 as first written, from x alone."""
    return np.where(x > 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


def elu_plus_one_grad(x):
    """The derivative as the linear branch's backward pass forms it, from
    the features elu(x) + 1."""
    return np.minimum(elu_plus_one(x), 1.0)


ACTIVATIONS = [(sigmoid, sigmoid_oracle), (elu_plus_one, elu_plus_one_oracle),
               (elu_plus_one_grad, elu_plus_one_grad_oracle)]
ACTIVATION_IDS = ("sigmoid", "elu_plus_one", "elu_plus_one_grad")


EDGE = np.array([0.0, 5e-324, 1e-300, 36.7, 709.0, 745.0, np.inf])


def activation_inputs():
    normals = np.random.default_rng(11).standard_normal(10_000)
    return [np.concatenate([EDGE, -EDGE, [np.nan]]), normals, 50.0 * normals,
            (50.0 * normals[:9_984]).reshape(4, 312, 8), np.asarray(-36.7)]


def outcome(f, x, **errstate):
    """The result bytes of f(x), or the floating-point error it raised, and
    the messages of the warnings it gave, under the given error state."""
    with np.errstate(**errstate), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = np.asarray(f(x)).tobytes()
        except FloatingPointError as exc:
            value = f"raised: {exc}"
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("new,oracle", ACTIVATIONS, ids=ACTIVATION_IDS)
def test_activation_is_bitwise_its_first_formula(new, oracle):
    for x in activation_inputs():
        got = new(x)
        want = oracle(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # one value at a time, so an error raised on one does not hide another
        for xi in [x] + [x.reshape(-1)[i:i + 1] for i in range(min(x.size, 15))]:
            for state in ({"over": "raise", "invalid": "raise"}, {"all": "raise"},
                          {"all": "warn"}):
                assert outcome(new, xi, **state) == outcome(oracle, xi, **state), (xi, state)
    x = np.array([-2.0, 0.5])
    sigmoid(x)
    np.testing.assert_array_equal(x, [-2.0, 0.5])  # the input is not written


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=9),
                         elements=st.floats(allow_nan=True, allow_infinity=True,
                                            allow_subnormal=True)))
def test_activations_are_bitwise_their_first_formulas_on_any_float64(x):
    with np.errstate(all="ignore"):
        for new, oracle in ACTIVATIONS:
            assert np.asarray(new(x)).tobytes() == oracle(x).tobytes(), new.__name__


# ---------------------------------------------------------------------------
# What a step and the reference keep alive


def traced_peak(f, *args):
    """Bytes that f(*args) allocates at its peak, above what is live before
    the call, as tracemalloc counts them; the call is made once untraced
    first, so that lazily made state does not count."""
    f(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("compensator,use_pe", VARIANTS, ids=VARIANT_IDS)
def test_a_step_holds_one_sample_at_a_time(compensator, use_pe):
    """A second sample adds nothing to a step's peak but room for the
    gradients, with and without them: the first sample's output, cache and
    output gradient are let go before the second sample's forward pass."""
    task, params, sparse = differential_task((4, 2, 2), 2, 0)
    settings = ForwardSettings(sparse=sparse, compensator=compensator, use_pe=use_pe)
    samples, pe = _variant_inputs(prepared(task, sparse), task.grid, task.cfg,
                                  task.backbone, settings)
    assert len(samples) == 2
    grads_bytes = sum(leaf.nbytes for leaf in _leaves(params))

    for want_grads in (True, False):
        def step(samples):
            _loss_and_grads(samples, pe, task.backbone, params, settings, want_grads)

        one, two = traced_peak(step, samples[:1]), traced_peak(step, samples)
        assert two <= one + grads_bytes, (want_grads, one, two, grads_bytes)


def test_lowrank_pe_step_frees_the_branch_gradients_before_the_alpha_gradient():
    """With PE a lowrank step peaks at most two (L, d_model) arrays above the
    same step without it, x_hat and the alpha gradient's d_branch: d_z2 and
    the d_y_lr buffer are let go before d_branch is made."""
    grid, cfg, heads = GridShape(2, 6, 6), RopeConfig(4, 2, 2, 10000.0), 4
    task = make_alignment_task(grid, cfg, heads, 1, 0)
    sparse = SparseSettings(block=(1, 2, 2), keep=0.5)
    params = init_params(heads, cfg.d_h, 3, 100)
    peaks = {}
    for use_pe in (True, False):
        settings = ForwardSettings(sparse=sparse, use_pe=use_pe)
        samples, pe = _variant_inputs(prepared(task, sparse), grid, cfg, task.backbone,
                                      settings)
        peaks[use_pe] = traced_peak(_loss_and_grads, samples, pe, task.backbone, params,
                                    settings)
    array_bytes = grid.size * task.backbone.d_model * 8
    assert peaks[True] <= peaks[False] + 2 * array_bytes, (peaks, array_bytes)


def test_reference_holds_one_head_attention_at_a_time():
    """Four heads peak no higher than one head plus their output: a head's
    L x L attention is let go before the next head's logits are made."""
    grid, cfg = GridShape(2, 6, 6), RopeConfig(4, 2, 2, 10000.0)
    peaks = {}
    for heads in (1, 4):
        backbone = random_backbone(heads, cfg.d_h, 0)
        x = np.random.default_rng(1).standard_normal((grid.size, backbone.d_model))
        peaks[heads] = traced_peak(full_attention_reference, x, grid, cfg, backbone)
    out_bytes = grid.size * 4 * cfg.d_h * 8
    assert grid.size ** 2 * 8 > out_bytes  # a second L x L array would not fit
    assert peaks[4] <= peaks[1] + out_bytes, (peaks, out_bytes)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(st.data())
def test_token_sum_is_the_sum_of_products_over_tokens(data):
    """The einsum form of the backward pass's L-axis sums equals
    np.sum(a * b, axis=0) element by element, NaNs in the same places, at
    the (L, H, d_h) and (L, d_model) ranks it is used at, with d_h >= 2.
    Only the sign of an exact zero may differ, and it cannot reach the
    gradients: they are accumulated onto +0, and +0 + -0 is +0."""
    shape = data.draw(array_shapes(min_dims=2, max_dims=3, max_side=8)
                      .filter(lambda s: math.prod(s[1:]) >= 2))
    # one factor of any float64, NaN, infinities and subnormals included, and
    # one at moderate scale, so that many sums stay finite and round
    a = data.draw(arrays(np.float64, shape, elements=st.floats(
        allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    b = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    with np.errstate(all="ignore"):
        got, want = _token_sum(a, b), np.sum(a * b, axis=0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True), (got, want)
