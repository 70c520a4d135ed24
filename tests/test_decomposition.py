import math
import tracemalloc

import numpy as np
import pytest

from ropeslr import decomposition
from ropeslr.analysis import residual_stable_rank_sweep
from ropeslr.decomposition import (
    AttentionMatrix,
    background_inf_norm,
    count_for_mass,
    energy_split,
    row_energy_split,
    row_softmax,
    softmax_attention,
    synthetic_attention,
    synthetic_qk,
    theorem_scaling_sweep,
    verify_sparsity_bound,
)
from ropeslr.rope3d import GridShape, RopeConfig, logit_matrix

CFG = RopeConfig(4, 4, 4)


def manual_attention(a):
    a = np.asarray(a, dtype=np.float64)
    return AttentionMatrix(a=a, log_z=np.zeros(a.shape[0]))


def test_softmax_uniform_row():
    attn = softmax_attention(np.zeros((4, 4)))
    np.testing.assert_allclose(attn.a, np.full((4, 4), 0.25), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.exp(attn.log_z), np.full(4, 4.0), rtol=1e-12)


def test_softmax_large_logits_stable():
    s = np.array([[1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    attn = softmax_attention(s)
    assert np.all(np.isfinite(attn.a))
    assert attn.a[0, 0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(attn.a.sum(axis=1), np.ones(3), rtol=0, atol=1e-9)


def test_softmax_row_stochastic_across_scales():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((6, 6))
    for scale in (1.0, 10.0, 1e3):
        attn = softmax_attention(scale * base)
        np.testing.assert_allclose(attn.a.sum(axis=1), np.ones(6), rtol=0, atol=1e-9)
        assert np.all(attn.a >= 0)


def test_softmax_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = np.random.default_rng(1)
    s = rng.standard_normal((5, 5)) * 3.0
    attn = softmax_attention(s.copy())  # the softmax consumes its logits
    for i in range(5):
        exps = [mp.e ** mp.mpf(v) for v in s[i]]
        z = sum(exps)
        for j in range(5):
            assert abs(attn.a[i, j] - float(exps[j] / z)) <= 1e-12


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax_attention(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        softmax_attention(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_row_softmax_rectangular_rows_and_log_partition():
    s = np.random.default_rng(3).standard_normal((3, 7)) * 4.0
    s[0, 2] = 800.0  # exp(800) overflows; the row and log_z stay finite
    a, log_z = row_softmax(s.copy())
    np.testing.assert_allclose(a.sum(axis=1), np.ones(3), rtol=0, atol=1e-12)
    expect = [np.logaddexp.reduce(row) for row in s]
    np.testing.assert_allclose(log_z, expect, rtol=1e-13)
    np.testing.assert_allclose(a, np.exp(s - log_z[:, None]), rtol=1e-12, atol=1e-300)


def test_softmax_attention_is_row_softmax():
    s = np.random.default_rng(4).standard_normal((6, 6)) * 5.0
    attn = softmax_attention(s.copy())
    a, log_z = row_softmax(s)
    np.testing.assert_array_equal(attn.a, a)
    np.testing.assert_array_equal(attn.log_z, log_z)


def row_softmax_whole(s):
    """The oracle of row_softmax: the same steps on the whole array, into a
    new one, with s left unchanged."""
    row_max = s.max(axis=1, keepdims=True)
    e = np.subtract(s, row_max)
    e = np.exp(e, out=e)
    denom = e.sum(axis=1, keepdims=True)
    e /= denom
    return e, row_max[:, 0] + np.log(denom[:, 0])


SOFTMAX_ROWS = [1, decomposition.SPLIT_BLOCK_ROWS - 1, decomposition.SPLIT_BLOCK_ROWS,
                decomposition.SPLIT_BLOCK_ROWS + 1, 2 * decomposition.SPLIT_BLOCK_ROWS + 2]


def softmax_case(what):
    if what == "exp overflow":
        s = np.random.default_rng(3).standard_normal((3, 7)) * 4.0
        s[0, 2] = 800.0
        return s
    if what == "synthetic logits":
        grid = GridShape(13, 13, 13)  # L = 2197: 34 full blocks and a ragged one
        q, k = synthetic_qk(grid, CFG, 0)
        return logit_matrix(q, k, grid, CFG)
    return np.random.default_rng(what).standard_normal((what, 50)) * 6.0


@pytest.mark.parametrize("what", SOFTMAX_ROWS + ["exp overflow", "synthetic logits"])
def test_row_softmax_is_bitwise_the_whole_array_oracle_written_over_its_input(what):
    s = softmax_case(what)
    want_a, want_log_z = row_softmax_whole(s)
    a, log_z = row_softmax(s)
    assert np.shares_memory(a, s)
    assert a.tobytes() == want_a.tobytes()
    assert log_z.tobytes() == want_log_z.tobytes()


def test_attention_peaks_near_one_logit_matrix():
    # the logits are the attention's buffer: the product is divided and the
    # softmax written in place, so only block temporaries and the finiteness
    # check's boolean matrix (L^2 bytes) join the one L x L float array
    grid = GridShape(8, 8, 8)
    q, k = synthetic_qk(grid, CFG, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        attn = softmax_attention(logit_matrix(q, k, grid, CFG))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = grid.size ** 2 * 8
    assert attn.a.nbytes == one
    assert peak < 1.4 * one, peak / one


def test_energy_split_no_spikes_when_tau_above_max():
    attn = softmax_attention(np.random.default_rng(2).standard_normal((5, 5)))
    tau = float(attn.a.max()) + 0.01
    dec = energy_split(attn, min(tau, 0.99))
    assert dec.nnz == 0
    assert not dec.spike_mask.any()
    assert background_inf_norm(attn, dec) == float(attn.a.max())


def test_energy_split_one_hot_rows():
    s = np.full((4, 4), -30.0)
    np.fill_diagonal(s, 30.0)
    dec = energy_split(softmax_attention(s), 0.5)
    assert dec.nnz == 4
    assert np.all(dec.spike_mask.sum(axis=1) == 1)


def test_energy_split_exact_recomposition():
    attn = synthetic_attention(GridShape(4, 4, 4), CFG, 3)
    dec = energy_split(attn, 0.05)
    np.testing.assert_array_equal(dec.spike_mask, attn.a > 0.05)
    assert background_inf_norm(attn, dec) == float(attn.a[~dec.spike_mask].max())


def test_energy_split_tie_goes_to_background():
    attn = manual_attention([[0.5, 0.5], [0.25, 0.75]])
    dec = energy_split(attn, 0.5)
    assert not dec.spike_mask[0].any()  # both entries equal tau exactly
    assert dec.spike_mask[1, 1] and dec.nnz == 1


def test_energy_split_tau_out_of_range():
    attn = manual_attention(np.eye(2))
    for tau in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            energy_split(attn, tau)


def test_sparsity_bound_value():
    attn = manual_attention(np.eye(3))
    rep = verify_sparsity_bound(energy_split(attn, 0.3))
    assert rep.bound == 3 and rep.holds


def test_sparsity_bound_uniform_attention_has_no_spikes():
    attn = softmax_attention(np.zeros((10, 10)))
    dec = energy_split(attn, 0.2)
    rep = verify_sparsity_bound(dec)
    assert rep.max_row_nnz == 0 and rep.holds


def test_sparsity_and_background_bounds_random_sweep():
    rng = np.random.default_rng(4)
    for trial in range(100):
        attn = softmax_attention(rng.standard_normal((32, 32)) * rng.uniform(0.5, 4.0))
        tau = float(rng.uniform(0.05, 0.5))
        dec = energy_split(attn, tau)
        assert verify_sparsity_bound(dec).holds
        assert background_inf_norm(attn, dec) <= tau


def test_background_inf_norm_no_spikes_equals_global_max():
    attn = softmax_attention(np.random.default_rng(5).standard_normal((6, 6)))
    dec = energy_split(attn, 0.999)
    assert background_inf_norm(attn, dec) == float(attn.a.max())


def test_background_inf_norm_one_hot_spike_rows_contribute_zero():
    s = np.full((3, 3), -40.0)
    np.fill_diagonal(s, 40.0)
    attn = softmax_attention(s)
    dec = energy_split(attn, 0.5)
    assert background_inf_norm(attn, dec) <= 1e-15


def test_count_for_mass_one_dimensional():
    desc = np.array([0.5, 0.25, 0.125, 0.125])
    assert count_for_mass(desc, 0.5) == 1
    assert count_for_mass(desc, 0.75) == 2
    assert count_for_mass(desc, 0.76) == 3
    assert count_for_mass(desc, 1.0) == 4


def test_count_for_mass_unreached_target_counts_every_entry():
    assert count_for_mass(np.array([0.25, 0.25]), 0.9) == 2


def test_count_for_mass_tolerates_slack_below_the_target():
    desc = np.array([0.5, 0.25, 0.25])
    assert count_for_mass(desc, 0.75 + 0.5 * decomposition._MASS_SLACK) == 2
    assert count_for_mass(desc, 0.75 + 1e-9) == 3


def test_count_for_mass_counts_each_row():
    rows = np.array([[0.5, 0.25, 0.25],
                     [0.25, 0.25, 0.25],
                     [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(count_for_mass(rows, 0.6), [2, 3, 1])
    for row, n in zip(rows, (2, 3, 1)):
        assert count_for_mass(row, 0.6) == n


def test_row_energy_split_one_hot():
    attn = manual_attention(np.eye(4))
    np.testing.assert_array_equal(row_energy_split(attn, 0.9), np.eye(4, dtype=bool))


def test_row_energy_split_uniform_by_hand():
    attn = manual_attention(np.full((1, 10), 0.1))
    assert row_energy_split(attn, 0.9).sum() == 9


def test_row_energy_split_recomposition_and_tie_break():
    attn = manual_attention([[0.4, 0.4, 0.2]])
    keep = row_energy_split(attn, 0.4)
    # equal tied entries resolve to the lower column index
    np.testing.assert_array_equal(keep, [[True, False, False]])
    assert attn.a[keep].sum() == 0.4


def test_row_energy_split_random_recomposition():
    attn = synthetic_attention(GridShape(3, 3, 3), CFG, 6)
    keep = row_energy_split(attn, 0.9)
    # each row keeps the fewest largest entries whose mass reaches 0.9
    retained = np.where(keep, attn.a, 0.0)
    smallest = np.min(attn.a, where=keep, initial=1.0, axis=1)
    assert np.all(retained.sum(axis=1) >= 0.9 - 1e-12)
    assert np.all(retained.sum(axis=1) - smallest < 0.9)
    assert np.all(np.max(attn.a, where=~keep, initial=0.0, axis=1) <= smallest)


def test_row_energy_split_rejects_bad_fraction():
    attn = manual_attention(np.eye(2))
    with pytest.raises(ValueError):
        row_energy_split(attn, 1.0)


def test_split_results_hold_only_their_mask():
    attn = synthetic_attention(GridShape(3, 3, 3), CFG, 8)
    result = energy_split(attn, 0.05)
    arrays = {k: v for k, v in vars(result).items() if isinstance(v, np.ndarray)}
    assert list(arrays) == ["spike_mask"]
    keep = row_energy_split(attn, 0.9)
    for mask in (arrays["spike_mask"], keep):
        assert mask.dtype == bool and mask.shape == attn.a.shape


def test_synthetic_qk_row_norms():
    grid = GridShape(3, 2, 2)
    q, k = synthetic_qk(grid, CFG, 7)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1),
                               np.full(grid.size, math.sqrt(CFG.d_h)), rtol=1e-12)
    q2, _ = synthetic_qk(grid, CFG, 7, row_norm=1.0)
    np.testing.assert_allclose(np.linalg.norm(q2, axis=1), np.ones(grid.size), rtol=1e-12)


def test_scaling_sweep_small_grid_arithmetic():
    rows = theorem_scaling_sweep([GridShape(2, 2, 2)], CFG, c=0.5, seed=0)
    row = rows[0]
    assert row["L"] == 8
    assert row["tau"] == pytest.approx(0.5 / math.sqrt(8), rel=1e-15)
    assert row["nnz_bound"] == 8 * math.floor(1.0 / row["tau"])
    assert math.floor(1.0 / row["tau"]) == 5
    assert row["holds"]


def test_scaling_sweep_rejects_large_c():
    with pytest.raises(ValueError):
        theorem_scaling_sweep([GridShape(1, 1, 1)], CFG, c=1.0, seed=0)
    with pytest.raises(ValueError):
        theorem_scaling_sweep([GridShape(2, 2, 2)], CFG, c=3.0, seed=0)


def test_scaling_sweep_requires_sorted_grids():
    with pytest.raises(ValueError):
        theorem_scaling_sweep([GridShape(4, 4, 4), GridShape(2, 2, 2)], CFG, 0.5, 0)


@pytest.mark.parametrize("grids,message", [
    ([], "at least one grid"),
    ([GridShape(4, 4, 4), GridShape(2, 2, 2)], "sorted ascending"),
    ([GridShape(4, 4, 4), GridShape(17, 17, 17)], "desk cap"),
])
def test_both_sweeps_check_their_grid_list_up_front(grids, message):
    with pytest.raises(ValueError, match=message):
        decomposition.check_grids(grids)
    with pytest.raises(ValueError, match=message):
        theorem_scaling_sweep(grids, CFG, 0.5, 0)
    with pytest.raises(ValueError, match=message):
        residual_stable_rank_sweep(grids, CFG)


def test_scaling_sweep_nnz_fraction_shrinks():
    rows = theorem_scaling_sweep([GridShape(4, 4, 4), GridShape(8, 8, 8)], CFG,
                                 c=0.5, seed=0)
    dens = [r["nnz"] / r["L"] ** 2 for r in rows]
    assert dens[1] < dens[0]
    for r in rows:
        assert r["holds"] and r["nnz"] <= r["nnz_bound"]


def test_row_energy_split_matches_the_per_row_reference():
    # more rows than one block and a ragged last block; values on a coarse
    # grid make ties common, and some rows hold less mass than the target
    rows = 2 * decomposition.SPLIT_BLOCK_ROWS + 37
    rng = np.random.default_rng(7)
    a = rng.integers(0, 6, size=(rows, 24)).astype(np.float64)
    a /= np.maximum(a.sum(axis=1, keepdims=True), 1.0)
    a[::9] *= 0.5
    a[5] = 0.0
    attn = manual_attention(a)
    for energy in (0.3, 0.9, 0.99):
        expect = np.zeros_like(a, dtype=bool)
        for p in range(rows):
            order = np.argsort(-a[p], kind="stable")
            expect[p, order[:count_for_mass(a[p][order], energy)]] = True
        np.testing.assert_array_equal(row_energy_split(attn, energy), expect)
        assert np.any(expect.sum(axis=1) == a.shape[1])  # the unreached-target rows
