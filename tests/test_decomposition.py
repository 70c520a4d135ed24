import math
import tracemalloc

import numpy as np
import pytest

from ropeslr import decomposition
from ropeslr.analysis import residual_stable_rank_sweep
from ropeslr.decomposition import (
    SPLIT_BLOCK_ROWS,
    background_inf_norm,
    count_for_mass,
    energy_split,
    row_energy_split,
    row_softmax,
    scaling_sweep_point,
    softmax_attention,
    synthetic_attention,
    synthetic_qk,
    theorem_scaling_sweep,
)
from ropeslr.rope3d import GridShape, RopeConfig, logit_matrix

CFG = RopeConfig(4, 4, 4)


def test_softmax_uniform_row():
    a, log_z = softmax_attention(np.zeros((4, 4)))
    np.testing.assert_allclose(a, np.full((4, 4), 0.25), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.exp(log_z), np.full(4, 4.0), rtol=1e-12)


def test_softmax_large_logits_stable():
    s = np.array([[1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    a, _ = softmax_attention(s)
    assert np.all(np.isfinite(a))
    assert a[0, 0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(a.sum(axis=1), np.ones(3), rtol=0, atol=1e-9)


def test_softmax_row_stochastic_across_scales():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((6, 6))
    for scale in (1.0, 10.0, 1e3):
        a, _ = softmax_attention(scale * base)
        np.testing.assert_allclose(a.sum(axis=1), np.ones(6), rtol=0, atol=1e-9)
        assert np.all(a >= 0)


def test_softmax_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = np.random.default_rng(1)
    s = rng.standard_normal((5, 5)) * 3.0
    a, _ = softmax_attention(s.copy())  # the softmax consumes its logits
    for i in range(5):
        exps = [mp.e ** mp.mpf(v) for v in s[i]]
        z = sum(exps)
        for j in range(5):
            assert abs(a[i, j] - float(exps[j] / z)) <= 1e-12


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
    got_a, got_log_z = softmax_attention(s.copy())
    a, log_z = row_softmax(s)
    np.testing.assert_array_equal(got_a, a)
    np.testing.assert_array_equal(got_log_z, log_z)


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
    # softmax written in place, so only block temporaries join the one L x L
    # float array (the finiteness check reads the min and the max; its
    # boolean matrix of L^2 bytes brought the peak to 1.13)
    grid = GridShape(8, 8, 8)
    q, k = synthetic_qk(grid, CFG, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        a, _ = softmax_attention(logit_matrix(q, k, grid, CFG))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = grid.size ** 2 * 8
    assert a.nbytes == one
    assert peak < 1.1 * one, peak / one


def test_energy_split_no_spikes_when_tau_above_max():
    a, _ = softmax_attention(np.random.default_rng(2).standard_normal((5, 5)))
    tau = float(a.max()) + 0.01
    mask = energy_split(a, min(tau, 0.99))
    assert not mask.any()
    assert background_inf_norm(a, mask) == float(a.max())


def test_energy_split_one_hot_rows():
    s = np.full((4, 4), -30.0)
    np.fill_diagonal(s, 30.0)
    mask = energy_split(softmax_attention(s)[0], 0.5)
    assert mask.sum() == 4
    assert np.all(mask.sum(axis=1) == 1)


def test_energy_split_exact_recomposition():
    a = synthetic_attention(GridShape(4, 4, 4), CFG, 3)
    mask = energy_split(a, 0.05)
    np.testing.assert_array_equal(mask, a > 0.05)
    assert background_inf_norm(a, mask) == float(a[~mask].max())


def test_energy_split_tie_goes_to_background():
    mask = energy_split(np.array([[0.5, 0.5], [0.25, 0.75]]), 0.5)
    assert not mask[0].any()  # both entries equal tau exactly
    assert mask[1, 1] and mask.sum() == 1


def test_energy_split_tau_out_of_range():
    for tau in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            energy_split(np.eye(2), tau)


def max_row_nnz(mask) -> int:
    return int(mask.sum(axis=1).max())


def test_sparsity_bound_value():
    # tau = 1 / sqrt(8) at c = 1 on 8 tokens: floor(1 / tau) = 2 spikes a row
    point = scaling_sweep_point(GridShape(2, 2, 2), CFG, 1.0, seed=0)
    assert point["nnz_bound"] == 8 * 2 and point["holds"] is True
    assert max_row_nnz(energy_split(np.eye(3), 0.3)) == 1


@pytest.mark.parametrize("grid,seed", [(GridShape(5, 5, 5), 1), (GridShape(10, 10, 10), 2)])
def test_scaling_sweep_point_is_the_split_of_the_whole_attention(grid, seed):
    # made and split a block of SPLIT_BLOCK_ROWS rows at a time; L = 125 and
    # 1000 are not multiples of it
    c = 0.5
    point = scaling_sweep_point(grid, CFG, c, seed)
    tau = c / math.sqrt(grid.size)
    a = synthetic_attention(grid, CFG, seed)
    mask = energy_split(a, tau)
    bound = math.floor(1.0 / tau)
    assert point == {"L": grid.size, "tau": tau, "nnz": int(mask.sum()),
                     "nnz_bound": grid.size * bound,
                     "bg_inf_norm": background_inf_norm(a, mask),
                     "row_nnz": max_row_nnz(mask), "holds": max_row_nnz(mask) <= bound}
    assert 0 < point["nnz"] < grid.size ** 2


def test_scaling_sweep_point_makes_no_attention_matrix():
    # one reused block of SPLIT_BLOCK_ROWS rows (0.064 L^2 doubles at L =
    # 1000) and its temporaries; the whole attention was 1.15 L^2
    grid = GridShape(10, 10, 10)
    scaling_sweep_point(GridShape(2, 2, 2), CFG, 0.5, 0)  # first-call imports
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        scaling_sweep_point(grid, CFG, 0.5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * grid.size ** 2 * 8, peak / (grid.size ** 2 * 8)


def test_sparsity_bound_uniform_attention_has_no_spikes():
    a, _ = softmax_attention(np.zeros((10, 10)))
    assert max_row_nnz(energy_split(a, 0.2)) == 0


def test_sparsity_and_background_bounds_random_sweep():
    rng = np.random.default_rng(4)
    for trial in range(100):
        a, _ = softmax_attention(rng.standard_normal((32, 32)) * rng.uniform(0.5, 4.0))
        tau = float(rng.uniform(0.05, 0.5))
        mask = energy_split(a, tau)
        assert max_row_nnz(mask) <= math.floor(1.0 / tau)
        assert background_inf_norm(a, mask) <= tau


def test_background_inf_norm_no_spikes_equals_global_max():
    a, _ = softmax_attention(np.random.default_rng(5).standard_normal((6, 6)))
    assert background_inf_norm(a, energy_split(a, 0.999)) == float(a.max())


def test_background_inf_norm_one_hot_spike_rows_contribute_zero():
    s = np.full((3, 3), -40.0)
    np.fill_diagonal(s, 40.0)
    a, _ = softmax_attention(s)
    assert background_inf_norm(a, energy_split(a, 0.5)) <= 1e-15


@pytest.mark.parametrize("row", [SPLIT_BLOCK_ROWS - 1, SPLIT_BLOCK_ROWS, 6 * SPLIT_BLOCK_ROWS + 4])
def test_background_inf_norm_across_block_edges_is_the_whole_matrix_max(row):
    # the largest background entry sits on one side of a block edge, beside
    # spikes that are larger still, and one block holds nothing but spikes
    rng = np.random.default_rng(row)
    a = rng.random((6 * SPLIT_BLOCK_ROWS + 5, 300)) * 0.5
    mask = a > 0.45
    mask[:SPLIT_BLOCK_ROWS] |= row >= SPLIT_BLOCK_ROWS
    a[row, 7], mask[row, 7] = 0.6, False
    a[row - 1:row + 2, 8], mask[row - 1:row + 2, 8] = 0.9, True
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = background_inf_norm(a, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = float(np.max(a, where=~mask, initial=0.0))
    assert got == want == 0.6
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert peak < 0.5 * mask.nbytes, peak / mask.nbytes  # no whole inverted mask


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
    np.testing.assert_array_equal(row_energy_split(np.eye(4), 0.9), np.eye(4, dtype=bool))


def test_row_energy_split_uniform_by_hand():
    assert row_energy_split(np.full((1, 10), 0.1), 0.9).sum() == 9


def test_row_energy_split_recomposition_and_tie_break():
    a = np.array([[0.4, 0.4, 0.2]])
    keep = row_energy_split(a, 0.4)
    # equal tied entries resolve to the lower column index
    np.testing.assert_array_equal(keep, [[True, False, False]])
    assert a[keep].sum() == 0.4


def test_row_energy_split_random_recomposition():
    a = synthetic_attention(GridShape(3, 3, 3), CFG, 6)
    keep = row_energy_split(a, 0.9)
    # each row keeps the fewest largest entries whose mass reaches 0.9
    retained = np.where(keep, a, 0.0)
    smallest = np.min(a, where=keep, initial=1.0, axis=1)
    assert np.all(retained.sum(axis=1) >= 0.9 - 1e-12)
    assert np.all(retained.sum(axis=1) - smallest < 0.9)
    assert np.all(np.max(a, where=~keep, initial=0.0, axis=1) <= smallest)


def test_row_energy_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        row_energy_split(np.eye(2), 1.0)


def test_split_results_hold_only_their_mask():
    a = synthetic_attention(GridShape(3, 3, 3), CFG, 8)
    for mask in (energy_split(a, 0.05), row_energy_split(a, 0.9)):
        assert mask.dtype == bool and mask.shape == a.shape


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
    for energy in (0.3, 0.9, 0.99):
        expect = np.zeros_like(a, dtype=bool)
        for p in range(rows):
            order = np.argsort(-a[p], kind="stable")
            expect[p, order[:count_for_mass(a[p][order], energy)]] = True
        np.testing.assert_array_equal(row_energy_split(a, energy), expect)
        assert np.any(expect.sum(axis=1) == a.shape[1])  # the unreached-target rows
