import math

import numpy as np
import pytest

from ropeslr import rope3d
from ropeslr.linalg import numerical_rank, singular_values
from ropeslr.rope3d import (
    AXES,
    GridShape,
    RopeConfig,
    choose_truncation,
    fourier_coeffs,
    freq,
    frequency_magnitudes,
    frequency_term_matrix,
    logit_direct,
    logit_fourier,
    logit_matrix,
    rotate,
    rotate_rows,
    selected_pair_columns,
)

CFG = RopeConfig(4, 4, 4)
GRID = GridShape(3, 2, 2)


def flat_index(grid, t, x, y):
    """The row-major flat index p = t*(H*W) + x*W + y of GridShape's
    docstring, written out as the oracle of coord."""
    assert 0 <= t < grid.t and 0 <= x < grid.h and 0 <= y < grid.w
    return t * grid.h * grid.w + x * grid.w + y


def axis_offset(cfg, axis):
    """Column offset of the axis block inside a d_h-wide vector: the t block
    comes first, then x, then y."""
    return {"t": 0, "x": cfg.d_t, "y": cfg.d_t + cfg.d_x}[axis]


def truncated_logits(q_mat, k_mat, grid, cfg, cutoffs):
    """Low-frequency part of the logit matrix (1/sqrt(d_h) scaled); its rank
    is at most 2 * (M_t + M_x + M_y)."""
    cols = selected_pair_columns(cfg, cutoffs)
    if cols.size == 0:
        return np.zeros((grid.size, grid.size))
    rq = rotate_rows(q_mat, grid, cfg)[:, cols]
    rk = rotate_rows(k_mat, grid, cfg)[:, cols]
    return (rq @ rk.T) / math.sqrt(cfg.d_h)


def truncation_tail_bound(q_mat, k_mat, cfg, cutoffs):
    """Measured uniform bound on |logit_matrix - truncated_logits| for the
    given cutoffs, on the scaled logit scale."""
    cutoffs = rope3d._validate_cutoffs(cfg, cutoffs)
    mags = frequency_magnitudes(q_mat, k_mat, cfg)
    total = 0.0
    for axis, m_k in zip(AXES, cutoffs):
        total += float(np.sum(mags[axis][m_k:]))
    return total / math.sqrt(cfg.d_h)


def random_qk(grid, cfg, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((grid.size, cfg.d_h)),
            rng.standard_normal((grid.size, cfg.d_h)))


def fourier_logit_matrix(q_mat, k_mat, grid, cfg):
    """Independent all-pairs trig-expansion oracle built from coefficient
    outer products; never touches the rotation path."""
    coords = grid.coords()
    total = np.zeros((grid.size, grid.size))
    for ai, axis in enumerate(AXES):
        off = axis_offset(cfg, axis)
        delta = coords[:, ai][:, None] - coords[:, ai][None, :]
        for m in range(1, cfg.axis_dim(axis) // 2 + 1):
            c0, c1 = off + 2 * (m - 1), off + 2 * m - 1
            a = np.outer(q_mat[:, c0], k_mat[:, c0]) + np.outer(q_mat[:, c1], k_mat[:, c1])
            b = np.outer(q_mat[:, c0], k_mat[:, c1]) - np.outer(q_mat[:, c1], k_mat[:, c0])
            ang = freq(cfg, axis, m) * delta
            total += a * np.cos(ang) + b * np.sin(ang)
    return total / math.sqrt(cfg.d_h)


# ---------------------------------------------------------------------------
# configs and grids


def test_rope_config_validation():
    with pytest.raises(ValueError):
        RopeConfig(3, 4, 4)  # odd
    with pytest.raises(ValueError):
        RopeConfig(-2, 4, 4)
    with pytest.raises(ValueError):
        RopeConfig(0, 0, 0)
    one_d = RopeConfig(8, 0, 0)  # degenerate 1D split is allowed
    assert one_d.d_h == 8 and one_d.n_freqs("x") == 0


def test_grid_flat_index_round_trip():
    grid = GridShape(3, 4, 5)
    for p in range(grid.size):
        t, x, y = grid.coord(p)
        assert flat_index(grid, t, x, y) == p
    coords = grid.coords()
    assert coords.shape == (60, 3)
    assert tuple(coords[17]) == grid.coord(17)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridShape(0, 2, 2)


# ---------------------------------------------------------------------------
# frequency schedule


def test_freq_first_is_one():
    for axis in AXES:
        assert freq(CFG, axis, 1) == 1.0


def test_freq_known_values():
    assert freq(RopeConfig(4, 4, 4), "t", 2) == pytest.approx(0.01, rel=1e-15)
    assert freq(RopeConfig(8, 8, 8), "t", 3) == pytest.approx(0.01, rel=1e-15)


def test_freq_strictly_decreasing():
    cfg = RopeConfig(8, 8, 8)
    vals = [freq(cfg, "t", m) for m in range(1, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_freq_out_of_range():
    with pytest.raises(ValueError):
        freq(CFG, "t", 0)
    with pytest.raises(ValueError):
        freq(CFG, "t", 3)
    with pytest.raises(ValueError):
        freq(CFG, "z", 1)


# ---------------------------------------------------------------------------
# rotations


def test_rotate_zero_position_is_identity():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(CFG.d_h)
    np.testing.assert_array_equal(rotate(v, 0, GRID, CFG), v)


def test_rotate_quarter_turn_by_hand():
    # base chosen so the second t-frequency is exactly pi/2 per unit step
    cfg = RopeConfig(4, 0, 0, base=(2.0 / math.pi) ** 2)
    grid = GridShape(4, 1, 1)
    v = np.array([0.0, 0.0, 1.0, 0.0])
    out = rotate(v, 1, grid, cfg)
    np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-12)


def test_rotate_preserves_norm():
    rng = np.random.default_rng(1)
    for p in range(GRID.size):
        v = rng.standard_normal(CFG.d_h)
        assert np.linalg.norm(rotate(v, p, GRID, CFG)) == pytest.approx(
            np.linalg.norm(v), abs=1e-12)


def test_rotate_shape_errors():
    with pytest.raises(ValueError):
        rotate(np.zeros(5), 0, GRID, CFG)
    with pytest.raises(ValueError):
        rotate(np.zeros(CFG.d_h), GRID.size, GRID, CFG)


def test_rotate_rows_matches_single_rotate():
    q, _ = random_qk(GRID, CFG, 2)
    rows = rotate_rows(q, GRID, CFG)
    for p in (0, 3, GRID.size - 1):
        np.testing.assert_allclose(rows[p], rotate(q[p], p, GRID, CFG), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# logits


def test_logit_direct_zero_offset_cancels_rotation():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(CFG.d_h)
    k = rng.standard_normal(CFG.d_h)
    for p in (0, 5, 11):
        got = logit_direct(q, k, p, p, GRID, CFG)
        assert got == pytest.approx(float(q @ k) / math.sqrt(CFG.d_h), abs=1e-12)


def test_logit_direct_shift_invariance():
    rng = np.random.default_rng(4)
    q = rng.standard_normal(CFG.d_h)
    k = rng.standard_normal(CFG.d_h)
    grid = GridShape(3, 3, 3)
    p = flat_index(grid, 0, 1, 0)
    qpos = flat_index(grid, 1, 0, 2)
    base = logit_direct(q, k, p, qpos, grid, CFG)
    for dt, dx, dy in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]:
        p2 = flat_index(grid, 0 + dt, 1 + dx, 0 + dy)
        q2 = flat_index(grid, 1 + dt, 0 + dx, 2 + dy)
        assert logit_direct(q, k, p2, q2, grid, CFG) == pytest.approx(base, abs=1e-10)


def test_logit_direct_zero_query():
    k = np.ones(CFG.d_h)
    assert logit_direct(np.zeros(CFG.d_h), k, 2, 7, GRID, CFG) == 0.0


# ---------------------------------------------------------------------------
# trig coefficients and the exact expansion


def test_fourier_coeffs_unit_pair():
    q = np.zeros(CFG.d_h)
    q[0] = 1.0  # first t-axis pair, first component
    co = fourier_coeffs(q, q, CFG)
    assert co.a["t"][0] == 1.0 and co.b["t"][0] == 0.0
    assert np.all(co.a["t"][1:] == 0) and np.all(co.b["t"][1:] == 0)
    for axis in ("x", "y"):
        assert np.all(co.a[axis] == 0) and np.all(co.b[axis] == 0)


def test_fourier_coeffs_swap_antisymmetry():
    rng = np.random.default_rng(5)
    q = rng.standard_normal(CFG.d_h)
    k = rng.standard_normal(CFG.d_h)
    fwd = fourier_coeffs(q, k, CFG)
    rev = fourier_coeffs(k, q, CFG)
    for axis in AXES:
        np.testing.assert_allclose(rev.a[axis], fwd.a[axis], rtol=0, atol=1e-15)
        np.testing.assert_allclose(rev.b[axis], -fwd.b[axis], rtol=0, atol=1e-15)


def test_fourier_coeffs_cauchy_schwarz():
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = rng.standard_normal(CFG.d_h)
        k = rng.standard_normal(CFG.d_h)
        co = fourier_coeffs(q, k, CFG)
        for axis in AXES:
            off = axis_offset(CFG, axis)
            for m in range(CFG.n_freqs(axis)):
                qn = np.linalg.norm(q[off + 2 * m:off + 2 * m + 2])
                kn = np.linalg.norm(k[off + 2 * m:off + 2 * m + 2])
                assert abs(co.a[axis][m]) <= qn * kn + 1e-12
                assert abs(co.b[axis][m]) <= qn * kn + 1e-12


def test_logit_fourier_zero_offset_is_coefficient_sum():
    rng = np.random.default_rng(7)
    q = rng.standard_normal(CFG.d_h)
    k = rng.standard_normal(CFG.d_h)
    co = fourier_coeffs(q, k, CFG)
    total = sum(float(np.sum(co.a[axis])) for axis in AXES)
    assert logit_fourier(co, (0, 0, 0), CFG) == pytest.approx(
        total / math.sqrt(CFG.d_h), abs=1e-12)
    assert logit_fourier(co, (0, 0, 0), CFG) == pytest.approx(
        float(q @ k) / math.sqrt(CFG.d_h), abs=1e-12)


def test_logit_fourier_zero_coeffs():
    co = fourier_coeffs(np.zeros(CFG.d_h), np.ones(CFG.d_h), CFG)
    assert logit_fourier(co, (2, 1, 0), CFG) == 0.0


def test_expansion_matches_direct_on_random_pairs():
    grid = GridShape(2, 3, 3)
    q_mat, k_mat = random_qk(grid, CFG, 8)
    coords = grid.coords()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        p, qp = rng.integers(0, grid.size, size=2)
        direct = logit_direct(q_mat[p], k_mat[qp], int(p), int(qp), grid, CFG)
        co = fourier_coeffs(q_mat[p], k_mat[qp], CFG)
        four = logit_fourier(co, tuple(coords[p] - coords[qp]), CFG)
        worst = max(worst, abs(direct - four))
    assert worst <= 1e-9


def test_expansion_exact_all_pairs_matrix():
    # exactness over every pair on mid-sized grids via the outer-product oracle
    for grid, seed in [(GridShape(4, 4, 4), 10), (GridShape(2, 3, 3), 11)]:
        q_mat, k_mat = random_qk(grid, CFG, seed)
        direct = logit_matrix(q_mat, k_mat, grid, CFG)
        oracle = fourier_logit_matrix(q_mat, k_mat, grid, CFG)
        assert np.max(np.abs(direct - oracle)) <= 1e-9


# an empty middle axis: the t and y blocks meet at column 6
EMPTY_MIDDLE = RopeConfig(6, 0, 2)


@pytest.mark.parametrize("cfg,grid", [(RopeConfig(8, 0, 0), GridShape(9, 1, 1)),
                                      (EMPTY_MIDDLE, GridShape(4, 2, 3))],
                         ids=["8,0,0", "6,0,2"])
def test_one_dimensional_degenerate_config(cfg, grid):
    q_mat, k_mat = random_qk(grid, cfg, 12)
    direct = logit_matrix(q_mat, k_mat, grid, cfg)
    oracle = fourier_logit_matrix(q_mat, k_mat, grid, cfg)
    assert np.max(np.abs(direct - oracle)) <= 1e-9


# ---------------------------------------------------------------------------
# frequency term matrices


def test_frequency_term_zeroed_subspace():
    q_mat, k_mat = random_qk(GRID, CFG, 13)
    q_mat[:, 0:2] = 0.0
    term = frequency_term_matrix(q_mat, k_mat, "t", 1, GRID, CFG)
    np.testing.assert_array_equal(term, np.zeros((GRID.size, GRID.size)))


def test_frequency_term_rank_at_most_two():
    q_mat, k_mat = random_qk(GRID, CFG, 14)
    for axis in AXES:
        for m in range(1, CFG.n_freqs(axis) + 1):
            s = singular_values(frequency_term_matrix(q_mat, k_mat, axis, m, GRID, CFG))
            assert s[2] <= 1e-9 * s[0]


def test_frequency_terms_sum_to_logit_matrix():
    q_mat, k_mat = random_qk(GRID, CFG, 15)
    total = np.zeros((GRID.size, GRID.size))
    for axis in AXES:
        for m in range(1, CFG.n_freqs(axis) + 1):
            total += frequency_term_matrix(q_mat, k_mat, axis, m, GRID, CFG)
    total /= math.sqrt(CFG.d_h)
    assert np.max(np.abs(total - logit_matrix(q_mat, k_mat, GRID, CFG))) <= 1e-9


def test_frequency_term_bad_axis_or_m():
    q_mat, k_mat = random_qk(GRID, CFG, 16)
    with pytest.raises(ValueError):
        frequency_term_matrix(q_mat, k_mat, "t", 3, GRID, CFG)
    with pytest.raises(ValueError):
        frequency_term_matrix(q_mat, k_mat, "w", 1, GRID, CFG)


# ---------------------------------------------------------------------------
# truncation


def test_truncated_full_cutoffs_equals_logit_matrix():
    for cfg, full_cutoffs in ((CFG, (2, 2, 2)), (EMPTY_MIDDLE, (3, 0, 1))):
        q_mat, k_mat = random_qk(GRID, cfg, 17)
        full = truncated_logits(q_mat, k_mat, GRID, cfg, full_cutoffs)
        np.testing.assert_array_equal(full, logit_matrix(q_mat, k_mat, GRID, cfg))
    np.testing.assert_array_equal(selected_pair_columns(EMPTY_MIDDLE, (2, 0, 1)),
                                  [0, 1, 2, 3, 6, 7])
    np.testing.assert_array_equal(selected_pair_columns(EMPTY_MIDDLE, (0, 0, 1)), [6, 7])


def test_truncated_zero_cutoffs_is_zero():
    q_mat, k_mat = random_qk(GRID, CFG, 18)
    np.testing.assert_array_equal(
        truncated_logits(q_mat, k_mat, GRID, CFG, (0, 0, 0)),
        np.zeros((GRID.size, GRID.size)))


def test_truncated_rank_bound():
    q_mat, k_mat = random_qk(GRID, CFG, 19)
    for cutoffs in [(1, 0, 0), (1, 1, 0), (2, 1, 1)]:
        s_t = truncated_logits(q_mat, k_mat, GRID, CFG, cutoffs)
        assert numerical_rank(s_t) <= 2 * sum(cutoffs)


def test_truncated_cutoffs_out_of_range():
    q_mat, k_mat = random_qk(GRID, CFG, 20)
    with pytest.raises(ValueError):
        truncated_logits(q_mat, k_mat, GRID, CFG, (3, 0, 0))


def test_truncation_error_below_measured_tail():
    for seed in range(5):
        q_mat, k_mat = random_qk(GRID, CFG, 21 + seed)
        full = logit_matrix(q_mat, k_mat, GRID, CFG)
        rng = np.random.default_rng(100 + seed)
        cutoffs = tuple(int(rng.integers(0, CFG.n_freqs(a) + 1)) for a in AXES)
        approx = truncated_logits(q_mat, k_mat, GRID, CFG, cutoffs)
        bound = truncation_tail_bound(q_mat, k_mat, CFG, cutoffs)
        assert np.max(np.abs(full - approx)) <= bound + 1e-12


def test_choose_truncation_loose_delta_truncates_everything():
    q_mat, k_mat = random_qk(GRID, CFG, 26)
    mags = frequency_magnitudes(q_mat, k_mat, CFG)
    total = sum(float(np.sum(m)) for m in mags.values())
    assert choose_truncation(q_mat, k_mat, CFG, 10.0 * total) == (0, 0, 0)


def test_choose_truncation_tight_delta_keeps_everything():
    q_mat, k_mat = random_qk(GRID, CFG, 27)
    assert choose_truncation(q_mat, k_mat, CFG, 1e-300) == (2, 2, 2)


def test_choose_truncation_rejects_bad_delta():
    q_mat, k_mat = random_qk(GRID, CFG, 28)
    with pytest.raises(ValueError):
        choose_truncation(q_mat, k_mat, CFG, 0.0)


def test_choose_truncation_geometric_decay_steps():
    # one token whose per-frequency coefficient magnitudes halve with m:
    # each halving of delta moves the t-axis cutoff up by exactly one
    cfg = RopeConfig(8, 0, 0)
    q = np.zeros((1, cfg.d_h))
    for m in range(4):
        q[0, 2 * m] = math.sqrt(2.0 ** (-m))
    mags = frequency_magnitudes(q, q, cfg)["t"]
    np.testing.assert_allclose(mags, [1.0, 0.5, 0.25, 0.125], rtol=0, atol=1e-15)
    scale = math.sqrt(cfg.d_h)
    # hand suffix sums (tail beyond cutoff M, M = 0..4): 1.875, .875, .375, .125, 0.
    # halving budgets from 0.9 lands between successive tails, so each halving
    # of delta moves the cutoff up by exactly one
    for step, m_expect in enumerate((1, 2, 3, 4)):
        delta = 3.0 * (0.9 * 0.5 ** step) / scale
        assert choose_truncation(q, q, cfg, delta) == (m_expect, 0, 0)


def test_guaranteed_error_from_chosen_cutoffs():
    q_mat, k_mat = random_qk(GridShape(3, 3, 3), CFG, 29)
    grid = GridShape(3, 3, 3)
    full = logit_matrix(q_mat, k_mat, grid, CFG)
    for delta in (0.5, 0.05):
        cutoffs = choose_truncation(q_mat, k_mat, CFG, delta)
        approx = truncated_logits(q_mat, k_mat, grid, CFG, cutoffs)
        assert np.max(np.abs(full - approx)) <= delta


def test_chunked_frequency_magnitudes_match_the_direct_formula_bitwise(monkeypatch):
    # 7^3 = 343 rows: the row chunk does not divide L, so the last chunk is ragged
    grid = GridShape(7, 7, 7)
    assert grid.size % rope3d.SPLIT_BLOCK_ROWS != 0
    for cfg in (CFG, EMPTY_MIDDLE):
        q_mat, k_mat = random_qk(grid, cfg, 30)
        mags = frequency_magnitudes(q_mat, k_mat, cfg)
        for axis in AXES:
            off = axis_offset(cfg, axis)
            direct = []
            for m in range(1, cfg.n_freqs(axis) + 1):
                c0, c1 = off + 2 * (m - 1), off + 2 * m - 1
                a = q_mat[:, c0][:, None] * k_mat[:, c0][None, :] \
                    + q_mat[:, c1][:, None] * k_mat[:, c1][None, :]
                b = q_mat[:, c0][:, None] * k_mat[:, c1][None, :] \
                    - q_mat[:, c1][:, None] * k_mat[:, c0][None, :]
                direct.append(float(np.max(np.abs(a) + np.abs(b))))
            np.testing.assert_array_equal(mags[axis], direct)

    q_mat, k_mat = random_qk(grid, CFG, 30)
    cutoffs = [(0, 0, 0), (1, 0, 2), (2, 2, 2)]
    deltas = [100.0, 30.0, 20.0, 15.0, 1.0]
    chunked = ([truncation_tail_bound(q_mat, k_mat, CFG, c) for c in cutoffs],
               [choose_truncation(q_mat, k_mat, CFG, d) for d in deltas])
    monkeypatch.setattr(rope3d, "SPLIT_BLOCK_ROWS", grid.size)
    whole = ([truncation_tail_bound(q_mat, k_mat, CFG, c) for c in cutoffs],
             [choose_truncation(q_mat, k_mat, CFG, d) for d in deltas])
    assert chunked == whole
    assert len(set(whole[1])) > 1  # the deltas select different cutoffs


def direct_magnitudes(q_mat, k_mat, cfg):
    """max (|a| + |b|) over all L^2 pairs at once, per axis and frequency."""
    out = {}
    for axis in AXES:
        off = axis_offset(cfg, axis)
        mags = []
        for m in range(1, cfg.n_freqs(axis) + 1):
            c0, c1 = off + 2 * (m - 1), off + 2 * m - 1
            a = q_mat[:, c0][:, None] * k_mat[:, c0][None, :] \
                + q_mat[:, c1][:, None] * k_mat[:, c1][None, :]
            b = q_mat[:, c0][:, None] * k_mat[:, c1][None, :] \
                - q_mat[:, c1][:, None] * k_mat[:, c0][None, :]
            mags.append(float(np.max(np.abs(a) + np.abs(b))))
        out[axis] = np.asarray(mags)
    return out


def unit_pairs(n, seed):
    """n rows whose every rotation pair is a unit 2-vector at a random angle."""
    ang = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (n, CFG.d_h // 2))
    out = np.empty((n, CFG.d_h))
    out[:, 0::2], out[:, 1::2] = np.cos(ang), np.sin(ang)
    return out


def equal_norms(seed):
    return unit_pairs(100, seed), unit_pairs(100, seed + 1)


def zero_pair_column(seed):
    q_mat, k_mat = random_qk(GRID, CFG, seed)
    q_mat[:, 4:6] = 0.0  # the first x-axis pair
    return q_mat, k_mat


def dominant_row(seed):
    q_mat, k_mat = random_qk(GridShape(5, 5, 5), CFG, seed)
    q_mat[17] *= 1000.0
    return q_mat, k_mat


def ragged_survivors(seed):
    # 70 equal-norm rows always survive, so the survivor loop is 64 + 6 rows
    q_mat, k_mat = unit_pairs(100, seed), unit_pairs(100, seed + 1)
    q_mat[70:] *= 1e-3
    return q_mat, k_mat


def single_token(seed):
    return random_qk(GridShape(1, 1, 1), CFG, seed)


@pytest.mark.parametrize("make,survivors", [
    (equal_norms, 100),  # nothing can be pruned
    (zero_pair_column, None),
    (dominant_row, 1),
    (single_token, 1),
    (ragged_survivors, 70),
])
def test_pruned_frequency_magnitudes_match_the_direct_formula_bitwise(make, survivors):
    for seed in range(3):
        q_mat, k_mat = make(40 + seed)
        mags = frequency_magnitudes(q_mat, k_mat, CFG)
        direct = direct_magnitudes(q_mat, k_mat, CFG)
        for axis in AXES:
            np.testing.assert_array_equal(mags[axis], direct[axis])
        rows = rope3d._prune_pairs(q_mat[:, 0], q_mat[:, 1], k_mat[:, 0], k_mat[:, 1])[0]
        if survivors is not None:
            assert rows.size == survivors
    if make is zero_pair_column:
        assert mags["x"][0] == 0.0
