import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ropeslr.decomposition import (
    SPLIT_BLOCK_ROWS,
    energy_split,
    softmax_attention,
    synthetic_qk,
)
from ropeslr.linalg import RANK_REL_TOL, numerical_rank, singular_values
from ropeslr.lowrank import (
    FavorMap,
    RANK_CERT_MARGIN,
    TRI_INV_LEAF,
    Reconstruction,
    _error_fields,
    _factored_core,
    _lowrank_branch,
    _lowrank_rank,
    _qr_rank_certificate,
    _rank_certificate,
    _stabilised_features_rows,
    _triangular_inverse,
    _truncated_svd_factors,
    approx_kernel,
    favor_features_rows,
    favor_map,
    normalize_rows,
    reconstruct,
    residual_sparse,
)
from ropeslr.rope3d import GridShape, RopeConfig, choose_truncation, logit_matrix

CFG = RopeConfig(4, 4, 4)


def favor_features(x, fmap: FavorMap) -> np.ndarray:
    """The positive random features of one vector, written out as the
    oracle of the row path: phi(x)_i = exp(omega_i . x - ||x||^2 / 2) /
    sqrt(R); always positive, and E[phi(q) . phi(k)] = exp(q . k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fmap.input_dim,):
        raise ValueError(f"expected a vector of length {fmap.input_dim}, got {x.shape}")
    return np.exp(x @ fmap.omegas - 0.5 * float(x @ x)) / math.sqrt(fmap.feature_dim)


def test_favor_features_zero_vector_exact():
    fmap = favor_map(3, 64, seed=0)  # 64 = 4^3 keeps 1/sqrt(R) exact
    phi = favor_features(np.zeros(3), fmap)
    np.testing.assert_array_equal(phi, np.full(64, 0.125))
    assert float(phi @ phi) == 1.0  # exp(0) estimated with zero variance


def test_favor_features_positive():
    rng = np.random.default_rng(1)
    fmap = favor_map(6, 128, seed=1)
    for _ in range(1000):
        phi = favor_features(rng.standard_normal(6), fmap)
        assert np.all(phi > 0)


def test_favor_features_dimension_mismatch():
    fmap = favor_map(4, 16, seed=2)
    with pytest.raises(ValueError):
        favor_features(np.zeros(5), fmap)


def test_favor_shared_map_concentrates():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(8)
    q *= 0.8 / np.linalg.norm(q)
    k = rng.standard_normal(8)
    k *= 0.9 / np.linalg.norm(k)
    truth = math.exp(float(q @ k))
    hits = 0
    for seed in range(20):
        fmap = favor_map(8, 4096, seed)
        est = float(favor_features(q, fmap) @ favor_features(k, fmap))
        if abs(est - truth) / truth <= 0.1:
            hits += 1
    assert hits >= 19


def test_favor_unbiased_within_three_standard_errors():
    rng = np.random.default_rng(4)
    q = rng.standard_normal(8)
    q *= 0.8 / np.linalg.norm(q)
    k = rng.standard_normal(8)
    k *= 0.9 / np.linalg.norm(k)
    truth = math.exp(float(q @ k))
    ests = np.array([
        float(favor_features(q, favor_map(8, 64, seed + 50_000))
              @ favor_features(k, favor_map(8, 64, seed + 50_000)))
        for seed in range(1000)
    ])
    se = ests.std(ddof=1) / math.sqrt(ests.size)
    assert abs(ests.mean() - truth) <= 3.0 * se


def test_approx_kernel_single_row_reduces_to_feature_product():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 4)) * 0.3
    y = rng.standard_normal((1, 4)) * 0.3
    fmap = favor_map(4, 256, seed=6)
    k_hat = approx_kernel(x, y, fmap)
    expect = float(favor_features(x[0], fmap) @ favor_features(y[0], fmap))
    assert k_hat.shape == (1, 1)
    assert k_hat[0, 0] == pytest.approx(expect, rel=1e-12)


def test_approx_kernel_zero_factors_gives_ones():
    fmap = favor_map(1, 64, seed=7)
    k_hat = approx_kernel(np.zeros((5, 1)), np.zeros((5, 1)), fmap)
    np.testing.assert_array_equal(k_hat, np.ones((5, 5)))


def test_approx_kernel_rank_bounded_by_feature_dim():
    rng = np.random.default_rng(8)
    q_fac = rng.standard_normal((64, 3)) * 0.2
    k_fac = rng.standard_normal((64, 3)) * 0.2
    fmap = favor_map(3, 8, seed=9)
    s = singular_values(approx_kernel(q_fac, k_fac, fmap))
    assert s[8] <= 1e-9 * s[0]


def test_normalize_rows_identity_when_z_is_one():
    rng = np.random.default_rng(10)
    e_hat = np.abs(rng.standard_normal((4, 4)))
    np.testing.assert_array_equal(normalize_rows(e_hat, np.ones(4)), e_hat)


def test_normalize_rows_preserves_rank_one():
    e_hat = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    out = normalize_rows(e_hat, np.array([2.0, 4.0, 8.0]))
    assert numerical_rank(out) == 1


def test_normalize_rows_preserves_numerical_rank():
    rng = np.random.default_rng(11)
    for trial in range(5):
        rank = trial % 4 + 2
        e_hat = rng.standard_normal((32, rank)) @ rng.standard_normal((rank, 32))
        z = np.abs(rng.standard_normal(32)) + 0.1
        assert numerical_rank(normalize_rows(e_hat, z)) == numerical_rank(e_hat)


def test_normalize_rows_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        normalize_rows(np.ones((2, 2)), np.array([1.0, 0.0]))


def test_residual_sparse_empty_spikes():
    attn = softmax_attention(np.zeros((3, 3)))
    out = residual_sparse(attn, np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
    np.testing.assert_array_equal(out, np.zeros((3, 3)))


def test_residual_sparse_exact_match_gives_zero():
    attn = softmax_attention(np.zeros((3, 3)))
    mask = np.eye(3, dtype=bool)
    out = residual_sparse(attn, attn.a.copy(), mask)
    np.testing.assert_array_equal(out, np.zeros((3, 3)))


def test_residual_sparse_identity_on_spikes():
    rng = np.random.default_rng(12)
    attn = softmax_attention(rng.standard_normal((8, 8)))
    # approximation near the truth: the compensated sum recovers the original
    # entries bitwise on the spike support
    a_lr = attn.a * (1.0 + 0.1 * rng.standard_normal((8, 8)))
    mask = attn.a > 0.1
    resid = residual_sparse(attn, a_lr, mask)
    recon = resid + a_lr
    np.testing.assert_array_equal(recon[mask], attn.a[mask])
    np.testing.assert_array_equal(resid[~mask], np.zeros(int((~mask).sum())))


def test_reconstruct_background_error_within_loose_tolerance():
    grid = GridShape(6, 6, 6)
    q, k = synthetic_qk(grid, CFG, 0, row_norm=2.0)
    rec = reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.02, favor_dim=1024, seed=0)
    attn = softmax_attention(logit_matrix(q, k, grid, CFG))
    assert float(attn.a.max()) < 0.05  # tau sits above every background entry
    assert rec.max_err_spike == 0.0
    assert rec.max_err_bg <= 0.02


def test_reconstruct_loose_e_tol_truncates_everything_but_spikes_exact():
    # tiny coefficients let the loosest allowed budget drop every frequency,
    # and near-uniform attention above tau keeps the spike set non-empty
    grid = GridShape(2, 1, 1)
    q, k = synthetic_qk(grid, CFG, 1, row_norm=0.1)
    rec = reconstruct(q, k, grid, CFG, tau=0.4, e_tol=0.2, favor_dim=64, seed=1)
    assert rec.cutoffs == (0, 0, 0)
    assert rec.max_err_spike == 0.0
    assert rec.nnz_sparse > 0


def test_reconstruct_spike_support_and_rank_bound():
    grid = GridShape(4, 4, 4)
    q, k = synthetic_qk(grid, CFG, 2)
    rec = reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.02, favor_dim=32, seed=2)
    attn = softmax_attention(logit_matrix(q, k, grid, CFG))
    dec = energy_split(attn, 0.05)
    assert dec.nnz > 0
    np.testing.assert_array_equal(rec.spike_mask, dec.spike_mask)
    assert rec.support_matches_spikes
    assert rec.max_err_spike == 0.0
    assert rec.rank_lowrank <= 32
    np.testing.assert_array_equal(rec.a_final[rec.spike_mask], attn.a[rec.spike_mask])
    np.testing.assert_array_equal(rec.a_final[~rec.spike_mask],
                                  rec.a_lowrank[~rec.spike_mask])
    assert rec.max_err_bg == float(np.abs(rec.a_final - attn.a)[~rec.spike_mask].max())


def test_reconstruction_arrays_are_the_mask_and_the_two_rebuilds():
    grid = GridShape(2, 2, 2)
    q, k = synthetic_qk(grid, CFG, 6)
    rec = reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.02, favor_dim=16, seed=6)
    arrays = [k for k, v in vars(rec).items() if isinstance(v, np.ndarray)]
    assert arrays == ["spike_mask", "a_lowrank", "a_final"]
    assert type(rec.support_matches_spikes) is bool


def test_reconstruct_precondition_errors():
    grid = GridShape(2, 2, 2)
    q, k = synthetic_qk(grid, CFG, 3)
    with pytest.raises(ValueError):
        reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.04, favor_dim=16, seed=0)
    with pytest.raises(ValueError):
        reconstruct(q, k, grid, CFG, tau=0.2, e_tol=-0.1, favor_dim=16, seed=0)


def test_reconstruct_rank_monotone_error_trend():
    grid = GridShape(4, 4, 4)
    q, k = synthetic_qk(grid, CFG, 4, row_norm=2.0)
    medians = []
    for r_dim in (8, 64, 512):
        errs = [reconstruct(q, k, grid, CFG, 0.05, 0.02, r_dim, seed).max_err_bg
                for seed in range(5)]
        medians.append(float(np.median(errs)))
    assert medians[2] <= medians[0]


def test_reconstruct_main_schedule_high_probability():
    # tau = c/sqrt(L), e_tol = tau/2 across three grid sizes; the background
    # bound must hold in at least 90% of seeded trials
    c = 0.5
    results = []
    for grid in (GridShape(4, 4, 4), GridShape(8, 8, 8), GridShape(12, 12, 12)):
        tau = c / math.sqrt(grid.size)
        e_tol = tau / 2.0
        hits = 0
        for seed in range(20):
            q, k = synthetic_qk(grid, CFG, seed, row_norm=1.5)
            rec = reconstruct(q, k, grid, CFG, tau, e_tol, favor_dim=1024,
                              seed=1000 + seed)
            assert rec.max_err_spike == 0.0
            if rec.max_err_bg <= e_tol:
                hits += 1
        results.append((grid.size, tau, e_tol, hits))
        assert hits >= 18, results
    assert [r[0] for r in results] == [64, 512, 1728]


def test_favor_features_rows_matches_vector_path():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 4)) * 0.4
    fmap = favor_map(4, 32, seed=14)
    rows = favor_features_rows(m, fmap)
    for i in range(5):
        np.testing.assert_allclose(rows[i], favor_features(m[i], fmap), rtol=1e-12)


def test_reconstruct_finite_for_logits_past_exp_overflow():
    # logit rows reach ~1800, so exp(log_z) overflows; the log-space
    # normalisation never forms it
    grid = GridShape(2, 2, 2)
    q, k = synthetic_qk(grid, CFG, 0, row_norm=80)
    assert np.max(logit_matrix(q, k, grid, CFG)) > 709.0
    rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, 64, 0)
    for field in (rec.a_lowrank, rec.a_final):
        assert np.all(np.isfinite(field))
    assert math.isfinite(rec.max_err_bg)
    assert rec.max_err_spike == 0.0
    assert rec.support_matches_spikes


def test_log_space_lowrank_matches_the_direct_normalisation():
    grid = GridShape(4, 4, 4)
    q, k = synthetic_qk(grid, CFG, 5)
    rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, 32, 5)
    q_fac, k_fac = _truncated_svd_factors(q, k, grid, CFG, rec.cutoffs)
    attn = softmax_attention(logit_matrix(q, k, grid, CFG))
    direct = normalize_rows(approx_kernel(q_fac, k_fac, favor_map(q_fac.shape[1], 32, 5)),
                            np.exp(attn.log_z))
    np.testing.assert_allclose(rec.a_lowrank, direct, rtol=1e-12, atol=0)


# (grid, favor_dim, row_norm, seeds).  R < L takes the factored rank; at row
# norm 8 the rank falls below R, and leaving the 1/z row scaling out of the
# factors changes it.  The last two rows have L <= R and take the QR
# certificate, with the dense rank as its fallback.
RANK_CASES = [
    ((8, 8, 8), 16, None, (0, 1, 2)),
    ((8, 8, 8), 64, None, (0, 1, 2)),
    ((8, 8, 8), 256, None, (0, 1, 2)),
    ((8, 8, 8), 256, 8.0, (0, 1, 2)),
    ((12, 12, 12), 1024, None, (0,)),
    ((4, 4, 4), 64, None, (0, 1)),
    ((4, 4, 4), 256, 8.0, (0, 1)),
]


def lowrank_branch(grid, favor_dim, row_norm, seed, tau=0.05, e_tol=0.02, favor_seed=None):
    """The low-rank stage of reconstruct(q, k, grid, CFG, tau, e_tol,
    favor_dim, favor_seed) on the synthetic_qk inputs of seed: (a_lowrank,
    left, right).  favor_seed defaults to seed."""
    q, k = synthetic_qk(grid, CFG, seed, row_norm=row_norm)
    cutoffs = choose_truncation(q, k, CFG, e_tol / (4.0 * tau))
    q_fac, k_fac = _truncated_svd_factors(q, k, grid, CFG, cutoffs)
    log_z = softmax_attention(logit_matrix(q, k, grid, CFG)).log_z
    return _lowrank_branch(q_fac, k_fac, log_z, favor_dim,
                           seed if favor_seed is None else favor_seed)


@pytest.mark.parametrize("shape,favor_dim,row_norm,seeds", RANK_CASES)
def test_reconstruct_rank_matches_the_dense_rank(shape, favor_dim, row_norm, seeds):
    grid = GridShape(*shape)
    for seed in seeds:
        q, k = synthetic_qk(grid, CFG, seed, row_norm=row_norm)
        rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, favor_dim, seed)
        assert rec.rank_lowrank == numerical_rank(rec.a_lowrank), seed
        assert rec.rank_lowrank <= min(favor_dim, grid.size)
        if favor_dim < grid.size:
            # the certified rank is the rank of the QR path it replaces
            a_lowrank, left, right = lowrank_branch(grid, favor_dim, row_norm, seed)
            np.testing.assert_array_equal(a_lowrank, rec.a_lowrank)
            assert rec.rank_lowrank == numerical_rank(
                _factored_core(left, right, keep_q=False)[1]), seed


@pytest.mark.parametrize("shape,favor_dim,row_norm,certified,rank", [
    ((12, 12, 12), 1024, None, True, 1024),  # per-factor ratios 1.1e-8 and 7.9e-9
    ((8, 8, 8), 256, 8.0, False, 227),  # ratios about 1e-12
])
def test_rank_certificate_fires_only_above_its_margin(shape, favor_dim, row_norm,
                                                      certified, rank):
    a_lowrank, left, right = lowrank_branch(GridShape(*shape), favor_dim, row_norm, 0)
    assert _rank_certificate(left, right) is certified
    assert _lowrank_rank(a_lowrank, left, right) == rank


THETA = RANK_CERT_MARGIN * RANK_REL_TOL


def diagonal_factor(ell, r, ratio, scale=1.0):
    """An ell x r factor, nonzero only on its diagonal: column 0 is scale and
    the others scale sqrt(ratio), so its Gram is diagonal, with
    lambda_min / lambda_max and lambda_min / (largest row sum) both ratio,
    to the rounding of its entries."""
    f = np.zeros((ell, r))
    f[np.arange(r), np.arange(r)] = scale * math.sqrt(ratio)
    f[0, 0] = scale
    return f


@pytest.mark.parametrize("s,bound,rank", [
    (2.5e-9, 2.5e-9, 2), (1.5e-9, 1.5e-9, 2), (5e-10, 5e-10, 1),
    (1e-18, 0.0, 1),  # below the Gram's rounding: no bound can be given
    (0.0, 0.0, 1),
])
def test_rank_certificate_of_factors_with_known_condition(s, bound, rank):
    # left = diag(1, sqrt(s)) padded to 8 rows has kappa = 1/sqrt(s), so the
    # Grams bound sigma_2 / sigma_1 of left @ left.T by s, less its rounding;
    # the certificate fires when that bound clears theta
    left = diagonal_factor(8, 2, s)
    assert _rank_certificate(left, left) is (bound >= THETA)
    assert _lowrank_rank(left @ left.T, left, left) == rank


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
@pytest.mark.parametrize("ratio,certified", [
    (THETA * (1.0 + 1e-5), True), (THETA * (1.0 - 1e-5), False),
])
def test_rank_certificate_decides_either_side_of_theta(ratio, certified, scale):
    good = diagonal_factor(8, 2, 0.5, scale)
    near = diagonal_factor(8, 2, ratio, scale)
    assert _rank_certificate(near, good) is certified
    assert _rank_certificate(good, near) is certified
    assert _rank_certificate(good, good)


def stated_threshold(ell, r):
    """The least lambda_min / (largest computed row sum) of an ell x r
    factor's Gram that _rank_certificate's docstring allows it to certify:
    (theta + eps) (1 + 2 gamma_{L+R+4}), eps = 2u + gamma_L + gamma_{R+1} R /
    (1 - gamma_{R+1})."""
    u = np.finfo(np.float64).eps / 2.0

    def gamma(n):
        return n * u / (1.0 - n * u)

    eps = 2.0 * u + gamma(ell) + gamma(r + 1) * r / (1.0 - gamma(r + 1))
    return (THETA + eps) * (1.0 + 2.0 * gamma(ell + r + 4))


@pytest.mark.parametrize("ell,r", [(8, 2), (1025, 1024)])
def test_rank_certificate_keeps_its_rounding_allowance(ell, r):
    # at R = 1024 the allowance is about 6 % of theta, so a factor between
    # theta and theta + eps is one the rounding could fake
    good = diagonal_factor(ell, r, 0.5)
    threshold = stated_threshold(ell, r)
    assert (threshold - THETA) / THETA > (0.05 if r == 1024 else 0.0)
    for ratio, certified in ((THETA * 1.001, r < 1024),
                             (threshold * (1.0 - 1e-14), False),
                             (threshold * (1.0 + 1e-14), True)):
        near = diagonal_factor(ell, r, ratio)
        assert _rank_certificate(near, good) is certified, ratio / THETA


def test_rank_certificate_of_underflowing_factors_is_no_without_warnings():
    underflowing_column = diagonal_factor(8, 2, 1.0)
    underflowing_column[1, 1] = 1e-170  # its Gram entry 1e-340 is 0
    tiny = diagonal_factor(8, 2, 1.0, 2.0 ** -500)  # Gram 2^-1000 I, below 2^-969
    good = diagonal_factor(8, 2, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _rank_certificate(underflowing_column, good)
        assert not _rank_certificate(good, tiny)
        assert not _rank_certificate(np.zeros((8, 2)), good)


@pytest.mark.parametrize("seed,rank", [(10, 1023), (17, 1022)])
def test_rank_certificate_falls_back_below_full_rank(seed, rank):
    # seeds 10 and 17 of the 12^3 loop of the main-schedule test
    tau = 0.5 / math.sqrt(1728)
    a_lowrank, left, right = lowrank_branch(GridShape(12, 12, 12), 1024, 1.5, seed,
                                            tau=tau, e_tol=tau / 2.0,
                                            favor_seed=1000 + seed)
    assert not _rank_certificate(left, right)
    assert _lowrank_rank(a_lowrank, left, right) == rank
    assert numerical_rank(_factored_core(left, right, keep_q=False)[1]) == rank


@pytest.mark.parametrize("ell", [1, 5, TRI_INV_LEAF, TRI_INV_LEAF + 1, 200])
def test_triangular_inverse_matches_the_dense_inverse(ell):
    rng = np.random.default_rng(ell)
    t = np.triu(rng.standard_normal((ell, ell))) + 4.0 * np.eye(ell)
    x = _triangular_inverse(t)
    np.testing.assert_allclose(x, np.linalg.inv(t), rtol=0, atol=1e-12)
    assert np.all(np.tril(x, -1) == 0.0)


def built_matrix(ell, ratio, seed=0):
    """(m, left, right) with m = left @ right.T = U diag(s) V^T, s = (1,
    1e-4, ..., 1e-4, ratio) for random orthogonal U and V: sigma_1 and
    sigma_L are isolated, so near the margin ||t||_F ||X||_F is within 1e-5
    relative of sigma_1 / sigma_L and the certificate nearly reaches the
    ratio."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    v = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    s = np.full(ell, 1e-4)
    s[-1], s[0] = ratio, 1.0
    return (u * s) @ v.T, u * s, v


def qr_certificate_quietly(m) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _qr_rank_certificate(m)


# (L, sigma_L / sigma_1, scale) with R = L; the certificate fires at 2e-9
QR_RANK_CASES = [(ell, ratio, scale)
                 for ell in (8, 64, 200)
                 for ratio in (1e-3, 2.5e-9, 1.5e-9, 5e-10, 0.0)
                 for scale in (1.0, 1e150, 1e-150)]


def qr_room(ell) -> float:
    """8 L^2 u: the bound holds for every matrix the QR could have factored,
    m + dm with ||dm||_F <= 8 L^2 u ||m||_F, so it stays that far below the
    ratio; the rounding of a built matrix's own product is far inside it."""
    return 8.0 * ell * ell * np.finfo(np.float64).eps / 2.0


@pytest.mark.parametrize("ell,ratio,scale", QR_RANK_CASES)
def test_qr_rank_certificate_of_matrices_with_known_condition(ell, ratio, scale):
    m, left, right = built_matrix(ell, ratio)
    m *= scale
    bound = qr_certificate_quietly(m)
    if ratio == 0.0:
        assert bound == 0.0  # rho >= 1: no bound on a singular matrix
    else:
        assert bound <= ratio - qr_room(ell)
    assert (bound >= RANK_CERT_MARGIN * RANK_REL_TOL) == (ratio >= 2e-9), bound
    assert _lowrank_rank(m, left * scale, right) == numerical_rank(m)
    assert numerical_rank(m) == (ell if ratio > RANK_REL_TOL else ell - 1)


def test_qr_rank_certificate_of_a_one_by_one_matrix():
    m = np.array([[3.0]])
    bound = qr_certificate_quietly(m)
    assert RANK_CERT_MARGIN * RANK_REL_TOL <= bound <= 1.0 - qr_room(1)
    assert _lowrank_rank(m, m, np.eye(1)) == 1


@pytest.mark.parametrize("m,rank", [
    (built_matrix(64, 1e-3)[0] * (np.arange(64) != 40)[:, None], 63),  # a zero row
    (np.array([[0.0]]), 0),  # a zero pivot
    (np.diag([1.0, 1e-300]), 1),  # ||X||_F overflows
    (np.diag([1.0, 1e-3, 5e-324]), 2),  # the pivot 5e-324 has no inverse
])
def test_qr_rank_certificate_is_zero_without_a_finite_inverse(m, rank):
    assert qr_certificate_quietly(m) == 0.0
    assert _lowrank_rank(m, m, np.eye(m.shape[0])) == numerical_rank(m) == rank


def test_qr_rank_certificate_of_non_finite_matrices_is_zero():
    for bad in (np.inf, np.nan):
        m = np.eye(3)
        m[1, 1] = bad
        assert qr_certificate_quietly(m) == 0.0
        m = np.eye(3)
        m[0, 2] = bad
        assert qr_certificate_quietly(m) == 0.0


# Main-schedule sweep matrices, grid 8^3, R = 1024: seed 81 has sigma_L /
# sigma_1 = 4.9e-10 and rank 511; seeds 157, 176 and 196 have ratios 1.2e-9,
# 1.8e-9 and 3.6e-9 and bounds below the margin; seed 32 (ratio 4.2e-9)
# and seed 0 certify.
@pytest.mark.parametrize("seed,certified,rank", [
    (81, False, 511), (157, False, 512), (176, False, 512), (196, False, 512),
    (32, True, 512), (0, True, 512),
])
def test_qr_rank_certificate_on_sweep_matrices(seed, certified, rank):
    tau = 0.5 / math.sqrt(512)
    a_lowrank, left, right = lowrank_branch(GridShape(8, 8, 8), 1024, None, seed,
                                            tau=tau, e_tol=tau / 2.0)
    bound = _qr_rank_certificate(a_lowrank)
    sv = singular_values(a_lowrank)
    assert bound <= sv[-1] / sv[0]
    assert (bound >= RANK_CERT_MARGIN * RANK_REL_TOL) == certified, bound
    assert _lowrank_rank(a_lowrank, left, right) == numerical_rank(a_lowrank) == rank


def lowrank_branch_whole(q_fac, k_fac, log_z, favor_dim, seed):
    """The oracle of _lowrank_branch: the same branch with its exponent
    formed as one L x L array."""
    fmap = favor_map(q_fac.shape[1], favor_dim, seed)
    fq, mq = _stabilised_features_rows(q_fac, fmap)
    fk, mk = _stabilised_features_rows(k_fac, fmap)
    row_log = mq - log_z - math.log(favor_dim)
    a_lowrank = fq @ fk.T
    scale = np.add.outer(row_log, mk)
    a_lowrank *= np.exp(scale, out=scale)
    fq *= np.exp(row_log - row_log.max())[:, None]
    fk *= np.exp(mk - mk.max())[:, None]
    return a_lowrank, fq, fk


def error_fields_whole(a, a_lowrank, spike_mask):
    """The oracle of _error_fields: whole-matrix a_final and errors, with a
    left unchanged."""
    a_final = np.where(spike_mask, a, a_lowrank)
    spike_err = np.abs(a_final[spike_mask] - a[spike_mask])
    err = np.abs(a_final - a)
    return dict(a_final=a_final,
                support_matches_spikes=bool(np.all(a[spike_mask] != a_lowrank[spike_mask])),
                max_err_spike=float(spike_err.max()) if spike_err.size else 0.0,
                max_err_bg=float(np.max(err, where=~spike_mask, initial=0.0)))


def reconstruct_whole(q, k, grid, tau, e_tol, favor_dim, seed) -> Reconstruction:
    """reconstruct with the two oracles in place of the row-blocked stages."""
    attn = softmax_attention(logit_matrix(q, k, grid, CFG))
    dec = energy_split(attn, tau)
    cutoffs = choose_truncation(q, k, CFG, e_tol / (4.0 * tau))
    q_fac, k_fac = _truncated_svd_factors(q, k, grid, CFG, cutoffs)
    a_lowrank, left, right = lowrank_branch_whole(q_fac, k_fac, attn.log_z, favor_dim, seed)
    return Reconstruction(tau=float(tau), e_tol=float(e_tol), spike_mask=dec.spike_mask,
                          a_lowrank=a_lowrank, rank_lowrank=_lowrank_rank(a_lowrank, left, right),
                          nnz_sparse=dec.nnz, cutoffs=cutoffs, favor_dim=int(favor_dim),
                          **error_fields_whole(attn.a, a_lowrank, dec.spike_mask))


def assert_bitwise_equal(got, want, what):
    assert type(got) is type(want), what
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), what
        assert got.tobytes() == want.tobytes(), what
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (what, got, want)
    else:
        assert got == want, what


# (grid, row_norm, favor_dim, seed, what the case covers); L = 105 is not a
# multiple of SPLIT_BLOCK_ROWS, L = 8 is below it.
BLOCK_CASES = [
    ((5, 3, 7), None, 64, 0, "edge"),  # spikes in the rows on both sides of row 64
    ((5, 3, 7), 8.0, 64, 1, "edge"),
    ((5, 3, 7), 1.5, 64, 0, "no spikes"),  # nnz = 0, as at the desk cap
    ((5, 3, 7), 80.0, 256, 2, "edge"),  # logits past exp overflow
    ((2, 2, 2), None, 16, 0, "one block"),
    ((2, 2, 2), 8.0, 64, 1, "one block"),
]


@pytest.mark.parametrize("shape,row_norm,favor_dim,seed,what", BLOCK_CASES)
def test_row_blocked_reconstruct_is_bitwise_the_whole_matrix_oracle(shape, row_norm,
                                                                    favor_dim, seed, what):
    grid = GridShape(*shape)
    q, k = synthetic_qk(grid, CFG, seed, row_norm=row_norm)
    rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, favor_dim, seed)
    want = reconstruct_whole(q, k, grid, 0.05, 0.02, favor_dim, seed)
    for field, value in vars(want).items():
        assert_bitwise_equal(getattr(rec, field), value, field)
    edge = rec.spike_mask[SPLIT_BLOCK_ROWS - 1:SPLIT_BLOCK_ROWS + 1].any(axis=1)
    assert {"edge": edge.all() and grid.size % SPLIT_BLOCK_ROWS != 0,
            "no spikes": rec.nnz_sparse == 0 and grid.size > SPLIT_BLOCK_ROWS,
            "one block": rec.nnz_sparse > 0 and grid.size < SPLIT_BLOCK_ROWS}[what]


def test_error_fields_write_a_final_into_the_attention_buffer():
    rng = np.random.default_rng(15)
    a = rng.random((2 * SPLIT_BLOCK_ROWS + 5, 9))
    a_lowrank = a + 1e-3 * rng.standard_normal(a.shape)
    mask = a > 0.8
    mask[SPLIT_BLOCK_ROWS - 1:SPLIT_BLOCK_ROWS + 1, 0] = True
    # a spike the compensator misses, in the first block only
    mask[0, 0], a_lowrank[0, 0] = True, a[0, 0]
    want = error_fields_whole(a, a_lowrank, mask)
    assert not want["support_matches_spikes"]
    buf = a.copy()
    got = _error_fields(buf, a_lowrank, mask)
    assert got["a_final"] is buf
    for field, value in want.items():
        assert_bitwise_equal(got[field], value, field)


def test_reconstruct_peaks_below_three_attention_matrices():
    # the results are two L x L float arrays and a mask; the row-blocked
    # back half adds no L x L temporary next to them (4.26 L^2 doubles
    # with the L x L exponent and error matrices)
    grid = GridShape(12, 12, 12)
    q, k = synthetic_qk(grid, CFG, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, 64, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.a_final.shape == (1728, 1728)
    assert peak < 3.0 * grid.size ** 2 * 8, peak / (grid.size ** 2 * 8)
