import contextlib
import math
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from ropeslr.decomposition import (
    SPLIT_BLOCK_ROWS,
    energy_split,
    softmax_attention,
    synthetic_qk,
)
from ropeslr import linalg, lowrank
from ropeslr.linalg import RANK_REL_TOL, numerical_rank, singular_values
from ropeslr.lowrank import (
    _CERT_MIN_NORM,
    INV_LEAF,
    PRODUCT_TILE_ROWS,
    RANK_CERT_MARGIN,
    Reconstruction,
    _block_inverse,
    _error_fields,
    _factored_rank,
    _gram_bound,
    _gram_certificate,
    _inverse_rank_certificate,
    _lowrank_branch,
    _stabilised_features_rows,
    _truncated_svd_factors,
    _weighted,
    approx_kernel,
    favor_features_rows,
    favor_map,
    normalize_rows,
    reconstruct,
    residual_sparse,
)
from ropeslr.rope3d import (
    GridShape,
    RopeConfig,
    choose_truncation,
    logit_matrix,
    logit_rows,
    rotate_rows,
)

CFG = RopeConfig(4, 4, 4)


def favor_features(x, omegas) -> np.ndarray:
    """The positive random features of one vector, written out as the
    oracle of the row path: phi(x)_i = exp(omega_i . x - ||x||^2 / 2) /
    sqrt(R), with omegas the (input_dim, R) directions of favor_map; always
    positive, and E[phi(q) . phi(k)] = exp(q . k)."""
    x = np.asarray(x, dtype=np.float64)
    input_dim, feature_dim = omegas.shape
    if x.shape != (input_dim,):
        raise ValueError(f"expected a vector of length {input_dim}, got {x.shape}")
    return np.exp(x @ omegas - 0.5 * float(x @ x)) / math.sqrt(feature_dim)


@contextlib.contextmanager
def streamed():
    """Record the row blocks that _lowrank_branch folds with _error_fields.
    Yields a function that joins them: SimpleNamespace(a, spike_mask,
    a_lowrank, a_final), the whole arrays the pass made a block at a time."""
    blocks = []

    def recording(folded, a_blk, lr_blk, spikes):
        a = a_blk.copy()
        folded = _error_fields(folded, a_blk, lr_blk, spikes)
        blocks.append((a, spikes.copy(), lr_blk.copy(), a_blk.copy()))
        return folded

    def joined():
        return SimpleNamespace(**dict(zip(("a", "spike_mask", "a_lowrank", "a_final"),
                                          map(np.concatenate, zip(*blocks)))))

    with mock.patch.object(lowrank, "_error_fields", recording):
        yield joined


def test_favor_features_zero_vector_exact():
    omegas = favor_map(3, 64, seed=0)  # 64 = 4^3 keeps 1/sqrt(R) exact
    phi = favor_features(np.zeros(3), omegas)
    np.testing.assert_array_equal(phi, np.full(64, 0.125))
    assert float(phi @ phi) == 1.0  # exp(0) estimated with zero variance


def test_favor_features_positive():
    rng = np.random.default_rng(1)
    omegas = favor_map(6, 128, seed=1)
    for _ in range(1000):
        phi = favor_features(rng.standard_normal(6), omegas)
        assert np.all(phi > 0)


def test_favor_features_dimension_mismatch():
    omegas = favor_map(4, 16, seed=2)
    with pytest.raises(ValueError):
        favor_features(np.zeros(5), omegas)


def test_favor_shared_map_concentrates():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(8)
    q *= 0.8 / np.linalg.norm(q)
    k = rng.standard_normal(8)
    k *= 0.9 / np.linalg.norm(k)
    truth = math.exp(float(q @ k))
    hits = 0
    for seed in range(20):
        omegas = favor_map(8, 4096, seed)
        est = float(favor_features(q, omegas) @ favor_features(k, omegas))
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
    omegas = favor_map(4, 256, seed=6)
    k_hat = approx_kernel(x, y, omegas)
    expect = float(favor_features(x[0], omegas) @ favor_features(y[0], omegas))
    assert k_hat.shape == (1, 1)
    assert k_hat[0, 0] == pytest.approx(expect, rel=1e-12)


def test_approx_kernel_zero_factors_gives_ones():
    omegas = favor_map(1, 64, seed=7)
    k_hat = approx_kernel(np.zeros((5, 1)), np.zeros((5, 1)), omegas)
    np.testing.assert_array_equal(k_hat, np.ones((5, 5)))


def test_approx_kernel_rank_bounded_by_feature_dim():
    rng = np.random.default_rng(8)
    q_fac = rng.standard_normal((64, 3)) * 0.2
    k_fac = rng.standard_normal((64, 3)) * 0.2
    omegas = favor_map(3, 8, seed=9)
    s = singular_values(approx_kernel(q_fac, k_fac, omegas))
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
    a, _ = softmax_attention(np.zeros((3, 3)))
    out = residual_sparse(a, np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
    np.testing.assert_array_equal(out, np.zeros((3, 3)))


def test_residual_sparse_exact_match_gives_zero():
    a, _ = softmax_attention(np.zeros((3, 3)))
    mask = np.eye(3, dtype=bool)
    out = residual_sparse(a, a.copy(), mask)
    np.testing.assert_array_equal(out, np.zeros((3, 3)))


def test_residual_sparse_identity_on_spikes():
    rng = np.random.default_rng(12)
    a, _ = softmax_attention(rng.standard_normal((8, 8)))
    # approximation near the truth: the compensated sum recovers the original
    # entries bitwise on the spike support
    a_lr = a * (1.0 + 0.1 * rng.standard_normal((8, 8)))
    mask = a > 0.1
    resid = residual_sparse(a, a_lr, mask)
    recon = resid + a_lr
    np.testing.assert_array_equal(recon[mask], a[mask])
    np.testing.assert_array_equal(resid[~mask], np.zeros(int((~mask).sum())))


def test_reconstruct_background_error_within_loose_tolerance():
    grid = GridShape(6, 6, 6)
    q, k = synthetic_qk(grid, CFG, 0, row_norm=2.0)
    rec = reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.02, favor_dim=1024, seed=0)
    a, _ = softmax_attention(logit_matrix(q, k, grid, CFG))
    assert float(a.max()) < 0.05  # tau sits above every background entry
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
    with streamed() as arrays:
        rec = reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.02, favor_dim=32, seed=2)
    got = arrays()
    a, _ = softmax_attention(logit_matrix(q, k, grid, CFG))
    mask = energy_split(a, 0.05)
    assert mask.any()
    np.testing.assert_array_equal(got.spike_mask, mask)
    assert rec.nnz_sparse == int(mask.sum())
    assert rec.support_matches_spikes
    assert rec.max_err_spike == 0.0
    assert rec.rank_lowrank <= 32
    np.testing.assert_array_equal(got.a_final[mask], a[mask])
    np.testing.assert_array_equal(got.a_final[~mask], got.a_lowrank[~mask])
    assert rec.max_err_bg == float(np.abs(got.a_final - a)[~mask].max())


def test_reconstruction_has_no_array_field():
    grid = GridShape(2, 2, 2)
    q, k = synthetic_qk(grid, CFG, 6)
    rec = reconstruct(q, k, grid, CFG, tau=0.05, e_tol=0.02, favor_dim=16, seed=6)
    assert {k: type(v) for k, v in vars(rec).items()} == {
        "rank_lowrank": int, "nnz_sparse": int, "max_err_spike": float, "max_err_bg": float,
        "cutoffs": tuple, "support_matches_spikes": bool}


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
    omegas = favor_map(4, 32, seed=14)
    rows = favor_features_rows(m, omegas)
    for i in range(5):
        np.testing.assert_allclose(rows[i], favor_features(m[i], omegas), rtol=1e-12)


def test_reconstruct_finite_for_logits_past_exp_overflow():
    # logit rows reach ~1800, so exp(log_z) overflows; the log-space
    # normalisation never forms it
    grid = GridShape(2, 2, 2)
    q, k = synthetic_qk(grid, CFG, 0, row_norm=80)
    assert np.max(logit_matrix(q, k, grid, CFG)) > 709.0
    with streamed() as arrays:
        rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, 64, 0)
    for field in (arrays().a_lowrank, arrays().a_final):
        assert np.all(np.isfinite(field))
    assert math.isfinite(rec.max_err_bg)
    assert rec.max_err_spike == 0.0
    assert rec.support_matches_spikes


def test_log_space_lowrank_matches_the_direct_normalisation():
    grid = GridShape(4, 4, 4)
    q, k = synthetic_qk(grid, CFG, 5)
    with streamed() as arrays:
        rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, 32, 5)
    q_fac, k_fac = _truncated_svd_factors(rotate_rows(q, grid, CFG), rotate_rows(k, grid, CFG),
                                          CFG, rec.cutoffs)
    _, log_z = softmax_attention(logit_matrix(q, k, grid, CFG))
    direct = normalize_rows(approx_kernel(q_fac, k_fac, favor_map(q_fac.shape[1], 32, 5)),
                            np.exp(log_z))
    np.testing.assert_allclose(arrays().a_lowrank, direct, rtol=1e-12, atol=0)


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
    rank, left, right), with the rank of _lowrank_branch and the a_lowrank
    and scaled factors left and right of lowrank_branch_whole, whose
    a_lowrank is checked to be bitwise the one the branch streamed.
    favor_seed defaults to seed."""
    q, k = synthetic_qk(grid, CFG, seed, row_norm=row_norm)
    rq, rk = rotate_rows(q, grid, CFG), rotate_rows(k, grid, CFG)
    cutoffs = choose_truncation(q, k, CFG, e_tol / (4.0 * tau))
    q_fac, k_fac = _truncated_svd_factors(rq, rk, CFG, cutoffs)
    _, log_z = softmax_attention(logit_matrix(q, k, grid, CFG))
    favor_seed = seed if favor_seed is None else favor_seed
    a_lowrank, left, right = lowrank_branch_whole(q_fac, k_fac, log_z, favor_dim, favor_seed)
    with streamed() as arrays:
        fields = _lowrank_branch(rq, rk, CFG, tau, q_fac, k_fac, favor_dim, favor_seed)
    assert arrays().a_lowrank.tobytes() == a_lowrank.tobytes()
    return a_lowrank, fields["rank_lowrank"], left, right


def weighted(f, exp2=None) -> np.ndarray:
    """A fresh whole factor of f's rows as _lowrank_branch weights one: row
    p stored as f_p 2^-exp2[p] with log weight exp2[p] ln 2 (0 by default)
    and scaled by _weighted, so that it stands for f's rows times 2^-max
    exp2, to the rounding of their weights; with unit weights it is f."""
    exp2 = np.zeros(len(f), dtype=np.int64) if exp2 is None else np.asarray(exp2)
    return _weighted(np.ldexp(f, -exp2[:, None]), exp2 * math.log(2.0))


def maker(f, exp2=None):
    """A maker of the whole factor weighted(f, exp2), afresh on each call,
    as _factored_rank takes one."""
    return lambda: weighted(f, exp2)


def certificate(f, exp2=None) -> bool:
    """_gram_certificate of the whole factor weighted(f, exp2); with unit
    weights its Gram is f^T f."""
    return _gram_certificate(_gram_bound(weighted(f, exp2)))


def factored_rank(r, left, right) -> int:
    """_factored_rank of two makers of whole factors, with the right
    factor's certificate decided first, as _lowrank_branch decides it."""
    return _factored_rank(r, _gram_certificate(_gram_bound(right())), left, right)


def certifies(left, right) -> bool:
    """Whether the Gram certificate proves sigma_R / sigma_1 >= theta for
    left @ right.T."""
    return certificate(left) and certificate(right)


def feature_exponents(rng, f):
    """Row weight exponents for weighted that store each row of a
    nonnegative f as a featurised row is, its largest entry in [1/2, 1): the
    exponent of that entry.  A zero row takes another row's at random."""
    top = f.max(axis=1)
    exp2 = np.frexp(top)[1]
    if np.any(top > 0.0):
        exp2[top == 0.0] = rng.choice(exp2[top > 0.0], int(np.sum(top == 0.0)))
    return exp2


def qr_core(left, right) -> np.ndarray:
    """The R x R core of the QRs of two L x R factors, whose singular values
    are those of left @ right.T."""
    return np.linalg.qr(left, mode="r") @ np.linalg.qr(right, mode="r").T


@pytest.mark.parametrize("shape,favor_dim,row_norm,seeds", RANK_CASES)
def test_reconstruct_rank_matches_the_dense_rank(shape, favor_dim, row_norm, seeds):
    grid = GridShape(*shape)
    for seed in seeds:
        q, k = synthetic_qk(grid, CFG, seed, row_norm=row_norm)
        with streamed() as arrays:
            rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, favor_dim, seed)
        assert rec.rank_lowrank == numerical_rank(arrays().a_lowrank), seed
        assert rec.rank_lowrank <= min(favor_dim, grid.size)
        if favor_dim < grid.size:
            # the certified rank is the rank of the QR path it replaces
            a_lowrank, rank, left, right = lowrank_branch(grid, favor_dim, row_norm, seed)
            np.testing.assert_array_equal(a_lowrank, arrays().a_lowrank)
            assert rank == rec.rank_lowrank == numerical_rank(qr_core(left, right)), seed


@pytest.mark.parametrize("shape,favor_dim,row_norm,certified,rank", [
    ((12, 12, 12), 1024, None, True, 1024),  # per-factor ratios 1.1e-8 and 7.9e-9
    ((8, 8, 8), 256, 8.0, False, 227),  # ratios about 1e-12
])
def test_rank_certificate_fires_only_above_its_margin(shape, favor_dim, row_norm,
                                                      certified, rank):
    # the branch, which weights the two whole factors after the pass, decides
    # as the whole factors do: it weights them once more, for the QR-core
    # fallback, only when they fail
    with mock.patch.object(lowrank, "_weighted", wraps=_weighted) as weighting:
        _, got, left, right = lowrank_branch(GridShape(*shape), favor_dim, row_norm, 0)
    assert (weighting.call_count > 2) is not certified
    assert certifies(left, right) is certified
    assert got == factored_rank(favor_dim, maker(left), maker(right)) == rank


def test_gram_certificates_read_the_scaled_factors_of_a_lowrank():
    # R = 256 < L = 512, and both factors certify: the right certificate
    # reads the key features and the left the query features, bitwise the
    # oracle's, each scaled by exp of its side of a_lowrank's exponent less
    # its largest, so that their product is a_lowrank times one constant
    read, bound = [], _gram_bound

    def recording(f):
        read.append(f.copy())
        return bound(f)

    with mock.patch.object(lowrank, "_gram_bound", recording):
        _, rank, left, right = lowrank_branch(GridShape(8, 8, 8), 256, None, 0)
    assert rank == 256
    assert [f.tobytes() for f in read] == [right.tobytes(), left.tobytes()]


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
    assert certifies(left, left) is (bound >= THETA)
    assert factored_rank(2, maker(left), maker(left)) == rank


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
@pytest.mark.parametrize("ratio,certified", [
    (THETA * (1.0 + 1e-5), True), (THETA * (1.0 - 1e-5), False),
])
def test_rank_certificate_decides_either_side_of_theta(ratio, certified, scale):
    good = diagonal_factor(8, 2, 0.5, scale)
    near = diagonal_factor(8, 2, ratio, scale)
    assert certifies(near, good) is certified
    assert certifies(good, near) is certified
    assert certifies(good, good)


def stated_threshold(ell, r):
    """The least lambda_min / (largest computed row sum) of an ell x r
    factor's Gram that _gram_certificate's docstring allows it to certify:
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
        assert certifies(near, good) is certified, ratio / THETA


def test_rank_certificate_of_underflowing_factors_is_no_without_warnings():
    underflowing_column = diagonal_factor(8, 2, 1.0)
    underflowing_column[1, 1] = 1e-170  # its Gram entry 1e-340 is 0
    tiny = diagonal_factor(8, 2, 1.0, 2.0 ** -500)  # Gram 2^-1000 I, below 2^-969
    good = diagonal_factor(8, 2, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not certifies(underflowing_column, good)
        assert not certifies(good, tiny)
        assert not certifies(np.zeros((8, 2)), good)


@pytest.mark.parametrize("seed,rank", [(10, 1023), (17, 1022)])
def test_rank_certificate_falls_back_below_full_rank(seed, rank):
    # seeds 10 and 17 of the 12^3 loop of the main-schedule test
    tau = 0.5 / math.sqrt(1728)
    _, got, left, right = lowrank_branch(GridShape(12, 12, 12), 1024, 1.5, seed,
                                         tau=tau, e_tol=tau / 2.0, favor_seed=1000 + seed)
    assert not certifies(left, right)
    assert got == rank
    assert numerical_rank(qr_core(left, right)) == rank


@pytest.mark.parametrize("fails", [None, "right", "left"])
def test_factored_rank_makes_one_factor_at_a_time(fails):
    # the right factor is certified first, as the pass leaves it; then the
    # left certificate makes the left factor whole, only when the right one
    # passed, and the QR-core fallback makes each factor whole once more,
    # right first.  No factor is made while another is still referenced,
    # and none is held through a Cholesky
    good = diagonal_factor(9, 2, 0.5)
    bad = diagonal_factor(9, 2, 0.0)
    made, live, cholesky = [], [], np.linalg.cholesky

    def factor(name, f):
        def make():
            assert all(ref() is None for ref in live), (name, made)
            made.append(name)
            out = weighted(f)
            live.append(weakref.ref(out))
            return out
        return make

    def recording(g):
        assert all(ref() is None for ref in live), made
        return cholesky(g)

    left = factor("left", bad if fails == "left" else good)
    right = factor("right", bad if fails == "right" else good)
    with mock.patch.object(np.linalg, "cholesky", recording):
        right_certified = _gram_certificate(_gram_bound(right()))
        assert _factored_rank(2, right_certified, left, right) == (2 if fails is None else 1)
    assert made == {None: ["right", "left"],
                    "right": ["right", "right", "left"],
                    "left": ["right", "left", "right", "left"]}[fails]


@pytest.mark.parametrize("ell", [1, 5, INV_LEAF, INV_LEAF + 1, 200, 513])
def test_block_inverse_matches_the_dense_inverse(ell):
    # odd sizes split unevenly: 65 into leaves of 32 and 33 rows, 513 into
    # leaves of 32, 33 and 64
    rng = np.random.default_rng(ell)
    m = rng.standard_normal((ell, ell)) / math.sqrt(ell) + 4.0 * np.eye(ell)
    np.testing.assert_allclose(_block_inverse(m), np.linalg.inv(m), rtol=0, atol=1e-12)


def built_matrix(ell, ratio, seed=0):
    """m = U diag(s) V^T, s = (1, 1e-4, ..., 1e-4, ratio) for random
    orthogonal U and V: sigma_1 and sigma_L are isolated, so near the margin
    ||m||_F ||X||_F is within 1e-5 relative of sigma_1 / sigma_L and the
    certificate nearly reaches the ratio."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    v = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    s = np.full(ell, 1e-4)
    s[-1], s[0] = ratio, 1.0
    return (u * s) @ v.T


def inverse_rank(m) -> int:
    """The R >= L rank rule of _lowrank_branch: L when
    _inverse_rank_certificate clears RANK_CERT_MARGIN * RANK_REL_TOL, else
    the count of m's SVD."""
    if _inverse_rank_certificate(m) >= RANK_CERT_MARGIN * RANK_REL_TOL:
        return m.shape[0]
    return numerical_rank(m)


def quietly(certificate, *args):
    """certificate(*args), with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return certificate(*args)


EPS = np.finfo(np.float64).eps


def svd_ratio(m) -> float:
    """sigma_L / sigma_1 of m's SVD plus 4 L eps, the reference's own
    rounding: its singular values are within a small multiple of L eps
    sigma_1 of m's.  The certificate's bound must not exceed it."""
    sv = singular_values(m)
    return sv[-1] / sv[0] + 4.0 * m.shape[0] * EPS


# (L, sigma_L / sigma_1, scale) with R = L; the certificate fires at 2e-9
INVERSE_RANK_CASES = [(ell, ratio, scale)
                      for ell in (8, 64, 200)
                      for ratio in (1e-3, 2.5e-9, 1.5e-9, 5e-10, 0.0)
                      for scale in (1.0, 1e150, 1e-150)]


@pytest.mark.parametrize("ell,ratio,scale", INVERSE_RANK_CASES)
def test_inverse_rank_certificate_of_matrices_with_known_condition(ell, ratio, scale):
    m = built_matrix(ell, ratio) * scale
    bound = quietly(_inverse_rank_certificate, m)
    if ratio == 0.0:
        assert bound == 0.0  # no inverse, or rho >= 1: no bound on a singular matrix
    else:
        assert bound <= svd_ratio(m)
    assert (bound >= RANK_CERT_MARGIN * RANK_REL_TOL) == (ratio >= 2e-9), bound
    assert inverse_rank(m) == numerical_rank(m)
    assert numerical_rank(m) == (ell if ratio > RANK_REL_TOL else ell - 1)


def test_inverse_rank_certificate_of_a_one_by_one_matrix():
    m = np.array([[3.0]])
    bound = quietly(_inverse_rank_certificate, m)
    assert RANK_CERT_MARGIN * RANK_REL_TOL <= bound <= svd_ratio(m)
    assert inverse_rank(m) == 1


@pytest.mark.parametrize("above,certified", [(1e-6, True), (1e-8, False)])
def test_inverse_rank_certificate_keeps_the_rounding_of_its_residual(above, certified):
    # diag(1, r) is inverted and its residual computed to within a few u, but
    # the residual's rounding allowance gamma_4 ||X||_F ||m||_F is 2.2e-7 at
    # r near theta: a ratio 1e-8 above theta is one the rounding could fake
    m = np.diag([1.0, THETA * (1.0 + above)])
    assert (quietly(_inverse_rank_certificate, m) >= THETA) is certified
    assert inverse_rank(m) == numerical_rank(m) == 2


@pytest.mark.parametrize("m,rank", [
    (built_matrix(64, 1e-3) * (np.arange(64) != 40)[:, None], 63),  # a zero row
    (np.array([[0.0]]), 0),  # a zero pivot
    (np.diag([1.0, 1e-300]), 1),  # ||X||_F overflows
    (np.diag([1.0, 1e-3, 5e-324]), 2),  # the pivot 5e-324 has no inverse
    # [[0, I], [I, 0]] at L = 200: its unpivoted leading block is singular
    (np.roll(np.eye(200), 100, axis=1), 200),
])
def test_inverse_rank_certificate_is_zero_without_a_finite_inverse(m, rank):
    assert quietly(_inverse_rank_certificate, m) == 0.0
    assert inverse_rank(m) == numerical_rank(m) == rank


def test_inverse_rank_certificate_of_non_finite_matrices_is_zero():
    for bad in (np.inf, np.nan):
        m = np.eye(3)
        m[1, 1] = bad
        assert quietly(_inverse_rank_certificate, m) == 0.0
        m = np.eye(3)
        m[0, 2] = bad
        assert quietly(_inverse_rank_certificate, m) == 0.0


# Main-schedule sweep matrices, grid 8^3, R = 1024: seed 81 has sigma_L /
# sigma_1 = 4.9e-10 and rank 511; seeds 157, 176 and 196 have ratios 1.2e-9,
# 1.8e-9 and 3.6e-9 and bounds below the margin; seed 32 (ratio 4.2e-9)
# and seed 0 certify.
@pytest.mark.parametrize("seed,certified,rank", [
    (81, False, 511), (157, False, 512), (176, False, 512), (196, False, 512),
    (32, True, 512), (0, True, 512),
])
def test_inverse_rank_certificate_on_sweep_matrices(seed, certified, rank):
    tau = 0.5 / math.sqrt(512)
    a_lowrank, got, _, _ = lowrank_branch(GridShape(8, 8, 8), 1024, None, seed,
                                          tau=tau, e_tol=tau / 2.0)
    bound = _inverse_rank_certificate(a_lowrank)
    sv = singular_values(a_lowrank)
    assert bound <= sv[-1] / sv[0]
    assert (bound >= RANK_CERT_MARGIN * RANK_REL_TOL) == certified, bound
    assert got == numerical_rank(a_lowrank) == rank


PROPERTY = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=60)
# sigma_min / sigma_1 (or lambda_min / lambda_max) drawn around theta: a
# factor 2^6 either side, or within 1e-6 relative of it
NEAR_THETA = st.one_of(st.floats(-6.0, 6.0).map(lambda e: THETA * 2.0 ** e),
                       st.floats(-1e-6, 1e-6).map(lambda d: THETA * (1.0 + d)))


# leaves of 1 and 4 rows take these small matrices through the Schur splits
@pytest.mark.parametrize("leaf", [INV_LEAF, 1, 4])
@PROPERTY
@hypothesis.given(ell=st.integers(1, 24), ratio=NEAR_THETA, exp2=st.integers(-600, 600),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_inverse_rank_certificate_is_below_the_svd_ratio(leaf, ell, ratio, exp2, seed):
    # m = U diag(s) V^T at scale 2^exp2, with s from 1 down to ratio
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    v = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    s = np.sort(ratio ** rng.random(ell))[::-1]
    s[0], s[-1] = 1.0, (ratio if ell > 1 else 1.0)
    m = np.ldexp((u * s) @ v.T, exp2)
    with mock.patch.object(lowrank, "INV_LEAF", leaf):
        bound = quietly(_inverse_rank_certificate, m)
    assert bound <= svd_ratio(m)
    assert bound < THETA or svd_ratio(m) >= THETA


@PROPERTY
# a heavy last row after the first 2R: it sets lambda_max, which mu must
# bound although the Gram reads only the first 2R rows
@hypothesis.example(r=2, extra=3, ratio=0.5, noise=1.0, exp2=0, featurised=False, seed=0,
                    tail=30)
@hypothesis.given(r=st.integers(1, 12), extra=st.integers(1, 20), ratio=NEAR_THETA,
                  noise=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]),
                  exp2=st.integers(-500, 500), featurised=st.booleans(),
                  seed=st.integers(0, 2 ** 32 - 1), tail=st.sampled_from([0, 4, 30]))
def test_gram_certificate_holds_against_the_svd(r, extra, ratio, noise, exp2, featurised,
                                                seed, tail):
    # a nonnegative L x R factor, R < L, whose Gram has lambda_min / lambda_max
    # about ratio before its nonnegative noise, its rows and columns shuffled,
    # its rows after the first 2R times 2^tail and all at scale 2^exp2.  With
    # unit weights the factor holds f's rows at that scale (below 2^-484 its
    # Gram is under _CERT_MIN_NORM); featurised, as a featurised factor is
    # stored, each row's largest entry in [1/2, 1) and its scale in its
    # weight, so that the weighting shifts the rows by their largest weight.
    # The certificate reads only the first 2R rows into its Gram, and must
    # hold for the whole factor
    ell = r + extra
    rng = np.random.default_rng(seed)
    f = diagonal_factor(ell, r, ratio) + noise * rng.random((ell, r))
    f = f[rng.permutation(ell)][:, rng.permutation(r)]
    f[2 * r:] *= 2.0 ** tail
    f = np.ldexp(f, exp2)
    exp2_rows = feature_exponents(rng, f) if featurised else None
    certified = quietly(certificate, f, exp2_rows)
    if certified:
        sv = singular_values(f)
        slack = 4.0 * ell * EPS * sv[0]  # the reference's own rounding
        assert ((sv[-1] + slack) / (sv[0] - slack)) ** 2 >= THETA


def stated_certificate(f, log_w) -> bool:
    """The oracle of _gram_certificate, as its docstring states it: f scaled
    by exp(log_w - max log_w), the row sums of all its rows, the Gram of its
    first min(2R, L) rows and the shifted Cholesky."""
    r, ell = f.shape[1], len(f)
    f = f * np.exp(log_w - log_w.max())[:, None]
    with np.errstate(invalid="ignore"):
        row_sum = (f.T @ f.sum(axis=1)).max()
    if not _CERT_MIN_NORM <= row_sum < np.inf:
        return False
    head = f[:2 * r]
    g = head.T @ head
    g[np.diag_indices(r)] -= stated_threshold(ell, r) * row_sum
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def cholesky_inputs(certificate, *args):
    """(certificate(*args), the matrices it passed to np.linalg.cholesky)."""
    seen, cholesky = [], np.linalg.cholesky

    def recording(g):
        seen.append(g.copy())
        return cholesky(g)

    with mock.patch.object(np.linalg, "cholesky", recording):
        return quietly(certificate, *args), seen


@PROPERTY
@hypothesis.given(r=st.integers(1, 12), extra=st.integers(1, 30), ratio=NEAR_THETA,
                  noise=st.sampled_from([0.0, 1e-6, 1.0]), exp2=st.integers(-1100, 1100),
                  spread=st.sampled_from([0, 3, 40, 1500]), featurised=st.booleans(),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_gram_certificate_is_the_stated_certificate(r, extra, ratio, noise, exp2, spread,
                                                    featurised, seed):
    # the certificate of a weighted whole factor must decide as the stated
    # one, and pass it bitwise the shifted Gram the stated one factors.
    # Featurised, each row's largest entry is 1 and its log weight (exp2 + a
    # spread) ln 2, so that rows up to 2^1500 below the largest weight
    # underflow to zero rows; with unit weights the rows are at scale
    # 2^exp2, within +-500
    ell = r + extra
    rng = np.random.default_rng(seed)
    f = diagonal_factor(ell, r, ratio) + noise * rng.random((ell, r))
    f = f[rng.permutation(ell)][:, rng.permutation(r)]
    if featurised:
        top = f.max(axis=1)
        f /= np.where(top > 0.0, top, 1.0)[:, None]
        log_w = (exp2 + rng.integers(-spread, spread + 1, ell)) * math.log(2.0)
    else:
        f, log_w = np.ldexp(f, max(-500, min(500, exp2))), np.zeros(ell)
    f = np.ascontiguousarray(f)  # in row order, as the branch's factors are

    def weighted_certificate():
        return _gram_certificate(_gram_bound(_weighted(f.copy(), log_w)))

    got, got_grams = cholesky_inputs(weighted_certificate)
    want, want_grams = cholesky_inputs(stated_certificate, f, log_w)
    assert got is want
    assert [g.tobytes() for g in got_grams] == [g.tobytes() for g in want_grams]


@PROPERTY
@hypothesis.given(r=st.integers(1, 12), extra=st.integers(1, 20),
                  ranks=st.tuples(st.integers(0, 12), st.integers(0, 12)),
                  ratios=st.one_of(st.none(), NEAR_THETA.map(lambda x: (x, x)),
                                   st.tuples(NEAR_THETA, NEAR_THETA)),
                  exp2=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                  featurised=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_factored_rank_is_the_rank_of_the_product(r, extra, ranks, ratios, exp2, featurised,
                                                  seed):
    # nonnegative L x R factors, R < L, each at scale 2^exp2: diagonal ones
    # with Gram ratios about theta (equal ratios put the product's there
    # too), whose product's singular values both paths compute exactly, so
    # they may sit at the rank threshold; or products of nonnegative L x k
    # and k x R factors, of rank k <= R, whose nonzero singular values lie
    # far above the threshold and the others far below.  With unit weights
    # the whole factors hold the scaled factors' rows as they are, and the
    # rank is that of their product; featurised, each row's scale is in its
    # weight, and the rank is that of the product of the weighted factors
    # the QR-core fallback ranks
    ell = r + extra
    rng = np.random.default_rng(seed)
    if ratios is None:
        factors = [rng.random((ell, min(k, r))) @ rng.random((min(k, r), r)) for k in ranks]
    else:
        cols = rng.permutation(r)
        factors = [diagonal_factor(ell, r, ratio)[rng.permutation(ell)][:, cols]
                   for ratio in ratios]
    left_raw, right_raw = (np.ldexp(f, e) for f, e in zip(factors, exp2))
    if featurised:
        left, right = (maker(f, feature_exponents(rng, f)) for f in (left_raw, right_raw))
        product = left() @ right().T
    else:
        left, right = maker(left_raw), maker(right_raw)
        product = left_raw @ right_raw.T
    assert factored_rank(r, left, right) == numerical_rank(product)


@pytest.mark.parametrize("r", [1, 3])
def test_gram_certificate_reads_the_first_2r_rows_into_its_gram(r):
    # rows after the first 2R never enter the Gram, so they cannot lift a
    # singular first 2R to a certificate; where the factor has at most 2R
    # rows, all of them enter
    good = diagonal_factor(r, r, 0.5)
    singular_head = np.vstack([np.zeros((2 * r, r)), good])
    assert not certificate(singular_head)
    assert certificate(singular_head[r:])
    assert factored_rank(r, maker(singular_head), maker(good)) == r


@pytest.mark.parametrize("ell,r", [(9, 2), (9, 4), (8, 4), (5, 4)])
@pytest.mark.parametrize("weight", ["finite", "inf", "nan"])
def test_gram_bound_grams_the_first_2r_weighted_rows_and_sums_them_all(ell, r, weight):
    # the Gram is of the first min(2R, L) weighted rows, so the rows after
    # them change only its diagonal's shift; mu reads every row, so a
    # non-finite log weight of the last row, after the first 2R where L >
    # 2R, fails the certificate, quietly, with no Gram returned
    rng = np.random.default_rng(ell * r)
    f = rng.random((ell, r))
    log_w = rng.integers(-40, 41, ell) * math.log(2.0)
    log_w[-1] = {"finite": log_w[-1], "inf": np.inf, "nan": np.nan}[weight]

    def bound(f):
        return quietly(lambda: _gram_bound(_weighted(f.copy(), log_w)))

    shifted = bound(f)
    if weight != "finite":
        assert shifted is None
        assert not quietly(_gram_certificate, shifted)
        return
    head = (f * np.exp(log_w - log_w.max())[:, None])[:2 * r]
    off = ~np.eye(r, dtype=bool)
    assert shifted[off].tobytes() == (head.T @ head)[off].tobytes()
    later = f.copy()
    later[2 * r:] = rng.random((max(0, ell - 2 * r), r))
    assert bound(later)[off].tobytes() == shifted[off].tobytes()


@pytest.mark.parametrize("ell", [11, 13])
@pytest.mark.parametrize("top", [1100, -1100])
@pytest.mark.parametrize("ratio,certified", [
    (THETA * (1.0 + 1e-5), True), (THETA * (1.0 - 1e-5), False),
])
def test_rank_certificate_weights_rows_beyond_the_double_range(ell, top, ratio, certified):
    # a diagonal factor stored as featurised rows are, each row's largest
    # entry in [1/2, 1) and its scale 2^(top + e) in its log weight, with its
    # largest row last; zero row p has weight 2^(top - 600 + p).  It has
    # ceil(ell / 2) columns, so that its Gram reads every row.  Its rows
    # times their weights lie outside the double range, so the weighting
    # must shift the log weights by their largest to decide as the factor at
    # unit scale does on either side of theta
    near = diagonal_factor(ell, (ell + 1) // 2, ratio)[np.r_[1:ell, 0]]
    exp2 = np.frexp(near.max(axis=1))[1]
    zero = np.flatnonzero(~near.any(axis=1))
    exp2[zero] = -600 + zero
    stored = np.ldexp(near, -exp2[:, None])
    log_w = (top + exp2) * math.log(2.0)
    assert quietly(lambda: _gram_certificate(_gram_bound(_weighted(stored, log_w)))) is certified
    assert certificate(near) is certified


BAD_ENTRIES = [np.inf, -np.inf, np.nan]


@PROPERTY
@hypothesis.given(rows=st.integers(1, 12), extra=st.integers(1, 6),
                  bad=st.sampled_from(BAD_ENTRIES + ["underflow", "zero"]),
                  where=st.integers(0, 10 ** 6), seed=st.integers(0, 2 ** 32 - 1))
def test_certificates_are_quiet_on_non_finite_or_underflowing_inputs(rows, extra, bad,
                                                                     where, seed):
    f = np.random.default_rng(seed).random((rows + extra, rows))
    if bad == "underflow":
        f = np.ldexp(f, -1070)  # subnormal entries, their products 0
    elif bad == "zero":
        f[:] = 0.0
    else:
        f.flat[where % (rows * rows)] = bad  # in the square's rows too
    square = f[:rows]
    inverse_bound = quietly(_inverse_rank_certificate, square)
    certified = quietly(certificate, f)
    energy = quietly(linalg._certified_spectral_energy, f)
    assert not certified
    if bad != "underflow" or not np.any(square):
        assert inverse_bound == 0.0
    if bad != "underflow":
        assert energy is None


def lowrank_branch_whole(q_fac, k_fac, log_z, favor_dim, seed):
    """The oracle of _lowrank_branch's a_lowrank: (a_lowrank, left, right),
    with the features whole, their product one GEMM and its exponent formed
    as one L x L array; left and right are the scaled factors the rank is
    certified from."""
    omegas = favor_map(q_fac.shape[1], favor_dim, seed)
    fq, mq = _stabilised_features_rows(q_fac, omegas)
    fk, mk = _stabilised_features_rows(k_fac, omegas)
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


def reconstruct_whole(q, k, grid, tau, e_tol, favor_dim, seed):
    """(Reconstruction, arrays): reconstruct with the two oracles in place
    of the row-blocked stages, and arrays = SimpleNamespace(a, spike_mask,
    a_lowrank, a_final) of the whole matrices.  The rank is counted from the
    dense SVD of a_lowrank."""
    a, log_z = softmax_attention(logit_matrix(q, k, grid, CFG))
    mask = energy_split(a, tau)
    cutoffs = choose_truncation(q, k, CFG, e_tol / (4.0 * tau))
    q_fac, k_fac = _truncated_svd_factors(rotate_rows(q, grid, CFG), rotate_rows(k, grid, CFG),
                                          CFG, cutoffs)
    a_lowrank, _, _ = lowrank_branch_whole(q_fac, k_fac, log_z, favor_dim, seed)
    errors = error_fields_whole(a, a_lowrank, mask)
    arrays = SimpleNamespace(a=a, spike_mask=mask, a_lowrank=a_lowrank,
                             a_final=errors.pop("a_final"))
    rec = Reconstruction(rank_lowrank=numerical_rank(a_lowrank), nnz_sparse=int(mask.sum()),
                         cutoffs=cutoffs, **errors)
    return rec, arrays


def assert_bitwise_equal(got, want, what):
    assert type(got) is type(want), what
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), what
        assert got.tobytes() == want.tobytes(), what
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (what, got, want)
    else:
        assert got == want, what


def assert_bitwise_the_oracle(rec, got, want, whole):
    """Every field of the Reconstruction rec bitwise that of the oracle's
    want, and every array the pass streamed, got, bitwise the oracle's
    whole one."""
    for field, value in vars(want).items():
        assert_bitwise_equal(getattr(rec, field), value, field)
    for name, value in vars(whole).items():
        assert_bitwise_equal(getattr(got, name), value, name)


# (grid, row_norm, favor_dim, seed, what the case covers); L = 105 is not a
# multiple of SPLIT_BLOCK_ROWS, L = 8 is below it; L = 576, 520 and 728 are
# above BLOCK_CASE_ROWS and not multiples of PRODUCT_TILE_ROWS.
BLOCK_CASE_ROWS = 4 * PRODUCT_TILE_ROWS
BLOCK_CASES = [
    ((5, 3, 7), None, 64, 0, "edge"),  # spikes in the rows on both sides of row 64
    ((5, 3, 7), 8.0, 64, 1, "edge"),
    ((5, 3, 7), 1.5, 64, 0, "no spikes"),  # nnz = 0, as at the desk cap
    ((5, 3, 7), 80.0, 256, 2, "edge"),  # logits past exp overflow
    ((2, 2, 2), None, 16, 0, "one block"),
    ((2, 2, 2), 8.0, 64, 1, "one block"),
    ((9, 8, 8), None, 256, 0, "R < L"),  # 4 full tiles and one of 64 rows
    ((9, 8, 8), 8.0, 256, 1, "R < L"),  # rank below R, from the QR core
    ((13, 8, 7), 8.0, 256, 0, "tile edge"),  # and a last tile of 88 rows
    ((9, 8, 8), None, 1024, 0, "R >= L"),
    ((13, 8, 5), 8.0, 1024, 2, "R >= L"),  # a last tile of 8 rows
]


@pytest.mark.parametrize("shape,row_norm,favor_dim,seed,what", BLOCK_CASES)
def test_row_blocked_reconstruct_is_bitwise_the_whole_matrix_oracle(shape, row_norm,
                                                                    favor_dim, seed, what):
    grid = GridShape(*shape)
    q, k = synthetic_qk(grid, CFG, seed, row_norm=row_norm)
    with streamed() as arrays:
        rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, favor_dim, seed)
    want, whole = reconstruct_whole(q, k, grid, 0.05, 0.02, favor_dim, seed)
    assert_bitwise_the_oracle(rec, arrays(), want, whole)
    edge = whole.spike_mask[SPLIT_BLOCK_ROWS - 1:SPLIT_BLOCK_ROWS + 1].any(axis=1)
    blocks = grid.size > BLOCK_CASE_ROWS and grid.size % PRODUCT_TILE_ROWS != 0
    # a tile edge past the first BLOCK_CASE_ROWS rows
    tile_edge = BLOCK_CASE_ROWS + PRODUCT_TILE_ROWS
    spiked = whole.spike_mask[tile_edge - 1:tile_edge + 1].any(axis=1)
    assert {"edge": edge.all() and grid.size % SPLIT_BLOCK_ROWS != 0,
            "no spikes": rec.nnz_sparse == 0 and grid.size > SPLIT_BLOCK_ROWS,
            "one block": rec.nnz_sparse > 0 and grid.size < SPLIT_BLOCK_ROWS,
            "R < L": blocks and favor_dim < grid.size,
            "R >= L": blocks and favor_dim >= grid.size,
            "tile edge": blocks and spiked.all() and favor_dim < grid.size}[what]


# (grid, seed, scale, favor_dim, rank): q and k of synthetic_qk times scale,
# so that the low-rank weights underflow and a_lowrank's largest entry is
# below _CERT_MIN_NORM.  On 3^3 the factors, each shifted by its own
# largest exponent, have rank 1 while their product a_lowrank is all zero
# at R < L; at R = 64 >= L it is nonzero.  On 5,3,7 and 4,4,5 some rows of
# the factors within RANK_REL_TOL of the largest underflow to zero rows of
# a_lowrank, which gave ranks 2 and 5 when every row of the factors was
# ranked.  On 3,7,5 and 3,2,3 the two nonzero rows of a_lowrank are
# subnormal, and their rounding lowers its rank from the factors' 2 to 1.
UNDERFLOW_CASES = [
    ((3, 3, 3), 0, 14.5, 8, 0),
    ((3, 3, 3), 0, 14.5, 16, 0),
    ((3, 3, 3), 0, 14.5, 64, 1),
    ((5, 3, 7), 1, 13.0, 16, 1),
    ((5, 3, 7), 0, 13.5, 16, 1),
    ((4, 4, 5), 1, 13.5, 64, 4),
    ((3, 7, 5), 6, 2.0 ** 3.7201, 8, 1),
    ((3, 2, 3), 80, 2.0 ** 3.8727, 8, 1),
]


@pytest.mark.parametrize("shape,seed,scale,favor_dim,rank", UNDERFLOW_CASES)
def test_rank_of_an_underflowing_product_is_that_of_a_lowrank(shape, seed, scale,
                                                             favor_dim, rank):
    grid = GridShape(*shape)
    q, k = synthetic_qk(grid, CFG, seed)
    q, k = scale * q, scale * k
    with warnings.catch_warnings(), streamed() as arrays:
        warnings.simplefilter("error")
        rec = reconstruct(q, k, grid, CFG, 0.2, 0.05, favor_dim, seed)
    want, whole = reconstruct_whole(q, k, grid, 0.2, 0.05, favor_dim, seed)
    assert rec.rank_lowrank == numerical_rank(whole.a_lowrank) == rank
    assert whole.a_lowrank.max() < _CERT_MIN_NORM
    assert_bitwise_the_oracle(rec, arrays(), want, whole)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
@hypothesis.example(shape=(2, 5, 5), seed=11, exp2=3.7931, favor_dim=16)
@hypothesis.example(shape=(6, 3, 3), seed=40, exp2=3.8028, favor_dim=4)
@hypothesis.given(shape=st.tuples(*[st.integers(1, 6)] * 3).filter(lambda s: math.prod(s) <= 64),
                  seed=st.integers(0, 99),
                  exp2=st.one_of(st.floats(-4.0, 5.0), st.floats(3.7, 3.9)),
                  favor_dim=st.sampled_from([2, 4, 8, 16, 32, 64, 128]))
def test_reconstruct_is_the_whole_matrix_oracle_at_any_scale(shape, seed, exp2, favor_dim):
    # q and k of synthetic_qk times 2^exp2: near-uniform attention at 2^-4,
    # logits past exp overflow at 2^5, and between 2^3.7 and 2^3.9 low-rank
    # weights that underflow in some rows or all, where the rank must be
    # that of the nonzero rows alone; the examples are two such grids where
    # every row but one underflows
    grid = GridShape(*shape)
    q, k = synthetic_qk(grid, CFG, seed)
    q, k = 2.0 ** exp2 * q, 2.0 ** exp2 * k
    with warnings.catch_warnings(), streamed() as arrays:
        warnings.simplefilter("error")
        rec = reconstruct(q, k, grid, CFG, 0.2, 0.05, favor_dim, seed)
    assert math.isfinite(rec.max_err_bg) and rec.max_err_spike == 0.0
    want, whole = reconstruct_whole(q, k, grid, 0.2, 0.05, favor_dim, seed)
    assert_bitwise_the_oracle(rec, arrays(), want, whole)


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
    # fold the blocks as _lowrank_branch does; reconstruct cannot reach a
    # missed spike, so this case drives _error_fields directly
    buf = a.copy()
    folded = (0.0, True, 0.0)
    for start in range(0, len(a), SPLIT_BLOCK_ROWS):
        rows = slice(start, start + SPLIT_BLOCK_ROWS)
        folded = _error_fields(folded, buf[rows], a_lowrank[rows], mask[rows])
    max_bg, support, max_spike = folded
    got = dict(a_final=buf, support_matches_spikes=support,
               max_err_spike=float(max_spike), max_err_bg=float(max_bg))
    for field, value in want.items():
        assert_bitwise_equal(got[field], value, field)


def error_fields_masked(folded, a_blk, lr_blk, spikes) -> tuple:
    """_error_fields written with masked reductions, as it was: the
    background's max by np.max(where=) and a_final by np.copyto(where=)."""
    max_bg, support, max_spike = folded
    background = ~spikes
    err = np.subtract(lr_blk, a_blk)
    max_bg = np.maximum(max_bg, np.max(np.abs(err, out=err), where=background, initial=0.0))
    a_spikes = a_blk[spikes]
    support = support and bool(np.all(a_spikes != lr_blk[spikes]))
    np.copyto(a_blk, lr_blk, where=background)
    max_spike = np.maximum(max_spike, np.max(np.abs(a_blk[spikes] - a_spikes), initial=0.0))
    return max_bg, support, max_spike


@pytest.mark.parametrize("spikes", ["none", "sparse", "quarter", "all-spike row"])
def test_error_fields_are_the_masked_reductions(spikes):
    # _error_fields zeroes the spikes' errors and writes a_final whole before
    # it puts the spikes back; its folded fields and a_final must be bitwise
    # those of the masked reductions, at 0 %, 3 % and 25 % spikes and with
    # one row all spikes, and with a spike the compensator misses
    rng = np.random.default_rng(28)
    a = rng.random((2 * SPLIT_BLOCK_ROWS + 5, 40))
    a_lowrank = a + 1e-3 * rng.standard_normal(a.shape)
    share = {"none": 0.0, "sparse": 0.03, "quarter": 0.25, "all-spike row": 0.0}[spikes]
    mask = rng.random(a.shape) < share
    if spikes == "all-spike row":
        mask[SPLIT_BLOCK_ROWS + 3] = True
    if mask.any():
        p, j = np.argwhere(mask)[-1]
        a_lowrank[p, j] = a[p, j]  # a missed spike
    got, want = a.copy(), a.copy()
    got_fields = want_fields = (0.0, True, 0.0)
    for start in range(0, len(a), SPLIT_BLOCK_ROWS):
        rows = slice(start, start + SPLIT_BLOCK_ROWS)
        got_fields = _error_fields(got_fields, got[rows], a_lowrank[rows], mask[rows])
        want_fields = error_fields_masked(want_fields, want[rows], a_lowrank[rows], mask[rows])
    assert_bitwise_equal(got, want, "a_final")
    for what, g, w in zip(("max_err_bg", "support", "max_err_spike"), got_fields, want_fields):
        assert_bitwise_equal(float(g) if what != "support" else g,
                             float(w) if what != "support" else w, what)
    assert got_fields[1] is (not mask.any())


# The grids of the benchmark's reconstruct and sweep runs: L = 64, 125, 216,
# 512, 1000, 1728 and 4096.
BENCHMARK_GRIDS = [(4, 4, 4), (5, 5, 5), (6, 6, 6), (8, 8, 8), (10, 10, 10), (12, 12, 12),
                   (16, 16, 16)]


@pytest.mark.parametrize("shape", BENCHMARK_GRIDS)
def test_row_blocks_are_bitwise_the_whole_calls_at_the_benchmark_grids(shape):
    # the pass's tiles and the left factor made in them are bitwise the
    # whole matrices only where logit_rows and _stabilised_features_rows of
    # a row block are bitwise those rows of the whole call; so are the
    # benchmark's digests.  It fails for logit_rows at L = 693, 700, 726 and
    # 729, so it is pinned here at the sizes that the benchmark runs
    grid = GridShape(*shape)
    q, k = synthetic_qk(grid, CFG, 0)
    rq, rk = rotate_rows(q, grid, CFG), rotate_rows(k, grid, CFG)
    whole = logit_matrix(q, k, grid, CFG)
    for rows in (64, 128, 512):
        for s in range(0, grid.size, rows):
            assert logit_rows(rq[s:s + rows], rk, CFG).tobytes() == whole[s:s + rows].tobytes()
    del whole
    q_fac, k_fac = _truncated_svd_factors(rq, rk, CFG,
                                          choose_truncation(q, k, CFG, 0.02 / (4.0 * 0.05)))
    omegas = favor_map(q_fac.shape[1], 1024, 0)
    for fac in (q_fac, k_fac):
        f, m = _stabilised_features_rows(fac, omegas)
        for rows in (128, 512, 1024):
            for s in range(0, grid.size, rows):
                fb, mb = _stabilised_features_rows(fac[s:s + rows], omegas)
                assert fb.tobytes() == f[s:s + rows].tobytes()
                assert mb.tobytes() == m[s:s + rows].tobytes()


@pytest.mark.parametrize("row_norm,certified", [(None, True), (8.0, False)])
def test_certificates_hold_one_factor_and_one_gram_at_a_time(row_norm, certified):
    # R = 256 < L = 512: after the pass each whole factor _weighted returns
    # is made while no earlier factor or Gram lives, _gram_bound reads it
    # with no Gram alive, and the factor is gone before the Cholesky, where
    # only its Gram lives.  At row norm 8 both factors are made once more for
    # the QR-core fallback, one at a time
    grid, favor_dim = GridShape(8, 8, 8), 256
    q, k = synthetic_qk(grid, CFG, 0, row_norm=row_norm)
    factors, grams = [], []
    weighting, bound, cholesky = _weighted, _gram_bound, np.linalg.cholesky

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def watched_weighted(f, log_w):
        assert (alive(factors), alive(grams)) == (0, 0)
        f = weighting(f, log_w)
        factors.append(weakref.ref(f))
        return f

    def watched_bound(f):
        assert (alive(factors), alive(grams)) == (1, 0)
        g = bound(f)
        if g is not None:
            grams.append(weakref.ref(g))
        return g

    def recording(g):
        assert (alive(factors), alive(grams)) == (0, 1)
        return cholesky(g)

    with mock.patch.object(lowrank, "_weighted", watched_weighted), \
            mock.patch.object(lowrank, "_gram_bound", watched_bound), \
            mock.patch.object(np.linalg, "cholesky", recording):
        rec = reconstruct(q, k, grid, CFG, 0.05, 0.02, favor_dim, 0)
    assert (rec.rank_lowrank == favor_dim) is certified
    assert len(factors) == (2 if certified else len(grams) + 2) and grams, (factors, grams)


def reconstruct_peak(grid, favor_dim) -> float:
    """The traced peak of one reconstruct at grid, in L^2 doubles."""
    q, k = synthetic_qk(grid, CFG, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        reconstruct(q, k, grid, CFG, 0.05, 0.02, favor_dim, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.size ** 2 * 8)


def test_reconstruct_peaks_below_three_attention_matrices():
    # R = 64 < L = 1728: no L x L array is made; the two reused tiles of
    # PRODUCT_TILE_ROWS rows, the attention's and a_lowrank's, are 0.15
    # L^2 doubles, and 0.27 with the key features and the fold's
    # temporaries (0.277 with blocks of 512 rows of query features, 0.280
    # with the left Gram beside them in the pass, 0.75 with tiles of 512
    # rows, 1.52 with the attention whole, 2.26 with a_lowrank whole as
    # well, and 4.26 with the L x L exponent and error matrices too)
    peak = reconstruct_peak(GridShape(12, 12, 12), 64)
    assert peak < 0.30, peak


@pytest.mark.parametrize("favor_dim,bound", [(512, 0.68), (1024, 1.2)])
def test_reconstruct_never_holds_the_query_features_beside_a_lowrank(favor_dim, bound):
    # R = 512 < L = 1728: the pass holds the two reused tiles (0.15 L^2
    # doubles), the key features (R / L = 0.30), a tile of query features
    # and the fold's temporaries, 0.55 in all, and no R x R array; each
    # certificate after it holds one whole factor and its Gram (0.09), 0.42.
    # With blocks of 512 rows of query features in the pass it was 0.615,
    # 0.79 with the left Gram and its scratch (0.18) beside them, 1.26 with
    # tiles of 512 rows as well, 1.83 with the attention whole, 2.41 with
    # a_lowrank whole as well, and 2.78 with the whole query features
    # beside it.
    # R = 1024 < L = 1728, and seed 0 certifies: the pass, with the key
    # features (0.59), the tiles and a tile of query features, reaches 0.85;
    # each certificate after it, one whole factor and its Gram (0.35), 0.98.
    # With 512-row blocks of query features, and the first 2R rows remade
    # in blocks beside the Gram and a scratch, it was 1.10; 1.70 with the
    # Gram and its scratch (0.70) beside the key features, 2.18 with tiles
    # of 512 rows as well, with the attention whole the certificate reached
    # 2.56, and 2.91 with scaled copies of whole factors.
    peak = reconstruct_peak(GridShape(12, 12, 12), favor_dim)
    assert peak < bound, peak
