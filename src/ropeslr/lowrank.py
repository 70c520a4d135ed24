"""Positive random features and the sparse-plus-low-rank attention rebuild.

The pipeline: truncate the logit matrix to its low-frequency part, factor it
by a thin SVD, push both factors through a shared positive random feature map
so the exponential kernel is estimated by an inner product of positive
features, renormalize rows with the true partition values, and patch the spike
set with an exact sparse residual.  The spike entries of the rebuilt matrix
are pinned to the originals, so the error there is identically zero and all
approximation error lives on the background.

The features are row-max stabilised and the renormalisation is done in log
space, so any finite logits work: no partition value exp(log_z) is formed.
The low-rank matrix diag(1/z) phi(Q) phi(K)^T is a product of two L x R
factors; when R < L its rank is certified by a Cholesky of each factor's
R x R Gram, shifted by its rounding allowance, with QRs and an SVD of the
R x R core as the fallback, never a dense L x L SVD.  When R >= L it is
certified from a QR of the L x L matrix and the blocked inverse of its
triangular factor, with the dense SVD as the fallback.

The attention is built in the logits' own buffer, and the spike mask only
after the rank stage.  The back half runs over blocks of SPLIT_BLOCK_ROWS
rows: the product of the features is scaled to a_lowrank one block at a
time, and the errors are read and a_final written block by block into the
attention's own buffer, which reconstruct does not return.  So reconstruct
allocates two L x L float arrays, the logits and a_lowrank: the attention
and then a_final are written over the logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .decomposition import (
    DESK_CAP,
    SPLIT_BLOCK_ROWS,
    AttentionMatrix,
    energy_split,
    softmax_attention,
)
from .linalg import RANK_REL_TOL, as_matrix, numerical_rank
from .rope3d import (
    GridShape,
    RopeConfig,
    choose_truncation,
    logit_matrix,
    rotate_rows,
    selected_pair_columns,
)


@dataclass(frozen=True)
class FavorMap:
    """Gaussian feature directions, drawn once and shared between the query
    and key featurizations (sharing is what makes the estimator unbiased).
    omegas is a C-contiguous (input_dim, R) array, one direction per column.
    The layout does not avoid the stall in which small OpenBLAS products ran
    about 100 times slower in a few fresh processes: on a 2-core host it hit
    the first 2-thread process after a minute of idle, for about a second
    and with either operand layout, and never a 1-thread process."""

    omegas: np.ndarray

    @property
    def feature_dim(self) -> int:
        return self.omegas.shape[1]

    @property
    def input_dim(self) -> int:
        return self.omegas.shape[0]


def favor_map(input_dim: int, feature_dim: int, seed: int) -> FavorMap:
    if input_dim < 1 or feature_dim < 1:
        raise ValueError("feature map dimensions must be positive")
    rng = np.random.default_rng(seed)
    omegas = rng.standard_normal((feature_dim, input_dim))
    return FavorMap(omegas=np.ascontiguousarray(omegas.T))


def _log_features_rows(m, fmap: FavorMap) -> np.ndarray:
    """log(phi(x) sqrt(R)) = omega_i . x - ||x||^2 / 2 for every row x of m."""
    m = as_matrix(m)
    if m.shape[1] != fmap.input_dim:
        raise ValueError(f"expected {fmap.input_dim} columns, got {m.shape[1]}")
    sq = 0.5 * np.sum(m * m, axis=1, keepdims=True)
    out = m @ fmap.omegas
    out -= sq
    return out


def favor_features_rows(m, fmap: FavorMap) -> np.ndarray:
    return np.exp(_log_features_rows(m, fmap)) / math.sqrt(fmap.feature_dim)


def _stabilised_features_rows(m, fmap: FavorMap) -> Tuple[np.ndarray, np.ndarray]:
    """Row-max stabilised features: (f, mx) with phi(x) = f exp(mx) / sqrt(R)
    row by row; every f entry lies in [0, 1] and each row's largest is 1."""
    log_phi = _log_features_rows(m, fmap)
    mx = log_phi.max(axis=1)
    log_phi -= mx[:, None]
    return np.exp(log_phi, out=log_phi), mx


def approx_kernel(q_fac, k_fac, fmap: FavorMap) -> np.ndarray:
    """Estimated exponential kernel matrix phi(Q) phi(K)^T; rank at most the
    feature dimension because it is a product of L x R factors."""
    return favor_features_rows(q_fac, fmap) @ favor_features_rows(k_fac, fmap).T


def normalize_rows(e_hat, z) -> np.ndarray:
    """Scale row p by 1/z_p. A positive diagonal rescaling keeps the exact
    rank, but not the numerical rank: the threshold is relative to sigma_1,
    and rows scaled far below the others can drop under it."""
    e_hat = as_matrix(e_hat)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (e_hat.shape[0],):
        raise ValueError(f"expected {e_hat.shape[0]} partition values, got shape {z.shape}")
    if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
        raise ValueError("partition values must be finite and strictly positive")
    return e_hat / z[:, None]


def residual_sparse(attn: AttentionMatrix, a_lowrank, spike_mask) -> np.ndarray:
    """Exact compensator on the spike set: a - a_lowrank there, zero elsewhere."""
    a_lowrank = as_matrix(a_lowrank)
    spike_mask = np.asarray(spike_mask, dtype=bool)
    if a_lowrank.shape != attn.a.shape or spike_mask.shape != attn.a.shape:
        raise ValueError("low-rank matrix and spike mask must match the attention shape")
    return np.where(spike_mask, attn.a - a_lowrank, 0.0)


def _factored_core(left, right, keep_q: bool):
    """Thin QRs left = Ql Rl and right = Qr Rr of two tall factors, so that
    left @ right.T = Ql (Rl Rr^T) Qr^T and the small core Rl Rr^T has the
    product's singular values.  Returns ((Ql, Qr), core); the Q factors are
    formed only when keep_q, and are None otherwise."""
    if keep_q:
        ql, rl = np.linalg.qr(left)
        qr_, rr = np.linalg.qr(right)
        return (ql, qr_), rl @ rr.T
    rl = np.linalg.qr(left, mode="r")
    rr = np.linalg.qr(right, mode="r")
    return (None, None), rl @ rr.T


def _truncated_svd_factors(q_mat, k_mat, grid: GridShape, cfg: RopeConfig,
                           cutoffs) -> Tuple[np.ndarray, np.ndarray]:
    """Thin SVD factors (U sqrt(S), V sqrt(S)) of the truncated logit matrix,
    computed through its explicit low-rank pair factors so no dense L x L SVD
    is needed."""
    cols = selected_pair_columns(cfg, cutoffs)
    ell = grid.size
    if cols.size == 0:
        return np.zeros((ell, 1)), np.zeros((ell, 1))
    f = rotate_rows(q_mat, grid, cfg)[:, cols]
    g = rotate_rows(k_mat, grid, cfg)[:, cols]
    (qf, qg), core = _factored_core(f, g, keep_q=True)
    uc, sv, vct = np.linalg.svd(core / math.sqrt(cfg.d_h))
    if sv[0] == 0.0:
        return np.zeros((ell, 1)), np.zeros((ell, 1))
    keep = sv > RANK_REL_TOL * sv[0]
    root = np.sqrt(sv[keep])
    q_fac = (qf @ uc[:, keep]) * root[None, :]
    k_fac = (qg @ vct.T[:, keep]) * root[None, :]
    return q_fac, k_fac


# How far a rank certificate must clear RANK_REL_TOL; see _lowrank_rank.
RANK_CERT_MARGIN = 2.0
# The smallest Gram row sum _rank_certificate accepts, 2^-969: above it the
# absolute errors of underflow, at most 2^-1074 per operation, stay below
# u mu in every entry's row (see _rank_certificate).
_CERT_MIN_NORM = np.finfo(np.float64).tiny * 2.0 ** 53


def _rank_certificate(left, right) -> bool:
    """Whether sigma_R / sigma_1 of left @ right.T, for nonnegative L x R
    factors, is proved to be at least theta = RANK_CERT_MARGIN *
    RANK_REL_TOL.  Each factor f must pass: with g the computed Gram f^T f,
    mu bounds lambda_max(f^T f) and np.linalg.cholesky(g - s I) succeeds at
    s = (theta + eps) mu.  Then lambda_min / lambda_max >= theta for both
    Grams, so sigma_R / sigma_1 >= 1 / (kappa(left) kappa(right)) >= theta.

    With u = eps_mach / 2 and gamma_n = n u / (1 - n u): for a nonnegative
    factor every Gram entry is a sum of nonnegative products, so |g - f^T f|
    <= gamma_L f^T f entrywise and in norm (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3.5).  lambda_max(f^T f) is at
    most its largest row sum (Perron-Frobenius), hence at most mu = (1 +
    2 gamma_{L+R+4}) times g's computed largest row sum: the widening covers
    the Gram's rounding, the sum's and the 4 roundings that form s.  A
    successful Cholesky of the computed g - s I gives R^T R = g - s I + D +
    dA with D the rounding of the diagonal subtraction, |D| <= u mu, and
    |dA| <= gamma_{R+1} |R^T| |R| (ibid., Theorem 10.3).  ||(|R^T| |R|)||_2
    is at most its trace, the trace of R^T R, so ||dA||_2 <= gamma_{R+1} R
    mu / (1 - gamma_{R+1}).  Hence lambda_min(f^T f) >= s - (2 u + gamma_L +
    gamma_{R+1} R / (1 - gamma_{R+1})) mu >= theta mu: eps is that sum, its
    second u for underflow, whose errors, at most 2^-1074 per operation,
    stay below u mu for mu >= _CERT_MIN_NORM (S. M. Rump, Verification of
    positive definiteness, BIT 46, 2006, uses the same argument).

    A factor fails when its Cholesky meets a non-positive pivot, or when g's
    largest row sum is not finite or is below _CERT_MIN_NORM.  A failure
    costs the Gram and a Cholesky that stops at its first non-positive
    pivot."""
    u = np.finfo(np.float64).eps / 2.0

    def gamma(n):
        return n * u / (1.0 - n * u)

    theta = RANK_CERT_MARGIN * RANK_REL_TOL
    for f in (left, right):
        ell, r = f.shape
        eps = 2.0 * u + gamma(ell) + gamma(r + 1) * r / (1.0 - gamma(r + 1))
        g = f.T @ f
        row_sum = g.sum(axis=1).max()
        if not _CERT_MIN_NORM <= row_sum < np.inf:
            return False
        # s = (theta + eps) mu, with the factor below 1 taken first
        g[np.diag_indices(r)] -= (theta + eps) * (1.0 + 2.0 * gamma(ell + r + 4)) * row_sum
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return False
    return True


# Blocks of at most this many rows are inverted by np.linalg.inv; see
# _triangular_inverse.  On a 2-core OpenBLAS host 32 was faster than 16, 64
# or 128 at L = 64 and at L = 512.
TRI_INV_LEAF = 32


def _triangular_inverse(t) -> np.ndarray:
    """Inverse of an upper triangular t with a nonzero diagonal, by halves:
    [[A, B], [0, C]]^-1 = [[A^-1, -(A^-1 B) C^-1], [0, C^-1]], with
    np.linalg.inv at blocks of TRI_INV_LEAF rows or fewer.  About L^3 / 3
    multiply-adds, nearly all of them in GEMMs."""
    n = t.shape[0]
    if n <= TRI_INV_LEAF:
        return np.linalg.inv(t)
    h = n // 2
    x = np.zeros_like(t)
    x[:h, :h] = _triangular_inverse(t[:h, :h])
    x[h:, h:] = _triangular_inverse(t[h:, h:])
    x[:h, h:] = -(x[:h, :h] @ t[:h, h:]) @ x[h:, h:]
    return x


def _qr_rank_certificate(m) -> float:
    """A lower bound on sigma_L / sigma_1 of a square L x L matrix m, or 0.0.

    Householder QR gives the triangular factor t of m + dm exactly, with
    ||dm||_F <= delta ||m||_F and delta = 8 L^2 u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Theorem 19.4).  So sigma_1(m)
    <= ||m||_F <= ||t||_F / (1 - delta) and sigma_L(m) >= sigma_L(t) -
    delta ||m||_F.  With X the blocked inverse of t, sigma_L(t) >= (1 - rho)
    / ||X||_F, where rho = ||X t - I||_F + gamma_{L+1} (||X||_F ||t||_F +
    sqrt(L)) is the computed residual plus the rounding of its GEMM and of
    the subtraction of I (ibid., sections 3.5 and 14.1).  Together:
    (1 - delta)(1 - rho) / (||X||_F ||t||_F) - delta.  A second factor
    1 - delta and a factor 1 + delta on rho cover the rounding of the
    computed norms, each within L^2 u relative.  t is first scaled by a power
    of two, which is exact and keeps the norms finite.  A zero or non-finite
    pivot, a non-finite ||X||_F or rho >= 1 gives 0.0."""
    ell = m.shape[0]
    u = np.finfo(np.float64).eps / 2.0
    delta = 8.0 * ell * ell * u
    gamma = (ell + 1) * u / (1.0 - (ell + 1) * u)
    t = np.linalg.qr(m, mode="r")
    with np.errstate(all="ignore"):
        np.ldexp(t, -np.frexp(max(t.max(), -t.min()))[1], out=t)
        pivots = np.abs(np.diagonal(t))
        if not (np.all(np.isfinite(pivots)) and pivots.min() > 0.0):
            return 0.0
        x = _triangular_inverse(t)
        norm_x = np.linalg.norm(x)
        if not np.isfinite(norm_x):
            return 0.0
        norm_t = np.linalg.norm(t)
        resid = x @ t
        resid[np.diag_indices(ell)] -= 1.0
        rho = np.linalg.norm(resid) + gamma * (norm_x * norm_t + math.sqrt(ell))
        rho *= 1.0 + delta
    if not rho < 1.0:
        return 0.0
    return float((1.0 - delta) ** 2 * (1.0 - rho) / (norm_x * norm_t) - delta)


def _lowrank_rank(a_lowrank, left, right) -> int:
    """Numerical rank of a_lowrank = c left @ right.T, c > 0.  A certificate
    of RANK_CERT_MARGIN * RANK_REL_TOL puts all min(L, R) singular values
    above the threshold: when R >= L it comes from a QR of a_lowrank and the
    inverse of its triangular factor, when R < L from a shifted Cholesky of
    each factor's R x R Gram, which proves lambda_min >= theta lambda_max
    for both (_rank_certificate; Rump, BIT 46, 2006; Higham, 2002, Theorem
    10.3).  The fallbacks, the SVD of a_lowrank or of the QR core, compute
    the singular values to a small multiple of sqrt(L R) eps sigma_1 (5e-13
    sigma_1 at L = 4096, R = 1024), so the margin's 1e-9 sigma_1 of room
    means they count min(L, R) too."""
    ell, r = left.shape
    if r >= ell:
        if _qr_rank_certificate(a_lowrank) >= RANK_CERT_MARGIN * RANK_REL_TOL:
            return ell
        return numerical_rank(a_lowrank)
    if _rank_certificate(left, right):
        return r
    return numerical_rank(_factored_core(left, right, keep_q=False)[1])


def _lowrank_branch(q_fac, k_fac, log_z, favor_dim: int, seed: int):
    """(a_lowrank, left, right) with a_lowrank = c left @ right.T, c > 0.

    a_lowrank[p, j] = fq[p] . fk[j] exp(mq_p - log z_p - log R + mk_j): the
    stabilised features are at most 1 and the exponent is a log attention
    weight, so neither side overflows.  The product fq @ fk.T is scaled in
    place one block of SPLIT_BLOCK_ROWS rows at a time, so the exponent is
    never an L x L array.  left and right are fq and fk scaled in place by
    their sides of it, each shifted by its largest; the row scaling must be
    there, as the rank threshold is not invariant under it."""
    fmap = favor_map(q_fac.shape[1], favor_dim, seed)
    fq, mq = _stabilised_features_rows(q_fac, fmap)
    fk, mk = _stabilised_features_rows(k_fac, fmap)
    row_log = mq - log_z - math.log(favor_dim)
    a_lowrank = fq @ fk.T
    for start in range(0, a_lowrank.shape[0], SPLIT_BLOCK_ROWS):
        scale = np.add.outer(row_log[start:start + SPLIT_BLOCK_ROWS], mk)
        a_lowrank[start:start + SPLIT_BLOCK_ROWS] *= np.exp(scale, out=scale)
    fq *= np.exp(row_log - row_log.max())[:, None]
    fk *= np.exp(mk - mk.max())[:, None]
    return a_lowrank, fq, fk


def _error_fields(a, a_lowrank, spike_mask) -> dict:
    """The Reconstruction fields a_final, support_matches_spikes and the two
    errors, in one pass over blocks of SPLIT_BLOCK_ROWS rows.  a_final is
    written into a: each block's errors are read, then its background entries
    are replaced by a_lowrank's.  The compensator a - a_lowrank is nonzero on
    a spike exactly when the two differ there, so the support check reads
    the spikes alone."""
    support = True
    max_spike = max_bg = 0.0
    for start in range(0, a.shape[0], SPLIT_BLOCK_ROWS):
        blk = slice(start, start + SPLIT_BLOCK_ROWS)
        a_blk, lr_blk, spikes = a[blk], a_lowrank[blk], spike_mask[blk]
        background = ~spikes
        err = np.abs(lr_blk - a_blk)
        max_bg = np.maximum(max_bg, np.max(err, where=background, initial=0.0))
        a_spikes = a_blk[spikes]
        support = support and bool(np.all(a_spikes != lr_blk[spikes]))
        np.copyto(a_blk, lr_blk, where=background)
        spike_err = np.abs(a_blk[spikes] - a_spikes)
        max_spike = np.maximum(max_spike, np.max(spike_err, initial=0.0))
    return dict(a_final=a, support_matches_spikes=support,
                max_err_spike=float(max_spike), max_err_bg=float(max_bg))


@dataclass(frozen=True)
class Reconstruction:
    """Sparse-plus-low-rank rebuild of an attention matrix.

    a_final equals the original attention bitwise on the spike set (the
    residual branch is an exact compensator there) and equals a_lowrank on
    the background; max_err_spike is therefore exactly 0 on every run.
    support_matches_spikes records whether the compensator a - a_lowrank is
    nonzero on every spike; it is zero off the spikes by construction, so
    only the spike entries are compared, and the compensator is not kept.
    The errors are folded over blocks of rows, and a_final is the buffer of
    the attention it was measured against, overwritten off the spikes.
    """

    tau: float
    e_tol: float
    spike_mask: np.ndarray
    a_lowrank: np.ndarray
    a_final: np.ndarray
    rank_lowrank: int
    nnz_sparse: int
    max_err_spike: float
    max_err_bg: float
    cutoffs: Tuple[int, int, int]
    favor_dim: int
    support_matches_spikes: bool


def reconstruct(q_mat, k_mat, grid: GridShape, cfg: RopeConfig, tau: float,
                e_tol: float, favor_dim: int, seed: int) -> Reconstruction:
    """End-to-end rebuild against the exact attention built from (q, k).

    The truncation tolerance is delta = e_tol / (4 tau), matching the error
    budget that makes the background error at most e_tol when the random
    feature estimate concentrates.
    """
    if not (np.isfinite(e_tol) and e_tol > 0.0):
        raise ValueError(f"e_tol must be a positive real, got {e_tol}")
    if not (2.0 * e_tol <= tau < 1.0):
        raise ValueError(f"tau must lie in [2*e_tol, 1) = [{2.0 * e_tol}, 1), got {tau}")
    if favor_dim < 1:
        raise ValueError("favor_dim must be a positive count")
    if grid.size > DESK_CAP:
        raise ValueError(f"grid has {grid.size} tokens, above the desk cap {DESK_CAP}")

    attn = softmax_attention(logit_matrix(q_mat, k_mat, grid, cfg))

    delta = e_tol / (4.0 * tau)
    cutoffs = choose_truncation(q_mat, k_mat, cfg, delta)
    q_fac, k_fac = _truncated_svd_factors(q_mat, k_mat, grid, cfg, cutoffs)

    a_lowrank, left, right = _lowrank_branch(q_fac, k_fac, attn.log_z, favor_dim, seed)
    rank = _lowrank_rank(a_lowrank, left, right)
    del left, right
    # split only now, so the L x L spike mask is not held through the rank stage
    dec = energy_split(attn, tau)
    # _error_fields writes a_final over attn.a, which is not used after it
    return Reconstruction(tau=float(tau), e_tol=float(e_tol), spike_mask=dec.spike_mask,
                          a_lowrank=a_lowrank, rank_lowrank=rank, nnz_sparse=dec.nnz,
                          cutoffs=cutoffs, favor_dim=int(favor_dim),
                          **_error_fields(attn.a, a_lowrank, dec.spike_mask))
