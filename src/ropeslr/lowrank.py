"""Positive random features and the sparse-plus-low-rank attention rebuild.

The pipeline: truncate the logit matrix to its low-frequency part, factor it
by a thin SVD through its pair factors' QRs, push both factors through
positive random features of one shared Gaussian draw (favor_map) so the
exponential kernel is estimated by an inner product of positive features,
renormalize rows with the true partition values, and patch the spike set
with an exact sparse residual.  The spike entries of the rebuilt matrix are
pinned to the originals, so the error there is identically zero and all
approximation error lives on the background.

The features are row-max stabilised and the renormalisation is done in log
space, so any finite logits work: no partition value exp(log_z) is formed.
The low-rank matrix diag(1/z) phi(Q) phi(K)^T is a product of two L x R
factors; when R < L its rank is certified by a Cholesky of each factor's
R x R Gram, shifted by its rounding allowance, with QRs and an SVD of the
R x R core as the fallback, never a dense L x L SVD.  When R >= L it is
certified from a QR of the L x L matrix and the blocked inverse of its
triangular factor, with the dense SVD as the fallback.

The attention is built in the logits' own buffer, and the low-rank branch
runs in three phases.  First the key features are made whole; they stay
until the product is done.  Second, when R < L, the rank is certified before
any row of a_lowrank exists, each factor's Gram summed over blocks of
CERT_BLOCK_ROWS rows: a block of the key features is copied and scaled, a
block of the query features made and scaled, so the key features are the
only L x R array beside the attention.  The QR-core fallback alone makes
each scaled factor whole, one at a time, beside the QR's own copy.  Only
then is the spike mask split off.  Third, a_lowrank is made
PRODUCT_BLOCK_ROWS rows at a time in one reused scratch block: each block
featurises its rows of the query factor, multiplies them by the key
features and is scaled SPLIT_BLOCK_ROWS rows at a time.  While those rows
are in cache their errors are read, their low-rank values on the spikes
kept, and a_final written over them in the attention's own buffer.  So
a_lowrank is never whole: reconstruct allocates one L x L float array, the
logits, on which the attention and then a_final are written.  When R >= L
the QR certificate reads a_lowrank, rebuilt from a_final and the kept spike
values once the key features are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import InvalidInput
from .decomposition import DESK_CAP, energy_split, softmax_attention
from .linalg import RANK_REL_TOL, SPLIT_BLOCK_ROWS, _U, _gamma, as_matrix, numerical_rank
from .rope3d import (
    GridShape,
    RopeConfig,
    choose_truncation,
    logit_matrix,
    rotate_rows,
    selected_pair_columns,
)


def favor_map(input_dim: int, feature_dim: int, seed: int) -> np.ndarray:
    """Gaussian feature directions, drawn once and shared between the query
    and key featurizations (sharing is what makes the estimator unbiased):
    a C-contiguous (input_dim, R) array, one direction per column.
    The layout does not avoid the stall in which small OpenBLAS products ran
    about 100 times slower in a few fresh processes: on a 2-core host it hit
    the first 2-thread process after a minute of idle, for about a second
    and with either operand layout, and never a 1-thread process."""
    if input_dim < 1 or feature_dim < 1:
        raise ValueError("feature map dimensions must be positive")
    rng = np.random.default_rng(seed)
    omegas = rng.standard_normal((feature_dim, input_dim))
    return np.ascontiguousarray(omegas.T)


def _log_features_rows(m, omegas) -> np.ndarray:
    """log(phi(x) sqrt(R)) = omega_i . x - ||x||^2 / 2 for every row x of m."""
    m = as_matrix(m)
    if m.shape[1] != omegas.shape[0]:
        raise ValueError(f"expected {omegas.shape[0]} columns, got {m.shape[1]}")
    sq = 0.5 * np.sum(m * m, axis=1, keepdims=True)
    out = m @ omegas
    out -= sq
    return out


def favor_features_rows(m, omegas) -> np.ndarray:
    return np.exp(_log_features_rows(m, omegas)) / math.sqrt(omegas.shape[1])


def _stabilised_features_rows(m, omegas) -> Tuple[np.ndarray, np.ndarray]:
    """Row-max stabilised features: (f, mx) with phi(x) = f exp(mx) / sqrt(R)
    row by row; every f entry lies in [0, 1] and each row's largest is 1."""
    log_phi = _log_features_rows(m, omegas)
    mx = log_phi.max(axis=1)
    log_phi -= mx[:, None]
    return np.exp(log_phi, out=log_phi), mx


def approx_kernel(q_fac, k_fac, omegas) -> np.ndarray:
    """Estimated exponential kernel matrix phi(Q) phi(K)^T; rank at most the
    feature dimension because it is a product of L x R factors."""
    return favor_features_rows(q_fac, omegas) @ favor_features_rows(k_fac, omegas).T


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


def residual_sparse(a, a_lowrank, spike_mask) -> np.ndarray:
    """Exact compensator on the spike set: a - a_lowrank there, zero elsewhere."""
    a_lowrank = as_matrix(a_lowrank)
    spike_mask = np.asarray(spike_mask, dtype=bool)
    if a_lowrank.shape != a.shape or spike_mask.shape != a.shape:
        raise ValueError("low-rank matrix and spike mask must match the attention shape")
    return np.where(spike_mask, a - a_lowrank, 0.0)


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
    # thin QRs f = Qf Rf and g = Qg Rg: f @ g.T = Qf (Rf Rg^T) Qg^T, and the
    # small core Rf Rg^T has the product's singular values
    qf, rf = np.linalg.qr(f)
    qg, rg = np.linalg.qr(g)
    uc, sv, vct = np.linalg.svd(rf @ rg.T / math.sqrt(cfg.d_h))
    if sv[0] == 0.0:
        return np.zeros((ell, 1)), np.zeros((ell, 1))
    keep = sv > RANK_REL_TOL * sv[0]
    root = np.sqrt(sv[keep])
    q_fac = (qf @ uc[:, keep]) * root[None, :]
    k_fac = (qg @ vct.T[:, keep]) * root[None, :]
    return q_fac, k_fac


# How far a rank certificate must clear RANK_REL_TOL; see _lowrank_branch.
RANK_CERT_MARGIN = 2.0
# The smallest Gram row sum _gram_certificate accepts, 2^-969: above it the
# absolute errors of underflow, at most 2^-1074 per operation, stay below
# u mu in every entry's row (see _gram_certificate).
_CERT_MIN_NORM = np.finfo(np.float64).tiny * 2.0 ** 53
_LN2 = math.log(2.0)


def _gram_certificate(blocks) -> bool:
    """Whether lambda_min / lambda_max of f^T f, for a nonnegative L x R
    factor f given in row blocks, is proved to be at least theta =
    RANK_CERT_MARGIN * RANK_REL_TOL: with g the computed Gram f^T f, mu
    bounds lambda_max(f^T f) and np.linalg.cholesky(g - s I) succeeds at s =
    (theta + eps) mu.  When both factors of left @ right.T pass, sigma_R /
    sigma_1 >= 1 / (kappa(left) kappa(right)) >= theta.

    blocks yields pairs (f_b, log_w_b): f_b holds rows that stand for f_b
    exp(log_w_b), and is scaled in place.  g is accumulated block by block
    under a running power-of-two shift 2^k, k the least integer with k ln 2
    at least every log weight so far: each block's rows are scaled by
    exp(log_w_b - k ln 2), at most 1 to rounding, and its Gram is added to
    g.  When a block raises k by d, g is first multiplied by 2^-2d with
    np.ldexp.  So f is 2^-k times the rows f_b exp(log_w_b), to the
    rounding of the weights, and no scaled copy of a whole factor exists:
    the blocks, g, one block's Gram and the Cholesky factor are the arrays
    held.

    With u = _U and gamma_n = _gamma(n) of linalg: for a nonnegative factor
    every Gram entry is a sum of L nonnegative products, and each product
    meets at most L - 1 additions in whatever order the block GEMMs and the
    accumulation add them, so |g - f^T f| <= gamma_L f^T f entrywise and in
    norm (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sections 3.5 and 4.2).  A rescale by 2^-2d is exact but for underflow.
    lambda_max(f^T f) is at most its largest row sum (Perron-Frobenius),
    hence at most mu = (1 + 2 gamma_{L+R+4}) times g's computed largest row
    sum: the widening covers the Gram's rounding, the sum's and the 4
    roundings that form s.  A successful Cholesky of the computed g - s I
    gives R^T R = g - s I + D + dA with D the rounding of the diagonal
    subtraction, |D| <= u mu, and |dA| <= gamma_{R+1} |R^T| |R| (ibid.,
    Theorem 10.3).  ||(|R^T| |R|)||_2 is at most its trace, the trace of R^T
    R, so ||dA||_2 <= gamma_{R+1} R mu / (1 - gamma_{R+1}).  Hence
    lambda_min(f^T f) >= s - (2 u + gamma_L + gamma_{R+1} R / (1 -
    gamma_{R+1})) mu >= theta mu: eps is that sum, its second u for
    underflow.  Underflow errs by at most 2^-1074 per product and per
    rescale, and an entry meets at most L of each, so in a row of g they
    add to at most 2 L R 2^-1074, below u mu for L R <= 2^51 and mu >=
    _CERT_MIN_NORM (S. M. Rump, Verification of positive definiteness, BIT
    46, 2006, uses the same argument).

    f fails when a block's largest log weight is not finite, when its
    Cholesky meets a non-positive pivot, or when g's largest row sum is not
    finite or is below _CERT_MIN_NORM.  A failure costs the Gram and a
    Cholesky that stops at its first non-positive pivot."""
    theta = RANK_CERT_MARGIN * RANK_REL_TOL
    g, k, ell = None, 0, 0
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite factor's sums
        for f, log_w in blocks:
            top = np.max(log_w) / _LN2
            if not np.isfinite(top):
                return False
            if g is None:
                k = math.ceil(top)
            elif top > k:
                old, k = k, math.ceil(top)
                # every double times 2^-2200 is 0, and ldexp takes a C int
                np.ldexp(g, max(2 * (old - k), -2200), out=g)
            f *= np.exp(log_w - k * _LN2)[:, None]
            g = f.T @ f if g is None else np.add(g, f.T @ f, out=g)
            ell += len(f)
        r = g.shape[0]
        eps = 2.0 * _U + _gamma(ell) + _gamma(r + 1) * r / (1.0 - _gamma(r + 1))
        row_sum = g.sum(axis=1).max()
    if not _CERT_MIN_NORM <= row_sum < np.inf:
        return False
    # s = (theta + eps) mu, with the factor below 1 taken first
    g[np.diag_indices(r)] -= (theta + eps) * (1.0 + 2.0 * _gamma(ell + r + 4)) * row_sum
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
    delta = 8.0 * ell * ell * _U
    gamma = _gamma(ell + 1)
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


def _factored_rank(r: int, left, right) -> int:
    """Numerical rank of c left @ right.T, c > 0, for nonnegative L x R
    factors with R = r < L.  left and right are functions that make their
    factor's row blocks afresh, as _gram_certificate reads them.  r when
    both pass _gram_certificate, which reads a factor one block at a time,
    right first; else the count of the SVD of the R x R core Rl Rr^T
    of the thin QRs of the whole factors, which has the product's singular
    values: never a dense L x L SVD.  Each whole factor, rows f exp(log_w -
    max log_w), is made once, right first, and dropped before the other."""
    if _gram_certificate(right()) and _gram_certificate(left()):
        return r
    r_right = np.linalg.qr(_whole(right()), mode="r")
    return numerical_rank(np.linalg.qr(_whole(left()), mode="r") @ r_right.T)


def _whole(blocks) -> np.ndarray:
    """The factor of row blocks (f_b, log_w_b), made whole and scaled by
    exp(log_w - max log_w)."""
    fs, log_ws = zip(*blocks)
    f, log_w = np.concatenate(fs), np.concatenate(log_ws)
    f *= np.exp(log_w - log_w.max())[:, None]
    return f


# Rows of a_lowrank featurised and multiplied together in _lowrank_branch.
# Each product call repacks fk.T, so small blocks pay for it: at L = 4096,
# R = 1024 on a 2-core OpenBLAS host (best of 8), the product took 0.25 s as
# one GEMM, 0.26 s in blocks of 1024 rows, 0.28 s in blocks of 512 and 0.45 s
# in blocks of 64.  A block of query features is then 4 MB.
PRODUCT_BLOCK_ROWS = 512
# Rows of each factor scaled and added to its Gram together in the rank
# certificate of _lowrank_branch.  At L = 4096, R = 1024 on a 2-core
# OpenBLAS host (cap input sets 0, 1, 3, 6 and 9, the first reconstruct of a
# process), blocks of 1024 rows took 0.20-0.28 s for both certificates and
# the process peaked at 242 MB, against 0.20-0.24 s and 262 MB with each
# factor whole.  Blocks of 512 took 0.26-0.37 s, with smaller GEMMs and a
# Gram product for every block; blocks of 2048 peaked at 254 MB.
CERT_BLOCK_ROWS = 1024


def _error_fields(folded, a_blk, lr_blk, spikes) -> tuple:
    """(folded, the low-rank values on the spikes in row-major order) for one
    more block of rows: folded is (max_err_bg, support_matches_spikes,
    max_err_spike) over the rows so far, and a_final is written into a_blk.
    The errors are read, then the background entries are replaced by
    lr_blk's.  The compensator a - a_lowrank is nonzero on a spike exactly
    when the two differ there, so the support check reads the spikes alone."""
    max_bg, support, max_spike = folded
    background = ~spikes
    err = np.subtract(lr_blk, a_blk)
    max_bg = np.maximum(max_bg, np.max(np.abs(err, out=err), where=background, initial=0.0))
    a_spikes, lr_spikes = a_blk[spikes], lr_blk[spikes]
    support = support and bool(np.all(a_spikes != lr_spikes))
    np.copyto(a_blk, lr_blk, where=background)
    max_spike = np.maximum(max_spike, np.max(np.abs(a_blk[spikes] - a_spikes), initial=0.0))
    return (max_bg, support, max_spike), lr_spikes


def _lowrank_branch(a, log_z, tau: float, q_fac, k_fac, favor_dim: int, seed: int) -> dict:
    """The Reconstruction fields of the spike split at tau of the attention
    a, whose rows' log partition values are log_z, and of the low-rank
    attention a_lowrank, with a_final written over a.

    a_lowrank[p, j] = fq[p] . fk[j] exp(mq_p - log z_p - log R + mk_j): the
    stabilised features are at most 1 and the exponent is a log attention
    weight, so neither side overflows.  fk is made whole; fq is made one
    block of PRODUCT_BLOCK_ROWS rows at a time and multiplied into one
    reused scratch block, which is scaled and then folded by _error_fields
    SPLIT_BLOCK_ROWS rows at a time, so neither fq, the exponent nor
    a_lowrank is ever an L x L array.

    a_lowrank = c left @ right.T, c > 0, with left and right fq and fk scaled
    by their sides of the exponent, each shifted by one constant; the row
    scaling must be there, as the rank threshold is not invariant under it.
    A certificate of RANK_CERT_MARGIN * RANK_REL_TOL puts all min(L, R)
    singular values above the threshold: when R < L it comes from a shifted
    Cholesky of each factor's R x R Gram, which proves lambda_min >= theta
    lambda_max for both (_gram_certificate; Rump, BIT 46, 2006; Higham,
    2002, Theorem 10.3), and runs before the product and the spike mask, on
    row blocks of CERT_BLOCK_ROWS: fk's copied, fq's featurised, so fq is
    featurised again for the product;
    when R >= L from a QR of a_lowrank, rebuilt whole after the product, and
    the inverse of its triangular factor.  The fallbacks, the SVD of the QR
    core or of a_lowrank, compute the singular values to a small multiple of
    sqrt(L R) eps sigma_1 (5e-13 sigma_1 at L = 4096, R = 1024), so the
    margin's 1e-9 sigma_1 of room means they count min(L, R) too.  When R <
    L and c underflows, so that a_lowrank is all zero, its rank 0 is
    returned, as the QR path gives when R >= L."""
    ell = q_fac.shape[0]
    log_r = math.log(favor_dim)
    omegas = favor_map(q_fac.shape[1], favor_dim, seed)
    fk, mk = _stabilised_features_rows(k_fac, omegas)
    if favor_dim < ell:
        starts = range(0, ell, CERT_BLOCK_ROWS)

        def left():
            for start in starts:
                rows = slice(start, start + CERT_BLOCK_ROWS)
                fq, mq = _stabilised_features_rows(q_fac[rows], omegas)
                yield fq, mq - log_z[rows] - log_r

        def right():
            for start in starts:
                rows = slice(start, start + CERT_BLOCK_ROWS)
                yield fk[rows].copy(), mk[rows]  # the certificate scales it in place

        rank = _factored_rank(favor_dim, left, right)
    spike_mask = energy_split(a, tau)  # only now: not held through the certificate
    block = np.empty((min(ell, PRODUCT_BLOCK_ROWS), ell))
    folded, on_spikes = (0.0, True, 0.0), []
    nonzero = False
    for start in range(0, ell, PRODUCT_BLOCK_ROWS):
        fq, mq = _stabilised_features_rows(q_fac[start:start + PRODUCT_BLOCK_ROWS], omegas)
        blk = block[:len(fq)]
        np.matmul(fq, fk.T, out=blk)
        del fq
        row_log = mq - log_z[start:start + PRODUCT_BLOCK_ROWS] - log_r
        for sub in range(0, len(blk), SPLIT_BLOCK_ROWS):
            lr = blk[sub:sub + SPLIT_BLOCK_ROWS]
            scale = np.add.outer(row_log[sub:sub + SPLIT_BLOCK_ROWS], mk)
            lr *= np.exp(scale, out=scale)
            del scale  # not held through the fold
            # read while the rows are in cache, and only until one is nonzero
            nonzero = nonzero or bool(np.any(lr))
            rows = slice(start + sub, start + sub + SPLIT_BLOCK_ROWS)
            folded, values = _error_fields(folded, a[rows], lr, spike_mask[rows])
            on_spikes.append(values)
    del fk, block  # not held through the QR certificate
    max_bg, support, max_spike = folded
    on_spikes = np.concatenate(on_spikes)
    if favor_dim >= ell:
        a_lowrank = a.copy()
        a_lowrank[spike_mask] = on_spikes
        certified = _qr_rank_certificate(a_lowrank) >= RANK_CERT_MARGIN * RANK_REL_TOL
        rank = ell if certified else numerical_rank(a_lowrank)
    elif not nonzero:
        rank = 0  # c underflowed: the factors' rank is not a_lowrank's
    return dict(spike_mask=spike_mask, a_final=a, lowrank_on_spikes=on_spikes,
                rank_lowrank=rank, nnz_sparse=int(spike_mask.sum()),
                max_err_spike=float(max_spike), max_err_bg=float(max_bg),
                support_matches_spikes=support)


@dataclass(frozen=True)
class Reconstruction:
    """Sparse-plus-low-rank rebuild of an attention matrix.

    a_final equals the original attention bitwise on the spike set (the
    residual branch is an exact compensator there) and equals the low-rank
    attention a_lowrank on the background; max_err_spike is therefore
    exactly 0 on every run.  a_lowrank is not kept whole: lowrank_on_spikes
    holds its values on the spike set in row-major order, so a_lowrank is
    a_final with lowrank_on_spikes put back at spike_mask.
    support_matches_spikes records whether the compensator a - a_lowrank is
    nonzero on every spike; it is zero off the spikes by construction, so
    only the spike entries are compared, and the compensator is not kept.
    The errors are folded over blocks of rows, and a_final is the buffer of
    the attention it was measured against, overwritten off the spikes.
    """

    spike_mask: np.ndarray
    a_final: np.ndarray
    lowrank_on_spikes: np.ndarray
    rank_lowrank: int
    nnz_sparse: int
    max_err_spike: float
    max_err_bg: float
    cutoffs: Tuple[int, int, int]
    support_matches_spikes: bool


def check_reconstruct(grid: GridShape, tau: float, e_tol: float, favor_dim: int) -> None:
    """Reject out-of-range `reconstruct` arguments: reconstruct checks them
    first, and a caller may check them before it draws q and k."""
    if not (np.isfinite(e_tol) and e_tol > 0.0):
        raise InvalidInput(f"e_tol must be a positive real, got {e_tol}")
    if not (2.0 * e_tol <= tau < 1.0):
        raise InvalidInput(f"tau must lie in [2*e_tol, 1) = [{2.0 * e_tol}, 1), got {tau}")
    if not e_tol / (4.0 * tau) > 0.0:
        raise InvalidInput(f"e_tol={e_tol} is so small that e_tol / (4 tau) underflows to 0")
    if favor_dim < 1:
        raise InvalidInput("favor_dim must be a positive count")
    if grid.size > DESK_CAP:
        raise InvalidInput(f"grid has {grid.size} tokens, above the desk cap {DESK_CAP}")


def reconstruct(q_mat, k_mat, grid: GridShape, cfg: RopeConfig, tau: float,
                e_tol: float, favor_dim: int, seed: int) -> Reconstruction:
    """End-to-end rebuild against the exact attention built from (q, k).

    The truncation tolerance is delta = e_tol / (4 tau), matching the error
    budget that makes the background error at most e_tol when the random
    feature estimate concentrates.
    """
    check_reconstruct(grid, tau, e_tol, favor_dim)
    a, log_z = softmax_attention(logit_matrix(q_mat, k_mat, grid, cfg))

    delta = e_tol / (4.0 * tau)
    cutoffs = choose_truncation(q_mat, k_mat, cfg, delta)
    q_fac, k_fac = _truncated_svd_factors(q_mat, k_mat, grid, cfg, cutoffs)

    # the branch splits off the spike mask after its rank certificate and
    # writes a_final over a, which is not used after it
    return Reconstruction(cutoffs=cutoffs,
                          **_lowrank_branch(a, log_z, tau, q_fac, k_fac, favor_dim, seed))
