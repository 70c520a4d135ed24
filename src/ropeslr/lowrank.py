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
The rank of the low-rank matrix diag(1/z) phi(Q) phi(K)^T, a product of two
L x R factors, is certified: when R < L by a shifted Cholesky of each
factor's R x R Gram, with the SVD of a QR core as the fallback, never a
dense L x L SVD; when R >= L by an approximate inverse of the L x L matrix.

The attention, its spikes, a_lowrank and a_final are made in one pass over
tiles of PRODUCT_TILE_ROWS rows, the attention in one reused tile, and the
errors are folded as they go.  When R < L no L x L array is made: a_lowrank
is made only in the square subtiles that could hold max_err_bg, that hold a
spike, or while every entry made so far underflows past _CERT_MIN_NORM, one
reused subtile at a time, and the others are skipped by a rounding-safe
bound of their entries.  No certificate state crosses the pass: after it,
each Gram certificate reads one whole, weighted factor, the row sums of all
its rows and the Gram of its first 2R, and drops it before its Cholesky;
the key features made before the pass are the right factor, and the query
features, made again in the pass's tiles, the left.  When R >= L the
inverse certificate reads a_lowrank, written whole by the pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import InvalidInput
from .decomposition import DESK_CAP, row_softmax
from .linalg import RANK_REL_TOL, SPLIT_BLOCK_ROWS, _U, _gamma, as_matrix, numerical_rank
from .rope3d import (
    GridShape,
    RopeConfig,
    choose_truncation,
    logit_rows,
    rotate_rows,
    selected_pair_columns,
)


def favor_map(input_dim: int, feature_dim: int, seed: int) -> np.ndarray:
    """Gaussian feature directions, drawn once and shared between the query
    and key featurizations (sharing is what makes the estimator unbiased):
    a C-contiguous (input_dim, R) array, one direction per column.  No
    layout avoids the second-long stall of small OpenBLAS products in the
    first 2-thread process after a minute of idle on a 2-core host."""
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


def _truncated_svd_factors(rq, rk, cfg: RopeConfig, cutoffs) -> Tuple[np.ndarray, np.ndarray]:
    """Thin SVD factors (U sqrt(S), V sqrt(S)) of the truncated logit matrix
    of the rotated rows rq and rk, computed through its explicit low-rank
    pair factors so no dense L x L SVD is needed."""
    cols = selected_pair_columns(cfg, cutoffs)
    ell = len(rq)
    if cols.size == 0:
        return np.zeros((ell, 1)), np.zeros((ell, 1))
    f, g = rq[:, cols], rk[:, cols]
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


def _weighted(f, log_w) -> np.ndarray:
    """f with row p scaled in place by exp(log_w_p - max log_w): the rows f_p
    exp(log_w_p), to the rounding of the weights, shifted by one constant.
    A weight of +inf or NaN, or weights all -inf, put NaN rows in f, quietly,
    and _gram_bound then fails it."""
    with np.errstate(invalid="ignore"):  # inf - inf
        f *= np.exp(log_w - log_w.max())[:, None]
    return f


def _gram_bound(f) -> np.ndarray | None:
    """g - s I, the matrix _gram_certificate factors, of a nonnegative L x R
    factor f with R < L: g is the Gram of the first min(2R, L) rows of f, one
    GEMM, and s = (theta + eps) mu, mu from the row sums v = f^T (f 1) of all
    L rows.  None, before g is made, when v's largest entry is not finite or
    is below _CERT_MIN_NORM.  Nothing returned holds f."""
    theta = RANK_CERT_MARGIN * RANK_REL_TOL
    r, ell = f.shape[1], len(f)
    eps = 2.0 * _U + _gamma(ell) + _gamma(r + 1) * r / (1.0 - _gamma(r + 1))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite factor's sums
        row_sum = (f.T @ f.sum(axis=1)).max()
    if not _CERT_MIN_NORM <= row_sum < np.inf:
        return None
    head = f[:2 * r]
    g = head.T @ head
    # s = (theta + eps) mu, with the factor below 1 taken first
    g[np.diag_indices(r)] -= (theta + eps) * (1.0 + 2.0 * _gamma(ell + r + 4)) * row_sum
    return g


def _gram_certificate(shifted) -> bool:
    """Whether shifted = _gram_bound(f) proves lambda_min / lambda_max of f^T
    f at least theta = RANK_CERT_MARGIN * RANK_REL_TOL, for the nonnegative
    L x R factor f, R < L: with g the computed Gram f_S^T f_S of the first S
    = min(2R, L) rows of f, mu bounds lambda_max(f^T f) and
    np.linalg.cholesky of shifted, the computed g - s I, succeeds at s =
    (theta + eps) mu.  The rows after S, f_T, never enter g: f^T f - f_S^T
    f_S = f_T^T f_T is positive semidefinite, so lambda_min(f^T f) >=
    lambda_min(f_S^T f_S) (Weyl's monotonicity theorem; Horn and Johnson,
    Matrix Analysis, section 4.3).  When both factors of left @ right.T
    pass, sigma_R / sigma_1 >= 1 / (kappa(left) kappa(right)) >= theta.

    With u = _U and gamma_n = _gamma(n) of linalg: every entry of g is a sum
    of at most L nonnegative products, and each product meets at most L - 1
    additions in whatever order the GEMM adds them, so |g - f_S^T f_S| <=
    gamma_L f_S^T f_S entrywise and in norm (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, sections 3.5 and 4.2), and ||f_S^T
    f_S||_2 <= lambda_max(f^T f).  lambda_max(f^T f) is at most its largest
    row sum (Perron-Frobenius), the largest entry of v, in exact arithmetic.
    Entry i of v is the sum over the L rows p of f_pi (f 1)_p, and (f 1)_p is
    a sum of R nonnegative entries, so the computed v is within gamma_{L+R}
    of v entrywise.  Hence lambda_max(f^T f) <= mu = (1 + 2 gamma_{L+R+4})
    times v's computed largest entry: the widening covers v's rounding and
    the 4 roundings that form s.  A successful Cholesky of the computed g -
    s I gives R^T R = g - s I + D + dA with D the rounding of the diagonal
    subtraction, |D| <= u mu, and |dA| <= gamma_{R+1} |R^T| |R| (ibid.,
    Theorem 10.3).  ||(|R^T| |R|)||_2 is at most its trace, the trace of R^T
    R, so ||dA||_2 <= gamma_{R+1} R mu / (1 - gamma_{R+1}).  Hence
    lambda_min(f^T f) >= lambda_min(f_S^T f_S) >= s - (2 u + gamma_L +
    gamma_{R+1} R / (1 - gamma_{R+1})) mu >= theta mu: eps is that sum, its
    second u for underflow.  Underflow errs by at most 2^-1074 per product,
    and an entry of g or of v meets at most L of them, so they add to at
    most L R 2^-1074 in a row of g and L 2^-1074 in an entry of v, below u mu
    for L R <= 2^52 and mu >= _CERT_MIN_NORM (S. M. Rump, Verification of
    positive definiteness, BIT 46, 2006, uses the same argument); the
    widening of mu has room for the latter.

    f fails when v's largest entry is not finite or is below _CERT_MIN_NORM,
    and then shifted is None, or when the Cholesky meets a non-positive
    pivot."""
    if shifted is None:
        return False
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


# _block_inverse's np.linalg.inv leaf size: at L = 512 on a 2-core OpenBLAS
# host, leaves of 32, 64 and 128 rows took 6.7, 5.5 and 7.3 ms an inverse.
INV_LEAF = 64


def _block_inverse(m) -> np.ndarray:
    """Inverse of a square m = [[A, B], [C, D]] by unpivoted Schur blocks:
    with S = D - C A^-1 B, m^-1 = [[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1],
    [-S^-1 C A^-1, S^-1]], np.linalg.inv at INV_LEAF rows or fewer: about L^3
    multiply-adds, nearly all GEMMs.  A singular leaf raises LinAlgError."""
    n = m.shape[0]
    if n <= INV_LEAF:
        return np.linalg.inv(m)
    h = n // 2
    a_inv = _block_inverse(m[:h, :h])
    ab, ca = a_inv @ m[:h, h:], m[h:, :h] @ a_inv
    s_inv = _block_inverse(m[h:, h:] - m[h:, :h] @ ab)
    x12 = -(ab @ s_inv)
    return np.block([[a_inv - x12 @ ca, x12], [-(s_inv @ ca), s_inv]])


def _inverse_rank_certificate(m) -> float:
    """A lower bound on sigma_L / sigma_1 of a square L x L matrix m, or 0.0.

    For any X, ||X m - I||_2 <= rho < 1 gives sigma_L(m) >= (1 - rho) /
    ||X||_F, and sigma_1(m) <= ||m||_F, so a poor X from the unpivoted
    _block_inverse only lowers the bound or fails rho < 1.  m is first
    scaled by 2^-e into m_s, e the exponent of its largest |entry|, which
    keeps the norms finite and the ratio as it is: exact but for underflow
    when e > 0, at most 2^-1075 an entry, so ||m_s - 2^-e m||_F <= u
    ||m_s||_F.  The computed residual X m_s - I is within gamma_{L+1} (|X|
    |m_s| + I) of the exact one entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.5), so rho = ||resid||_F +
    gamma_{L+2} (||X||_F ||m_s||_F + sqrt(L)) bounds ||X 2^-e m - I||_F: the
    extra u covers the scaling's underflow and that in the GEMM and the
    residual's norm, at most L^2 2^-1074 and L 2^-537 (Rump, BIT 46, 2006).
    A computed Frobenius norm errs by at most (L^2 / 2 + 2) u relative; rho
    < 1 needs a diagonal entry of the computed X m_s of at least u / 2, so
    ||X||_F >= u / (4 L) and its squares' underflow is far inside that.  So
    delta = (L^2 + 8) u covers the norms' rounding in rho, widened by 1 +
    delta, and twice in (1 - delta)^2 (1 - rho) / (||X||_F ||m_s||_F), with
    ||2^-e m||_F <= (1 + u) ||m_s||_F and the last few roundings.  A
    LinAlgError or rho >= 1, as when ||X||_F is not finite, gives 0.0."""
    ell = m.shape[0]
    delta, gamma = (ell * ell + 8.0) * _U, _gamma(ell + 2)
    with np.errstate(all="ignore"):
        m = np.ldexp(m, -np.frexp(max(m.max(), -m.min()))[1])
        try:
            x = _block_inverse(m)
        except np.linalg.LinAlgError:
            return 0.0
        norm_x, norm_m = np.linalg.norm(x), np.linalg.norm(m)
        resid = x @ m
        resid[np.diag_indices(ell)] -= 1.0
        rho = np.linalg.norm(resid) + gamma * (norm_x * norm_m + math.sqrt(ell))
        rho *= 1.0 + delta
    if not rho < 1.0:
        return 0.0
    return float((1.0 - delta) ** 2 * (1.0 - rho) / (norm_x * norm_m))


def _factored_rank(r: int, right_certified: bool, left, right) -> int:
    """Numerical rank of c left() @ right().T, c > 0, for the nonnegative L x R
    factors with R = r < L that left() and right() make whole afresh: r when
    right_certified, the right factor's _gram_certificate, holds and the left
    factor's passes.  Else the count of the SVD of the R x R core of the thin
    QRs of the whole factors, made once more each, right first, each gone
    before the next is made."""
    if right_certified and _gram_certificate(_gram_bound(left())):
        return r
    r_right = np.linalg.qr(right(), mode="r")
    return numerical_rank(np.linalg.qr(left(), mode="r") @ r_right.T)


# Rows of the attention made together in _lowrank_branch's pass: the query
# features, logits, softmax and spikes of a tile.  It is also the side of the
# square subtiles in which the R < L pass multiplies, scales and folds the
# product; at R >= L the product is made a tile at a time.  At L = 4096, R =
# 1024 on a 2-core OpenBLAS host (cap input sets 0-9, one call in a process
# each), when the R < L pass still made every tile's product whole, the
# process peaked at 108.4-108.6 MB in tiles of 128 rows against 135.0-135.1
# in tiles of 512, and a call took 0.62-0.77 s against 0.66-0.82 s; in tiles
# of 64 rows it peaked at 104.4-104.5 MB but took 0.69-0.79 s (sets 0-5).
PRODUCT_TILE_ROWS = 128
# The error of np.exp that _block_bound allows, in ulps of the exact value:
# numpy's accuracy tests hold its float64 exp to 1 ulp
# (numpy/_core/tests/data/umath-validation-set-exp.csv); 4 leaves room for
# another libm.
EXP_ULPS = 4


def _error_fields(folded, a_blk, lr_blk, spikes) -> tuple:
    """folded, (max_err_bg, support_matches_spikes, max_err_spike) over the
    blocks so far, with one more block folded in, and a_final written into
    a_blk over its background.  The compensator a - a_lowrank is nonzero on
    a spike exactly when the two differ there, so support reads the spikes."""
    max_bg, support, max_spike = folded
    err = np.subtract(lr_blk, a_blk)
    np.abs(err, out=err)
    err[spikes] = 0.0  # the errors are >= 0, so initial=0.0 leaves the background's max
    max_bg = np.maximum(max_bg, np.max(err, initial=0.0))
    a_spikes = a_blk[spikes]
    support = support and bool(np.all(a_spikes != lr_blk[spikes]))
    np.copyto(a_blk, lr_blk)
    a_blk[spikes] = a_spikes
    max_spike = np.maximum(max_spike, np.max(np.abs(a_blk[spikes] - a_spikes), initial=0.0))
    return max_bg, support, max_spike


def _scaled(lr, row_log, mk) -> np.ndarray:
    """lr, the block fq @ fk.T of some rows p and key rows j, scaled in place
    by exp(row_log_p + mk_j): that block of a_lowrank."""
    scale = np.add.outer(row_log, mk)
    lr *= np.exp(scale, out=scale)
    return lr


def _tiles(rq, rk, cfg: RopeConfig, tau: float, q_fac, omegas, attention, log_z, log_r):
    """The pass's tiles of PRODUCT_TILE_ROWS rows, in order, each (rows, fq,
    a_blk, spikes, row_log): the slice of the rows, their stabilised query
    features fq, their attention a_blk in the reused buffer attention, its
    spikes a_blk > tau, and row_log = mq - log z - log R.  Each tile writes
    its rows of log_z."""
    ell = len(q_fac)
    for start in range(0, ell, PRODUCT_TILE_ROWS):
        rows = slice(start, start + PRODUCT_TILE_ROWS)
        fq, mq = _stabilised_features_rows(q_fac[rows], omegas)
        a_blk, log_z[rows] = row_softmax(as_matrix(logit_rows(rq[rows], rk, cfg,
                                                              out=attention[:len(fq)])))
        yield rows, fq, a_blk, a_blk > tau, mq - log_z[rows] - log_r


def _whole_pass(tiles, fk, mk) -> tuple:
    """The R >= L pass over tiles: (a_lowrank, folded, nnz), a_lowrank made
    whole, a tile at a time, for the inverse certificate, and folded a
    SPLIT_BLOCK_ROWS block of rows at a time."""
    ell = len(fk)
    product = np.empty((ell, ell))
    folded, nnz = (0.0, True, 0.0), 0
    for rows, fq, a_blk, spikes, row_log in tiles:
        nnz += int(np.count_nonzero(spikes))
        lr_blk = np.matmul(fq, fk.T, out=product[rows])
        for sub in range(0, len(fq), SPLIT_BLOCK_ROWS):
            part = slice(sub, sub + SPLIT_BLOCK_ROWS)
            folded = _error_fields(folded, a_blk[part],
                                   _scaled(lr_blk[part], row_log[part], mk), spikes[part])
    return product, folded, nnz


def _block_bound(fq, row_log, k_max, m_max) -> np.ndarray:
    """For each block J of key rows, a bound on every entry of the computed
    a_lowrank in the tile's rows p and J's columns: k_max[J] the entrywise
    max of J's key features fk_j, m_max[J] the max of their log weights
    mk_j, and the pass's entry lr_pj = fl(fl(fq_p . fk_j) fl(exp(fl(row_log_p
    + mk_j)))).

    In exact arithmetic lr_pj <= b_pJ = (fq_p . k_max[J]) exp(row_log_p +
    m_max[J]), as the features are >= 0.  The widening covers the rounding,
    with u = _U, gamma_n = _gamma(n) of linalg, R features, c = EXP_ULPS and
    gradual underflow (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 2.1 and 3.5).
    - The dot products: d_pj = fq_p . fk_j <= D_pJ = fq_p . k_max[J].  A
      computed sum of R nonnegative products, in any order, is within gamma_R
      of the exact one, relative, plus at most R 2^-1074 absolute for the
      products' underflow, so fl(d_pj) <= (1 + gamma_R) / (1 - gamma_R)
      (fl(D_pJ) + 2 R 2^-1074).
    - The exponent sums: s = fl(row_log_p + mk_j) and x = fl(row_log_p +
      m_max[J]) are each one rounding of sums with row_log_p + mk_j <=
      row_log_p + m_max[J], so s <= x + 3 u |x| whatever their signs, and
      exp(s) <= exp(x) exp(3 u X) with X the largest |x| of the tile.
    - np.exp is taken to be within c ulps of the exact value: relative 2 c u
      for a normal result, c 2^-1074 absolute for a subnormal one.  So
      fl(exp(s)) <= (1 + 2 c u) / (1 - 2 c u) exp(3 u X) (fl(exp(x)) + 2 c
      2^-1074).
    - The product lr_pj = fl(fl(d) fl(exp(s))) is within u relative and
      2^-1075 absolute of the exact product of its operands.
    With eta = 2 (R + c) 2^-1074 added to fl(D_pJ) and to fl(exp(x)) and
    their product T_pJ formed in three roundings, T_pJ >= (1 - u)^3 (fl(D_pJ)
    + eta) (fl(exp(x)) + eta) - 2^-1075, so lr_pj <= w T_pJ + 2^-1073 for
    every w >= (1 + u) (1 - u)^-3 times the three ratios above, which
    (Higham, Lemma 3.3) is at most (1 + gamma_{2R+4c+6}) exp(3 u X).  The
    bound is fl(fl(w max_p T_pJ) + 2^-1072), rounding monotone, with w =
    (1 + 2 gamma_{2R+4c+6}) exp(4 u X) computed: the doubled gamma and the
    extra u X cover the roundings of w and of the two last operations.
    A NaN or an overflow anywhere in a block's bound makes it NaN or +inf,
    quietly."""
    r = fq.shape[1]
    eta = 2.0 * (r + EXP_ULPS) * 2.0 ** -1074
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.add.outer(row_log, m_max)
        widen = (1.0 + 2.0 * _gamma(2 * r + 4 * EXP_ULPS + 6)) * np.exp(4.0 * _U * np.abs(x).max())
        top = ((fq @ k_max.T + eta) * (np.exp(x, out=x) + eta)).max(axis=0)
        return top * widen + 2.0 ** -1072


def _pruned_pass(tiles, fk, mk) -> tuple:
    """The R < L pass over tiles: (folded, nnz, faint), with a_lowrank made,
    scaled and folded only in the square subtiles of PRODUCT_TILE_ROWS rows
    and key rows that could change a field.  faint is the list of a_lowrank's
    nonzero rows, tile by tile, when every entry is below _CERT_MIN_NORM,
    else None.

    Both a and a_lowrank are >= 0, and the computed |lr - a| is at most
    max(lr, a), so no entry of a subtile of key block J raises max_err_bg
    above the running max when the tile's _block_bound of J and the largest
    a of the subtile are at most that max.  A subtile is made when that
    bound is not a finite number at most the running max, when it holds a
    spike (max_err_spike and support_matches_spikes read the spikes), and
    while faint is alive, so that a faint product's rows are whole; each
    tile's subtiles are visited in descending bound, so that the max rises
    early.  The max is order-free, so the fields are bitwise those of the
    whole fold wherever a subtile's product fq @ fk[J].T, made in one
    reused contiguous buffer, is bitwise those columns of the tile's: at the
    benchmark's grids, where the tests pin it."""
    ell, side = len(fk), PRODUCT_TILE_ROWS
    starts = np.arange(0, ell, side)
    k_max, m_max = np.maximum.reduceat(fk, starts), np.maximum.reduceat(mk, starts)
    buf = np.empty(side * side)
    folded, nnz = (0.0, True, 0.0), 0
    faint = []  # a_lowrank's nonzero rows while all are faint
    for rows, fq, a_blk, spikes, row_log in tiles:
        nnz += int(np.count_nonzero(spikes))
        bound = np.maximum(_block_bound(fq, row_log, k_max, m_max),
                           np.maximum.reduceat(a_blk.max(axis=0), starts))
        pieces = {}  # the tile's subtiles while faint is alive
        for j in np.argsort(-bound, kind="stable"):
            cols = slice(starts[j], starts[j] + side)
            if (faint is None and bound[j] <= folded[0] and np.isfinite(bound[j])
                    and not spikes[:, cols].any()):
                continue  # no entry of the subtile can change a field
            lr = buf[:len(fq) * len(mk[cols])].reshape(len(fq), -1)
            _scaled(np.matmul(fq, fk[cols].T, out=lr), row_log, mk[cols])
            if faint is not None:
                if lr.max() < _CERT_MIN_NORM:
                    pieces[j] = lr.copy()
                else:
                    faint = None
            folded = _error_fields(folded, a_blk[:, cols], lr, spikes[:, cols])
        if faint is not None:  # every subtile of the tile was made
            tile = np.concatenate([pieces[j] for j in range(len(starts))], axis=1)
            faint.append(tile[tile.max(axis=1) > 0.0])
    return folded, nnz, faint


def _lowrank_branch(rq, rk, cfg: RopeConfig, tau: float, q_fac, k_fac, favor_dim: int,
                    seed: int) -> dict:
    """The Reconstruction fields but the cutoffs: of the attention of the
    rotated rows rq and rk, its spikes above tau, and the low-rank attention
    a_lowrank[p, j] = fq[p] . fk[j] exp(mq_p - log z_p - log R + mk_j) of
    the truncated factors.  The stabilised features are at most 1 and the
    exponent is a log attention weight, so neither side overflows.  fk is
    made whole before the pass; each tile of PRODUCT_TILE_ROWS rows of the
    pass (_tiles) featurises its rows of q_fac into fq and makes those rows
    of the attention.  At R >= L it makes those rows of a_lowrank
    (_whole_pass); at R < L only the subtiles of them that could change a
    field, those that could hold max_err_bg, hold a spike, or are made while
    the product is faint (_pruned_pass).  Every tile is those rows of the
    whole matrices to the rounding of logit_rows and
    _stabilised_features_rows, which compute each row as the whole product
    does, though BLAS may add its terms in another order: bitwise at the
    benchmark's grids, where the tests pin the row and column blocks to the
    whole calls.

    a_lowrank = c left @ right.T, c > 0, with left and right fq and fk scaled
    by their sides of the exponent, each shifted by one constant; the row
    scaling must be there, as the rank threshold is not invariant under it.
    A certificate of RANK_CERT_MARGIN * RANK_REL_TOL puts all min(L, R)
    singular values above the threshold: when R < L from a shifted Cholesky
    of each factor's Gram, when R >= L from an inverse of a_lowrank.  At R <
    L the certificates run after the pass, one whole factor at a time, each
    gone before its Cholesky: the right factor is fk, weighted in place; the
    left is fq made again by the pass's tile calls, so its rows are bitwise
    the rows the pass multiplied.  The fallbacks, the SVD of the QR core
    (both factors made whole once more) or of a_lowrank, err by a small
    multiple of sqrt(L R) eps sigma_1 (5e-13 sigma_1 at L = 4096, R = 1024),
    so with the margin's 1e-9 sigma_1 of room they count min(L, R) too.

    At R < L that is the rank of the unrounded product.  An entry of
    a_lowrank that underflows errs by at most R 2^-1074, as the features
    are at most 1; when a_lowrank's largest entry is at least _CERT_MIN_NORM
    = 2^-1022 / u that is below u times it for R <= 2^52, as small as the
    rounding of the normal entries, so the unrounded product's rank is
    a_lowrank's.  Below it the rounding to multiples of 2^-1074 can lower
    the rank, so the pass makes every subtile and keeps copies of
    a_lowrank's nonzero rows until an entry reaches _CERT_MIN_NORM, and if
    none does, the rank is the SVD count of those rows: 0 when a_lowrank
    underflows to all zero."""
    ell = q_fac.shape[0]
    log_r = math.log(favor_dim)
    omegas = favor_map(q_fac.shape[1], favor_dim, seed)
    log_z = np.empty(ell)

    def left():  # after the pass, which writes log_z
        fq, mq = np.empty((ell, favor_dim)), np.empty(ell)
        for s in range(0, ell, PRODUCT_TILE_ROWS):
            fq[s:s + PRODUCT_TILE_ROWS], mq[s:s + PRODUCT_TILE_ROWS] = (
                _stabilised_features_rows(q_fac[s:s + PRODUCT_TILE_ROWS], omegas))
        return _weighted(fq, mq - log_z - log_r)

    def right():
        return _weighted(*_stabilised_features_rows(k_fac, omegas))

    fk, mk = _stabilised_features_rows(k_fac, omegas)
    attention = np.empty((min(ell, PRODUCT_TILE_ROWS), ell))
    tiles = _tiles(rq, rk, cfg, tau, q_fac, omegas, attention, log_z, log_r)
    # the pass frees its temporaries as it returns, and the attention tile
    # only after them: freed first, it left 2 MB of their heap resident
    # through the certificates (glibc malloc, cap input sets 1 and 4)
    if favor_dim >= ell:  # the inverse certificate reads a_lowrank whole
        product, folded, nnz = _whole_pass(tiles, fk, mk)
        del attention, fk  # neither is held through the inverse certificate
        certified = _inverse_rank_certificate(product) >= RANK_CERT_MARGIN * RANK_REL_TOL
        rank = ell if certified else numerical_rank(product)
    else:
        folded, nnz, faint = _pruned_pass(tiles, fk, mk)
        del attention
        shifted = _gram_bound(_weighted(fk, mk))
        del fk  # the right factor is not held through its Cholesky
        right_certified = _gram_certificate(shifted)
        del shifted  # nor its Gram while the left factor is made
        rank = _factored_rank(favor_dim, right_certified, left, right)
        if faint is not None:
            rank = numerical_rank(np.concatenate(faint))
    max_bg, support, max_spike = folded
    return dict(rank_lowrank=rank, nnz_sparse=nnz, max_err_spike=float(max_spike),
                max_err_bg=float(max_bg), support_matches_spikes=support)


@dataclass(frozen=True)
class Reconstruction:
    """The scalars of a sparse-plus-low-rank rebuild a_final of attention a:
    a on the spike set (the residual branch is an exact compensator there)
    and the low-rank attention a_lowrank elsewhere, so max_err_spike, read
    off each block of a_final as it is written, is 0.  support_matches_spikes
    is whether a - a_lowrank is nonzero on every spike.  No array is kept."""

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
    """End-to-end rebuild against the exact attention built from (q, k).  The
    truncation tolerance e_tol / (4 tau) is the error budget that makes the
    background error at most e_tol when the random feature estimate
    concentrates."""
    check_reconstruct(grid, tau, e_tol, favor_dim)
    rq, rk = rotate_rows(q_mat, grid, cfg), rotate_rows(k_mat, grid, cfg)
    cutoffs = choose_truncation(q_mat, k_mat, cfg, e_tol / (4.0 * tau))
    q_fac, k_fac = _truncated_svd_factors(rq, rk, cfg, cutoffs)
    return Reconstruction(cutoffs=cutoffs,
                          **_lowrank_branch(rq, rk, cfg, tau, q_fac, k_fac, favor_dim, seed))
