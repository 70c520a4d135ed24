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
dense L x L SVD; when R >= L by a QR of the L x L matrix.

The attention, its spikes, a_lowrank and a_final are made in one pass over
tiles of PRODUCT_TILE_ROWS rows, in two reused tiles, and the errors are
folded as they go.  When R < L no L x L array is made, and each Gram
certificate reads its factor twice: the row sums of all rows as they go by,
the key features' as they are made in blocks of CERT_BLOCK_ROWS rows before
the pass and the query features' at the end of each block of
PRODUCT_BLOCK_ROWS rows of the pass; then, after the pass, the Gram of the
first 2R rows, remade in the same blocks.  When R >= L the QR certificate
reads a_lowrank, written whole by the pass.
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


def _rescale(old: int, k: int) -> int:
    """The exponent that takes a Gram or row sums from shift 2^old to 2^k."""
    return max(2 * (old - k), -2200)  # every double times 2^-2200 is 0, and ldexp takes a C int


class _Factor:
    """A nonnegative L x R factor f in row blocks, and the part of its Gram
    certificate that must read every row.  make() yields the blocks (f_b,
    log_w_b) afresh on each call: f_b holds rows that stand for f_b
    exp(log_w_b).  add folds one block as it goes by, in order: it scales
    f_b in place by exp(log_w_b - k ln 2), k the running shift (the least
    integer with k ln 2 at least every log weight so far), and adds its part
    of the row-sum vector v = f^T (f 1), first multiplied by 2^-2d with
    np.ldexp when the block raises k by d.  blocks lists (k, row count) of
    each block added, so that _gram_certificate can remake the first rows
    and scale each block by the shift it had; it is None once a block's
    largest log weight is not finite."""

    def __init__(self, make):
        self.make, self.blocks, self.sums, self.rows = make, [], None, 0

    def add(self, f, log_w) -> None:
        if self.blocks is None:
            return
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite factor's sums
            top = np.max(log_w) / _LN2
            if not np.isfinite(top):
                self.blocks = None
                return
            if not self.blocks:
                k, self.sums = math.ceil(top), np.zeros(f.shape[1])
            else:
                k = self.blocks[-1][0]
                if top > k:
                    old, k = k, math.ceil(top)
                    np.ldexp(self.sums, _rescale(old, k), out=self.sums)
            f *= np.exp(log_w - k * _LN2)[:, None]
            self.sums += f.T @ f.sum(axis=1)
        self.blocks.append((k, len(f)))
        self.rows += len(f)


def _gram_certificate(factor: _Factor) -> bool:
    """Whether lambda_min / lambda_max of f^T f, for the nonnegative L x R
    factor f of a _Factor whose every block was added, is proved to be at
    least theta = RANK_CERT_MARGIN * RANK_REL_TOL: with g the computed Gram
    f_S^T f_S of the first S = min(2R, L) rows of f, mu bounds
    lambda_max(f^T f) and np.linalg.cholesky(g - s I) succeeds at s = (theta
    + eps) mu.  The rows after S, f_T, never enter g: f^T f - f_S^T f_S =
    f_T^T f_T is positive semidefinite, so lambda_min(f^T f) >=
    lambda_min(f_S^T f_S) (Weyl's monotonicity theorem; Horn and Johnson,
    Matrix Analysis, section 4.3).  When both factors of left @ right.T
    pass, sigma_R / sigma_1 >= 1 / (kappa(left) kappa(right)) >= theta.

    Here f is 2^-k times the rows f_b exp(log_w_b), k the final shift, to
    the rounding of the weights.  mu comes from the row sums v that
    _Factor.add folded over all L rows; g reads only the blocks of make()
    that hold rows among the first S, remade after every row was added.
    Each is scaled in place by exp(log_w_b - k_b ln 2), k_b the shift it
    was added under, and its Gram, while it has rows among the first S, is
    added to g; g is multiplied by 2^-2d wherever add raised the shift by d,
    the blocks after S too.  So g is bitwise the Gram a single pass that
    added each block's Gram beside its row sums would hold, and no scaled
    copy of a whole factor exists: one remade block, g, one reused scratch
    for a block's Gram and the Cholesky factor are the arrays held, after
    whatever made the blocks has let them go.

    With u = _U and gamma_n = _gamma(n) of linalg: for a nonnegative factor
    every entry of g is a sum of at most L nonnegative products, and each
    product meets at most L - 1 additions in whatever order the block GEMMs
    and the accumulation add them, so |g - f_S^T f_S| <= gamma_L f_S^T f_S
    entrywise and in norm (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.5 and 4.2), and ||f_S^T f_S||_2 <=
    lambda_max(f^T f).  A rescale by 2^-2d is exact but for underflow.
    lambda_max(f^T f) is at most its largest row sum (Perron-Frobenius),
    the largest entry of v, in exact arithmetic.  Entry i of v is the sum
    over the L rows p of f_pi (f 1)_p, and (f 1)_p is a sum of R
    nonnegative entries, so the computed v is within gamma_{L+R} of v
    entrywise.  Hence lambda_max(f^T f) <= mu = (1 + 2 gamma_{L+R+4})
    times v's computed largest entry: the widening covers v's rounding and
    the 4 roundings that form s.  A successful Cholesky of the computed g -
    s I gives R^T R = g - s I + D + dA with D the rounding of the diagonal
    subtraction, |D| <= u mu, and |dA| <= gamma_{R+1} |R^T| |R| (ibid.,
    Theorem 10.3).  ||(|R^T| |R|)||_2 is at most its trace, the trace of R^T
    R, so ||dA||_2 <= gamma_{R+1} R mu / (1 - gamma_{R+1}).  Hence
    lambda_min(f^T f) >= lambda_min(f_S^T f_S) >= s - (2 u + gamma_L +
    gamma_{R+1} R / (1 - gamma_{R+1})) mu >= theta mu: eps is that sum, its
    second u for underflow.  Underflow errs by at most 2^-1074 per product
    and per rescale, and an entry of g or of v meets at most L of each, so
    they add to at most 2 L R 2^-1074 in a row of g and 2 L 2^-1074 in an
    entry of v, below u mu for L R <= 2^51 and mu >= _CERT_MIN_NORM (S. M.
    Rump, Verification of positive definiteness, BIT 46, 2006, uses the
    same argument); the widening of mu has room for the latter.

    f fails when it has no rows, when a block's largest log weight is not
    finite, when v's largest entry is not finite or is below _CERT_MIN_NORM,
    or when its Cholesky meets a non-positive pivot.  Only the last costs
    the Gram of S rows, and a Cholesky stops at its first non-positive
    pivot."""
    theta = RANK_CERT_MARGIN * RANK_REL_TOL
    if not factor.blocks:
        return False
    r, ell = len(factor.sums), factor.rows
    eps = 2.0 * _U + _gamma(ell) + _gamma(r + 1) * r / (1.0 - _gamma(r + 1))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite factor's Gram
        row_sum = factor.sums.max()
        if not _CERT_MIN_NORM <= row_sum < np.inf:
            return False
        g, gram, blocks, start = np.zeros((r, r)), np.empty((r, r)), factor.make(), 0
        prev = factor.blocks[0][0]
        # the first 2R rows enter g: on the desk cap's input sets 0-9
        # (L = 4096, R = 1024) 2048 rows certify both factors and 1536
        # rows 4 of 10, and on a 2-core host the key factor's
        # certificate took 59-60 ms against 65-74 ms with all rows
        for k, n in factor.blocks:
            if k > prev:
                np.ldexp(g, _rescale(prev, k), out=g)
            prev = k
            if start < 2 * r:
                f, log_w = next(blocks)
                f *= np.exp(log_w - k * _LN2)[:, None]
                head = f[:2 * r - start]
                np.add(g, np.matmul(head.T, head, out=gram), out=g)
                del f, log_w, head  # not held while the next block is made
            start += n
        del blocks, gram  # not held through the Cholesky
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


def _factored_rank(r: int, left: _Factor, right: _Factor) -> int:
    """Numerical rank of c left @ right.T, c > 0, for nonnegative L x R
    factors with R = r < L, each a _Factor whose every block was added: r
    when both pass _gram_certificate, right first.  Else the count of the
    SVD of the R x R core of the thin QRs of the whole factors, made once
    each from their blocks, right first."""
    if _gram_certificate(right) and _gram_certificate(left):
        return r
    r_right = np.linalg.qr(_whole(right.make()), mode="r")
    return numerical_rank(np.linalg.qr(_whole(left.make()), mode="r") @ r_right.T)


def _whole(blocks) -> np.ndarray:
    """The factor of row blocks (f_b, log_w_b), whole, times exp(log_w - max log_w)."""
    fs, log_ws = zip(*blocks)
    f, log_w = np.concatenate(fs), np.concatenate(log_ws)
    f *= np.exp(log_w - log_w.max())[:, None]
    return f


# Rows of the query features made together in _lowrank_branch's pass, and
# added to the left factor's row sums together at the end of each block; the
# left Gram certificate remakes its first 2R rows in these blocks after the
# pass.  At L = 4096, R = 1024 on a 2-core OpenBLAS host (cap input sets
# 1-3, a process each, 3 runs), a reconstruct took 0.63-0.65 s and the
# process peaked at 133 MB in blocks of 512 rows, 0.63-0.67 s and 174 MB in
# blocks of 1024, and 0.66-0.70 s and 114 MB in blocks of 256, each block's
# attention and a_lowrank made whole.
PRODUCT_BLOCK_ROWS = 512
# Rows of the attention and of a_lowrank made together, a PRODUCT_BLOCK_ROWS
# block in tiles: the logits, softmax, spikes, product and error fold.  On
# that host (cap input sets 0-9, one call in a process each) the process
# peaked at 108.4-108.6 MB in tiles of 128 rows against 135.0-135.1 in
# tiles of 512, and a call took 0.62-0.77 s against 0.66-0.82 s; in tiles
# of 64 rows it peaked at 104.4-104.5 MB but took 0.69-0.79 s (sets 0-5).
PRODUCT_TILE_ROWS = 128
# Rows of the key features made together: fk is built from blocks of this
# many rows, each added to the right factor's row sums as it is made, and
# the right Gram certificate remakes its first 2R rows in these blocks after
# the pass.  At L = 4096, R = 1024 on that host the certificate took 69-73
# ms in blocks of 1024 rows and 84-90 ms in blocks of 512 (best and median
# of 8), with the same process peak.
CERT_BLOCK_ROWS = 1024


def _error_fields(folded, a_blk, lr_blk, spikes) -> tuple:
    """folded, (max_err_bg, support_matches_spikes, max_err_spike) over the
    rows so far, with one more block folded in, and a_final written into
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


def _lowrank_branch(rq, rk, cfg: RopeConfig, tau: float, q_fac, k_fac, favor_dim: int,
                    seed: int) -> dict:
    """The Reconstruction fields but the cutoffs: of the attention of the
    rotated rows rq and rk, its spikes above tau, and the low-rank attention
    a_lowrank[p, j] = fq[p] . fk[j] exp(mq_p - log z_p - log R + mk_j) of
    the truncated factors.  The stabilised features are at most 1 and the
    exponent is a log attention weight, so neither side overflows.  fk is
    made whole from blocks of CERT_BLOCK_ROWS rows; each block of
    PRODUCT_BLOCK_ROWS rows of the pass featurises its rows of q_fac once,
    into fq, and makes its attention and a_lowrank in tiles of
    PRODUCT_TILE_ROWS rows.  Every tile is those rows of the whole matrices
    to the rounding of logit_rows and _stabilised_features_rows, which
    compute each row as the whole product does, though BLAS may add its
    terms in another order: bitwise at the benchmark's grids, where the
    tests pin the row blocks to the whole calls.

    a_lowrank = c left @ right.T, c > 0, with left and right fq and fk scaled
    by their sides of the exponent, each shifted by one constant; the row
    scaling must be there, as the rank threshold is not invariant under it.
    A certificate of RANK_CERT_MARGIN * RANK_REL_TOL puts all min(L, R)
    singular values above the threshold: when R < L from a shifted Cholesky
    of each factor's Gram, when R >= L from a QR of a_lowrank.  At R < L
    each _Factor adds its blocks' row sums as they go by, fk's as fk is
    built and fq's at the end of each block of the pass; the two Gram
    certificates run after the pass, when fk and the tiles are freed, and
    remake the first 2R rows of each factor by the same calls.  The
    fallbacks, the SVD of the QR core (both factors remade whole) or of
    a_lowrank, err by a small multiple of sqrt(L R) eps sigma_1 (5e-13
    sigma_1 at L = 4096, R = 1024), so with the margin's 1e-9 sigma_1 of
    room they count min(L, R) too.

    At R < L that is the rank of the unrounded product.  An entry of
    a_lowrank that underflows errs by at most R 2^-1074, as the features
    are at most 1; when a_lowrank's largest entry is at least _CERT_MIN_NORM
    = 2^-1022 / u that is below u times it for R <= 2^52, as small as the
    rounding of the normal entries, so the unrounded product's rank is
    a_lowrank's.  Below it the rounding to multiples of 2^-1074 can lower
    the rank, so the pass keeps copies of a_lowrank's nonzero rows until an
    entry reaches _CERT_MIN_NORM, and if none does, the rank is the SVD
    count of those rows: 0 when a_lowrank underflows to all zero."""
    ell = q_fac.shape[0]
    log_r = math.log(favor_dim)
    omegas = favor_map(q_fac.shape[1], favor_dim, seed)
    log_z = np.empty(ell)

    def keys():
        for s in range(0, ell, CERT_BLOCK_ROWS):
            yield _stabilised_features_rows(k_fac[s:s + CERT_BLOCK_ROWS], omegas)

    def queries():  # after the pass, which writes log_z
        for s in range(0, ell, PRODUCT_BLOCK_ROWS):
            fq, mq = _stabilised_features_rows(q_fac[s:s + PRODUCT_BLOCK_ROWS], omegas)
            yield fq, mq - log_z[s:s + PRODUCT_BLOCK_ROWS] - log_r
            del fq  # not held while the next block is made

    whole = favor_dim >= ell  # the QR certificate reads a_lowrank whole
    left, right = (None, None) if whole else (_Factor(queries), _Factor(keys))
    fk, mk, s = np.empty((ell, favor_dim)), np.empty(ell), 0
    for f, m in keys():  # no zip, whose tuple would hold a block while the next is made
        fk[s:s + len(f)], mk[s:s + len(f)] = f, m
        s += len(f)
        if right is not None:
            right.add(f, m)
        del f, m  # not held while the next block is made
    product = np.empty((ell, ell)) if whole else None
    folded, nnz = (0.0, True, 0.0), 0
    faint = None if whole else []  # a_lowrank's nonzero rows while all are faint
    attention = np.empty((min(ell, PRODUCT_TILE_ROWS), ell))
    lr_rows = product if whole else np.empty_like(attention)
    for start in range(0, ell, PRODUCT_BLOCK_ROWS):
        fq, mq = _stabilised_features_rows(q_fac[start:start + PRODUCT_BLOCK_ROWS], omegas)
        row_log = np.empty_like(mq)
        for t in range(0, len(fq), PRODUCT_TILE_ROWS):
            tile = slice(t, t + PRODUCT_TILE_ROWS)
            rows = slice(start + t, start + t + PRODUCT_TILE_ROWS)
            n = len(mq[tile])
            a_blk, log_z[rows] = row_softmax(as_matrix(logit_rows(rq[rows], rk, cfg,
                                                                  out=attention[:n])))
            spikes = a_blk > tau
            nnz += int(np.count_nonzero(spikes))
            lr_blk = np.matmul(fq[tile], fk.T, out=lr_rows[rows] if whole else lr_rows[:n])
            row_log[tile] = mq[tile] - log_z[rows] - log_r
            for sub in range(0, n, SPLIT_BLOCK_ROWS):
                part = slice(sub, sub + SPLIT_BLOCK_ROWS)
                lr = lr_blk[part]
                scale = np.add.outer(row_log[tile][part], mk)
                lr *= np.exp(scale, out=scale)
                del scale  # not held through the fold
                if faint is not None:
                    top = lr.max(axis=1)  # lr >= 0
                    if top.max() < _CERT_MIN_NORM:
                        faint.append(lr[top > 0.0])
                    else:
                        faint = None
                folded = _error_fields(folded, a_blk[part], lr, spikes[part])
        if left is not None:
            left.add(fq, row_log)
        del fq  # not held while the next block is made
    del fk, attention, lr_rows, a_blk, lr_blk, lr  # not held through the certificates
    if whole:
        certified = _qr_rank_certificate(product) >= RANK_CERT_MARGIN * RANK_REL_TOL
        rank = ell if certified else numerical_rank(product)
    else:
        rank = _factored_rank(favor_dim, left, right)
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
    q_fac, k_fac = _truncated_svd_factors(q_mat, k_mat, grid, cfg, cutoffs)
    return Reconstruction(cutoffs=cutoffs,
                          **_lowrank_branch(rq, rk, cfg, tau, q_fac, k_fac, favor_dim, seed))
