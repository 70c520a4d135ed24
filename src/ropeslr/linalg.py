"""Dense float64 linear algebra shared by the other modules: matrix checks,
the numerical and stable ranks, and a nearest-rank percentile.

`stable_rank` reads sigma_1^2 of a nonnegative matrix, such as an attention
residual, from a few O(rows cols) power steps on a.T a.  Two bounds bracket
sigma_1^2 at every step: the Rayleigh quotient from below and the
Collatz-Wielandt bound from above, each widened by the rounding of its
nonnegative sums.  The quotient is returned once the bracket is narrower
than SPECTRAL_CERT_TOL relative.  A matrix with a negative entry, a step
whose iterate underflows or overflows, or no certificate within
SPECTRAL_CERT_STEPS steps takes the full SVD instead.

Its Frobenius energy is float(np.sum(a * a)) bit for bit, with no a * a:
numpy's pairwise-sum tree over memory order is followed down to leaves of
ENERGY_LEAF elements, squared one at a time (see stable_rank).
"""

from __future__ import annotations

import math

import numpy as np

# Numerical rank everywhere in this package: singular values above 1e-9 * sigma_1.
RANK_REL_TOL = 1e-9
# Power steps stable_rank's certificate takes at most before it falls back to
# the SVD, and the relative width of the bracket on sigma_1^2 that it accepts.
SPECTRAL_CERT_STEPS = 200
SPECTRAL_CERT_TOL = 1e-11
# Elements stable_rank squares at a time: a leaf of numpy's pairwise sum.
ENERGY_LEAF = 1 << 16
# Rows handled together by the row loops over L x L arrays: the softmax and
# splits of `decomposition`, the back half of `lowrank.reconstruct` and
# `rope3d.frequency_magnitudes`.  Their temporaries are SPLIT_BLOCK_ROWS x L
# whatever the row count, small enough to stay in cache and not to raise the
# peak RSS of a sweep.
SPLIT_BLOCK_ROWS = 64
# The rounding model of the package's certificates: unit roundoff u = _U, and
# gamma_n = _gamma(n) = n u / (1 - n u) bounds n roundings (Higham, 2002, 3.1).
_U = np.finfo(np.float64).eps / 2.0


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    # a NaN or an infinity is the min or the max: no temporary the size of m
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise ValueError("matrix entries must be finite")
    return m


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def numerical_rank(a) -> int:
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def _certified_spectral_energy(a) -> float | None:
    """sigma_1^2 of a nonnegative matrix to SPECTRAL_CERT_TOL relative, or
    None when no certificate closes.

    Power steps y = a.T (a x) run on B = a.T a from x = 1 on the nonzero
    columns and 0 on the others.  B is zero outside those columns and has a
    positive diagonal on them, so x stays positive there without copying the
    columns out.  Each step brackets sigma_1^2 = rho(B) between the Rayleigh
    quotient |a x|^2 / |x|^2 and the Collatz-Wielandt bound max y_i / x_i
    over the nonzero columns.  Every computed sum of nonnegative terms is
    within about 2 (rows + cols) u relative of the exact one, u = _U (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), so
    both bounds are widened by twice that.  A negative or NaN entry, no
    nonzero column, a zero or non-finite value in x or y, or no certificate
    within SPECTRAL_CERT_STEPS steps gives None."""
    live = np.max(a, axis=0) > 0.0
    if not (a.min() >= 0.0 and live.any()):
        return None
    x = live.astype(np.float64)
    gamma = 4.0 * sum(a.shape) * _U
    for _ in range(SPECTRAL_CERT_STEPS):
        ax = a @ x
        y = a.T @ ax
        x_on, y_on = x[live], y[live]
        rayleigh = float(ax @ ax) / float(x @ x)
        if not (x_on.min() > 0.0 and y_on.min() > 0.0 and y_on.max() < np.inf
                and rayleigh < np.inf):
            return None
        upper = float(np.max(y_on / x_on))
        if upper * (1.0 + gamma) <= (1.0 + SPECTRAL_CERT_TOL) * rayleigh * (1.0 - gamma):
            return rayleigh
        x = y / y_on.max()
    return None


def _frobenius_energy(a: np.ndarray, buf: np.ndarray | None = None) -> float:
    """float(np.sum(a * a)) bit for bit, without a * a: numpy sums it over
    a.ravel(order="K") as one pairwise tree, split at n // 2 rounded down to
    a multiple of 8, so this splits there too, down to leaves squared in buf."""
    flat = a.ravel(order="K")
    if buf is None:
        buf = np.empty(min(flat.size, ENERGY_LEAF))
    n = flat.size
    if n <= buf.size:
        return float(np.multiply(flat, flat, out=buf[:n]).sum())
    n2 = n // 2 - n // 2 % 8
    return _frobenius_energy(flat[:n2], buf) + _frobenius_energy(flat[n2:], buf)


def stable_rank(a) -> float:
    """Frobenius energy over spectral energy; lies in [1, min(rows, cols)].

    The Frobenius energy is float(np.sum(a * a)) bit for bit, summed in
    numpy's pairwise leaves with no L x L temporary, for a matrix in any
    layout (a sliced one is copied, as a * a would be) whose largest |entry|
    lies in [2^-256, 2^256].  Outside it, where a square or a power step could
    over- or underflow, the matrix is first scaled by a power of two (exact
    above 2^-1022 of that entry): the only case that copies it.
    sigma_1^2 is the certified power-step value of
    _certified_spectral_energy, O(rows cols) per step, when the matrix is
    nonnegative and the certificate closes; otherwise it is the square of
    the largest singular value from the full SVD."""
    a = as_matrix(a)
    top = max(a.max(), -a.min()) if a.size else 1.0
    if not 2.0 ** -256 <= top <= 2.0 ** 256:
        a = np.ldexp(a, -np.frexp(top)[1])
    fro2 = _frobenius_energy(a)
    if fro2 == 0.0:
        raise ValueError("stable rank of the zero matrix is undefined")
    s1_sq = _certified_spectral_energy(a)
    if s1_sq is None:
        s1 = float(singular_values(a)[0])
        s1_sq = s1 * s1
    return fro2 / s1_sq


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th smallest value, p in (0, 1]."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("percentile of an empty collection")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"percentile fraction must lie in (0, 1], got {p}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("percentile inputs must be finite")
    k = math.ceil(p * vals.size)
    return float(np.sort(vals, kind="stable")[k - 1])
