"""Dense double-precision linear algebra helpers used by every other module."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical rank everywhere in this package: singular values above 1e-9 * sigma_1.
RANK_REL_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = u @ diag(sigma) @ v.T with sigma sorted descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a) -> SvdResult:
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, sigma=s, v=vt.T)


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def spectral_norm(a) -> float:
    return float(singular_values(a)[0])


def numerical_rank(a, rel_tol: float = RANK_REL_TOL) -> int:
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def stable_rank(a) -> float:
    """Frobenius energy over spectral energy; lies in [1, min(rows, cols)]."""
    a = as_matrix(a)
    fro2 = float(np.sum(a * a))
    if fro2 == 0.0:
        raise ValueError("stable rank of the zero matrix is undefined")
    s1 = spectral_norm(a)
    return fro2 / (s1 * s1)


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
