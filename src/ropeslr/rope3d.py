"""3D rotary position machinery.

The head dimension is split into contiguous [t | x | y] blocks; inside each
block coordinates are rotated pairwise at columns (2j, 2j+1) with the usual
exponentially decaying frequency schedule.  `pair_table` is the one home of
that pair layout: every other site, here and in the analysis and mechanism
modules, reads pair j's frequency, axis and index m from it, and `by_axis`
splits a per-pair array back into its axis blocks.

Pre-softmax logits then admit an exact trigonometric expansion over the
per-axis relative offsets, where every (axis, frequency) term is a rank <= 2
matrix.  Truncating high frequencies yields a low-rank logit approximation
whose error is controlled by measured per-frequency coefficient tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import InvalidInput
from .linalg import SPLIT_BLOCK_ROWS, as_matrix

AXES = ("t", "x", "y")

# Rows of largest norm that give the pruning's lower bound, and the relative
# slack of its tests, far above the few ulps the norms and bound are off by.
MAGNITUDE_PROBES = 8
MAGNITUDE_SLACK = 1e-12


@dataclass(frozen=True)
class RopeConfig:
    """Per-axis head-dimension split. Zero-width axes are allowed so a 1D
    degenerate configuration (everything on the t axis) works out of the box."""

    d_t: int
    d_x: int
    d_y: int
    base: float = 10000.0

    def __post_init__(self):
        for name, d in (("d_t", self.d_t), ("d_x", self.d_x), ("d_y", self.d_y)):
            if d < 0 or d % 2 != 0:
                raise InvalidInput(f"{name} must be an even non-negative count, got {d}")
        if self.d_h < 2:
            raise InvalidInput("total head dimension must be at least 2")
        if not (np.isfinite(self.base) and self.base > 0.0):
            raise InvalidInput(f"frequency base must be a positive real, got {self.base}")

    @property
    def d_h(self) -> int:
        return self.d_t + self.d_x + self.d_y

    def axis_dim(self, axis: str) -> int:
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}, expected one of {AXES}")
        return {"t": self.d_t, "x": self.d_x, "y": self.d_y}[axis]

    def n_freqs(self, axis: str) -> int:
        return self.axis_dim(axis) // 2


@dataclass(frozen=True)
class GridShape:
    """Spatiotemporal grid of T frames of H x W tokens, flattened row-major:
    p = t*(H*W) + x*W + y."""

    t: int
    h: int
    w: int

    def __post_init__(self):
        if min(self.t, self.h, self.w) < 1:
            raise InvalidInput(f"grid dimensions must be positive, got {(self.t, self.h, self.w)}")

    @property
    def size(self) -> int:
        return self.t * self.h * self.w

    def coords(self) -> np.ndarray:
        """(L, 3) integer array of (t, x, y) for every flat index."""
        p = np.arange(self.size)
        frame = self.h * self.w
        t = p // frame
        rem = p % frame
        return np.stack([t, rem // self.w, rem % self.w], axis=1)

    def coord(self, p: int) -> Tuple[int, int, int]:
        if not (0 <= p < self.size):
            raise ValueError(f"flat index {p} out of range for L={self.size}")
        frame = self.h * self.w
        return (p // frame, (p % frame) // self.w, p % self.w)


def freq(cfg: RopeConfig, axis: str, m: int) -> float:
    """Rotation frequency of the m-th pair on an axis, strictly decreasing in m."""
    d_k = cfg.axis_dim(axis)
    if not (1 <= m <= d_k // 2):
        raise ValueError(f"frequency index m={m} out of range [1, {d_k // 2}] for axis {axis!r}")
    return float(cfg.base ** (-2.0 * (m - 1) / d_k))


def pair_table(cfg: RopeConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thetas, axis_idx, m) of every rotation pair, in (axis, m) order: its
    frequency, coordinate-axis index into AXES and frequency index on that
    axis. Pair j occupies vector columns (2j, 2j+1)."""
    rows = [(freq(cfg, axis, m), ai, m)
            for ai, axis in enumerate(AXES) for m in range(1, cfg.n_freqs(axis) + 1)]
    thetas, axis_idx, ms = zip(*rows)
    return np.asarray(thetas), np.asarray(axis_idx, dtype=np.int64), np.asarray(ms, dtype=np.int64)


def by_axis(cfg: RopeConfig, per_pair) -> Dict[str, np.ndarray]:
    """A per-pair array split into its {"t", "x", "y"} blocks."""
    ends = np.cumsum([cfg.n_freqs(axis) for axis in AXES])
    return dict(zip(AXES, np.split(np.asarray(per_pair), ends[:-1])))


def pair_angles(grid: GridShape, cfg: RopeConfig) -> np.ndarray:
    """(L, d_h / 2) rotation angle of every pair at every grid position."""
    thetas, axis_idx, _ = pair_table(cfg)
    return grid.coords()[:, axis_idx] * thetas[None, :]


def _apply_pair_rotation(m: np.ndarray, ang: np.ndarray) -> np.ndarray:
    c = np.cos(ang)
    s = np.sin(ang)
    even = m[..., 0::2]
    odd = m[..., 1::2]
    out = np.empty_like(m)
    out[..., 0::2] = c * even - s * odd
    out[..., 1::2] = s * even + c * odd
    return out


def rotate_rows(m, grid: GridShape, cfg: RopeConfig) -> np.ndarray:
    """Rotate row p of an (L, d_h) matrix by the composite rotation at position p."""
    m = as_matrix(m)
    if m.shape != (grid.size, cfg.d_h):
        raise ValueError(f"expected shape {(grid.size, cfg.d_h)}, got {m.shape}")
    return _apply_pair_rotation(m, pair_angles(grid, cfg))


def rotate(v, p: int, grid: GridShape, cfg: RopeConfig) -> np.ndarray:
    """Rotate a single d_h vector by the composite rotation at flat position p.
    Orthogonal, so the Euclidean norm is preserved."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (cfg.d_h,):
        raise ValueError(f"expected a vector of length {cfg.d_h}, got shape {v.shape}")
    if not (0 <= p < grid.size):
        raise ValueError(f"flat position {p} out of range for L={grid.size}")
    thetas, axis_idx, _ = pair_table(cfg)
    coord = np.asarray(grid.coord(p))
    ang = coord[axis_idx] * thetas
    return _apply_pair_rotation(v[None, :], ang[None, :])[0]


def logit_direct(q, k, p: int, q_pos: int, grid: GridShape, cfg: RopeConfig) -> float:
    """Pre-softmax logit <R(p) q, R(q_pos) k> / sqrt(d_h)."""
    rq = rotate(q, p, grid, cfg)
    rk = rotate(k, q_pos, grid, cfg)
    return float(rq @ rk) / math.sqrt(cfg.d_h)


def logit_matrix(q_mat, k_mat, grid: GridShape, cfg: RopeConfig) -> np.ndarray:
    """The full L x L pre-softmax logit matrix, the only L x L array made."""
    return logit_rows(rotate_rows(q_mat, grid, cfg), rotate_rows(k_mat, grid, cfg), cfg)


def logit_rows(rq, rk, cfg: RopeConfig, out=None) -> np.ndarray:
    """rq @ rk.T / sqrt(d_h) for rotated query rows rq and keys rk, into out
    when given.  Each row is the same dot products as that row of the whole
    logit_matrix, but BLAS may add their terms in another order for a block
    of rows than for the whole, so a row can differ in its last bits: at L =
    693, 700, 726 and 729 (rope 4,4,4) blocks of 64, 128 and 512 rows do.
    At the benchmark's grids, L = 64, 125, 216, 512, 1000, 1728 and 4096,
    such blocks are bitwise the whole matrix's rows, and the tests pin it."""
    s = np.matmul(rq, rk.T, out=out)
    s /= math.sqrt(cfg.d_h)
    return s


@dataclass(frozen=True)
class FourierCoeffs:
    """Cosine/sine coefficients of one (q, k) pair per axis and frequency.

    For the 2-vectors u = q pair, v = k pair: a = u1 v1 + u2 v2 and
    b = u1 v2 - u2 v1, each bounded by ||u|| ||v||.
    """

    a: Dict[str, np.ndarray]
    b: Dict[str, np.ndarray]


def fourier_coeffs(q, k, cfg: RopeConfig) -> FourierCoeffs:
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != (cfg.d_h,) or k.shape != (cfg.d_h,):
        raise ValueError(f"expected two vectors of length {cfg.d_h}, got {q.shape} and {k.shape}")
    u1, u2, v1, v2 = q[0::2], q[1::2], k[0::2], k[1::2]
    return FourierCoeffs(a=by_axis(cfg, u1 * v1 + u2 * v2), b=by_axis(cfg, u1 * v2 - u2 * v1))


def logit_fourier(coeffs: FourierCoeffs, delta: Sequence[float], cfg: RopeConfig) -> float:
    """Evaluate the trigonometric expansion of the logit at relative offset
    delta = (dt, dx, dy); equals logit_direct for the same token pair."""
    if len(delta) != 3:
        raise ValueError("delta must be a (dt, dx, dy) triple")
    thetas = by_axis(cfg, pair_table(cfg)[0])
    total = 0.0
    for axis, d in zip(AXES, delta):
        n = cfg.n_freqs(axis)
        if coeffs.a[axis].shape != (n,) or coeffs.b[axis].shape != (n,):
            raise ValueError(f"coefficients for axis {axis!r} must have length {n}")
        ang = thetas[axis] * d
        total += float(np.sum(coeffs.a[axis] * np.cos(ang) + coeffs.b[axis] * np.sin(ang)))
    return total / math.sqrt(cfg.d_h)


def frequency_term_matrix(q_mat, k_mat, axis: str, m: int, grid: GridShape,
                          cfg: RopeConfig) -> np.ndarray:
    """L x L interaction matrix of one (axis, frequency) rotation pair,
    unscaled. It factors through rotated 2-vectors, hence rank <= 2."""
    q_mat = as_matrix(q_mat)
    k_mat = as_matrix(k_mat)
    if q_mat.shape != (grid.size, cfg.d_h) or k_mat.shape != (grid.size, cfg.d_h):
        raise ValueError("q/k matrices must be (L, d_h) and conform to the grid")
    freq(cfg, axis, m)  # validates axis and m
    thetas, axis_idx, ms = pair_table(cfg)
    j = np.flatnonzero((axis_idx == AXES.index(axis)) & (ms == m))[0]
    ang = grid.coords()[:, axis_idx[j], None] * thetas[j]
    cols = slice(2 * j, 2 * j + 2)
    return _apply_pair_rotation(q_mat[:, cols], ang) @ _apply_pair_rotation(k_mat[:, cols], ang).T


def _pair_magnitude(qe, qo, ke, ko) -> float:
    """max over query rows p and key rows j of |a| + |b|, with
    a = qe_p ke_j + qo_p ko_j and b = qe_p ko_j - qo_p ke_j, in blocks of
    SPLIT_BLOCK_ROWS rows, which change no product and not the maximum."""
    best = 0.0
    for start in range(0, qe.shape[0], SPLIT_BLOCK_ROWS):
        e = qe[start:start + SPLIT_BLOCK_ROWS, None]
        o = qo[start:start + SPLIT_BLOCK_ROWS, None]
        a = e * ke
        a += o * ko
        b = e * ko
        b -= o * ke
        a = np.abs(a, out=a)
        a += np.abs(b, out=b)
        best = max(best, float(a.max()))
    return best


def _prune_pairs(qe, qo, ke, ko):
    """(qe, qo, ke, ko) cut to the rows that can hold the largest |a| + |b|:
    those whose bound sqrt(2) ||u|| max ||w|| (keys: max ||u|| ||w||) reaches
    the largest value of the MAGNITUDE_PROBES largest-norm rows on either
    side.  Nothing is cut where the bound's rounding is not relative."""
    nq = np.maximum(np.hypot(qe, qo), np.finfo(np.float64).tiny)
    nk = np.maximum(np.hypot(ke, ko), np.finfo(np.float64).tiny)
    top_q, top_k = np.argsort(nq)[-MAGNITUDE_PROBES:], np.argsort(nk)[-MAGNITUDE_PROBES:]
    # swapping query and key keeps a and negates b, so these are the same values
    lb = max(_pair_magnitude(qe[top_q], qo[top_q], ke, ko),
             _pair_magnitude(ke[top_k], ko[top_k], qe, qo))
    cap = math.sqrt(2.0) * (1.0 + MAGNITUDE_SLACK)
    if not (2.0 ** -1000 <= lb and cap * nq.max() * nk.max() <= 2.0 ** 1000):
        return qe, qo, ke, ko
    rows, cols = cap * nq * nk.max() >= lb, cap * nq.max() * nk >= lb
    return qe[rows], qo[rows], ke[cols], ko[cols]


def frequency_magnitudes(q_mat, k_mat, cfg: RopeConfig) -> Dict[str, np.ndarray]:
    """Measured per-(axis, frequency) coefficient bound max_{p,q} (|a| + |b|),
    on the unscaled logit scale. Position independent.

    With u, w the query and key 2-vectors of a rotation pair, |a| + |b| <=
    sqrt(2) ||u|| ||w||, so rows whose bound is below a value already found
    are skipped.  Every value comes from the same elementwise expression and
    the pair holding the float maximum always survives, so the result is
    bitwise the maximum over all L^2 pairs.
    """
    q_mat = as_matrix(q_mat)
    k_mat = as_matrix(k_mat)
    if q_mat.shape[1] != cfg.d_h or k_mat.shape[1] != cfg.d_h:
        raise ValueError(f"q/k matrices must have {cfg.d_h} columns")
    qe, qo, ke, ko = q_mat[:, 0::2], q_mat[:, 1::2], k_mat[:, 0::2], k_mat[:, 1::2]
    return by_axis(cfg, [_pair_magnitude(*_prune_pairs(qe[:, j], qo[:, j], ke[:, j], ko[:, j]))
                         for j in range(cfg.d_h // 2)])


def _validate_cutoffs(cfg: RopeConfig, cutoffs: Sequence[int]) -> Tuple[int, int, int]:
    if len(cutoffs) != 3:
        raise ValueError("cutoffs must be an (M_t, M_x, M_y) triple")
    for axis, m_k in zip(AXES, cutoffs):
        if not (0 <= m_k <= cfg.n_freqs(axis)):
            raise ValueError(
                f"cutoff {m_k} out of range [0, {cfg.n_freqs(axis)}] for axis {axis!r}")
    return tuple(int(m) for m in cutoffs)  # type: ignore[return-value]


def selected_pair_columns(cfg: RopeConfig, cutoffs: Sequence[int]) -> np.ndarray:
    """Vector column indices covered by frequencies m <= M_k on each axis."""
    cutoffs = np.asarray(_validate_cutoffs(cfg, cutoffs))
    _, axis_idx, m = pair_table(cfg)
    return np.flatnonzero(np.repeat(m <= cutoffs[axis_idx], 2))


def choose_truncation(q_mat, k_mat, cfg: RopeConfig, delta: float) -> Tuple[int, int, int]:
    """Smallest per-axis cutoffs whose measured tail bounds are each at most
    delta/3, so the truncated logit error is at most delta by construction."""
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be a positive real, got {delta}")
    mags = frequency_magnitudes(q_mat, k_mat, cfg)
    scale = math.sqrt(cfg.d_h)
    budget = delta * scale / 3.0
    cutoffs = []
    for axis in AXES:
        mag = mags[axis]
        # suffix[M] = sum of magnitudes for m > M, so suffix[n_freqs] = 0 and the
        # search below always terminates.
        suffix = np.concatenate([np.cumsum(mag[::-1])[::-1], [0.0]])
        cutoffs.append(int(np.argmax(suffix <= budget)))
    return tuple(cutoffs)  # type: ignore[return-value]
