"""Softmax attention and its energy-threshold split into spikes and background.

Entries strictly above the threshold tau form the spike set; everything else
(ties included) is background.  Row-stochasticity then pins the per-row spike
count at floor(1/tau) and the background sup-norm at tau, deterministically.

A split is described by its boolean mask: the sparse part is the attention on
the mask and the background the attention off it, so neither is stored as a
dense copy.

The softmax is written over the logits it is given, SPLIT_BLOCK_ROWS rows at
a time, so an attention matrix costs one L x L array, the logits' own.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from . import InvalidInput
from .linalg import SPLIT_BLOCK_ROWS, as_matrix
from .rope3d import GridShape, RopeConfig, logit_matrix, logit_rows, rotate_rows

# Largest token count for which dense L x L matrices are considered tractable.
DESK_CAP = 4096


def row_softmax(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Softmax of each row of a 2-D float64 array and the rows' log partition
    values log z, with per-row max subtraction for overflow safety.  log z,
    not z, because z overflows for logit rows beyond ~700, while the softmax
    stays exact.

    It consumes its input: the softmax is written over s, which is returned.
    Each block of SPLIT_BLOCK_ROWS rows takes its max, subtraction, exp, sum
    and division while it is in cache; every step is per row, so the result
    is bitwise that of the same steps on the whole array.  The one row
    softmax of the package; it does no validation."""
    log_z = np.empty(s.shape[0])
    for start in range(0, s.shape[0], SPLIT_BLOCK_ROWS):
        blk = s[start:start + SPLIT_BLOCK_ROWS]
        row_max = blk.max(axis=1, keepdims=True)
        blk -= row_max
        np.exp(blk, out=blk)
        denom = blk.sum(axis=1, keepdims=True)
        blk /= denom
        log_z[start:start + SPLIT_BLOCK_ROWS] = row_max[:, 0] + np.log(denom[:, 0])
    return s, log_z


def softmax_attention(s) -> Tuple[np.ndarray, np.ndarray]:
    """`row_softmax` of a square, finite logit matrix: (a, log z).  A float64
    array is consumed: the attention is written over it."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square logit matrix, got {s.shape}")
    return row_softmax(s)


def energy_split(a: np.ndarray, tau: float) -> np.ndarray:
    """The spike mask of attention a at threshold tau: a > tau, so ties at
    exactly tau go to the background."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"threshold tau must lie in (0, 1), got {tau}")
    return a > tau


def background_inf_norm(a: np.ndarray, spike_mask: np.ndarray) -> float:
    """Largest background entry; attention is non-negative, so this is the
    background's sup-norm, and 0 when every entry is a spike.  The max is
    folded over blocks of SPLIT_BLOCK_ROWS rows, so the background mask is
    never a second L x L array; a max does not depend on the order it is
    taken in, so the result is bitwise that of one whole-matrix max."""
    best = 0.0
    for start in range(0, a.shape[0], SPLIT_BLOCK_ROWS):
        blk = slice(start, start + SPLIT_BLOCK_ROWS)
        best = np.maximum(best, np.max(a[blk], where=~spike_mask[blk], initial=0.0))
    return float(best)


# Absolute slack used when comparing accumulated probability mass against a
# target fraction, so fp dust cannot force an extra retained entry.
_MASS_SLACK = 1e-12


def count_for_mass(sorted_desc: np.ndarray, target: float) -> np.ndarray:
    """Smallest count of leading entries along the last axis whose cumulative
    sum reaches target; the full length where the target is never reached."""
    reached = np.cumsum(sorted_desc, axis=-1) >= target - _MASS_SLACK
    return np.where(reached.any(axis=-1), reached.argmax(axis=-1) + 1,
                    sorted_desc.shape[-1])


def check_energy(energy: float) -> None:
    if not (0.0 < energy < 1.0):
        raise InvalidInput(f"energy fraction must lie in (0, 1), got {energy}")


def row_energy_split(a: np.ndarray, energy: float) -> np.ndarray:
    """Per-row cumulative-energy split: the mask of the fewest largest
    entries of each row whose mass reaches the energy fraction; the entries
    off the mask are the residual."""
    check_energy(energy)
    # Each row's values in descending order.  Tied values are equal, so
    # their order cannot change the cumulative sums that count_for_mass
    # takes, and a plain value sort gives the same counts as an argsort.
    desc = np.sort(-a, axis=1)
    desc = np.negative(desc, out=desc)
    n_keep = count_for_mass(desc, energy)
    cut = desc[np.arange(a.shape[0]), n_keep - 1][:, None]
    # keep everything above the smallest kept value, then the entries tied
    # with it from the lowest column up, as a stable sort would
    tied = a == cut
    room = n_keep - np.count_nonzero(a > cut, axis=1)
    return (a > cut) | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))


def synthetic_qk(grid: GridShape, cfg: RopeConfig, seed: int,
                 row_norm: float | None = None):
    """Seeded Gaussian query/key matrices with rows scaled to a common norm,
    by default sqrt(d_h), the norm a LayerNorm front end would produce."""
    rng = np.random.default_rng(seed)
    target = math.sqrt(cfg.d_h) if row_norm is None else float(row_norm)
    if not (target > 0.0):
        raise ValueError("row norm must be positive")

    def draw():
        m = rng.standard_normal((grid.size, cfg.d_h))
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return m * (target / norms)

    return draw(), draw()


def synthetic_attention(grid: GridShape, cfg: RopeConfig, seed: int) -> np.ndarray:
    if grid.size > DESK_CAP:
        raise ValueError(f"grid has {grid.size} tokens, above the desk cap {DESK_CAP}")
    q, k = synthetic_qk(grid, cfg, seed)
    return softmax_attention(logit_matrix(q, k, grid, cfg))[0]


def check_grids(grids: Sequence[GridShape]) -> None:
    """A sweep's grid list: non-empty, ascending in token count, and within
    the desk cap."""
    if not grids:
        raise InvalidInput("sweep needs at least one grid")
    sizes = [g.size for g in grids]
    if sizes != sorted(sizes):
        raise InvalidInput("grids must be sorted ascending in token count")
    if sizes[-1] > DESK_CAP:
        raise InvalidInput(f"largest grid exceeds the desk cap {DESK_CAP}")


def scaling_sweep_point(grid: GridShape, cfg: RopeConfig, c: float, seed: int) -> dict:
    """One sweep row at threshold tau = c / sqrt(L) on synthetic attention.
    The attention is made, checked finite and split SPLIT_BLOCK_ROWS rows at
    a time in one reused block, and the counts and the background max are
    folded as it goes, so no L x L array is made."""
    ell = grid.size
    tau = c / math.sqrt(ell)
    q, k = synthetic_qk(grid, cfg, seed)
    rq, rk = rotate_rows(q, grid, cfg), rotate_rows(k, grid, cfg)
    block = np.empty((min(ell, SPLIT_BLOCK_ROWS), ell))
    nnz, row_nnz, bg_inf_norm = 0, 0, 0.0
    for start in range(0, ell, SPLIT_BLOCK_ROWS):
        rows = rq[start:start + SPLIT_BLOCK_ROWS]
        a, _ = row_softmax(as_matrix(logit_rows(rows, rk, cfg, out=block[:len(rows)])))
        spikes = energy_split(a, tau)
        counts = np.count_nonzero(spikes, axis=1)
        nnz, row_nnz = nnz + int(counts.sum()), max(row_nnz, int(counts.max()))
        bg_inf_norm = max(bg_inf_norm, background_inf_norm(a, spikes))
    # the deterministic per-row spike bound floor(1/tau); a violation would
    # be a library bug, not a property of the input
    bound = math.floor(1.0 / tau)
    return {
        "L": ell,
        "tau": tau,
        "nnz": nnz,
        "nnz_bound": ell * bound,
        "bg_inf_norm": bg_inf_norm,
        "holds": row_nnz <= bound,
    }


def theorem_scaling_sweep(grids: Sequence[GridShape], cfg: RopeConfig, c: float,
                          seed: int) -> List[dict]:
    """Sweep tau = c/sqrt(L) over grids sorted by L; row i is seeded seed + i
    so points are independent of execution order."""
    check_grids(grids)
    if not (np.isfinite(c) and c > 0.0):
        raise InvalidInput(f"c must be a positive real, got {c}")
    if c >= math.sqrt(grids[0].size):
        raise InvalidInput(f"c={c} makes tau >= 1 at L={grids[0].size}; need c < sqrt(L_min)")
    tau = c / math.sqrt(grids[-1].size)  # the smallest tau of the sweep
    if not (tau > 0.0 and 1.0 / tau < math.inf):
        raise InvalidInput(f"c={c} is so small that 1 / tau is not finite at L={grids[-1].size}")
    return [scaling_sweep_point(g, cfg, c, seed + i) for i, g in enumerate(grids)]
