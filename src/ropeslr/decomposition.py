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
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import InvalidInput
from .linalg import as_matrix
from .rope3d import GridShape, RopeConfig, logit_matrix

# Largest token count for which dense L x L matrices are considered tractable.
DESK_CAP = 4096

# Rows handled together by `row_softmax` and `row_energy_split`, and by the
# back half of `lowrank.reconstruct`; their temporaries are SPLIT_BLOCK_ROWS x
# L whatever the row count, small enough to stay in cache and not to raise the
# peak RSS of a sweep.
SPLIT_BLOCK_ROWS = 64


@dataclass(frozen=True)
class AttentionMatrix:
    """Row-stochastic attention and its rows' log partition values log z.
    z itself would overflow for logit rows beyond ~700, while a stays exact
    because it is computed with max-subtraction."""

    a: np.ndarray
    log_z: np.ndarray


def row_softmax(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Softmax of each row of a 2-D float64 array and the rows' log partition
    values, with per-row max subtraction for overflow safety.

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


def softmax_attention(s) -> AttentionMatrix:
    """`row_softmax` of a square, finite logit matrix.  A float64 array is
    consumed: the attention is written over it."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square logit matrix, got {s.shape}")
    a, log_z = row_softmax(s)
    return AttentionMatrix(a=a, log_z=log_z)


@dataclass(frozen=True)
class Decomposition:
    """Split of an attention matrix at threshold tau: the spikes are the
    entries on spike_mask, the background the entries off it.

    Ties at exactly tau go to the background (spikes use a strict '>')."""

    tau: float
    spike_mask: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.spike_mask.sum())


def energy_split(attn: AttentionMatrix, tau: float) -> Decomposition:
    if not (0.0 < tau < 1.0):
        raise ValueError(f"threshold tau must lie in (0, 1), got {tau}")
    return Decomposition(tau=float(tau), spike_mask=attn.a > tau)


@dataclass(frozen=True)
class SparsityReport:
    max_row_nnz: int
    bound: int
    holds: bool


def verify_sparsity_bound(dec: Decomposition) -> SparsityReport:
    """Check the deterministic per-row spike bound floor(1/tau); a violation
    would be a library bug, not a property of the input."""
    max_row = int(dec.spike_mask.sum(axis=1).max())
    bound = math.floor(1.0 / dec.tau)
    return SparsityReport(max_row_nnz=max_row, bound=bound, holds=max_row <= bound)


def background_inf_norm(attn: AttentionMatrix, dec: Decomposition) -> float:
    """Largest background entry; attention is non-negative, so this is the
    background's sup-norm, and 0 when every entry is a spike."""
    return float(np.max(attn.a, where=~dec.spike_mask, initial=0.0))


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


def row_energy_split(attn: AttentionMatrix, energy: float) -> np.ndarray:
    """Per-row cumulative-energy split: the mask of the fewest largest
    entries of each row whose mass reaches the energy fraction; the entries
    off the mask are the residual."""
    check_energy(energy)
    a = attn.a
    keep = np.empty_like(a, dtype=bool)
    for start in range(0, a.shape[0], SPLIT_BLOCK_ROWS):
        block = a[start:start + SPLIT_BLOCK_ROWS]
        # Each row's values in descending order.  Tied values are equal, so
        # their order cannot change the cumulative sums that count_for_mass
        # takes, and a plain value sort gives the same counts as an argsort.
        desc = np.sort(-block, axis=1)
        desc = np.negative(desc, out=desc)
        n_keep = count_for_mass(desc, energy)
        cut = desc[np.arange(block.shape[0]), n_keep - 1][:, None]
        # keep everything above the smallest kept value, then the entries
        # tied with it from the lowest column up, as a stable sort would
        tied = block == cut
        room = n_keep - np.count_nonzero(block > cut, axis=1)
        keep[start:start + SPLIT_BLOCK_ROWS] = (block > cut) | (
            tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return keep


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


def synthetic_attention(grid: GridShape, cfg: RopeConfig, seed: int) -> AttentionMatrix:
    if grid.size > DESK_CAP:
        raise ValueError(f"grid has {grid.size} tokens, above the desk cap {DESK_CAP}")
    q, k = synthetic_qk(grid, cfg, seed)
    return softmax_attention(logit_matrix(q, k, grid, cfg))


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
    """One sweep row at threshold tau = c / sqrt(L) on synthetic attention."""
    ell = grid.size
    tau = c / math.sqrt(ell)
    attn = synthetic_attention(grid, cfg, seed)
    dec = energy_split(attn, tau)
    report = verify_sparsity_bound(dec)
    return {
        "L": ell,
        "tau": tau,
        "nnz": dec.nnz,
        "nnz_bound": ell * report.bound,
        "bg_inf_norm": background_inf_norm(attn, dec),
        "holds": report.holds,
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
    return [scaling_sweep_point(g, cfg, c, seed + i) for i, g in enumerate(grids)]
