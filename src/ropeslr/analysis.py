"""Measurement toolkit: per-frequency interaction decay, residual stable-rank
scaling, Gram spectra of compensator outputs, and gate maps.

The stable-rank sweep consumes each grid's attention, zeroing the kept
entries in place a block of rows at a time, so it holds one L x L float array
at a time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from . import InvalidInput
from .decomposition import (
    check_energy,
    check_grids,
    row_energy_split,
    synthetic_attention,
)
from .linalg import SPLIT_BLOCK_ROWS, as_matrix, percentile, stable_rank
from .rope3d import AXES, GridShape, RopeConfig, by_axis, frequency_term_matrix, pair_table

# Exhaustive pair enumeration is used up to this token count, sampling above.
EXHAUSTIVE_LIMIT = 64


@dataclass(frozen=True)
class SpectralReport:
    """Per-axis interaction magnitudes M[m-1], each the nearest-rank 99th
    percentile of one frequency term's |entries| over token pairs, and
    suffix tails Tail[m0-1] = sum_{m >= m0} M[m-1]."""

    magnitude: Dict[str, np.ndarray]
    tail: Dict[str, np.ndarray]


def spectral_decay_report(q_mat, k_mat, grid: GridShape, cfg: RopeConfig,
                          sample_pairs: int = 10000, seed: int = 0) -> SpectralReport:
    """Magnitude and cumulative-tail tables for every axis, plot ready.
    Enumerates all pairs when the grid is small enough, samples otherwise;
    pair j's sample stream is seeded seed + j, so results do not depend on
    evaluation order.  sample_pairs must be at least 100 on every grid."""
    if sample_pairs < 100:
        raise InvalidInput(f"need at least 100 sampled pairs, got {sample_pairs}")
    _, axis_idx, ms = pair_table(cfg)
    mags = np.zeros(ms.size)
    for j, (ai, m) in enumerate(zip(axis_idx, ms.tolist())):
        term = frequency_term_matrix(q_mat, k_mat, AXES[ai], m, grid, cfg)
        if grid.size > EXHAUSTIVE_LIMIT:
            idx = np.random.default_rng(seed + j).integers(0, grid.size, size=(sample_pairs, 2))
            term = term[idx[:, 0], idx[:, 1]]
        mags[j] = percentile(np.abs(term), 0.99)
    magnitude = by_axis(cfg, mags)
    return SpectralReport(magnitude=magnitude,
                          tail={axis: np.cumsum(v[::-1])[::-1] for axis, v in magnitude.items()})


def _sweep_row(grid: GridShape, cfg: RopeConfig, energy: float, seed: int) -> dict:
    """One sweep row; its attention is consumed and goes on return.  Each
    block of SPLIT_BLOCK_ROWS rows is split and its kept entries zeroed in
    turn, so no L x L mask is made; the split is per row, so the residual is
    bitwise that of the whole matrix's split."""
    a = synthetic_attention(grid, cfg, seed)
    retained = 0
    for start in range(0, grid.size, SPLIT_BLOCK_ROWS):
        block = a[start:start + SPLIT_BLOCK_ROWS]
        keep = row_energy_split(block, energy)
        retained += int(np.count_nonzero(keep))
        # zero the kept entries in place, branch-free: a * 1 = a, a * 0 = 0 on a >= 0
        np.multiply(block, np.logical_not(keep, out=keep), out=block)
    return {"L": grid.size, "retained_fraction": retained / grid.size ** 2,
            "residual_stable_rank": stable_rank(a) if np.any(a) else 0.0}


def residual_stable_rank_sweep(grids: Sequence[GridShape], cfg: RopeConfig,
                               energy: float = 0.9, seed: int = 0) -> List[dict]:
    """Stable rank of the low-energy residual of synthetic rotary attention
    across grid sizes; row i is seeded seed + i."""
    check_grids(grids)
    check_energy(energy)
    return [_sweep_row(grid, cfg, energy, seed + i) for i, grid in enumerate(grids)]


@dataclass(frozen=True)
class GramSpectrum:
    sigma: np.ndarray
    ratio: np.ndarray  # sigma_i / sigma_1
    energy_fraction: np.ndarray  # sigma_i^2 / sum sigma^2
    modes: np.ndarray  # (k, T, H, W) leading left singular vectors on the grid


def gram_spectral(o_lr, grid: GridShape, n_modes: int = 4) -> GramSpectrum:
    """SVD of a sequence-level compensator output with the leading spatial
    modes reshaped back onto the grid."""
    o = as_matrix(o_lr)
    if o.shape[0] != grid.size:
        raise ValueError(f"expected {grid.size} rows, got {o.shape[0]}")
    if not np.any(o):
        raise ValueError("the zero matrix has no spectrum to analyze")
    u, sigma, _ = np.linalg.svd(o, full_matrices=False)
    k = min(n_modes, sigma.size)
    modes = u[:, :k].T.reshape(k, grid.t, grid.h, grid.w)
    return GramSpectrum(sigma=sigma, ratio=sigma / sigma[0],
                        energy_fraction=sigma ** 2 / np.sum(sigma ** 2), modes=modes)


@dataclass(frozen=True)
class GateMap:
    values: np.ndarray  # (T, H, W)
    frame_means: np.ndarray  # (T,)
    mean: float
    minimum: float
    maximum: float


def gate_map(g, grid: GridShape) -> GateMap:
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (grid.size,):
        raise ValueError(f"expected a gate vector of length {grid.size}, got {g.shape}")
    values = g.reshape(grid.t, grid.h, grid.w)
    return GateMap(values=values, frame_means=values.mean(axis=(1, 2)),
                   mean=float(g.mean()), minimum=float(g.min()), maximum=float(g.max()))
