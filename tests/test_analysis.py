import numpy as np
import pytest

from ropeslr import InvalidInput
from ropeslr.analysis import (
    EXHAUSTIVE_LIMIT,
    residual_stable_rank,
    residual_stable_rank_sweep,
    spectral_decay_report,
)
from ropeslr.decomposition import (
    AttentionMatrix,
    row_energy_split,
    synthetic_attention,
    synthetic_qk,
)
from ropeslr.linalg import _certified_spectral_energy, percentile, stable_rank
from ropeslr.rope3d import AXES, GridShape, RopeConfig, frequency_term_matrix

CFG = RopeConfig(4, 4, 4)


def suffix_sums(values):
    # right-to-left sequential sums, the order a tail accumulates in
    return [sum(reversed(values[i:].tolist())) for i in range(values.size)]


@pytest.mark.parametrize("grid", [GridShape(2, 3, 4), GridShape(3, 5, 5)])
def test_spectral_tails_are_the_suffix_sums_of_the_magnitudes(grid):
    q, k = synthetic_qk(grid, CFG, 1)
    report = spectral_decay_report(q, k, grid, CFG, sample_pairs=200, seed=3)
    for axis in AXES:
        mags = report.magnitude[axis]
        assert mags.shape == (CFG.n_freqs(axis),)
        assert report.tail[axis].tolist() == suffix_sums(mags)


def test_spectral_magnitudes_enumerate_every_pair_on_small_grids():
    grid = GridShape(2, 2, 4)
    assert grid.size <= EXHAUSTIVE_LIMIT
    q, k = synthetic_qk(grid, CFG, 2)
    report = spectral_decay_report(q, k, grid, CFG)
    for axis in AXES:
        expect = [percentile(np.abs(frequency_term_matrix(q, k, axis, m, grid, CFG)), 0.99)
                  for m in range(1, CFG.n_freqs(axis) + 1)]
        assert report.magnitude[axis].tolist() == expect


def test_residual_stable_rank_is_the_stable_rank_of_the_unkept_entries():
    attn = synthetic_attention(GridShape(3, 3, 3), CFG, 4)
    for energy in (0.5, 0.9):
        split = row_energy_split(attn, energy)
        expect = stable_rank(np.where(split.keep_mask, 0.0, attn.a))
        assert residual_stable_rank(attn, energy) == expect


def test_all_zero_residual_reports_zero():
    attn = AttentionMatrix(a=np.eye(4), log_z=np.zeros(4))
    split = row_energy_split(attn, 0.9)
    assert not np.any(np.where(split.keep_mask, 0.0, attn.a))
    assert residual_stable_rank(attn, 0.9) == 0.0


def test_stable_rank_sweep_rows_match_the_single_point():
    grids = [GridShape(2, 2, 2), GridShape(3, 3, 3)]
    rows = residual_stable_rank_sweep(grids, CFG, energy=0.9, seed=5)
    for i, (grid, row) in enumerate(zip(grids, rows)):
        attn = synthetic_attention(grid, CFG, 5 + i)
        split = row_energy_split(attn, 0.9)
        assert row["L"] == grid.size
        assert row["retained_fraction"] == split.retained_count / grid.size ** 2
        assert row["residual_stable_rank"] == residual_stable_rank(attn, 0.9)


@pytest.mark.parametrize("n", range(2, 11))
def test_certified_spectral_energy_matches_the_svd_on_residuals(n):
    for seed in range(3):
        attn = synthetic_attention(GridShape(n, n, n), CFG, seed)
        residual = np.where(row_energy_split(attn, 0.9).keep_mask, 0.0, attn.a)
        certified = _certified_spectral_energy(residual)
        assert certified is not None
        s1_sq = np.linalg.svd(residual, compute_uv=False)[0] ** 2
        assert abs(certified - s1_sq) <= 1e-11 * s1_sq


@pytest.mark.parametrize("grid", [GridShape(2, 2, 2), GridShape(3, 5, 5)])
def test_spectral_report_rejects_too_few_pairs_on_every_grid(grid):
    # the exhaustive path (L <= EXHAUSTIVE_LIMIT) samples nothing, and still checks
    q, k = synthetic_qk(grid, CFG, 0)
    with pytest.raises(InvalidInput, match="at least 100"):
        spectral_decay_report(q, k, grid, CFG, sample_pairs=99)
    report = spectral_decay_report(q, k, grid, CFG, sample_pairs=100)
    assert all(np.all(v >= 0.0) for v in report.magnitude.values())
