import math
import tracemalloc
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from ropeslr import linalg
from ropeslr.linalg import numerical_rank, percentile, stable_rank


def test_stable_rank_identity():
    assert stable_rank(np.eye(7)) == pytest.approx(7.0, rel=1e-12)


def test_stable_rank_rank_one():
    a = np.outer([1.0, -2.0], [0.5, 3.0, 1.0])
    assert stable_rank(a) == pytest.approx(1.0, rel=1e-10)


def test_stable_rank_diag_by_hand():
    assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(1.25, rel=1e-12)


@pytest.mark.filterwarnings("error")  # no overflow, underflow or 0/0 on the way
def test_stable_rank_scale_invariant():
    rng = np.random.default_rng(5)
    signed = rng.standard_normal((6, 6))
    by_hand = np.array([[2.0, 1.0], [0.5, 3.0]])
    # the SVD path and (c > 0) the certified path, with the squares of the
    # second underflowing (1e-160), overflowing (1e160) or vanishing (1e-170)
    # unscaled
    for a in (signed, by_hand):
        base = stable_rank(a)
        for c in [s * 2.0 ** k for k in range(-1000, 1001) for s in (1.0, -1.0)] + [
                1e160, 1e-160, 1e-170]:
            assert abs(stable_rank(c * a) - base) <= 1e-12 * base, c


def test_stable_rank_zero_matrix_rejected():
    with pytest.raises(ValueError):
        stable_rank(np.zeros((3, 3)))


def test_stable_rank_range():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 9))
    sr = stable_rank(a)
    assert 1.0 <= sr <= 5.0


LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "sliced": lambda a: a[::2, 1:],
    "reversed": lambda a: a[::-1, ::-3],
}


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(
    # total sizes near 0 to 3 leaves, most of them not a multiple of 8
    shape=st.tuples(st.sampled_from([1, 3, 8, 64, 255]), st.integers(0, 3),
                    st.integers(-300, 300)).map(
                        lambda t: (t[0], max(1, (t[1] * linalg.ENERGY_LEAF + t[2]) // t[0]))),
    layout=st.sampled_from(sorted(LAYOUTS)), seed=st.integers(0, 2 ** 32 - 1))
@hypothesis.example(shape=(1, linalg.ENERGY_LEAF), layout="C", seed=0)
@hypothesis.example(shape=(1, linalg.ENERGY_LEAF + 1), layout="C", seed=0)
@hypothesis.example(shape=(3, 2 * linalg.ENERGY_LEAF + 7), layout="F", seed=1)
def test_frobenius_energy_is_numpys_sum_of_squares_bitwise(shape, layout, seed):
    # mixed signs and magnitudes, so that a different order of the sums
    # changes the bits; a numpy whose sum changes its order fails here
    rng = np.random.default_rng(seed)
    a = LAYOUTS[layout](rng.standard_normal(shape) * np.exp2(rng.integers(-20, 21, shape)))
    assert linalg._frobenius_energy(a) == float(np.sum(a * a))


def test_stable_rank_makes_no_matrix_sized_temporary():
    n = 1000
    a = np.random.default_rng(7).random((n, n))
    stable_rank(np.eye(2))  # first-call imports are not stable_rank's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        stable_rank(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * n * n * 8, peak


def svd_stable_rank(a):
    """The SVD path of stable_rank, written out."""
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    return float(np.sum(a * a)) / (s1 * s1)


ZERO_ROWS_AND_COLUMNS = np.array([[0.0, 0.0, 0.0, 0.0],
                                  [1.0, 0.0, 2.0, 0.5],
                                  [3.0, 0.0, 1.0, 0.0],
                                  [0.0, 0.0, 0.0, 0.0],
                                  [0.2, 0.0, 0.0, 4.0]])
# nonnegative matrices and their sigma_1^2
CERTIFIED = {
    "identity": (np.eye(7), 1.0),
    "diag": (np.diag([2.0, 1.0]), 4.0),
    # zero rows and columns too; stable rank 1
    "rank_one": (np.outer([1.0, 0.0, 2.0, 2.0], [3.0, 0.0, 4.0]), 225.0),
    # B = a.T a is reducible; the upper block's sigma_1^2 is (3 + sqrt 5) / 2
    "block_diagonal": (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                       (3.0 + math.sqrt(5.0)) / 2.0),
    "zero_rows_and_columns": (ZERO_ROWS_AND_COLUMNS,
                              float(np.linalg.svd(ZERO_ROWS_AND_COLUMNS, compute_uv=False)[0]) ** 2),
    "one_by_one": (np.array([[3.0]]), 9.0),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_closes_on_nonnegative_matrices_without_the_svd(name, monkeypatch):
    def refuse(a):
        raise AssertionError("the certificate should have closed")

    monkeypatch.setattr(linalg, "singular_values", refuse)
    a, s1_sq = CERTIFIED[name]
    # the Rayleigh quotient: inside the certified bracket, and a lower bound
    # on sigma_1^2 but for rounding
    assert s1_sq * (1.0 - 1e-11) <= linalg._certified_spectral_energy(a) <= s1_sq * (1.0 + 1e-14)
    assert stable_rank(a) == pytest.approx(float(np.sum(a * a)) / s1_sq, rel=1e-11)


@pytest.mark.parametrize("a", [
    np.diag([1.0, 1.0 - 1e-5]),  # ratio 1 - 2e-5 per step: no certificate within the cap
    np.diag([1.0, 1e-200]),  # y underflows to 0 on the first step
    np.array([[2.0, -1e-300], [0.0, 1.0]]),  # one negative entry
    np.outer([1.0, -2.0], [0.5, 3.0, 1.0]),
], ids=["slow", "underflow", "negative_entry", "signed_rank_one"])
@pytest.mark.filterwarnings("error")  # fail closed before any 0/0 or x/0
def test_fallback_is_the_svd_path_bitwise(a):
    assert linalg._certified_spectral_energy(a) is None
    assert stable_rank(a) == svd_stable_rank(a)


def test_the_bracket_is_widened_by_the_rounding_of_its_sums(monkeypatch):
    # both bounds of the identity are exactly 1 at the first step; the
    # widening 2 (rows + cols) eps on each side keeps a narrower bracket open
    a = np.eye(3)
    gamma = 2.0 * 6 * np.finfo(np.float64).eps
    monkeypatch.setattr(linalg, "SPECTRAL_CERT_TOL", gamma)
    assert linalg._certified_spectral_energy(a) is None
    monkeypatch.setattr(linalg, "SPECTRAL_CERT_TOL", 3.0 * gamma)
    assert linalg._certified_spectral_energy(a) == 1.0


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(rows=st.integers(1, 30), cols=st.integers(1, 30),
                  density=st.sampled_from([0.1, 0.5, 1.0]), exp2=st.integers(-200, 200),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_certified_energy_is_within_its_tolerance_of_the_svd(rows, cols, density, exp2,
                                                              seed):
    # nonnegative, with zero rows and columns at low density, at scale 2^exp2
    rng = np.random.default_rng(seed)
    a = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    a = np.ldexp(a * np.exp2(rng.integers(-8, 9, (rows, cols))), exp2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy = linalg._certified_spectral_energy(a)
    if energy is not None:
        s1_sq = float(np.linalg.svd(a, compute_uv=False)[0]) ** 2
        # the reference's own rounding: sigma_1 within a small multiple of
        # (rows + cols) eps relative
        room = linalg.SPECTRAL_CERT_TOL + 8.0 * (rows + cols) * np.finfo(np.float64).eps
        assert abs(energy - s1_sq) <= room * s1_sq


def test_percentile_singleton():
    assert percentile([5.0], 0.99) == 5.0


def test_percentile_nearest_rank_1_to_100():
    assert percentile(list(range(1, 101)), 0.99) == 99


def test_percentile_max():
    assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_fraction_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_numerical_rank_thresholding():
    a = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(a) == 2
    assert numerical_rank(np.zeros((2, 2))) == 0
