import numpy as np
import pytest

from ropeslr.linalg import numerical_rank, percentile, stable_rank, svd


def test_svd_identity():
    res = svd(np.eye(4))
    np.testing.assert_allclose(res.sigma, np.ones(4), rtol=0, atol=1e-14)


def test_svd_rank_one_outer_product():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    res = svd(np.outer(u, v))
    assert res.sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    assert res.sigma[1] == pytest.approx(0.0, abs=1e-12)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 3))
    res = svd(a)
    recon = res.u @ np.diag(res.sigma) @ res.v.T
    fro = np.linalg.norm(a)
    assert np.linalg.norm(recon - a) <= 1e-9 * max(1.0, fro)
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(3), rtol=0, atol=1e-8)
    assert np.all(np.diff(res.sigma) <= 0) and np.all(res.sigma >= 0)


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    r1, r2 = svd(a), svd(a)
    np.testing.assert_array_equal(r1.u, r2.u)
    np.testing.assert_array_equal(r1.sigma, r2.sigma)


def test_svd_sigma1_matches_power_iteration():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 6))
    v = rng.standard_normal(6)
    for _ in range(500):
        v = a.T @ (a @ v)
        v /= np.linalg.norm(v)
    power_sigma = np.linalg.norm(a @ v)
    assert svd(a).sigma[0] == pytest.approx(power_sigma, abs=1e-8)


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_stable_rank_identity():
    assert stable_rank(np.eye(7)) == pytest.approx(7.0, rel=1e-12)


def test_stable_rank_rank_one():
    a = np.outer([1.0, -2.0], [0.5, 3.0, 1.0])
    assert stable_rank(a) == pytest.approx(1.0, rel=1e-10)


def test_stable_rank_diag_by_hand():
    assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(1.25, rel=1e-12)


def test_stable_rank_scale_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    base = stable_rank(a)
    for c in (2.0, -0.5, 1e6):
        assert abs(stable_rank(c * a) - base) <= 1e-10 * base


def test_stable_rank_zero_matrix_rejected():
    with pytest.raises(ValueError):
        stable_rank(np.zeros((3, 3)))


def test_stable_rank_range():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 9))
    sr = stable_rank(a)
    assert 1.0 <= sr <= 5.0


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
