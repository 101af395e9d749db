"""Power iteration, eigenvector scores, RFF warm start, out-of-sample scoring.

Eigenpairs are verified against numpy's symmetric eigendecomposition; the
feature map is verified against a Monte Carlo estimate of the kernel.
"""

import math

import numpy as np
import pytest

from relanom.dataset import Dataset
from relanom.degree import ConvergenceError
from relanom.graph import rbf_similarity_matrix
from relanom.popularity import (
    fit_popularity,
    power_iteration,
    relative_anomaly,
    rff_feature_map,
    rff_warm_start,
    score_batch,
    score_new,
)
from relanom.preprocess import apply_preprocessor, fit_preprocessor

from conftest import random_dataset


def oracle_leading_eigenpair(s: np.ndarray):
    """Exact dominant eigenpair, sign-fixed positive."""
    vals, vecs = np.linalg.eigh(s)
    v = vecs[:, -1]
    if v.sum() < 0:
        v = -v
    return v, float(vals[-1])


def random_positive_symmetric(rng, n):
    s = rng.uniform(0.05, 1.0, size=(n, n))
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 1.0)
    return s


# ---------------------------------------------------------------------------
# power_iteration


def test_two_by_two_closed_form():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    res = power_iteration(s, tol=1e-12)
    np.testing.assert_allclose(res.s_vec, [1 / math.sqrt(2)] * 2, atol=1e-10)
    assert res.lambda1 == pytest.approx(1.5, abs=1e-10)


def test_identity_matrix_returns_uniform_start():
    res = power_iteration(np.eye(5), tol=1e-10)
    np.testing.assert_allclose(res.s_vec, np.full(5, 1 / math.sqrt(5)))
    assert res.iterations == 1


def test_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_positive_symmetric(rng, 8)
        res = power_iteration(s, tol=1e-12, max_iter=100_000)
        v, lam = oracle_leading_eigenpair(s)
        assert abs(float(res.s_vec @ v)) >= 1.0 - 1e-8
        assert res.lambda1 == pytest.approx(lam, rel=1e-8)


def test_residual_is_for_returned_vector():
    rng = np.random.default_rng(1)
    s = random_positive_symmetric(rng, 12)
    res = power_iteration(s, tol=1e-10)
    check = np.linalg.norm(s @ res.s_vec - res.lambda1 * res.s_vec)
    assert check == pytest.approx(res.residual, abs=1e-15)
    assert check <= 1e-10


def test_unit_norm_and_positive():
    rng = np.random.default_rng(2)
    for seed in range(10):
        s = random_positive_symmetric(rng, int(rng.integers(2, 30)))
        res = power_iteration(s, tol=1e-10)
        assert np.linalg.norm(res.s_vec) == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.s_vec > 0.0)


def test_scaling_leaves_vector_scales_eigenvalue():
    rng = np.random.default_rng(3)
    s = random_positive_symmetric(rng, 10)
    a = power_iteration(s, tol=1e-12)
    b = power_iteration(7.5 * s, tol=1e-11)
    np.testing.assert_allclose(a.s_vec, b.s_vec, atol=1e-9)
    assert b.lambda1 == pytest.approx(7.5 * a.lambda1, rel=1e-9)


def test_start_vector_sign_is_ignored():
    rng = np.random.default_rng(4)
    s = random_positive_symmetric(rng, 6)
    s0 = rng.normal(size=6)  # mixed signs; absolute value is taken
    res = power_iteration(s, s0=s0, tol=1e-10)
    assert np.all(res.s_vec > 0.0)


def test_rejects_malformed_inputs():
    with pytest.raises(ValueError, match="square"):
        power_iteration(np.ones((2, 3)))
    with pytest.raises(ValueError, match="diagonal"):
        power_iteration(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="tol"):
        power_iteration(np.eye(2), tol=0.0)
    with pytest.raises(ValueError, match="starting vector"):
        power_iteration(np.eye(2), s0=np.zeros(2))
    with pytest.raises(FloatingPointError):
        power_iteration(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_nonconvergence_error():
    rng = np.random.default_rng(5)
    s = random_positive_symmetric(rng, 20)
    with pytest.raises(ConvergenceError):
        power_iteration(s, tol=1e-15, max_iter=2)


# ---------------------------------------------------------------------------
# fit_popularity / relative_anomaly


def test_two_points_give_symmetric_vector():
    data = Dataset(np.array([[0.0], [3.0]]))
    model = fit_popularity(data, 1.0)
    np.testing.assert_allclose(model.s_vec, [1 / math.sqrt(2)] * 2, atol=1e-8)
    np.testing.assert_allclose(relative_anomaly(model), [-1 / math.sqrt(2)] * 2, atol=1e-8)


def test_same_seed_is_bit_identical():
    data = random_dataset(40, 2, seed=6)
    a = fit_popularity(data, 0.5, start="random", seed=9)
    b = fit_popularity(data, 0.5, start="random", seed=9)
    assert np.array_equal(a.s_vec, b.s_vec)
    assert a.lambda1 == b.lambda1 and a.denom == b.denom
    for model in (a, fit_popularity(data, 0.5), fit_popularity(data, 0.5, sparsify=0.5),
                  fit_popularity(data, 0.5, start="rff")):
        # denom is the eigenvalue estimate s' S s of the returned vector
        assert model.denom == model.lambda1
        assert model.denom == float(model.s_vec @ (model.graph.matrix @ model.s_vec))


def test_converges_quickly_on_clustered_data(scraping):
    raw, _ = scraping
    data = apply_preprocessor(raw, fit_preprocessor(raw, "box-cox"))
    model = fit_popularity(data, 0.2, tol=1e-6)
    assert model.iterations <= 100
    assert np.all(model.s_vec > 0.0)


def test_far_point_is_most_anomalous():
    data = Dataset(np.array([[0.0], [1.0], [10.0]]))
    model = fit_popularity(data, 1.0, tol=1e-12)
    ra = relative_anomaly(model)
    v, _ = oracle_leading_eigenpair(rbf_similarity_matrix(data, 1.0).matrix)
    assert np.argmax(ra) == 2 == np.argmin(v)
    np.testing.assert_allclose(ra, -v, atol=1e-8)


def test_sparsified_fit_keeps_positive_vector(small_data):
    model = fit_popularity(small_data, 1.0, sparsify=0.3)
    assert np.all(model.s_vec > 0.0)
    assert model.graph.is_sparse


def test_rff_start_requires_euclidean(small_data):
    from relanom.graph import DistanceMetric

    with pytest.raises(ValueError):
        fit_popularity(small_data, 1.0, start="rff", metric=DistanceMetric.MANHATTAN)


# ---------------------------------------------------------------------------
# rff feature map and warm start


def test_feature_inner_products_estimate_kernel():
    # Monte Carlo over seeds: mean of z(x)'z(y) approaches exp(-|x-y|^2 / gamma)
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=2), rng.normal(size=2)
    data = Dataset(np.vstack([x, y]))
    gamma = 0.8
    target = math.exp(-float(np.sum((x - y) ** 2)) / gamma)
    estimates = []
    for seed in range(200):
        phi = rff_feature_map(data, 64, gamma, seed)
        estimates.append(float(phi[:, 0] @ phi[:, 1]))
    assert abs(np.mean(estimates) - target) < 0.05


def test_large_feature_count_approximates_eigenvector():
    data = random_dataset(200, 2, seed=8)
    warm = rff_warm_start(data, 4096, 0.5, seed=0)
    v, _ = oracle_leading_eigenpair(rbf_similarity_matrix(data, 0.5).matrix)
    assert float(warm @ v) >= 0.9


def test_warm_start_deterministic(small_data):
    a = rff_warm_start(small_data, 128, 1.0, seed=3)
    b = rff_warm_start(small_data, 128, 1.0, seed=3)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_feature_map_rejects_bad_arguments(small_data):
    with pytest.raises(ValueError):
        rff_feature_map(small_data, 0, 1.0, 0)
    with pytest.raises(ValueError):
        rff_feature_map(small_data, 16, -1.0, 0)


# ---------------------------------------------------------------------------
# score_new / score_batch


def test_training_rows_score_their_own_entries(small_data):
    model = fit_popularity(small_data, 1.0, tol=1e-10)
    for i in range(small_data.n):
        got = score_new(model, small_data.values[i])
        assert got == pytest.approx(-model.s_vec[i], abs=1e-6)


def test_batch_matches_scalar_scoring(small_data):
    model = fit_popularity(small_data, 1.0)
    pts = random_dataset(5, 2, seed=9).values
    batch = score_batch(model, pts)
    for i, x in enumerate(pts):
        # summation order differs between the matrix and vector paths
        assert batch[i] == pytest.approx(score_new(model, x), rel=1e-12)


def test_far_point_scores_near_zero(small_data):
    model = fit_popularity(small_data, 1.0, tol=1e-10)
    far = score_new(model, np.array([1e4, 1e4]))
    assert -1e-300 < far <= 0.0
    assert far > relative_anomaly(model).max()


def test_mode_point_scores_as_typical(scraping):
    raw, _ = scraping
    tfs = fit_preprocessor(raw, "box-cox")
    data = apply_preprocessor(raw, tfs)
    model = fit_popularity(data, 0.2, tol=1e-10)
    mode_raw = Dataset(np.array([[0.0, 0.0]]), list(raw.columns))
    mode = apply_preprocessor(mode_raw, tfs).values[0]
    ra = relative_anomaly(model)
    assert score_new(model, mode) < np.quantile(ra, 0.2)
