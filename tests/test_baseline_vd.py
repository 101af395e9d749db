"""Vertex degree, stationary distribution, kNN linearization.

The closed-form stationary distribution vd / sum(vd) is checked against a
matrix-power oracle: square P repeatedly until all rows agree, which is the
limiting distribution.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from relanom import graph as graph_module
from relanom.dataset import Dataset
from relanom.degree import _knn_distances, median_knn_distance, vd_knn_approx, vertex_degrees
from relanom.graph import DistanceMetric, knn_truncate, rbf_similarity_matrix
from relanom.model_io import fit_model
from relanom.popularity import ConvergenceError, power_iteration
from relanom.preprocess import apply_preprocessor, fit_preprocessor
from relanom.synth import scraping_analogue, wifi_analogue

from conftest import random_dataset


def oracle_stationary(p: np.ndarray) -> np.ndarray:
    """Limiting distribution by repeated squaring of the transition matrix."""
    m = p.copy()
    for _ in range(200):
        m = m @ m
        m /= m.sum(axis=1, keepdims=True)  # re-normalize accumulated error
        if np.max(m.max(axis=0) - m.min(axis=0)) < 1e-13:
            return m[0]
    raise AssertionError("oracle did not reach a rank-one power")


def graph_from_matrix(s: np.ndarray):
    """Wrap a hand-built similarity matrix for the degree operations."""
    data = Dataset(np.zeros((s.shape[0], 1)) + np.arange(s.shape[0])[:, None])
    g = rbf_similarity_matrix(data, 1.0)
    return type(g)(matrix=s, gamma=1.0, metric=g.metric, symmetric=True, source=data)


# ---------------------------------------------------------------------------
# vertex_degrees


def test_two_point_degrees():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    vd = vertex_degrees(graph_from_matrix(s))
    np.testing.assert_allclose(vd, [1.5, 1.5])


def test_far_point_has_smallest_degree():
    data = Dataset(np.array([[0.0], [1.0], [10.0]]))
    g = rbf_similarity_matrix(data, 1.0)
    # direct summation of the 3x3 kernel (diagonal contributes exp(0) = 1)
    d2 = np.array([[0, 1, 100], [1, 0, 81], [100, 81, 0]], dtype=float)
    expected = np.exp(-d2).sum(axis=1)
    vd = vertex_degrees(g)
    np.testing.assert_allclose(vd, expected, rtol=1e-12)
    assert np.argmin(vd) == 2


def test_identical_points_degree_n():
    data = Dataset(np.zeros((7, 2)))
    vd = vertex_degrees(rbf_similarity_matrix(data, 1.0))
    np.testing.assert_array_equal(vd, np.full(7, 7.0))


def test_degrees_of_sparse_graph_sum_stored_entries():
    data = random_dataset(10, 2, seed=0)
    g = rbf_similarity_matrix(data, 1.0)
    t = knn_truncate(g, 3)
    vd = vertex_degrees(t)
    np.testing.assert_allclose(vd, t.matrix.toarray().sum(axis=1))


def test_ranking_invariant_to_diagonal():
    data = random_dataset(40, 3, seed=1)
    g = rbf_similarity_matrix(data, 0.7)
    vd = vertex_degrees(g)
    vd_nodiag = vd - 1.0
    assert np.array_equal(np.argsort(vd, kind="stable"), np.argsort(vd_nodiag, kind="stable"))


# ---------------------------------------------------------------------------
# stationary distribution (closed form)


def test_symmetric_case_proportional_to_degree():
    # The vertex-degree fit stores vd / sum(vd): check it is stationary for
    # the random walk on the fitted model-space graph.
    raw = random_dataset(25, 2, seed=2)
    bundle, _ = fit_model(raw, "vertex_degree", gamma=0.6)
    s = rbf_similarity_matrix(bundle.training, 0.6).matrix
    pi = bundle.state["stationary"]
    p = s / s.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(pi @ p, pi, rtol=1e-12)
    np.testing.assert_allclose(pi, oracle_stationary(p), atol=1e-9)


def test_matches_matrix_power_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = rng.uniform(0.05, 1.0, size=(5, 5))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        p = s / s.sum(axis=1, keepdims=True)
        vd = s.sum(axis=1)
        pi = vd / vd.sum()
        np.testing.assert_allclose(pi, oracle_stationary(p), atol=1e-9)
        assert np.all(pi > 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationarity_identity_holds():
    # P' (S 1) == S 1 up to scaling, for symmetric dense S
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        s = rng.uniform(0.01, 1.0, size=(n, n))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        vd = s.sum(axis=1)
        p = s / vd[:, None]
        defect = np.abs(p.T @ vd - vd).sum() / np.abs(vd).sum()
        assert defect <= 1e-12


def test_nonconvergence_raises_with_residual():
    # The only iterative solver left is the power iteration on S; its
    # failure must still carry the residual it stopped at.
    s = np.array([[1.0, 0.2, 0.9], [0.2, 1.0, 0.4], [0.9, 0.4, 1.0]])
    with pytest.raises(ConvergenceError) as exc:
        power_iteration(s, tol=1e-15, max_iter=2)
    assert exc.value.residual > 0.0
    assert "residual" in str(exc.value)


# ---------------------------------------------------------------------------
# vd_knn_approx


def test_single_neighbor_at_unit_distance():
    data = Dataset(np.array([[0.0], [1.0]]))
    out = vd_knn_approx(data, k=1, gamma=1.0, v=1.0)
    np.testing.assert_allclose(out, [math.exp(-1.0)] * 2, rtol=1e-12)


def test_two_neighbors_at_unit_distance():
    data = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
    # equilateral triangle: both neighbor distances are exactly 1
    out = vd_knn_approx(data, k=2, gamma=1.0, v=1.0)
    np.testing.assert_allclose(out, [2 * math.exp(-1.0)] * 3, rtol=1e-9)


def test_tangency_matches_exact_truncated_degree():
    # all neighbor distances equal v: the linearization is exact there
    data = Dataset(np.array([[0.0], [2.0], [4.0]]))
    out = vd_knn_approx(data, k=1, gamma=3.0, v=2.0)
    exact = np.exp(-4.0 / 3.0)
    np.testing.assert_allclose(out, [exact] * 3, rtol=1e-12)


def test_linearization_error_quarters_when_offset_halves():
    # needs v^2 != gamma/2, otherwise the quadratic error term vanishes
    gamma, v = 1.0, 1.0

    def one_point_error(offset):
        data = Dataset(np.array([[0.0], [v + offset]]))
        approx = vd_knn_approx(data, k=1, gamma=gamma, v=v)[0]
        exact = math.exp(-((v + offset) ** 2) / gamma)
        return abs(approx - exact)

    e1 = one_point_error(0.2)
    e2 = one_point_error(0.1)
    assert e2 == pytest.approx(e1 / 4.0, rel=0.15)


def test_default_expansion_point_is_median_distance():
    data = random_dataset(15, 2, seed=5)
    v = median_knn_distance(data, k=3)
    np.testing.assert_allclose(
        vd_knn_approx(data, k=3, gamma=1.0),
        vd_knn_approx(data, k=3, gamma=1.0, v=v),
    )


@pytest.mark.parametrize("preprocess", ["box-cox", "standardize"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_expansion_point_skips_duplicate_rows(preprocess, seed):
    # Most wifi rows repeat one typical row, so most kNN distances are 0;
    # the default v is the median of the positive ones.
    raw, _ = wifi_analogue(1000, seed)
    data = apply_preprocessor(raw, fit_preprocessor(raw, preprocess))
    knn = _knn_distances(data, 10, DistanceMetric.EUCLIDEAN)
    assert np.median(knn) == 0.0
    v = median_knn_distance(data, k=10)
    assert v == np.median(knn[knn > 0.0])
    approx = vd_knn_approx(data, k=10, gamma=0.5)
    np.testing.assert_array_equal(approx, vd_knn_approx(data, k=10, gamma=0.5, v=v))
    assert np.all(np.isfinite(approx))


def test_expansion_point_needs_a_positive_distance():
    data = Dataset(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="no expansion point"):
        median_knn_distance(data, k=2)
    with pytest.raises(ValueError, match="no expansion point"):
        vd_knn_approx(data, k=2, gamma=1.0)


def test_knn_distances_hold_one_block_of_rows():
    # A dense 3000 x 3000 distance matrix alone is 72 MB.
    data = scraping_analogue(3000, 0)[0]
    tracemalloc.start()
    try:
        knn = _knn_distances(data, 10, DistanceMetric.EUCLIDEAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert knn.shape == (3000, 10)
    assert peak < 10 * 2**20


def test_invalid_parameters_rejected():
    data = random_dataset(6, 2, seed=6)
    with pytest.raises(ValueError):
        vd_knn_approx(data, k=0, gamma=1.0, v=1.0)
    with pytest.raises(ValueError):
        vd_knn_approx(data, k=6, gamma=1.0, v=1.0)
    with pytest.raises(ValueError):
        vd_knn_approx(data, k=2, gamma=-1.0, v=1.0)
    with pytest.raises(ValueError):
        vd_knn_approx(data, k=2, gamma=1.0, v=0.0)


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=14),
    k_share=st.floats(0.0, 1.0),
    metric=st.sampled_from(list(DistanceMetric)),
    block_rows=st.integers(1, 5),
)
def test_knn_distances_match_full_stable_sort(points, k_share, metric, block_rows):
    # Oracle: the full-row stable argsort of the distance matrix.  Duplicated
    # integer-grid points tie distances (zeros included) at the k-th value.
    data = Dataset(np.array(points, dtype=float))
    k = 1 + int(k_share * (data.n - 2))
    dist = cdist(data.values, data.values, metric.cdist_name)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    want = np.take_along_axis(dist, order, axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_rows * data.n)
        got = _knn_distances(data, k, metric)
    assert np.array_equal(got, want)
    v = float(np.median(want)) or 1.0
    approx = vd_knn_approx(data, k, 1.0, v=v, metric=metric)
    ev = np.exp(-v * v)
    assert np.array_equal(approx, k * ev * (1.0 + 2.0 * v * v) - 2.0 * v * ev * want.sum(axis=1))
