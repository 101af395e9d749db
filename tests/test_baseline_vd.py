"""Vertex degree and stationary distribution.

The closed-form stationary distribution vd / sum(vd) is checked against a
matrix-power oracle: square P repeatedly until all rows agree, which is the
limiting distribution.
"""

import numpy as np
import pytest

from relanom.dataset import Dataset
from relanom.degree import vertex_degrees
from relanom.graph import knn_truncate, rbf_similarity_matrix
from relanom.model_io import fit_model
from relanom.popularity import ConvergenceError, power_iteration

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
    return type(g)(matrix=s, gamma=1.0, metric=g.metric, source=data)


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
    # The vertex-degree train table's stationary column is vd / sum(vd): check it
    # is stationary for the random walk on the fitted model-space graph.
    raw = random_dataset(25, 2, seed=2)
    bundle, _ = fit_model(raw, "vertex_degree", gamma=0.6)
    s = rbf_similarity_matrix(bundle.training, 0.6).matrix
    header, rows = bundle.train_table()
    pi = np.array([row[header.index("stationary_probability")] for row in rows])
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
