"""Distance, kernel, and sparsification tests.

Sparsifiers are checked entry-by-entry against the dense matrix and, for
connectivity, against a breadth-first search written here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from relanom.dataset import Dataset
from relanom.graph import (
    DistanceMetric,
    dump_graph,
    knn_truncate,
    max_symmetrize,
    pairwise_distances,
    rbf_similarity_matrix,
    threshold_sparsify,
)

from conftest import random_dataset


def bfs_connected(adj: np.ndarray) -> bool:
    """Connectivity oracle on a boolean adjacency matrix."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i] & ~seen)[0]:
            seen[j] = True
            stack.append(int(j))
    return bool(seen.all())


# ---------------------------------------------------------------------------
# pairwise_distances


def test_euclidean_three_four_five():
    data = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]))
    d = pairwise_distances(data, DistanceMetric.EUCLIDEAN)
    assert d[0, 1] == pytest.approx(5.0)


def test_manhattan_three_four_seven():
    data = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]))
    d = pairwise_distances(data, DistanceMetric.MANHATTAN)
    assert d[0, 1] == pytest.approx(7.0)


def test_distance_matrix_shape_properties():
    data = random_dataset(20, 3, seed=1)
    for metric in DistanceMetric:
        d = pairwise_distances(data, metric)
        assert np.all(np.diag(d) == 0.0)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        # triangle inequality over all triples
        n = data.n
        for i in range(n):
            assert np.all(d[i, :, None] <= d[i, None, :].T + d + 1e-9)


# ---------------------------------------------------------------------------
# rbf_similarity_matrix


def test_zero_distance_gives_similarity_one():
    data = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]))
    g = rbf_similarity_matrix(data, 0.7)
    assert g.matrix[0, 1] == 1.0


def test_unit_distance_at_half_gamma():
    data = Dataset(np.array([[0.0], [1.0]]))
    g = rbf_similarity_matrix(data, 0.5)
    assert g.matrix[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_huge_gamma_makes_everything_similar():
    data = random_dataset(15, 2, seed=2)
    g = rbf_similarity_matrix(data, 1e12)
    assert np.all(g.matrix > 1.0 - 1e-9)


def test_gamma_must_be_positive():
    data = random_dataset(4, 2, seed=3)
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            rbf_similarity_matrix(data, gamma)


def test_symmetry_unit_diagonal_and_range():
    for seed in range(5):
        data = random_dataset(25, 3, seed=seed)
        gamma = float(np.random.default_rng(seed).uniform(0.05, 5.0))
        s = rbf_similarity_matrix(data, gamma).matrix
        assert np.all(np.diag(s) == 1.0)
        np.testing.assert_array_equal(s, s.T)
        assert np.all((s > 0.0) & (s <= 1.0))


def test_entrywise_monotone_in_gamma():
    data = random_dataset(20, 2, seed=4)
    s_small = rbf_similarity_matrix(data, 0.3).matrix
    s_large = rbf_similarity_matrix(data, 0.9).matrix
    off = ~np.eye(20, dtype=bool)
    assert np.all(s_small[off] <= s_large[off])


def test_dense_limit_enforced():
    data = Dataset(np.zeros((20_001, 1)) + np.arange(20_001)[:, None])
    with pytest.raises(ValueError, match="dense limit"):
        rbf_similarity_matrix(data, 1.0)


# ---------------------------------------------------------------------------
# knn_truncate


def test_full_k_retains_all_entries():
    data = random_dataset(10, 2, seed=5)
    g = rbf_similarity_matrix(data, 1.0)
    t = knn_truncate(g, k=9)
    np.testing.assert_array_equal(t.matrix.toarray(), g.matrix)


def test_far_point_keeps_only_nearest():
    data = Dataset(np.array([[0.0], [1.0], [10.0]]))
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=1)
    row = t.matrix.toarray()[2]
    assert row[2] == 1.0 and row[1] > 0.0 and row[0] == 0.0


def test_retained_entries_match_dense_exactly():
    data = random_dataset(30, 3, seed=6)
    g = rbf_similarity_matrix(data, 0.8)
    t = knn_truncate(g, k=4)
    coo = t.matrix.tocoo()
    for i, j, v in zip(coo.row, coo.col, coo.data):
        assert v == g.matrix[i, j]


def test_each_row_keeps_exactly_k_neighbors():
    # duplicated points force similarity ties; the count must still be k
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(12, 2))
    data = Dataset(np.vstack([pts, pts[:3]]))
    g = rbf_similarity_matrix(data, 1.0)
    for k in (1, 3, 7):
        t = knn_truncate(g, k)
        stored = np.diff(t.matrix.indptr)
        assert np.all(stored == k + 1)  # k neighbors plus the diagonal


def test_tie_breaks_by_smaller_index():
    # points 1 and 2 are equidistant from point 0
    data = Dataset(np.array([[0.0], [1.0], [-1.0], [5.0]]))
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=1)
    row = t.matrix.toarray()[0]
    assert row[1] > 0.0 and row[2] == 0.0


def test_k_out_of_range_rejected():
    data = random_dataset(6, 2, seed=9)
    g = rbf_similarity_matrix(data, 1.0)
    for k in (0, 6, -2):
        with pytest.raises(ValueError, match="k must be in"):
            knn_truncate(g, k)


def test_truncation_is_directed():
    # the outlier picks a cluster point, but no cluster point picks it back
    data = Dataset(np.array([[0.0], [0.1], [0.2], [9.0]]))
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=1)
    m = t.matrix.toarray()
    assert m[3, 2] > 0.0 and m[2, 3] == 0.0
    assert not t.symmetric


def test_max_symmetrize_keeps_either_direction():
    data = Dataset(np.array([[0.0], [0.1], [0.2], [9.0]]))
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=1)
    sym = max_symmetrize(t)
    m = sym.matrix.toarray()
    assert m[3, 2] > 0.0 and m[2, 3] == m[3, 2]
    assert sym.symmetric


# ---------------------------------------------------------------------------
# threshold_sparsify


def test_zero_drop_is_identity():
    data = random_dataset(8, 2, seed=10)
    g = rbf_similarity_matrix(data, 1.0)
    t = threshold_sparsify(g, 0.0)
    np.testing.assert_array_equal(t.matrix.toarray(), g.matrix)


def test_three_point_drop_removes_single_smallest_pair():
    data = Dataset(np.array([[0.0], [1.0], [3.0]]))
    g = rbf_similarity_matrix(data, 1.0)
    # off-diagonal pairs: (0,1), (1,2), (0,2); smallest similarity is (0,2)
    t = threshold_sparsify(g, 0.4)  # floor(0.4 * 3) = 1 pair dropped
    m = t.matrix.toarray()
    assert m[0, 2] == 0.0 and m[2, 0] == 0.0
    assert m[0, 1] == g.matrix[0, 1] and m[1, 2] == g.matrix[1, 2]


def test_dropped_fraction_and_exactness():
    data = random_dataset(25, 2, seed=11)
    g = rbf_similarity_matrix(data, 0.5)
    t = threshold_sparsify(g, 0.5)
    m = t.matrix.toarray()
    kept = m > 0.0
    assert np.array_equal(kept, kept.T)
    assert np.all(m[kept] == g.matrix[kept])
    assert np.all(np.diag(m) == 1.0)
    assert bfs_connected(kept)


def test_sparsify_rejects_bad_inputs():
    data = random_dataset(8, 2, seed=12)
    g = rbf_similarity_matrix(data, 1.0)
    with pytest.raises(ValueError):
        threshold_sparsify(g, 1.0)
    with pytest.raises(ValueError):
        threshold_sparsify(g, -0.1)
    with pytest.raises(ValueError):
        threshold_sparsify(knn_truncate(g, 2), 0.1)


def test_sparsify_backs_off_to_stay_connected():
    # two far clusters joined by one weak bridge pair; a large drop fraction
    # would cut the bridge, so the threshold must back off
    a = np.linspace(0.0, 0.3, 5)
    b = np.linspace(8.0, 8.3, 5)
    data = Dataset(np.concatenate([a, b])[:, None])
    g = rbf_similarity_matrix(data, 20.0)
    t = threshold_sparsify(g, 0.8)
    assert bfs_connected(t.matrix.toarray() > 0.0)


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=12),
    drop_fraction=st.floats(0.0, 0.99),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_sparsify_keeps_the_smallest_connected_suffix(points, drop_fraction, gamma):
    # Integer-grid points, many of them duplicated, make the similarity ties
    # that the (value, i, j) order has to break.
    data = Dataset(np.array(points, dtype=float))
    n = data.n
    g = rbf_similarity_matrix(data, gamma)
    rows, cols = np.triu_indices(n, k=1)
    vals = g.matrix[rows, cols]
    order = np.lexsort((cols, rows, vals))
    start = int(math.floor(drop_fraction * vals.size + 1e-9))

    def connected(kept):
        adj = sparse.coo_matrix((np.ones(kept.size), (rows[kept], cols[kept])), shape=(n, n))
        return connected_components(adj, directed=False)[0] == 1

    while not connected(order[start:]):
        start -= 1
    expect = np.eye(n, dtype=bool)
    expect[rows[order[start:]], cols[order[start:]]] = True
    expect |= expect.T

    t = threshold_sparsify(g, drop_fraction)
    coo = t.matrix.tocoo()
    stored = np.zeros((n, n), dtype=bool)
    stored[coo.row, coo.col] = True
    assert np.array_equal(stored, expect)
    assert np.array_equal(coo.data, g.matrix[coo.row, coo.col])
    assert t.drop_threshold == (float(vals[order[start - 1]]) if start else None)


# ---------------------------------------------------------------------------
# dump_graph


def test_dump_round_trips_dense(tmp_path):
    data = random_dataset(6, 2, seed=13)
    g = rbf_similarity_matrix(data, 1.0)
    path = tmp_path / "graph.txt"
    dump_graph(g, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 36
    rebuilt = np.zeros((6, 6))
    for line in lines:
        i, j, v = line.split(",")
        rebuilt[int(i), int(j)] = float(v)
    np.testing.assert_array_equal(rebuilt, g.matrix)


def test_dump_sparse_lists_stored_entries_only(tmp_path):
    data = random_dataset(9, 2, seed=14)
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=2)
    path = tmp_path / "graph.txt"
    dump_graph(t, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == t.matrix.nnz
