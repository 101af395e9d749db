"""Distance, kernel, and sparsification tests.

Sparsifiers are checked entry-by-entry against the dense matrix and, for
connectivity, against a breadth-first search written here.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from relanom import graph as graph_module
from relanom.dataset import Dataset, distinct_rows
from relanom.degree import vertex_degrees
from relanom.graph import (
    DistanceMetric,
    dump_graph,
    kernel_graph,
    knn_truncate,
    kernel_rows,
    max_symmetrize,
    rbf_similarity_matrix,
    row_blocks,
    sq_distances,
    threshold_sparsify,
)
from relanom.preprocess import apply_preprocessor, fit_preprocessor
from relanom.synth import scraping_analogue, wifi_analogue

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
# sq_distances


def test_euclidean_three_four_five():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert sq_distances(x, x, DistanceMetric.EUCLIDEAN)[0, 1] == pytest.approx(25.0)


def test_manhattan_three_four_seven():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert sq_distances(x, x, DistanceMetric.MANHATTAN)[0, 1] == pytest.approx(49.0)


def test_distance_matrix_shape_properties():
    x = random_dataset(20, 3, seed=1).values
    for metric in DistanceMetric:
        d2 = sq_distances(x, x, metric)
        assert np.all(np.diag(d2) == 0.0)
        np.testing.assert_allclose(d2, d2.T, atol=1e-12)
        # triangle inequality of the distances over all triples
        d = np.sqrt(d2)
        for i in range(len(x)):
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


@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("n", [500, 1500])
def test_dense_kernel_build_holds_the_kernel_and_no_scratch(n, metric):
    # Each row block is written straight into the kernel.  Per-worker scratch
    # blocks beside it took the peak to 4.0 MB at n=500 and 22.2 MB at n=1500.
    data = scraping_analogue(n, 0)[0]
    tracemalloc.start()
    try:
        g = rbf_similarity_matrix(data, 0.2, metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.matrix, kernel_rows(data.values, data.values, 0.2, metric))
    assert peak <= n * n * 8 + 64 * 1024


@pytest.mark.parametrize("m, width, entries", [(0, 5, 8), (1, 1, 8), (10, 3, 7), (7, 9, 8)])
def test_row_blocks_tile_the_rows_within_the_entry_budget(m, width, entries):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", entries)
        blocks = row_blocks(m, width)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(m))
    assert all(0 < b.stop - b.start <= max(1, entries // width) for b in blocks)


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=14),
    metric=st.sampled_from(list(DistanceMetric)),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
    block_rows=st.integers(1, 5),
)
def test_blocked_kernel_equals_kernel_rows(points, metric, gamma, block_rows):
    # Duplicated integer-grid points repeat kernel values; blocks of 1-5 rows
    # leave a short last block for most n.
    x = np.array(points, dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_rows * len(x))
        s = rbf_similarity_matrix(Dataset(x), gamma, metric).matrix
    assert np.array_equal(s, kernel_rows(x, x, gamma, metric))
    assert np.all(np.diag(s) == 1.0)


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
    assert (t.matrix != t.matrix.T).nnz


def test_max_symmetrize_keeps_either_direction():
    data = Dataset(np.array([[0.0], [0.1], [0.2], [9.0]]))
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=1)
    sym = max_symmetrize(t)
    m = sym.matrix.toarray()
    assert m[3, 2] > 0.0 and m[2, 3] == m[3, 2]
    assert (sym.matrix != sym.matrix.T).nnz == 0


def oracle_knn(s: np.ndarray, k: int):
    """Per-row loop: a stable argsort keeps the k most similar others."""
    n = s.shape[0]
    masked = s.copy()
    np.fill_diagonal(masked, -np.inf)
    indices, values = [], []
    for i in range(n):
        order = np.argsort(-masked[i], kind="stable")[:k]
        cols = np.sort(np.concatenate(([i], order)))
        indices.append(cols)
        values.append(s[i, cols])
    return np.concatenate(indices), np.concatenate(values)


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=14),
    k_share=st.floats(0.0, 1.0),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
    metric=st.sampled_from(list(DistanceMetric)),
    block_rows=st.integers(1, 5),
)
def test_knn_matches_per_row_stable_argsort(points, k_share, gamma, metric, block_rows):
    # Duplicated integer-grid points tie many similarities at the k-th
    # value, under the Manhattan metric more than under the Euclidean one;
    # small row blocks split the rows across several blocks.
    g = rbf_similarity_matrix(Dataset(np.array(points, dtype=float)), gamma, metric)
    n = g.n
    k = 1 + int(k_share * (n - 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_rows * n)
        t = knn_truncate(g, k)
    indices, values = oracle_knn(g.matrix, k)
    assert np.array_equal(t.matrix.indptr, np.arange(0, n * (k + 1) + 1, k + 1))
    assert np.array_equal(t.matrix.indices, indices)
    assert np.array_equal(t.matrix.data, values)


def test_knn_selection_holds_the_pool_scratch_and_its_output():
    # 2,000 wifi rows, 72% of them one repeated row: most rows take the tie path.
    # The selection of the whole n x n kernel held 18.8 MB.
    raw, _ = wifi_analogue(2000, seed=0)
    graph = kernel_graph(apply_preprocessor(raw, fit_preprocessor(raw)), 0.2)
    k = 10
    tracemalloc.start()
    try:
        t = knn_truncate(graph, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.matrix.nnz == graph.n * (k + 1)
    output = 4 * graph.n * (k + 1) * 8  # columns and values, and their CSR copies
    assert peak < 2 * graph_module._BLOCK_ENTRIES * 8 + output


# ---------------------------------------------------------------------------
# threshold_sparsify


def kept_entries(t) -> sparse.csr_matrix:
    """The kept entries of a threshold cut as a CSR matrix, built like the oracle's: the
    kernel's entries at or above the cut's threshold, zeros included."""
    k = rbf_similarity_matrix(t.source, t.gamma, t.metric).matrix
    keep = k >= t.matrix.threshold
    return sparse.coo_matrix((k[keep], np.nonzero(keep)), shape=k.shape).tocsr()


def test_zero_drop_is_identity():
    data = random_dataset(8, 2, seed=10)
    t = threshold_sparsify(kernel_graph(data, 1.0), 0.0)
    kernel = rbf_similarity_matrix(data, 1.0).matrix
    np.testing.assert_array_equal(kept_entries(t).toarray(), kernel)
    upper = np.triu_indices(data.n)  # the upper-only build: the half dsymv reads
    np.testing.assert_array_equal(t.matrix.kernel[upper], kernel[upper])
    assert t.matrix.nnz == data.n**2 and t.matrix.threshold == -np.inf


def test_three_point_drop_removes_single_smallest_pair():
    data = Dataset(np.array([[0.0], [1.0], [3.0]]))
    g = rbf_similarity_matrix(data, 1.0)
    # off-diagonal pairs: (0,1), (1,2), (0,2); smallest similarity is (0,2)
    t = threshold_sparsify(kernel_graph(data, 1.0), 0.4)  # floor(0.4 * 3) = 1 pair dropped
    m = kept_entries(t).toarray()
    assert m[0, 2] == 0.0 and m[2, 0] == 0.0
    assert m[0, 1] == g.matrix[0, 1] and m[1, 2] == g.matrix[1, 2]


def test_dropped_fraction_and_exactness():
    data = random_dataset(25, 2, seed=11)
    g = rbf_similarity_matrix(data, 0.5)
    t = threshold_sparsify(kernel_graph(data, 0.5), 0.5)
    m = kept_entries(t).toarray()
    kept = m > 0.0
    assert np.array_equal(kept, kept.T)
    assert np.all(m[kept] == g.matrix[kept])
    assert np.all(np.diag(m) == 1.0)
    assert bfs_connected(kept)
    np.testing.assert_array_equal(t.rows(slice(2, 9)), m[2:9])  # the cut's rows, evaluated
    np.testing.assert_allclose(vertex_degrees(t), m.sum(axis=1), rtol=1e-14)


def test_rows_are_dense_for_every_matrix_kind():
    # absent entries read 0, and the rows go into out when it is given
    data = random_dataset(9, 2, seed=17)
    kernel, dense = kernel_graph(data, 0.2), rbf_similarity_matrix(data, 0.2)
    knn, cut = max_symmetrize(knn_truncate(kernel, 3)), threshold_sparsify(kernel, 0.5)
    kept = np.where(dense.matrix >= cut.matrix.threshold, dense.matrix, 0.0)
    assert np.count_nonzero(kept == 0.0) and np.count_nonzero(knn.matrix.toarray() == 0.0)
    for graph, want in [(dense, dense.matrix), (knn, knn.matrix.toarray()), (cut, kept),
                        (kernel, dense.matrix)]:
        assert np.array_equal(graph.rows(slice(2, 5)), want[2:5])
        out = np.full((3, data.n), np.nan)
        assert graph.rows(slice(2, 5), out) is out and np.array_equal(out, want[2:5])


def test_sparsify_rejects_bad_inputs():
    data = random_dataset(8, 2, seed=12)
    g = kernel_graph(data, 1.0)
    with pytest.raises(ValueError, match="drop_fraction"):
        threshold_sparsify(g, 1.0)
    with pytest.raises(ValueError, match="drop_fraction"):
        threshold_sparsify(g, -0.1)
    for built in (rbf_similarity_matrix(data, 1.0), knn_truncate(g, 2)):  # dense, sparse
        with pytest.raises(ValueError, match="expects a kernel graph"):
            threshold_sparsify(built, 0.1)
    with pytest.MonkeyPatch.context() as mp:  # a cut that drops nothing builds a triangle
        mp.setattr(graph_module, "DENSE_LIMIT", 7)
        with pytest.raises(ValueError, match="dense limit of 7 for popularity"):
            threshold_sparsify(g, 0.0)


def test_sparsify_backs_off_to_stay_connected():
    # two far clusters joined by one weak bridge pair; a large drop fraction
    # would cut the bridge, so the threshold must back off
    a = np.linspace(0.0, 0.3, 5)
    b = np.linspace(8.0, 8.3, 5)
    data = Dataset(np.concatenate([a, b])[:, None])
    t = threshold_sparsify(kernel_graph(data, 20.0), 0.8)
    assert bfs_connected(kept_entries(t).toarray() > 0.0)


def pair_values(s: np.ndarray):
    rows, cols = np.triu_indices(len(s), k=1)
    return rows, cols, s[rows, cols]


def connected_at(s: np.ndarray, threshold: float) -> bool:
    """Whether the pairs of ``s`` at or above ``threshold`` connect its vertices."""
    rows, cols, vals = pair_values(s)
    keep = vals >= threshold
    adj = sparse.coo_matrix((np.ones(keep.sum()), (rows[keep], cols[keep])), shape=s.shape)
    return connected_components(adj, directed=False)[0] == 1


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=12),
    drop_fraction=st.floats(0.0, 0.99),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_sparsify_keeps_the_smallest_connected_suffix(points, drop_fraction, gamma):
    # Integer-grid points, many of them duplicated, tie pairs at the threshold; the cut
    # keeps whole tie blocks.  Of the suffixes of the distinct pair values that keep every
    # pair above q, the floor(F * pairs)-th smallest, it keeps the smallest connected one.
    data = Dataset(np.array(points, dtype=float))
    n = data.n
    g = rbf_similarity_matrix(data, gamma)
    _, _, vals = pair_values(g.matrix)
    start = int(math.floor(drop_fraction * vals.size + 1e-9))
    threshold = -np.inf
    if start:  # the next float above q, then the distinct values up to q, descending
        q = np.sort(vals)[start - 1]
        distinct = np.unique(vals)
        threshold = next(t for t in [np.nextafter(q, np.inf), *distinct[distinct <= q][::-1]]
                         if connected_at(g.matrix, t))
    expect = g.matrix >= threshold

    t = threshold_sparsify(kernel_graph(data, gamma), drop_fraction)
    coo = kept_entries(t).tocoo()
    stored = np.zeros((n, n), dtype=bool)
    stored[coo.row, coo.col] = True
    assert np.array_equal(stored, expect)
    assert np.array_equal(coo.data, g.matrix[coo.row, coo.col])
    assert t.matrix.threshold == threshold


def brute_force_cut(graph, drop_fraction):
    """Test oracle: the sparsifier's cut of a dense graph by brute force over the sorted
    distinct pair values; returns the CSR matrix of the kept entries and the threshold.

    The candidates are the values up to q, the floor(F * pairs)-th smallest pair, and the
    next float above q, which drops the pairs tied at q; the threshold is the largest
    candidate whose pairs at or above it connect the graph, found by bisection."""
    n, s = graph.n, graph.matrix
    _, _, vals = pair_values(s)
    m_drop = int(math.floor(drop_fraction * vals.size + 1e-9))
    threshold = -np.inf
    if m_drop:
        q = np.sort(vals)[m_drop - 1]
        distinct = np.unique(vals)
        candidates = np.r_[distinct[distinct <= q], np.nextafter(q, np.inf)]
        lo, hi = 0, candidates.size - 1  # the least pair keeps every pair: connected
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if connected_at(s, candidates[mid]) else (lo, mid - 1)
        threshold = float(candidates[lo])
    keep = (s >= threshold) | np.eye(n, dtype=bool)
    return sparse.coo_matrix((s[keep], np.nonzero(keep)), shape=(n, n)).tocsr(), threshold


def assert_sparsify_matches_oracle(kernel, drop_fraction):
    got = threshold_sparsify(kernel, drop_fraction)
    expect, threshold = brute_force_cut(
        rbf_similarity_matrix(kernel.source, kernel.gamma, kernel.metric), drop_fraction)
    kept = kept_entries(got)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(kept, name), getattr(expect, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.matrix.threshold == threshold
    assert got.matrix.nnz == expect.nnz and type(got.matrix.nnz) is int
    # the kernel the power iteration reads: the oracle's entries between the distinct
    # rows (the first of each group) in the upper triangle, each dropped entry 0
    first = np.unique(distinct_rows(kernel.source).inverse, return_index=True)[1]
    upper = np.triu_indices(first.size)
    assert np.array_equal(got.matrix.kernel[upper], expect.toarray()[np.ix_(first, first)][upper])
    return kept


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=40),
    drop_fraction=st.floats(0.0, 0.99),
    gamma=st.sampled_from([0.02, 0.5, 5.0]),
    metric=st.sampled_from(list(DistanceMetric)),
)
def test_sparsify_matches_the_brute_force_cut_on_duplicated_grids(
    points, drop_fraction, gamma, metric
):
    # gamma=0.02 underflows the far pairs to exact zeros.
    g = kernel_graph(Dataset(np.array(points, dtype=float)), gamma, metric)
    assert_sparsify_matches_oracle(g, drop_fraction)


@settings(max_examples=100, deadline=None)
@given(
    near=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=15),
    far=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=15),
    drop_fraction=st.floats(0.0, 0.99),
)
def test_sparsify_keeps_a_zero_bottleneck_tie_block_stored(near, far, drop_fraction):
    # Two groups 100 apart: every cross pair underflows to 0, so the graph stays
    # connected only through the zero pairs, a tie block at the bottleneck.  A cut
    # that drops anything has threshold 0, so it keeps every pair, the zeros stored.
    points = np.array(near + [(x + 100, y) for x, y in far], dtype=float)
    m = assert_sparsify_matches_oracle(kernel_graph(Dataset(points), 1.0), drop_fraction)
    a, n = len(near), len(points)
    assert np.count_nonzero(rbf_similarity_matrix(Dataset(points), 1.0).matrix == 0.0) == \
        2 * a * (n - a)
    if int(math.floor(drop_fraction * n * (n - 1) / 2 + 1e-9)):
        assert m.nnz == n * n and np.count_nonzero(m.data == 0.0) == 2 * a * (n - a)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=4, max_size=40),
       data=st.data())
def test_sparsify_cut_inside_a_tie_block_matches_the_brute_force_cut(points, data):
    g = kernel_graph(Dataset(np.array(points, dtype=float)), 1.0)
    vals = np.sort(rbf_similarity_matrix(g.source, 1.0).matrix[np.triu_indices(g.n, 1)])
    # Drop counts m whose cut splits a tie block: vals[m - 1] == vals[m].
    inside = np.flatnonzero(vals[:-1] == vals[1:]) + 1
    assume(inside.size > 0)
    m = int(data.draw(st.sampled_from(inside.tolist())))
    kept = assert_sparsify_matches_oracle(g, (m + 0.5) / vals.size)
    off = kept.tocoo()  # the block is kept or dropped whole, both halves of each pair
    tied = np.count_nonzero(off.data[off.row != off.col] == vals[m])
    assert tied in (0, 2 * np.count_nonzero(vals == vals[m]))


@pytest.mark.parametrize("drop_fraction", [0.5, 0.9])
@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("generate", [wifi_analogue, scraping_analogue])
def test_sparsify_matches_the_brute_force_cut_on_the_analogues(generate, metric, drop_fraction):
    raw = generate(300, 0)[0]
    data = apply_preprocessor(raw, fit_preprocessor(raw))
    assert_sparsify_matches_oracle(kernel_graph(data, 0.2, metric), drop_fraction)


@pytest.mark.parametrize("drop_fraction", [0.05, 0.5])
@pytest.mark.parametrize("generate", [wifi_analogue, scraping_analogue])
def test_sparsify_holds_at_most_18_bytes_per_matrix_entry(generate, drop_fraction):
    # The kernel the cut is found in, or later the CSR arrays, which hold 12 bytes per
    # kept entry, and the row blocks that fill them.  Slicing the pairs through an n x n
    # triu mask, with int64 flat indices, peaked at 22.8 to 32.7 bytes per entry without
    # counting the kernel.
    raw = generate(1000, 0)[0]
    graph = kernel_graph(apply_preprocessor(raw, fit_preprocessor(raw)), 0.2)
    tracemalloc.start()
    try:
        threshold_sparsify(graph, drop_fraction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * graph.n**2


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


def test_dump_of_a_kernel_graph_equals_the_dense_dump(tmp_path, monkeypatch):
    data = random_dataset(7, 2, seed=15)
    dump_graph(rbf_similarity_matrix(data, 1.0), tmp_path / "dense.txt")
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 2 * data.n)  # 2-row blocks, 1 left over
    dump_graph(kernel_graph(data, 1.0), tmp_path / "kernel.txt")
    assert (tmp_path / "kernel.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()


def test_dump_holds_one_row_block_of_lines_at_a_time(tmp_path, monkeypatch):
    data = random_dataset(150, 2, seed=16)
    dense = rbf_similarity_matrix(data, 1.0).matrix
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 10 * data.n)
    tracemalloc.start()
    try:
        dump_graph(kernel_graph(data, 1.0), tmp_path / "kernel.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # All 22,500 lines of the 0.7 MB file at once take about 3 MB.
    assert peak < 1e6
    want = "".join(f"{i},{j},{v!r}\n" for i, row in enumerate(dense.tolist())
                   for j, v in enumerate(row))
    assert (tmp_path / "kernel.txt").read_text() == want


def test_dump_sparse_lists_stored_entries_only(tmp_path):
    data = random_dataset(9, 2, seed=14)
    t = knn_truncate(rbf_similarity_matrix(data, 1.0), k=2)
    path = tmp_path / "graph.txt"
    dump_graph(t, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == t.matrix.nnz
