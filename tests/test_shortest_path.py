"""Normal-set selection, path weights, multi-source distances, path scoring.

Distances are verified against a brute-force enumeration of all simple
paths, in both the min-sum and max-product forms.
"""

import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from relanom import graph as graph_module
from relanom.dataset import Dataset
from relanom.degree import vertex_degrees
from relanom.graph import (
    DistanceMetric,
    SimilarityGraph,
    kernel_graph,
    kernel_rows,
    knn_truncate,
    max_symmetrize,
    rbf_similarity_matrix,
    sq_distances,
)
from relanom.scoring import ScoreDistribution
from relanom.shortest_path import (
    fit_shortest_path,
    multi_source_shortest_paths,
    one_hop_extension,
    path_weights,
    select_normal_set,
)

from conftest import oracle_paths, random_dataset


def graph_from_matrix(s):
    data = Dataset(np.arange(s.shape[0], dtype=float)[:, None])
    g = rbf_similarity_matrix(data, 1.0)
    return type(g)(matrix=s, gamma=1.0, metric=g.metric, source=data)


def stored_csr(s: np.ndarray):
    """CSR matrix that stores every entry of ``s``, zeros included."""
    csr = sparse.csr_matrix(np.ones_like(s))
    csr.data = s.ravel().copy()
    return csr


# ---------------------------------------------------------------------------
# ECDF / select_normal_set


def test_ecdf_is_right_continuous_step():
    e = ScoreDistribution.from_scores(np.array([1.0, 2.0, 2.0, 5.0])).ecdf
    assert e(0.5) == 0.0
    assert e(1.0) == 0.25
    assert e(2.0) == 0.75
    assert e(4.9) == 0.75
    assert e(5.0) == 1.0


def test_top_half_of_four_degrees():
    _, members = select_normal_set(np.array([1.0, 2.0, 3.0, 4.0]), q=0.5)
    assert members.tolist() == [2, 3]


def test_all_degrees_tied_selects_everyone():
    _, members = select_normal_set(np.full(6, 3.3), q=0.25)
    assert members.tolist() == list(range(6))


def test_tied_degrees_enter_together():
    _, members = select_normal_set(np.array([1.0, 2.0, 2.0, 3.0]), q=0.5)
    # ecdf(2) = 0.75 clears the 1 - q cut, so the tied pair enters together
    assert members.tolist() == [1, 2, 3]


def test_q_out_of_range_rejected():
    vals = np.array([1.0, 2.0, 3.0])
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="q must be"):
            select_normal_set(vals, q)


@pytest.mark.parametrize("k", [None, 3])
def test_fit_rejects_q_before_the_kernel_pass(k, small_data, monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel evaluated before q was checked")

    monkeypatch.setattr(graph_module, "kernel_rows", no_kernel)
    for q in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"q must be in \(0, 1\)"):
            fit_shortest_path(small_data, 0.2, q, k)


def test_normal_set_grows_with_q():
    rng = np.random.default_rng(0)
    vd = rng.uniform(1.0, 5.0, size=50)
    prev: set[int] = set()
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        _, members = select_normal_set(vd, q)
        cur = set(members.tolist())
        assert prev <= cur
        prev = cur


def test_accepts_vertex_degrees_object(small_data):
    vd = vertex_degrees(rbf_similarity_matrix(small_data, 1.0))
    _, members = select_normal_set(vd, 0.5)
    assert members.size >= 1


# ---------------------------------------------------------------------------
# path_weights


def test_similarity_one_weighs_zero():
    s = np.array([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(path_weights(graph_from_matrix(s)), np.zeros((2, 2)))


def test_similarity_half_weighs_ln_two():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    w = path_weights(graph_from_matrix(s))
    assert w[0, 1] == pytest.approx(math.log(2.0), abs=1e-12)


def test_kernel_weight_is_squared_distance_over_gamma():
    data = Dataset(np.array([[0.0], [2.0]]))
    w = path_weights(rbf_similarity_matrix(data, 0.5))
    assert w[0, 1] == pytest.approx(8.0, rel=1e-12)


def test_negative_similarity_rejected():
    s = np.array([[1.0, -0.5], [-0.5, 1.0]])
    for matrix in (s, stored_csr(s)):
        with pytest.raises(ValueError, match="nonnegative"):
            path_weights(graph_from_matrix(matrix))


def test_kernel_graph_weights_are_refused(small_data):
    # A kernel graph's weights are read as Dijkstra needs them, never as an n x n array.
    with pytest.raises(ValueError, match="multi_source_shortest_paths"):
        path_weights(kernel_graph(small_data, 0.5))


@pytest.mark.parametrize("as_matrix", [np.array, stored_csr], ids=["dense", "sparse"])
def test_zero_similarity_is_no_edge(as_matrix):
    # Vertex 2 is linked to the others only by zeros: unreachable.
    s = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w = path_weights(graph_from_matrix(as_matrix(s)))
    assert w[0, 2] == np.inf and w[2, 1] == np.inf and w[2, 2] == 0.0
    d = multi_source_shortest_paths(w, np.array([0]))
    np.testing.assert_allclose(d, [0.0, math.log(2), np.inf])
    # A zero direct link from 0 to 2 is routed around, through vertex 1.
    s[1, 2] = s[2, 1] = 0.5
    w = path_weights(graph_from_matrix(as_matrix(s)))
    d = multi_source_shortest_paths(w, np.array([0]))
    np.testing.assert_allclose(d, [0.0, math.log(2), 2 * math.log(2)], rtol=1e-15)


# ---------------------------------------------------------------------------
# multi_source_shortest_paths


def test_chain_distances_from_one_end():
    eps = 1e-12
    s = np.array([[1.0, 0.5, eps], [0.5, 1.0, 0.5], [eps, 0.5, 1.0]])
    d = multi_source_shortest_paths(-np.log(s), np.array([0]))
    np.testing.assert_allclose(d, [0.0, math.log(2), 2 * math.log(2)], atol=1e-10)


def test_chain_distances_from_both_ends():
    eps = 1e-12
    s = np.array([[1.0, 0.5, eps], [0.5, 1.0, 0.5], [eps, 0.5, 1.0]])
    d = multi_source_shortest_paths(-np.log(s), np.array([0, 2]))
    np.testing.assert_allclose(d, [0.0, math.log(2), 0.0], atol=1e-12)


def test_empty_sources_rejected():
    with pytest.raises(ValueError):
        multi_source_shortest_paths(np.zeros((2, 2)), np.array([], dtype=int))


def oracle_dijkstra(weights, sources):
    """Heap Dijkstra with a Python loop over each settled vertex's edges."""
    n = weights.shape[0]
    dist = np.full(n, np.inf)
    dist[sources] = 0.0
    heap = [(0.0, int(s)) for s in sources]
    heapq.heapify(heap)
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        if sparse.issparse(weights):
            row = slice(weights.indptr[u], weights.indptr[u + 1])
            edges = zip(weights.indices[row], weights.data[row])
        else:
            edges = enumerate(weights[u])
        for v, w in edges:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (float(dist[v]), int(v)))
    return dist


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), density=st.floats(0.0, 1.0))
def test_dense_and_sparse_match_heap_dijkstra(seed, n, density):
    # Weights that are not dyadic make sums along different paths differ in
    # the last bits, zero weights tie distances, and repeated sources are
    # allowed.  The sparse graph is directed and leaves vertices unreachable.
    rng = np.random.default_rng(seed)
    w = rng.choice([0.0, 0.1, 0.3, 0.7, 1.3, 2.9], size=(n, n))
    sources = rng.choice(n, size=int(rng.integers(1, n + 1)))
    assert np.array_equal(multi_source_shortest_paths(w, sources), oracle_dijkstra(w, sources))
    kept = rng.random((n, n)) < density
    csr = sparse.csr_matrix((w[kept], np.nonzero(kept)), shape=(n, n))
    assert csr.nnz == kept.sum()  # zero weights are stored edges
    assert np.array_equal(
        multi_source_shortest_paths(csr, sources), oracle_dijkstra(csr, sources)
    )


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=14),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
    k_share=st.floats(0.0, 1.0),
    q=st.floats(0.05, 0.95),
)
def test_path_graphs_match_heap_dijkstra(points, gamma, k_share, q):
    # Duplicated points give zero path weights; kNN graphs, directed or
    # symmetrized, can leave vertices unreachable from the normal set.
    g = rbf_similarity_matrix(Dataset(np.array(points, dtype=float)), gamma)
    _, normal = select_normal_set(vertex_degrees(g), q)
    knn = knn_truncate(g, 1 + int(k_share * (g.n - 2)))
    for graph in (g, knn, max_symmetrize(knn)):
        weights = path_weights(graph)
        assert np.array_equal(
            multi_source_shortest_paths(weights, normal), oracle_dijkstra(weights, normal)
        )


@pytest.mark.filterwarnings("ignore:.*unreachable")
@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=12),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
    metric=st.sampled_from(list(DistanceMetric)),
    q=st.floats(0.05, 0.95),
)
def test_underflowed_entries_keep_exact_weight_distances(points, gamma, metric, q):
    # The two far corners make some kernel entries underflow to 0.  The
    # oracle runs on the exact weights d^2/gamma.  A path below ~708 only
    # uses entries in the normal float range, whose -ln is exact to
    # rounding; past it a subnormal entry's -ln is off by up to ~0.7 and a
    # zero is no edge, so there the only bound is ~708.
    x = np.array(points + [(0, 0), (40, 40)], dtype=float)
    model = fit_shortest_path(Dataset(x), gamma, q, metric=metric)
    assert np.any(model.graph.rows(slice(0, model.graph.n)) == 0.0)
    oracle = multi_source_shortest_paths(sq_distances(x, x, metric) / gamma, model.normal_set)
    near, floor = oracle < 700.0, np.minimum(oracle, 708.0) - 1e-9
    np.testing.assert_allclose(model.ra_q[near], oracle[near], rtol=0, atol=1e-9)
    assert np.all(model.ra_q >= floor)
    one_hop = one_hop_scores(model, x)
    np.testing.assert_allclose(one_hop[near], model.ra_q[near], rtol=0, atol=1e-9)
    assert np.all((floor <= one_hop) & (one_hop <= model.ra_q))


def dense_route_oracle(data, gamma, q, k, metric):
    """The shortest-path fit as a chain over the dense n x n graph: kernel
    matrix, its row sums, kNN truncation and symmetrization, an n x n array
    of -ln s weights, and the array Dijkstra on it."""
    dense = rbf_similarity_matrix(data, gamma, metric)
    vd = vertex_degrees(dense)
    _, normal = select_normal_set(vd, q)
    path_graph = dense if k is None else max_symmetrize(knn_truncate(dense, k))
    return vd, normal, multi_source_shortest_paths(path_weights(path_graph), normal), path_graph


@pytest.mark.filterwarnings("ignore:.*unreachable")
@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=14),
    gamma=st.sampled_from([1e-4, 0.1, 1.0, 10.0]),
    metric=st.sampled_from(list(DistanceMetric)),
    k_share=st.one_of(st.none(), st.floats(0.0, 1.0)),
    q=st.floats(0.05, 0.95),
    block_rows=st.integers(1, 4),
)
def test_row_block_fits_equal_the_dense_route(points, gamma, metric, k_share, q, block_rows):
    # Integer-grid points repeat rows and tie similarities; gamma 1e-4 makes
    # every off-diagonal similarity 0, a +inf weight.  Small blocks make the
    # kernel pass and the kNN selection read several row blocks.
    data = Dataset(np.array(points, dtype=float))
    k = None if k_share is None else 1 + int(k_share * (data.n - 2))
    vd, normal, ra_q, path_graph = dense_route_oracle(data, gamma, q, k, metric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_rows * data.n)
        model = fit_shortest_path(data, gamma, q, k, metric=metric)
        kernel_vd = vertex_degrees(kernel_graph(data, gamma, metric))
    assert np.array_equal(model.vd, vd) and np.array_equal(kernel_vd, vd)
    assert np.array_equal(model.normal_set, normal)
    assert np.array_equal(model.ra_q, ra_q)
    if k is None:
        assert np.array_equal(model.graph.rows(slice(0, data.n)), path_graph.matrix)
    else:
        got, want = model.graph.matrix, path_graph.matrix
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # ln 0 in the pool's threads too
@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=14),
    gamma=st.sampled_from([1e-4, 0.1, 1.0, 10.0]),
    metric=st.sampled_from(list(DistanceMetric)),
    picks=st.lists(st.integers(0, 13), min_size=1, max_size=20),
    every=st.booleans(),
    block_rows=st.integers(1, 4),
)
def test_kernel_graph_dijkstra_equals_the_ndarray_route(
    points, gamma, metric, picks, every, block_rows
):
    # Integer-grid points repeat rows (zero weights) and tie distances; gamma
    # 1e-4 underflows every off-diagonal entry to 0 (+inf weights).  Sources
    # repeat, or are every vertex; n runs from 1.  Small blocks split the
    # source pass into several blocks on the pool's threads.
    x = np.array(points, dtype=float)
    n = len(x)
    sources = np.arange(n) if every else np.array(picks) % n
    kernel = SimilarityGraph(None, gamma, metric, source=Dataset(x))
    with np.errstate(divide="ignore"):
        weights = -np.log(kernel_rows(x, x, gamma, metric))
    want = oracle_dijkstra(weights, sources)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_rows * n)
        got = multi_source_shortest_paths(kernel, sources)
    assert got.tobytes() == want.tobytes()
    assert multi_source_shortest_paths(weights, sources).tobytes() == want.tobytes()


def test_kernel_graph_source_pass_holds_o_n_memory(monkeypatch):
    # One-row blocks: a pass that kept each block's n-long minima would hold
    # |sources| x |rest| entries (36 MB here); written in place it holds O(n).
    n = 3000
    x = np.random.default_rng(0).normal(size=(n, 3))
    graph = kernel_graph(Dataset(x), 1.0)
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 1)
    tracemalloc.start()
    try:
        multi_source_shortest_paths(graph, np.arange(0, n, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * n


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
def test_dense_graph_dijkstra_takes_weights_row_by_row(seed, n):
    # Zero similarities are +inf weights (no edge), ones are zero weights.
    rng = np.random.default_rng(seed)
    s = rng.choice([0.0, 1e-300, 0.1, 0.5, 1.0], size=(n, n))
    sources = rng.choice(n, size=int(rng.integers(1, n + 1)))
    with np.errstate(divide="ignore"):
        want = multi_source_shortest_paths(-np.log(s), sources)
    assert np.array_equal(multi_source_shortest_paths(graph_from_matrix(s), sources), want)
    # A sparse graph becomes CSR weights, which run csgraph's Dijkstra.
    sparse_graph = graph_from_matrix(stored_csr(s))
    assert np.array_equal(multi_source_shortest_paths(sparse_graph, sources), want)


def test_dense_graph_dijkstra_rejects_negative_similarities():
    s = np.array([[1.0, -0.1], [-0.1, 1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        multi_source_shortest_paths(graph_from_matrix(s), np.array([0]))


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        s = rng.uniform(0.05, 1.0, size=(n, n))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        sources = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        dist = multi_source_shortest_paths(-np.log(s), sources)
        want, prod = oracle_paths(s, sources)
        np.testing.assert_allclose(dist, want, atol=1e-10)
        np.testing.assert_allclose(np.exp(-dist), prod, atol=1e-10)


# ---------------------------------------------------------------------------
# fit_shortest_path


def test_fitted_model_matches_oracle():
    rng = np.random.default_rng(2)
    for seed in range(5):
        data = random_dataset(8, 2, seed=seed)
        model = fit_shortest_path(data, 1.0, q=0.4)
        s = rbf_similarity_matrix(data, 1.0).matrix
        want, _ = oracle_paths(s, model.normal_set)
        np.testing.assert_allclose(model.ra_q, want, atol=1e-10)


def test_zero_on_normal_set_nonnegative_elsewhere(small_data):
    model = fit_shortest_path(small_data, 1.0, q=0.5)
    assert np.all(model.ra_q >= 0.0)
    assert np.all(model.ra_q[model.normal_set] == 0.0)
    outside = np.setdiff1d(np.arange(small_data.n), model.normal_set)
    assert np.all(model.ra_q[outside] > 0.0)


def test_scores_shrink_as_q_grows():
    data = random_dataset(30, 2, seed=3)
    m1 = fit_shortest_path(data, 1.0, q=0.3)
    m2 = fit_shortest_path(data, 1.0, q=0.6)
    assert set(m1.normal_set.tolist()) <= set(m2.normal_set.tolist())
    assert np.all(m1.ra_q >= m2.ra_q - 1e-12)


def test_gamma_rescales_all_path_lengths():
    data = random_dataset(25, 2, seed=4)
    m1 = fit_shortest_path(data, 0.5, q=0.5)
    m2 = fit_shortest_path(data, 2.0, q=0.5)
    if np.array_equal(m1.normal_set, m2.normal_set):
        np.testing.assert_allclose(m1.ra_q * 0.5, m2.ra_q * 2.0, rtol=1e-9)
        ranks1 = np.argsort(m1.ra_q, kind="stable")
        ranks2 = np.argsort(m2.ra_q, kind="stable")
        assert np.array_equal(ranks1, ranks2)
    else:
        pytest.skip("normal sets differ between bandwidths for this draw")


def test_gamma_scaling_identity_on_fixed_sources():
    data = random_dataset(20, 2, seed=5)
    sources = np.array([0, 3, 4])
    d1 = multi_source_shortest_paths(path_weights(rbf_similarity_matrix(data, 0.5)), sources)
    d2 = multi_source_shortest_paths(path_weights(rbf_similarity_matrix(data, 2.0)), sources)
    np.testing.assert_allclose(d1 * 0.5, d2 * 2.0, rtol=1e-9)


def test_triangle_consistency_on_edges(small_data):
    model = fit_shortest_path(small_data, 1.0, q=0.4)
    w = path_weights(rbf_similarity_matrix(small_data, 1.0))
    ra = model.ra_q
    n = small_data.n
    for i in range(n):
        for j in range(n):
            if i != j:
                assert ra[i] <= w[i, j] + ra[j] + 1e-9


def test_knn_graph_can_leave_nodes_unreachable():
    # one tight popular cluster and two far-away stragglers; with k=1 the
    # stragglers pair up with each other and disconnect from the sources
    cluster = np.linspace(0.0, 0.2, 8)[:, None]
    data = Dataset(np.vstack([cluster, [[50.0], [50.1]]]))
    with pytest.warns(UserWarning, match="unreachable"):
        model = fit_shortest_path(data, 1.0, q=0.3, k=1)
    assert np.isinf(model.ra_q[-1]) and np.isinf(model.ra_q[-2])


def test_degrees_come_from_dense_graph_even_with_knn():
    data = random_dataset(15, 2, seed=6)
    dense_vd = vertex_degrees(rbf_similarity_matrix(data, 1.0))
    model = fit_shortest_path(data, 1.0, q=0.5, k=3)
    np.testing.assert_array_equal(model.vd, dense_vd)
    assert model.graph.is_sparse


# ---------------------------------------------------------------------------
# scoring new observations


def one_hop_scores(model, points):
    """One-hop extension of the fitted distances to model-space points."""
    g = model.graph
    return one_hop_extension(np.atleast_2d(points), g.source.values, model.ra_q, g.gamma, g.metric)


def test_training_points_score_their_fitted_values(small_data):
    model = fit_shortest_path(small_data, 1.0, q=0.5)
    scores = one_hop_scores(model, small_data.values)
    np.testing.assert_allclose(scores, model.ra_q, atol=1e-12)


def test_normal_training_point_scores_zero(small_data):
    model = fit_shortest_path(small_data, 1.0, q=0.5)
    x = small_data.values[model.normal_set[0]]
    assert one_hop_scores(model, x[None])[0] == 0.0


def test_scores_increase_along_a_ray(small_data):
    model = fit_shortest_path(small_data, 1.0, q=0.5)
    center = small_data.values.mean(axis=0)
    direction = np.array([1.0, 0.5])
    scores = one_hop_scores(model, center + np.linspace(2, 10, 9)[:, None] * direction)
    assert np.all(np.diff(scores) > 0.0)
