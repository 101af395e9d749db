"""Fits on distinct rows weighted by multiplicity, against the full-row route.

Popularity (plain and sparsified), vertex degrees and the dense shortest-path
fit run on the m distinct rows of their input.  The oracles here build the
dense n x n kernel of every row and run the primitives on it: the power
iteration on the kernel or its brute-force cut, its row sums, and the array
Dijkstra on the exact weights d^2 / gamma of every pair of rows.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relanom import graph as graph_module
from relanom.dataset import Dataset, distinct_rows
from relanom.degree import vertex_degrees
from relanom.graph import (
    DistanceMetric,
    kernel_graph,
    rbf_similarity_matrix,
    sq_distances,
    threshold_sparsify,
)
from relanom.model_io import fit_model
from relanom.popularity import ConvergenceError, fit_popularity, power_iteration
from relanom.shortest_path import (
    fit_shortest_path,
    multi_source_shortest_paths,
    select_normal_set,
)
from relanom.synth import wifi_analogue

from test_similarity_graph import brute_force_cut


def full_row_popularity(data, gamma, metric, drop_fraction):
    """The power iteration on the n x n kernel, or on its brute-force cut; with the
    cut's threshold and entry count.  None where the iteration does not converge."""
    csr, threshold = brute_force_cut(rbf_similarity_matrix(data, gamma, metric), drop_fraction)
    try:
        return power_iteration(csr.toarray()), threshold, csr.nnz
    except ConvergenceError:
        return None, threshold, csr.nnz


def assert_popularity_is_the_full_row_fit(data, gamma, metric, drop_fraction, exact):
    want, threshold, nnz = full_row_popularity(data, gamma, metric, drop_fraction)
    if want is None:  # two clusters nearly cut apart; so must the fit fail
        with pytest.raises(ConvergenceError):
            fit_popularity(data, gamma, metric=metric, sparsify=drop_fraction)
        return
    model = fit_popularity(data, gamma, metric=metric, sparsify=drop_fraction)
    cut = model.graph.matrix
    assert (cut.threshold, cut.nnz) == (threshold, nnz) and model.graph.n == data.n
    assert model.iterations == want.iterations
    if exact:
        assert np.array_equal(model.s_vec, want.s_vec) and model.lambda1 == want.lambda1
    np.testing.assert_allclose(model.s_vec, want.s_vec, rtol=1e-12, atol=0.0)
    assert math.isclose(model.lambda1, want.lambda1, rel_tol=1e-12)
    distinct = distinct_rows(data)
    assert np.array_equal(model.s_vec, model.s_vec[distinct.rows][distinct.inverse])


def assert_shortest_path_is_the_full_row_fit(data, gamma, q, metric):
    dense = rbf_similarity_matrix(data, gamma, metric)
    vd = vertex_degrees(dense)
    _, normal = select_normal_set(vd, q)
    x = data.values
    ra_q = multi_source_shortest_paths(sq_distances(x, x, metric) / gamma, normal)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_shortest_path(data, gamma, q, metric=metric)
    assert not caught and np.isfinite(ra_q).all()  # the dense graph is complete
    assert np.array_equal(model.vd, vd) and np.array_equal(model.normal_set, normal)
    assert np.array_equal(model.ra_q, ra_q)
    assert np.array_equal(model.graph.rows(slice(0, data.n)), dense.matrix)


grids = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=40)


@settings(max_examples=150, deadline=None)
@given(points=grids, drop_fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       gamma=st.sampled_from([0.5, 5.0]), metric=st.sampled_from(list(DistanceMetric)))
def test_popularity_on_duplicated_grids_is_the_full_row_fit(points, drop_fraction, gamma, metric):
    data = Dataset(np.array(points, dtype=float))
    assert_popularity_is_the_full_row_fit(data, gamma, metric, drop_fraction, exact=False)


@settings(max_examples=150, deadline=None)
@given(points=grids, gamma=st.sampled_from([0.1, 1.0, 10.0]), q=st.floats(0.05, 0.95),
       metric=st.sampled_from(list(DistanceMetric)))
def test_shortest_path_on_duplicated_grids_is_the_full_row_fit(points, gamma, q, metric):
    data = Dataset(np.array(points, dtype=float))
    assert_shortest_path_is_the_full_row_fit(data, gamma, q, metric)


@settings(max_examples=50, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2,
                       max_size=30, unique=True),
       drop_fraction=st.floats(0.0, 0.99), q=st.floats(0.05, 0.95),
       metric=st.sampled_from(list(DistanceMetric)))
def test_without_duplicates_the_fits_are_the_full_row_bits(points, drop_fraction, q, metric):
    data = Dataset(np.array(points, dtype=float))
    distinct = distinct_rows(data)
    assert np.array_equal(distinct.counts, np.ones(data.n)) and distinct.data is not data
    assert np.array_equal(distinct.data.values, data.values)
    assert_popularity_is_the_full_row_fit(data, 5.0, metric, drop_fraction, exact=True)
    assert_shortest_path_is_the_full_row_fit(data, 1.0, q, metric)


@pytest.mark.parametrize("drop_fraction", [0.0, 0.5])
def test_every_row_equal_is_one_distinct_row(drop_fraction):
    n = 7
    data = Dataset(np.full((n, 2), 3.0))
    assert distinct_rows(data).data.n == 1
    model = fit_popularity(data, 0.5, sparsify=drop_fraction)
    assert np.all(model.s_vec == 1.0 / math.sqrt(n)) and math.isclose(model.lambda1, n)
    assert model.graph.matrix.nnz == n * n
    sp = fit_shortest_path(data, 0.5, 0.5)
    assert np.array_equal(sp.normal_set, np.arange(n)) and np.all(sp.ra_q == 0.0)
    assert np.all(sp.vd == n)
    assert np.all(vertex_degrees(kernel_graph(data, 0.5)) == n)


def test_distinct_rows_keep_the_order_of_first_occurrence():
    data = Dataset(np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 5.0], [1.0, 1.0]]))
    distinct = distinct_rows(data)
    assert np.array_equal(distinct.data.values, [[2.0, 0.0], [1.0, 1.0], [0.0, 5.0]])
    assert np.array_equal(distinct.rows, [0, 1, 3])
    assert np.array_equal(distinct.inverse, [0, 1, 0, 2, 1])
    assert np.array_equal(distinct.counts, [2, 2, 1])
    assert np.array_equal(distinct.data.values[distinct.inverse], data.values)


def test_the_dense_limit_counts_distinct_rows():
    # 60 rows, 12 distinct: past a limit of 20 rows, within it by distinct rows.
    raw = Dataset(np.array([(i % 4, i % 3) for i in range(60)], dtype=float))
    data = fit_model(raw, "vertex_degree", preprocess="standardize")[0].training
    want = {f: full_row_popularity(data, 0.2, DistanceMetric.EUCLIDEAN, f) for f in (0.0, 0.5)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "DENSE_LIMIT", 20)
        got = {f: fit_model(raw, "popularity", preprocess="standardize", sparsify=f)[0].state
               for f in (0.0, 0.5)}
        wide = Dataset(np.array([(i % 7, i % 3) for i in range(60)], dtype=float))  # 21
        with pytest.raises(ValueError, match="21 distinct rows exceed the dense limit of 20 "
                                             "for popularity; --method vertex_degree"):
            fit_model(wide, "popularity")
    for f, (result, _, _) in want.items():
        assert got[f]["iterations"] == result.iterations
        np.testing.assert_allclose(got[f]["s_vec"], result.s_vec, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_wifi_fits_are_the_full_row_fits(metric):
    # 300 wifi rows, about 70% of them one repeated row.
    raw, _ = wifi_analogue(300, seed=0)
    data = fit_model(raw, "vertex_degree")[0].training
    assert distinct_rows(data).data.n < data.n // 2
    for drop_fraction in (0.0, 0.5):
        assert_popularity_is_the_full_row_fit(data, 0.2, metric, drop_fraction, exact=False)
    assert_shortest_path_is_the_full_row_fit(data, 0.2, 0.5, metric)


@pytest.mark.parametrize("method, flags, sorts", [
    ("popularity", {}, 1),
    ("popularity", {"sparsify": 0.5}, 1),
    ("popularity", {"start": "rff"}, 1),
    ("vertex_degree", {}, 1),
    ("shortest_path", {}, 1),
    ("shortest_path", {"k": 10}, 0),
], ids=["popularity", "sparsify", "rff", "vertex_degree", "shortest_path", "knn"])
@pytest.mark.filterwarnings("ignore:.*unreachable")
def test_a_fit_finds_the_distinct_rows_once(method, flags, sorts, monkeypatch):
    raw, _ = wifi_analogue(300, seed=0)
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    fit_model(raw, method, **flags)
    assert len(calls) == sorts


@settings(max_examples=100, deadline=None)
@given(points=grids, gamma=st.sampled_from([0.5, 5.0]),
       metric=st.sampled_from(list(DistanceMetric)))
def test_degrees_of_a_kernel_and_its_cut_are_the_dense_row_sums(points, gamma, metric):
    data = Dataset(np.array(points, dtype=float))
    dense = rbf_similarity_matrix(data, gamma, metric)
    degrees = vertex_degrees(kernel_graph(data, gamma, metric))
    assert degrees.tobytes() == dense.matrix.sum(axis=1).tobytes()
    cut = threshold_sparsify(kernel_graph(data, gamma, metric), 0.5)
    oracle, _ = brute_force_cut(dense, 0.5)
    assert vertex_degrees(cut).tobytes() == oracle.toarray().sum(axis=1).tobytes()
