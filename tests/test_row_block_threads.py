"""Kernel row blocks on worker threads: same bits for any worker count and block size."""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from dataclasses import replace

from scipy import sparse

from relanom import graph as graph_module
from relanom.dataset import Dataset, distinct_rows
from relanom.degree import vertex_degrees
from relanom.graph import (
    DistanceMetric,
    for_row_blocks,
    kernel_graph,
    knn_truncate,
    max_symmetrize,
    rbf_similarity_matrix,
)
from relanom.model_io import METHODS, fit_model
from relanom.popularity import fit_popularity, power_iteration
from relanom.preprocess import apply_preprocessor, fit_preprocessor
from relanom.shortest_path import (
    fit_shortest_path,
    multi_source_shortest_paths,
    path_weights,
    select_normal_set,
)
from relanom.synth import scraping_analogue, wifi_analogue

from test_model_io import unblocked_scores
from test_similarity_graph import oracle_knn


def oracle_kernel(x, gamma, metric):
    """The whole n x n kernel at once."""
    if metric is DistanceMetric.EUCLIDEAN:
        sq = cdist(x, x, "sqeuclidean")
    else:
        d = cdist(x, x, "cityblock")
        sq = d * d
    return np.exp(-sq / gamma)


@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("workers", [1, 3])
def test_threaded_blocks_give_the_unblocked_bits(workers, metric, monkeypatch):
    raw, _ = scraping_analogue(150, seed=3)
    bundles = {method: fit_model(raw, method, metric=metric)[0] for method in METHODS}
    training = bundles["popularity"].training
    x, rng = training.values, np.random.default_rng(1)
    points = x[rng.integers(0, len(x), 101)] + rng.normal(0.0, 0.1, (101, x.shape[1]))
    gamma = bundles["popularity"].gamma
    monkeypatch.setattr(graph_module, "_WORKERS", workers)
    # 7 rows of entries for all workers: blocks of 7 // workers rows, a short last one
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 7 * len(x))
    for method, bundle in bundles.items():
        want = unblocked_scores(method, bundle.state, x, points, bundle.gamma, metric)
        assert np.array_equal(bundle.score_model(points), want)
        assert bundle.score_model(points[:0]).shape == (0,)
    dense = rbf_similarity_matrix(training, gamma, metric)
    assert np.array_equal(dense.matrix, oracle_kernel(x, gamma, metric))
    upper = rbf_similarity_matrix(training, gamma, metric, upper_only=True).matrix
    assert np.array_equal(np.triu(upper), np.triu(dense.matrix))
    vd = vertex_degrees(kernel_graph(training, gamma, metric))
    assert np.array_equal(vd, oracle_kernel(x, gamma, metric).sum(axis=1))
    popularity = fit_popularity(training, gamma, metric=metric)
    assert np.array_equal(dense.matrix, popularity.graph.rows(slice(0, len(x))))
    out = np.empty((3, len(x)))
    assert dense.rows(slice(2, 5), out) is out and np.array_equal(out, dense.matrix[2:5])


@settings(max_examples=60, deadline=None)
@given(values=st.integers(2, 60).flatmap(lambda n: arrays(
           np.float64, (n, 2), elements=st.floats(-1.0, 1.0, allow_subnormal=False))),
       metric=st.sampled_from(list(DistanceMetric)), workers=st.sampled_from([1, 3]),
       block_entries=st.integers(1, 400), gamma=st.floats(1.0, 4.0))
def test_upper_triangle_has_the_full_build_bits(values, metric, workers, block_entries, gamma):
    # hypothesis draws equal rows often: the fit iterates on the distinct rows' kernel
    data = Dataset(values)
    distinct = distinct_rows(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_WORKERS", workers)
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_entries)  # blocks of 1 to a few rows
        full = rbf_similarity_matrix(data, gamma, metric).matrix
        upper = rbf_similarity_matrix(data, gamma, metric, upper_only=True).matrix
        distinct_full = rbf_similarity_matrix(distinct.data, gamma, metric).matrix
        model = fit_popularity(data, gamma, metric=metric)
    assert np.array_equal(np.triu(upper), np.triu(full))
    w = np.sqrt(distinct.counts)
    want = power_iteration(distinct_full, weights=w)
    assert np.array_equal(model.s_vec, (want.s_vec / w)[distinct.inverse])
    assert model.lambda1 == want.lambda1 and model.iterations == want.iterations


@pytest.mark.filterwarnings("ignore:.*unreachable")
@pytest.mark.parametrize("gamma", [1e-4, 0.2])
@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("workers", [1, 3])
def test_threaded_knn_selection_gives_the_serial_bits(workers, metric, gamma, monkeypatch):
    # 150 wifi rows, 43 distinct: most rows have more ties at the k-th value than
    # places.  Gamma 1e-4 makes every similarity between distinct rows 0.
    raw, _ = wifi_analogue(150, seed=3)
    data = apply_preprocessor(raw, fit_preprocessor(raw))
    x, n = data.values, data.n
    s = oracle_kernel(x, gamma, metric)
    dense = rbf_similarity_matrix(data, gamma, metric)
    monkeypatch.setattr(graph_module, "_WORKERS", workers)
    # 4 rows of the selection's (2n + n // 8 + 1)-wide scratch per worker: 37 blocks
    # of 4 rows and a last one of 2
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 4 * (2 * n + n // 8 + 1) * workers)
    for k in (1, 10, n - 1):
        indices, values = oracle_knn(s, k)
        for graph in (kernel_graph(data, gamma, metric), dense):
            t = knn_truncate(graph, k).matrix
            assert np.array_equal(t.indptr, np.arange(0, n * (k + 1) + 1, k + 1))
            assert np.array_equal(t.indices, indices) and np.array_equal(t.data, values)
        knn = sparse.csr_matrix((values, indices, t.indptr), shape=(n, n))
        want = max_symmetrize(replace(dense, matrix=knn)).matrix
        vd = s.sum(axis=1)
        _, normal = select_normal_set(vd, 0.5)
        model = fit_shortest_path(data, gamma, 0.5, k, metric=metric)
        assert np.array_equal(model.vd, vd) and np.array_equal(model.normal_set, normal)
        assert np.array_equal(model.ra_q, multi_source_shortest_paths(
            path_weights(replace(dense, matrix=want)), normal))
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(model.graph.matrix, part), getattr(want, part))


def test_a_row_reader_exception_reaches_the_knn_caller(monkeypatch):
    monkeypatch.setattr(graph_module, "_WORKERS", 3)
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 2 * 20 * 3)  # 1-row blocks
    graph = kernel_graph(scraping_analogue(20, seed=0)[0], 1.0)

    def fail_on_row_5(rows, out):
        if rows.start <= 5 < rows.stop:
            raise ZeroDivisionError("row 5")
        return graph.rows(rows, out)

    with pytest.raises(ZeroDivisionError, match="row 5"):
        knn_truncate(graph, 3, fail_on_row_5)


def test_results_come_back_in_block_order_with_block_sized_scratch(monkeypatch):
    monkeypatch.setattr(graph_module, "_WORKERS", 3)
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 6 * 4)  # 2-row blocks of width 4
    got = for_row_blocks(lambda rows, scratch: (rows, scratch.shape), 11, 4)
    assert [r for r, _ in got] == graph_module.row_blocks(11, 12)
    assert [shape for _, shape in got] == [(2, 4)] * 5 + [(1, 4)]


def test_a_single_block_runs_inline():
    got = for_row_blocks(lambda rows, scratch: (threading.current_thread(), scratch.shape), 3, 4)
    assert got == [(threading.current_thread(), (3, 4))]
    assert for_row_blocks(lambda rows, scratch: (rows, scratch.shape), 0, 4) == [
        (slice(0, 0), (0, 4))]


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", graph_module._WORKERS * 5)

    def fail_on_the_third_block(rows, scratch):
        if rows.start == 2:
            raise ZeroDivisionError("block 3")
        return rows.start

    with pytest.raises(ZeroDivisionError, match="block 3"):
        for_row_blocks(fail_on_the_third_block, 10, 5)


def test_each_scratch_buffer_serves_one_block_at_a_time(monkeypatch):
    # More threads than cores, switching every microsecond: a buffer handed to two
    # blocks at once is overwritten under one of them.
    pool = ThreadPoolExecutor(8)
    monkeypatch.setattr(graph_module, "_POOL", pool)
    monkeypatch.setattr(graph_module, "_WORKERS", 8)
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 8 * 3)  # 1-row blocks of width 3

    def fill_then_check(rows, scratch):
        scratch[:] = rows.start
        return all((scratch == rows.start).all() for _ in range(20))

    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=lambda: got.append(for_row_blocks(fill_then_check, 500, 3)))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False, cancel_futures=True)
    assert not caller.is_alive()
    assert got == [[True] * 500]


def block_starts():
    return for_row_blocks(lambda rows, scratch: rows.start, 10, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_blocks_on_a_pool_of_its_own(monkeypatch):
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 8)  # several blocks for any worker count
    want = block_starts()  # starts the parent's worker threads, which a child does not inherit
    with multiprocessing.get_context("fork").Pool(1) as children:
        assert children.apply_async(block_starts).get(timeout=60) == want
