"""Power iteration, eigenvector scores, RFF warm start, out-of-sample scoring.

Eigenpairs are verified against numpy's symmetric eigendecomposition; the
feature map is verified against a Monte Carlo estimate of the kernel.
"""

import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.blas import dsymv as blas_dsymv

import relanom
from relanom import graph as graph_module
from relanom import popularity as popularity_module
from relanom.dataset import Dataset
from relanom.graph import DistanceMetric, ThresholdCut, rbf_similarity_matrix
from relanom.popularity import (
    ConvergenceError,
    _symmetric_product,
    fit_popularity,
    kernel_extension,
    power_iteration,
    relative_anomaly,
    rff_feature_map,
    rff_warm_start,
)
from relanom.preprocess import apply_preprocessor, fit_preprocessor
from relanom.scoring import label_top_fraction
from relanom.synth import scraping_analogue, wifi_analogue

from conftest import random_dataset
from test_similarity_graph import brute_force_cut


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
    # NaN would run out the iteration budget; inf would return the start vector.
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            power_iteration(np.eye(2), tol=tol)
    with pytest.raises(ValueError, match="starting vector"):
        power_iteration(np.eye(2), s0=np.zeros(2))
    with pytest.raises(FloatingPointError):
        power_iteration(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def plain_power_iteration(s, s0, tol=1e-8):
    """Test oracle: the power iteration on S with no weights, from s0 or the uniform vector,
    on the same dsymv product of S's upper triangle."""
    v = np.full(len(s), 1.0 / math.sqrt(len(s))) if s0 is None else s0 / np.linalg.norm(s0)
    for it in range(1, 10_001):
        y = blas_dsymv(1.0, s.T, v, lower=1)
        lam = float(v @ y)
        if (residual := float(np.linalg.norm(y - lam * v))) <= tol:
            return v, lam, it, residual
        v = y / float(np.linalg.norm(y))
    raise AssertionError("the oracle did not converge")


@settings(max_examples=60, deadline=None)
@given(values=st.integers(1, 40).flatmap(lambda n: arrays(
           np.float64, (n, 2), elements=st.floats(-1.0, 1.0, allow_subnormal=False))),
       gamma=st.floats(1.0, 4.0), random_start=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_unit_weights_are_the_plain_iteration(values, gamma, random_start, seed):
    s = rbf_similarity_matrix(Dataset(values), gamma).matrix
    n = len(s)
    s0 = np.random.default_rng(seed).random(n) + 1e-12 if random_start else None
    plain, weighted = power_iteration(s, s0), power_iteration(s, s0, weights=np.ones(n))
    assert weighted.s_vec.tobytes() == plain.s_vec.tobytes()
    assert (weighted.lambda1, weighted.iterations, weighted.residual) == (
        plain.lambda1, plain.iterations, plain.residual)
    v, lam, iterations, residual = plain_power_iteration(s, s0)
    assert plain.s_vec.tobytes() == v.tobytes()
    assert (plain.lambda1, plain.iterations, plain.residual) == (lam, iterations, residual)


def test_dense_product_reads_only_the_upper_triangle():
    rng = np.random.default_rng(10)
    s = random_positive_symmetric(rng, 30)
    garbled = s.copy()
    garbled[np.tril_indices(30, -1)] = np.nan
    want = power_iteration(s, tol=1e-12)
    for layout in (garbled, np.asfortranarray(garbled)):
        got = power_iteration(layout, tol=1e-12)
        np.testing.assert_allclose(got.s_vec, want.s_vec, rtol=1e-12)
        assert got.iterations == want.iterations


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_matrix_is_never_copied_per_product(layout, monkeypatch):
    # f2py would copy a matrix dsymv cannot read in place on every call (18 MB here);
    # a strided one is copied once, before the loop.
    def dsymv(alpha, a, x, **kwargs):
        assert a.flags.f_contiguous and a.dtype == np.float64
        return blas_dsymv(alpha, a, x, **kwargs)

    monkeypatch.setattr(popularity_module, "dsymv", dsymv)
    n = 1500
    s = random_positive_symmetric(np.random.default_rng(11), n)
    if layout == "F":
        s = np.asfortranarray(s)
    elif layout == "strided":
        wide = np.empty((n, n + 1))
        wide[:, :n] = s
        s = wide[:, :n]
    tracemalloc.start()
    try:
        res = power_iteration(s, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations > 3
    copies = 1 if layout == "strided" else 0
    assert peak < copies * s.size * 8 + 1e6


def test_nonconvergence_error():
    rng = np.random.default_rng(5)
    s = random_positive_symmetric(rng, 20)
    with pytest.raises(ConvergenceError) as exc:
        power_iteration(s, tol=1e-15, max_iter=2)
    assert exc.value.residual > 0.0
    assert "residual" in str(exc.value)


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
    assert a.lambda1 == b.lambda1
    for model in (a, fit_popularity(data, 0.5), fit_popularity(data, 0.5, sparsify=0.5),
                  fit_popularity(data, 0.5, start="rff")):
        # lambda1, the out-of-sample denominator, is s' S s of the returned vector, with
        # S s from dsymv, the product the iteration uses.  The matrix it iterated on is
        # freed: the kernel, with the cut's dropped entries zeroed for a sparsified fit.
        s = model.graph.rows(slice(0, data.n))
        product = _symmetric_product(s, np.ones(data.n))
        assert model.lambda1 == float(model.s_vec @ product(model.s_vec))


def test_equal_observations_get_bit_equal_entries(wifi):
    # dsymv sums each entry in an order set by its index; on all rows, wifi's largest
    # group of equal rows (about 72% of them) got several distinct values.  The fit
    # runs on the distinct rows and gives each group its one entry.
    raw, _ = wifi
    data = apply_preprocessor(raw, fit_preprocessor(raw, "box-cox"))
    _, groups = np.unique(data.values, axis=0, return_inverse=True)
    for flags in ({"start": "uniform"}, {"start": "rff"}, {"sparsify": 0.5}):
        s_vec = fit_popularity(data, 0.2, **flags).s_vec
        for g in np.unique(groups):
            assert np.unique(s_vec[groups.ravel() == g]).size == 1


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
    # the graph keeps the record of the cut; the kernel iterated on is freed
    assert isinstance(model.graph.matrix, ThresholdCut) and model.graph.matrix.kernel is None


def test_plain_fit_is_the_cut_that_drops_nothing():
    data = random_dataset(40, 2, seed=6)
    plain = fit_popularity(data, 0.5)
    cut = plain.graph.matrix
    assert isinstance(cut, ThresholdCut) and cut.kernel is None  # freed after the iteration
    assert cut.threshold == -np.inf and cut.nnz == data.n ** 2
    assert (cut.asked, cut.dropped) == (0, 0)  # asked to drop no pair, and dropped none
    # floor(1e-4 * 780 pairs) = 0: a sparsified fit that drops no pair
    nothing = fit_popularity(data, 0.5, sparsify=1e-4)
    assert nothing.graph.matrix == cut
    assert np.array_equal(plain.s_vec, nothing.s_vec)
    assert (plain.lambda1, plain.iterations) == (nothing.lambda1, nothing.iterations)


def test_plain_fit_builds_one_upper_triangle(small_data, monkeypatch):
    build, calls = graph_module.rbf_similarity_matrix, []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("upper_only", False))
        return build(*args, **kwargs)

    monkeypatch.setattr(graph_module, "rbf_similarity_matrix", spy)
    for fits in range(1, 3):
        fit_popularity(small_data, 1.0)
        assert calls == [True] * fits


def assert_fit_is_the_iteration_on_the_oracle_cut(data, gamma, metric, drop_fraction):
    # The oracle's CSR, in the same loop with scipy's CSR product: the same cut matrix,
    # summed in another order.  The fit iterates on the distinct rows' cut.
    csr, _ = brute_force_cut(rbf_similarity_matrix(data, gamma, metric), drop_fraction)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popularity_module, "_symmetric_product", lambda m, *_: m.__matmul__)
        try:
            want = power_iteration(csr)
        except ConvergenceError:  # two clusters nearly cut apart; so must the fit fail
            want = None
    if want is None:
        with pytest.raises(ConvergenceError):
            fit_popularity(data, gamma, metric=metric, sparsify=drop_fraction)
        return
    model = fit_popularity(data, gamma, metric=metric, sparsify=drop_fraction)
    assert model.iterations == want.iterations
    np.testing.assert_allclose(model.s_vec, want.s_vec, rtol=1e-12, atol=0.0)
    assert math.isclose(model.lambda1, want.lambda1, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=40),
    drop_fraction=st.floats(0.0, 0.99),
    gamma=st.sampled_from([0.5, 5.0]),
    metric=st.sampled_from(list(DistanceMetric)),
)
def test_sparsified_fit_is_the_iteration_on_the_oracle_cut(points, drop_fraction, gamma, metric):
    # Integer grids repeat points, which tie pairs at the cut's threshold.
    data = Dataset(np.array(points, dtype=float))
    assert_fit_is_the_iteration_on_the_oracle_cut(data, gamma, metric, drop_fraction)


@pytest.mark.parametrize("drop_fraction", [0.5, 0.9])
@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("generate", [wifi_analogue, scraping_analogue])
def test_sparsified_fit_is_the_iteration_on_the_oracle_cut_of_the_analogues(
    generate, metric, drop_fraction
):
    raw = generate(300, 0)[0]
    data = apply_preprocessor(raw, fit_preprocessor(raw))
    assert_fit_is_the_iteration_on_the_oracle_cut(data, 0.2, metric, drop_fraction)


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=30),
    drop_fraction=st.floats(0.0, 0.99),
    metric=st.sampled_from(list(DistanceMetric)),
)
def test_equal_observations_keep_equal_cut_rows_and_bit_equal_entries(
    points, drop_fraction, metric
):
    # The cut keeps or drops the pairs tied at its threshold together, so equal
    # observations keep equal rows, and one distinct row stands for them all.
    data = Dataset(np.array(points, dtype=float))
    _, first, inverse = np.unique(data.values, axis=0, return_index=True, return_inverse=True)
    equal = first[inverse.ravel()]
    model = fit_popularity(data, 5.0, metric=metric, sparsify=drop_fraction)
    rows = model.graph.rows(slice(0, data.n))
    assert np.array_equal(rows, rows[equal])
    assert np.array_equal(model.s_vec, model.s_vec[equal])


def test_sparsified_fit_converges_where_split_ties_stalled_the_copy():
    # q, the 5th smallest of the 10 pairs, lies inside a block of six tied pairs that the
    # graph needs to stay connected.  A cut that split the block would give the two
    # (0, 1) rows unequal rows, and no one distinct row could stand for both.
    data = Dataset(np.array([(1, 1), (0, 0), (0, 1), (0, 1), (1, 1)], dtype=float))
    assert_fit_is_the_iteration_on_the_oracle_cut(data, 5.0, DistanceMetric.EUCLIDEAN, 0.5)
    assert fit_popularity(data, 5.0, sparsify=0.5).iterations == 18


def test_rff_start_requires_euclidean(small_data):
    with pytest.raises(ValueError):
        fit_popularity(small_data, 1.0, start="rff", metric=DistanceMetric.MANHATTAN)


class KernelBuilt(Exception):
    pass


@pytest.mark.parametrize("flags, match", [
    ({"start": "sideways"}, "unknown start"),
    ({"start": "rff", "metric": DistanceMetric.MANHATTAN}, "euclidean"),
    ({"tol": math.nan}, "tol"),
    ({"tol": 0.0}, "tol"),
    ({"tol": -1e-8}, "tol"),
    ({"max_iter": 0}, "max_iter"),
    ({"sparsify": 1.0}, "sparsify"),
    ({"sparsify": -0.1}, "sparsify"),
    ({"start": "rff", "rff_dim": 0}, "n_features"),
])
def test_bad_flags_are_refused_before_the_kernel_is_built(flags, match, small_data, monkeypatch):
    # The dense kernel is 8 n^2 bytes (3.2 GB at 20,000 rows): a bad flag must not cost it.
    def build(data, gamma, metric, *, upper_only=False):
        raise KernelBuilt

    monkeypatch.setattr(graph_module, "rbf_similarity_matrix", build)
    with pytest.raises(ValueError, match=match):
        fit_popularity(small_data, 1.0, **flags)
    with pytest.raises(KernelBuilt):  # the spy is in place
        fit_popularity(small_data, 1.0)


def test_rff_fit_holds_the_features_or_the_kernel_not_both():
    # The warm start is built, and its features freed, before the kernel; the feature
    # map works in place.  Kernel 18 MB (in an anonymous mapping, which tracemalloc
    # does not see), one 1024 x 1500 feature array 12 MB.
    n, dim = 1500, 1024
    data = random_dataset(n, 2, seed=12)
    tracemalloc.start()
    try:
        model = fit_popularity(data, 1.0, start="rff", rff_dim=dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(model.s_vec > 0.0)
    # the features and their D x D Gram matrix; the kernel lies outside numpy's allocator
    assert peak <= (n * dim + dim * dim) * 8 + 100_000
    tracemalloc.start()
    try:
        rff_feature_map(data, dim, 1.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * dim * 8 + 100_000  # one D x n array, plus W and b


@pytest.mark.parametrize("analogue", ["wifi", "scraping"])
def test_sparsified_fit_peaks_at_one_kernel_of_the_distinct_rows(analogue, request):
    # The cut is found in the dense m x m kernel of the m distinct rows (8 m^2 bytes),
    # which then holds the cut the power iteration reads.  Small row blocks leave that
    # kernel to decide the peak: 1.3 MB on wifi (m = 281 of n = 1000), 8.8 MB on scraping
    # (m = n = 1000).
    raw = request.getfixturevalue(analogue)[0]
    data = apply_preprocessor(raw, fit_preprocessor(raw))
    m, blocks = data.distinct.data.n, 1 << 16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", blocks)
        tracemalloc.start()
        try:
            model = fit_popularity(data, 0.2, sparsify=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert model.graph.matrix.kernel is None  # freed after the iteration
    # the row blocks in flight, and beside the kernel the pairs of rows that have equal ones
    assert peak <= 8 * m * m + 3 * 8 * blocks


_RSS_SCRIPT = """
import resource, sys
import numpy as np
from relanom.dataset import Dataset
from relanom.popularity import fit_popularity
data = Dataset(np.random.default_rng(0).normal(size=(int(sys.argv[1]), 3)))
fit_popularity(Dataset(data.values[:50]), 1.0)  # the modules, the pool and the BLAS loaded
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fit_popularity(data, 1.0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
      * (1 if sys.platform == "darwin" else 1024))  # bytes on macOS, else kilobytes
"""


def test_dense_fit_keeps_only_the_upper_triangle_resident():
    # tracemalloc does not see the triangle's anonymous mapping; the peak resident set
    # does.  The whole kernel is 8 n^2 bytes (72 MB); the upper triangle is 4 n^2, plus
    # at most about one partly written page per row, plus the row blocks' scratch.
    pytest.importorskip("resource")
    n = 3000
    src = str(Path(relanom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT, str(n)], env=env, check=True,
                         timeout=300, stdout=subprocess.PIPE, text=True).stdout
    bound = 4 * n * n + mmap.PAGESIZE * n + 8 * graph_module._BLOCK_ENTRIES + (4 << 20)
    assert int(out) <= bound < 8 * n * n


_FIT_SCRIPT = """
import sys
import numpy as np
from relanom.popularity import fit_popularity
from relanom.preprocess import apply_preprocessor, fit_preprocessor
from relanom.synth import scraping_analogue
raw, _ = scraping_analogue(1000, seed=0)
model = fit_popularity(apply_preprocessor(raw, fit_preprocessor(raw, "box-cox")), 0.2)
np.save(sys.argv[1], np.append(model.s_vec, model.iterations))
"""


def test_blas_thread_count_moves_only_the_last_bits(tmp_path):
    # dsymv splits its sums among the BLAS threads, so their number moves the
    # eigenvector's last bits, not its labels or the iteration count.
    src = str(Path(relanom.__file__).resolve().parents[1])
    fits = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}.npy"
        subprocess.run([sys.executable, "-c", _FIT_SCRIPT, str(out)], env=env, check=True,
                       timeout=300)
        fits.append(np.load(out))
    (s1, iters1), (s2, iters2) = ((f[:-1], f[-1]) for f in fits)
    assert iters1 == iters2
    np.testing.assert_allclose(s2, s1, rtol=1e-12, atol=0.0)
    assert np.array_equal(label_top_fraction(-s1, 0.2), label_top_fraction(-s2, 0.2))


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
# out-of-sample scoring: the kernel extension


def extension_scores(model, points):
    """Kernel extension of the fitted eigenvector to model-space points."""
    g = model.graph
    return kernel_extension(
        np.atleast_2d(points), g.source.values, model.s_vec, model.lambda1, g.gamma, g.metric)


def test_training_rows_score_their_own_entries(small_data):
    model = fit_popularity(small_data, 1.0, tol=1e-10)
    for i in range(small_data.n):
        got = extension_scores(model, small_data.values[i][None])[0]
        assert got == pytest.approx(-model.s_vec[i], abs=1e-6)


def test_batch_matches_scalar_scoring(small_data):
    model = fit_popularity(small_data, 1.0)
    pts = random_dataset(5, 2, seed=9).values
    batch = extension_scores(model, pts)
    for i, x in enumerate(pts):
        # BLAS may sum a one-row product in another order than the full one
        assert extension_scores(model, x[None])[0] == pytest.approx(batch[i], rel=1e-12)


def test_far_point_scores_near_zero(small_data):
    model = fit_popularity(small_data, 1.0, tol=1e-10)
    far = extension_scores(model, np.array([[1e4, 1e4]]))[0]
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
    assert extension_scores(model, mode[None])[0] < np.quantile(ra, 0.2)
