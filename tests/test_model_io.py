"""Model bundles: out-of-sample scoring under both distance metrics."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from relanom import graph as graph_module
from relanom.cli import main
from relanom.dataset import Dataset, write_csv
from relanom.graph import DistanceMetric
from relanom.model_io import METHODS, ModelBundle, fit_model, load_model, save_model
from relanom.synth import scraping_analogue


@pytest.mark.parametrize("metric", [DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN])
@pytest.mark.parametrize("method", ["popularity", "vertex_degree", "shortest_path"])
def test_bundle_scores_training_rows_like_the_fit(method, metric):
    raw, _ = scraping_analogue(300, seed=0)
    bundle, _ = fit_model(raw, method, metric=metric)
    train = bundle.training.values
    # AC6 tolerance: out-of-sample scores reproduce the training scores.
    np.testing.assert_allclose(
        bundle.score_model(train), bundle.train_scores_rowwise(), rtol=0.0, atol=1e-6)


def unblocked_scores(method, state, training, points, gamma, metric):
    """Test oracle: the whole query-by-training kernel at once."""
    if metric is DistanceMetric.EUCLIDEAN:
        sq = cdist(points, training, "sqeuclidean")
    else:
        d = cdist(points, training, "cityblock")
        sq = d * d
    if method == "shortest_path":
        return np.min(sq / gamma + state["ra_q"], axis=1)
    k = np.exp(-sq / gamma)
    if method == "vertex_degree":
        return -k.sum(axis=1)
    return -(k * state["s_vec"]).sum(axis=1) / state["denom"]


grid_points = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=17)


@settings(max_examples=150, deadline=None)
@given(
    train=grid_points.filter(lambda p: len(p) >= 2),
    queries=grid_points,
    method=st.sampled_from(METHODS),
    metric=st.sampled_from(list(DistanceMetric)),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
    block_rows=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_blocked_scores_equal_the_unblocked_oracle(
    train, queries, method, metric, gamma, block_rows, seed
):
    # Duplicated integer-grid points repeat distances; a query count that is
    # not a multiple of the block size leaves a short last block.
    assume(block_rows == 1 or len(queries) % block_rows)
    training = np.array(train, dtype=float)
    points = np.array(queries, dtype=float)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.01, 1.0, len(training))
    state = {"s_vec": weights / np.linalg.norm(weights), "denom": float(rng.uniform(1.0, 5.0)),
             "vd": weights, "ra_q": np.where(rng.random(len(training)) < 0.2, np.inf, weights),
             "normal_set": np.array([0])}
    bundle = ModelBundle(method, "standardize", metric, gamma, {}, [], Dataset(training), state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK_ENTRIES", block_rows * len(training))
        got = bundle.score_model(points)
    assert np.array_equal(got, unblocked_scores(method, state, training, points, gamma, metric))


@pytest.mark.parametrize("method", METHODS)
def test_scoring_holds_one_block_of_kernel_rows_at_a_time(method):
    raw, _ = scraping_analogue(1000, seed=0)
    bundle, _ = fit_model(raw, method)
    training = bundle.training.values
    rng = np.random.default_rng(0)
    points = training[rng.integers(0, 1000, 5000)] + rng.normal(0.0, 0.1, (5000, 2))
    tracemalloc.start()
    try:
        got = bundle.score_model(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One whole 5000 x 1000 float64 kernel would be 40 MB.
    assert peak < 16e6
    assert np.array_equal(got, unblocked_scores(
        method, bundle.state, training, points, bundle.gamma, bundle.metric))


def fitted_state(raw, method, **kwargs):
    bundle, _ = fit_model(raw, method, **kwargs)
    return bundle.state


def test_row_block_fits_run_past_the_dense_limit():
    raw, _ = scraping_analogue(60, seed=0)
    fits = [("vertex_degree", {}), ("shortest_path", {}), ("shortest_path", {"k": 10})]
    want = [fitted_state(raw, method, **kwargs) for method, kwargs in fits]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "DENSE_LIMIT", 20)
        got = [fitted_state(raw, method, **kwargs) for method, kwargs in fits]
        with pytest.raises(ValueError, match="dense limit of 20 for popularity; --method "
                                             "vertex_degree and --method shortest_path scale "
                                             "past it"):
            fit_model(raw, "popularity")
    for got_state, want_state in zip(got, want):
        assert got_state.keys() == want_state.keys()
        for key in want_state:
            assert np.array_equal(got_state[key], want_state[key])


def fit_peak_bytes(raw, method, **kwargs):
    tracemalloc.start()
    try:
        fit_model(raw, method, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fits_hold_no_second_kernel():
    n = 1500
    raw, _ = scraping_analogue(n, seed=0)
    kernel_bytes = n * n * 8
    # Row-block fits: one block of kernel rows at a time, never the n x n kernel.
    assert fit_peak_bytes(raw, "vertex_degree") < kernel_bytes
    assert fit_peak_bytes(raw, "shortest_path", k=10) < kernel_bytes
    assert fit_peak_bytes(raw, "shortest_path") < kernel_bytes


@pytest.mark.parametrize("method, key, value", [
    ("popularity", "gamma", -0.2),
    ("popularity", "gamma", 0.0),
    ("popularity", "gamma", math.nan),
    ("popularity", "gamma", math.inf),
    ("popularity", "state.denom", 0.0),
    ("popularity", "state.denom", -5.0),
    ("popularity", "state.denom", math.nan),
    ("vertex_degree", "gamma", -0.2),
    ("shortest_path", "gamma", -0.2),
])
def test_a_model_that_divides_by_an_impossible_value_is_refused(tmp_path, capsys, method,
                                                                key, value):
    raw, _ = scraping_analogue(60, seed=0)
    data = tmp_path / "data.csv"
    write_csv(data, raw.columns, raw.values.tolist())
    model = tmp_path / "model.json"
    save_model(model, fit_model(raw, method)[0])
    doc = json.loads(model.read_text())
    if key == "gamma":
        doc["gamma"] = value
    else:
        doc["state"]["denom"] = value
    model.write_text(json.dumps(doc))  # nan and inf as the JSON module writes them
    with pytest.raises(ValueError, match=f"'{key}' entry is {value}, not a positive finite"):
        load_model(model)
    out = tmp_path / "scores.csv"
    assert main(["score", "--model", str(model), "--input", str(data),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and f"'{key}'" in err
    assert not out.exists()
