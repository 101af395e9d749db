"""Model bundles: out-of-sample scoring under both distance metrics."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from relanom import graph as graph_module
from relanom import model_io
from relanom.cli import main
from relanom.dataset import Dataset, write_csv
from relanom.graph import DistanceMetric
from relanom.model_io import METHODS, ModelBundle, fit_model, load_model, save_model
from relanom.synth import scraping_analogue, wifi_analogue


def duplicated_grid():
    """The byte-identity manifest's ties.csv: 40 rows on 20 distinct grid points."""
    i = np.arange(40)
    return Dataset(np.column_stack([i % 4, i * 3 % 5]).astype(float), ["x1", "x2"])


TRAINING_SETS = {  # raw training data and fit_model's keywords
    "scraping": (lambda: scraping_analogue(300, seed=0)[0], {}),
    "wifi": (lambda: wifi_analogue(300, seed=0)[0], {}),
    "ties": (duplicated_grid, {"preprocess": "standardize"}),
    "wifi_gamma0.001": (lambda: wifi_analogue(300, seed=0)[0], {"gamma": 0.001}),
}


@pytest.mark.parametrize("metric", [DistanceMetric.EUCLIDEAN, DistanceMetric.MANHATTAN])
@pytest.mark.parametrize("method, training", [("popularity", "scraping")] + [
    (method, training) for method in ("vertex_degree", "shortest_path")
    for training in TRAINING_SETS])
@pytest.mark.filterwarnings("ignore:transform fit hit a search boundary")
def test_bundle_scores_training_rows_like_the_fit(method, training, metric):
    raw, settings = TRAINING_SETS[training]
    bundle, _ = fit_model(raw(), method, metric=metric, **settings)
    scores, stored = bundle.score_model(bundle.training.values), bundle.train_scores_rowwise()
    if method == "popularity":  # AC6 tolerance: out-of-sample scores reproduce the fit's
        np.testing.assert_allclose(scores, stored, rtol=0.0, atol=1e-6)
        return
    # A training row scores as itself: the stored score and its DORA, bit for bit.
    assert scores.tobytes() == stored.tobytes() and np.isfinite(stored).all()
    assert bundle.dora_of(scores).tobytes() == bundle.dora_of(stored).tobytes()


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


NOT_POSITIVE = "not a positive finite real"
NOT_NORMAL = "not a training row index above the one before it, with ra_q 0"


def far_row(state):
    """A one-row normal set: the training row farthest from the fitted set."""
    return [int(np.argmax(state["ra_q"]))]


REFUSED = [
    ("popularity", "gamma", -0.2, f"is -0.2, {NOT_POSITIVE}"),
    ("popularity", "gamma", 0.0, f"is 0.0, {NOT_POSITIVE}"),
    ("popularity", "gamma", math.nan, f"is nan, {NOT_POSITIVE}"),
    ("popularity", "gamma", math.inf, f"is inf, {NOT_POSITIVE}"),
    ("popularity", "state.denom", 0.0, f"is 0.0, {NOT_POSITIVE}"),
    ("popularity", "state.denom", -5.0, f"is -5.0, {NOT_POSITIVE}"),
    ("popularity", "state.denom", math.nan, f"is nan, {NOT_POSITIVE}"),
    ("popularity", "state.s_vec", -0.5, f"is -0.5 at index 0, {NOT_POSITIVE}"),
    ("vertex_degree", "gamma", -0.2, f"is -0.2, {NOT_POSITIVE}"),
    ("vertex_degree", "state.vd", -3.0, f"is -3.0 at index 0, {NOT_POSITIVE}"),
    ("shortest_path", "gamma", -0.2, f"is -0.2, {NOT_POSITIVE}"),
    ("shortest_path", "state.ra_q", -1.0, "is -1.0 at index 0, not 0, positive or +inf"),
    ("shortest_path", "state.ra_q", math.nan, "is nan at index 0, not 0, positive or +inf"),
    ("shortest_path", "state.normal_set", [1000000], f"is 1000000.0 at index 0, {NOT_NORMAL}"),
    ("shortest_path", "state.normal_set", [-1], f"is -1.0 at index 0, {NOT_NORMAL}"),
    ("shortest_path", "state.normal_set", [5, 5, 3], f"is 5.0 at index 1, {NOT_NORMAL}"),
    ("shortest_path", "state.normal_set", far_row, f"is {{0}}.0 at index 0, {NOT_NORMAL}"),
    ("shortest_path", "state.normal_set", [], "is not a nonempty list"),
]


@pytest.mark.parametrize("method, key, value, message", REFUSED, ids=[
    f"{method}-{key}-{getattr(value, '__name__', value)}" for method, key, value, _ in REFUSED])
def test_a_model_that_divides_by_an_impossible_value_is_refused(tmp_path, capsys, method,
                                                                key, value, message):
    raw, _ = scraping_analogue(60, seed=0)
    data = tmp_path / "data.csv"
    write_csv(data, raw.columns, raw.values.tolist())
    model = tmp_path / "model.json"
    save_model(model, fit_model(raw, method)[0])
    doc = json.loads(model.read_text())
    state, name = doc["state"], key.removeprefix("state.")
    if callable(value):
        value = value(state)
        message = message.format(value[0])
    if key == "gamma":
        doc["gamma"] = value
    elif isinstance(state[name], list) and not isinstance(value, list):
        state[name][0] = value  # one bad entry, in the first row
    else:
        state[name] = value
    model.write_text(json.dumps(doc))  # nan and inf as the JSON module writes them
    with pytest.raises(ValueError) as refused:
        load_model(model)
    assert f"'{key}' entry {message}" in str(refused.value)
    out = tmp_path / "scores.csv"
    assert main(["score", "--model", str(model), "--input", str(data),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and f"'{key}'" in err
    assert str(model) in err and not out.exists()


def test_a_fit_stores_each_state_entry_that_load_checks_and_no_other():
    raw, _ = scraping_analogue(60, seed=0)
    for method in METHODS:
        state = fit_model(raw, method)[0].state
        diagnostics = {"iterations", "residual"} if method == "popularity" else set()
        assert state.keys() == model_io._STATE[method].keys() | diagnostics


def test_a_fit_raises_each_warning_where_it_is_found():
    # The transform fit names the columns pinned at a search boundary, then the cut
    # reports the pairs it kept to stay connected: a library caller receives both.
    raw, _ = wifi_analogue(300, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cut = fit_model(raw, "popularity", sparsify=0.9)[1].matrix
    assert cut.dropped < cut.asked and f"{cut.dropped / (300 * 299 // 2):.4f}" == "0.3997"
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "transform fit hit a search boundary for column(s) x1, x2"),
        (UserWarning, "--sparsify 0.9 dropped only 0.3997 of the pairs; the rest keep the "
                      "graph connected")]
    raw, _ = scraping_analogue(2000, seed=0)  # no column at a boundary
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit_model(raw, "popularity")
    assert caught == []


ROUND_TRIP_FITS = [("popularity", {}), ("popularity", {"sparsify": 0.5}),
                   ("popularity", {"start": "rff"}), ("vertex_degree", {}),
                   ("vertex_degree", {"gamma": 1}),
                   ("shortest_path", {}), ("shortest_path", {"k": 10})]


@pytest.mark.parametrize("method, flags", ROUND_TRIP_FITS,
                         ids=[f"{m}-{f}" for m, f in ROUND_TRIP_FITS])
def test_a_fitted_model_file_saves_again_to_its_own_bytes(tmp_path, method, flags):
    raw, _ = scraping_analogue(60, seed=0)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(first, fit_model(raw, method, **flags)[0])
    save_model(second, load_model(first))
    assert second.read_bytes() == first.read_bytes()


def test_state_entries_that_scoring_does_not_read_load_as_json_gave_them(tmp_path):
    raw, _ = scraping_analogue(60, seed=0)
    bundle = fit_model(raw, "vertex_degree")[0]
    bundle.state.update(passes=35, stationary=[0.25, 0.75], note="kept")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(first, bundle)
    loaded = load_model(first)
    assert {key: loaded.state[key] for key in ("passes", "stationary", "note")} == {
        "passes": 35, "stationary": [0.25, 0.75], "note": "kept"}
    assert type(loaded.state["passes"]) is int
    save_model(second, loaded)
    assert second.read_bytes() == first.read_bytes()


# The settings a model file's config holds, per method, in its order, with their defaults.
DEFAULT_CONFIG = {
    "popularity": {"seed": 0, "tol": 1e-8, "max_iter": 10_000, "sparsify": 0.0,
                   "start": "uniform", "rff_dim": 256},
    "vertex_degree": {},
    "shortest_path": {"q": 0.5, "k": None},
}
SETTING_VALUES = {
    "seed": st.integers(0, 2**16), "tol": st.sampled_from([1e-6, 1e-8, 1e-10]),
    "max_iter": st.integers(5_000, 20_000), "sparsify": st.sampled_from([0.0, 0.3, 0.5]),
    "start": st.sampled_from(["uniform", "random", "rff"]), "rff_dim": st.integers(8, 64),
    "q": st.sampled_from([0.1, 0.5, 0.9]), "k": st.integers(1, 10),
}


@st.composite
def method_and_settings(draw):
    """A method and a valid subset of its settings: rff_dim only with start rff, seed
    only with start random or rff."""
    method = draw(st.sampled_from(METHODS))
    names = draw(st.sets(st.sampled_from(sorted(DEFAULT_CONFIG[method])))) if (
        DEFAULT_CONFIG[method]) else set()
    chosen = {name: draw(SETTING_VALUES[name]) for name in sorted(names)}
    start = chosen.get("start", "uniform")
    if start != "rff":
        chosen.pop("rff_dim", None)
    if start == "uniform":
        chosen.pop("seed", None)
    return method, chosen


@pytest.mark.filterwarnings("ignore:.*unreachable from the normal set")
@settings(max_examples=25, deadline=None)
@given(drawn=method_and_settings())
def test_the_stored_config_is_the_methods_settings_given_or_default(drawn):
    method, given_settings = drawn
    raw, _ = scraping_analogue(30, seed=0)
    config = fit_model(raw, method, **given_settings)[0].config
    want = {**DEFAULT_CONFIG[method], **given_settings}
    if method == "popularity" and want["start"] != "rff":
        want["rff_dim"] = None
    assert config == want and list(config) == list(DEFAULT_CONFIG[method])
    for other in METHODS:
        for name, value in DEFAULT_CONFIG[other].items():
            if other != method:
                with pytest.raises(ValueError) as refused:
                    fit_model(raw, method, **given_settings, **{name: 5 if value is None
                                                                else value})
                assert str(refused.value) == f"{name} applies only to method {other}, not {method}"
