"""End-to-end command-line tests: every subcommand, persistence, exit codes.

Commands run in-process through main(argv) against temp files.
"""

import json
import math

import numpy as np
import pytest

from relanom.cli import main
from relanom.dataset import Dataset, load_csv, write_csv
from relanom.graph import dump_graph, kernel_rows, rbf_similarity_matrix
from relanom.model_io import fit_model, load_model


def run(*argv):
    return main(list(argv))


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    assert run("synth", "--dataset", "scraping", "--n", "300", "--seed", "0",
               "--output", str(path)) == 0
    return path


@pytest.fixture
def pop_model(tmp_path, train_csv):
    path = tmp_path / "pop.json"
    assert run("fit", "--method", "popularity", "--input", str(train_csv),
               "--output", str(path)) == 0
    return path


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_labeled_csv(tmp_path):
    out = tmp_path / "data.csv"
    assert run("synth", "--dataset", "wifi", "--n", "200", "--seed", "1",
               "--output", str(out)) == 0
    header, rows = read_csv_rows(out)
    assert header == ["x1", "x2", "label"]
    assert len(rows) == 200
    assert {r[2] for r in rows} == {"normal", "anomalous"}


# ---------------------------------------------------------------------------
# fit


def test_fit_accepts_model_alias(tmp_path, train_csv):
    path = tmp_path / "m.json"
    assert run("fit", "--method", "popularity", "--input", str(train_csv),
               "--model", str(path)) == 0
    assert path.exists()


def test_fit_is_deterministic(tmp_path, train_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run("fit", "--method", "popularity", "--input", str(train_csv),
                   "--output", str(path), "--start", "rff", "--seed", "4") == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_writes_train_scores_per_method(tmp_path, train_csv):
    headers = {
        "popularity": ["row_index", "relative_anomaly", "dora"],
        "vertex_degree": ["row_index", "vertex_degree", "stationary_probability"],
        "shortest_path": ["row_index", "ra_q", "dora", "is_normal_set"],
    }
    for method, expect in headers.items():
        model = tmp_path / f"{method}.json"
        scores = tmp_path / f"{method}_scores.csv"
        assert run("fit", "--method", method, "--input", str(train_csv),
                   "--output", str(model), "--train-scores", str(scores)) == 0
        header, rows = read_csv_rows(scores)
        assert header == expect
        assert len(rows) == 300


def test_fit_dumps_graph(tmp_path, train_csv):
    model = tmp_path / "m.json"
    dump = tmp_path / "graph.txt"
    assert run("fit", "--method", "popularity", "--input", str(train_csv),
               "--output", str(model), "--dump-graph", str(dump)) == 0
    assert len(dump.read_text().strip().splitlines()) == 300 * 300


def test_dense_popularity_dump_is_the_dense_kernel(tmp_path):
    # The fit frees its triangle and dumps the kernel graph, evaluated block by block:
    # the bytes of the whole dense kernel.
    data, model, dump, want = (tmp_path / name for name in ("d.csv", "m.json", "g.txt", "w.txt"))
    assert run("synth", "--dataset", "scraping", "--n", "60", "--seed", "2",
               "--output", str(data)) == 0
    assert run("fit", "--method", "popularity", "--input", str(data),
               "--output", str(model), "--dump-graph", str(dump)) == 0
    bundle = load_model(model)
    dump_graph(rbf_similarity_matrix(bundle.training, bundle.gamma, bundle.metric), want)
    assert dump.read_bytes() == want.read_bytes()


def test_fit_warns_on_boundary_transform(tmp_path, capsys):
    # a column with a heavy atom at its minimum pushes the shift to the floor
    rng = np.random.default_rng(0)
    col = np.concatenate([np.zeros(150), rng.uniform(1.0, 2.0, 50)])
    path = tmp_path / "atom.csv"
    write_csv(path, ["x1", "x2"], zip(col, rng.normal(size=200)))
    model = tmp_path / "m.json"
    assert run("fit", "--method", "popularity", "--input", str(path),
               "--output", str(model)) == 0
    assert "boundary" in capsys.readouterr().err


def test_fit_warns_when_sparsify_keeps_pairs_for_connectivity(tmp_path, capsys):
    # The wifi analogue's repeated rows make the connectivity bottleneck a tie
    # block: past about 0.4 every --sparsify drops the same pairs.  Below that the
    # cut drops every pair at or under q, the floor(F * pairs)-th smallest, ties too.
    # The warning compares the cut's own counts, pairs dropped against pairs asked.
    data, model = tmp_path / "wifi.csv", tmp_path / "m.json"
    assert run("synth", "--dataset", "wifi", "--n", "300", "--seed", "0",
               "--output", str(data)) == 0
    warned, dropped, pairs = {}, {}, 300 * 299 // 2
    asked = {"0.1": 4485, "0.9": 40365}  # floor(F * 44850)
    for fraction in ("0.1", "0.9"):
        dump = tmp_path / f"graph{fraction}.csv"
        capsys.readouterr()
        assert run("fit", "--method", "popularity", "--sparsify", fraction, "--input",
                   str(data), "--output", str(model), "--dump-graph", str(dump)) == 0
        warned[fraction] = [line for line in capsys.readouterr().err.splitlines()
                            if "--sparsify" in line]
        nnz = len(dump.read_text().splitlines())  # the diagonal and both halves of each pair
        dropped[fraction] = pairs - (nnz - 300) // 2
        raw, _ = load_csv(data, label_column="label")
        cut = fit_model(raw, "popularity", sparsify=float(fraction))[1].matrix
        assert (cut.asked, cut.dropped) == (asked[fraction], dropped[fraction])
    bundle = load_model(model)  # both fits share the training rows and gamma
    vals = rbf_similarity_matrix(bundle.training, bundle.gamma).matrix[np.triu_indices(300, 1)]
    q = np.sort(vals)[int(0.1 * pairs) - 1]
    assert dropped["0.1"] == np.count_nonzero(vals <= q) > int(0.1 * pairs)
    assert warned["0.1"] == []
    assert dropped["0.9"] < 0.5 * pairs
    assert warned["0.9"] == [f"warning: --sparsify 0.9 dropped only {dropped['0.9'] / pairs:.4f} "
                             "of the pairs; the rest keep the graph connected"]


def test_fit_and_compare_print_unreachable_rows_as_one_warning_line(tmp_path, capsys):
    # 84 of 300 wifi rows have no path into the normal set through the kNN graph, and
    # at gamma 0.001 none through the dense graph but the normal set's own rows.  Each
    # fit's warnings print in the order its stages find them: the transform's first.
    data = tmp_path / "wifi.csv"
    assert run("synth", "--dataset", "wifi", "--n", "300", "--seed", "0",
               "--output", str(data)) == 0
    lines = {}
    boundary = "warning: transform fit hit a search boundary for column(s) x1, x2"
    for name, flags in (("knn", ("--k", "10")), ("dense", ("--gamma", "0.001"))):
        model = tmp_path / f"{name}.json"
        capsys.readouterr()
        assert run("fit", "--method", "shortest_path", *flags, "--input", str(data),
                   "--output", str(model)) == 0
        unreachable = int(np.isinf(load_model(model).state["ra_q"]).sum())
        lines[name] = (f"warning: {unreachable} observations are unreachable from the normal "
                       "set; their scores are +inf")
        assert capsys.readouterr().err.splitlines() == [boundary, lines[name]]
    # compare prints the warnings of each of its three fits
    assert run("compare", "--input", str(data), "--gamma-shortest-path", "0.001") == 0
    assert capsys.readouterr().err.splitlines() == [boundary] * 3 + [lines["dense"]]


def test_a_failing_fit_prints_the_warnings_raised_before_it_failed(tmp_path, capsys):
    data = tmp_path / "wifi.csv"
    assert run("synth", "--dataset", "wifi", "--n", "300", "--seed", "0",
               "--output", str(data)) == 0
    capsys.readouterr()
    assert run("fit", "--method", "popularity", "--max-iter", "1", "--input", str(data),
               "--output", str(tmp_path / "m.json")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: transform fit hit a search boundary for column(s) x1, x2",
        "error: power iteration did not converge (last residual 5.933e+01)",
    ]


def test_fit_missing_input_fails(tmp_path, capsys):
    assert run("fit", "--method", "popularity", "--input",
               str(tmp_path / "nope.csv"), "--output", str(tmp_path / "m.json")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method, flag", [
    ("shortest_path", ("--sparsify", "0.5")),
    ("vertex_degree", ("--sparsify", "0.5")),
    ("vertex_degree", ("--sparsify", "0")),
    ("popularity", ("--k", "5")),
    ("vertex_degree", ("--k", "5")),
    ("popularity", ("--q", "0.5")),
    ("vertex_degree", ("--q", "0.3")),
    ("shortest_path", ("--start", "uniform")),
    ("vertex_degree", ("--start", "rff")),
    ("shortest_path", ("--rff-dim", "256")),
    ("vertex_degree", ("--rff-dim", "64")),
    ("vertex_degree", ("--tol", "0.5")),
    ("shortest_path", ("--tol", "1e-6")),
    ("vertex_degree", ("--max-iter", "1")),
    ("shortest_path", ("--max-iter", "1")),
    ("vertex_degree", ("--seed", "9")),
    ("shortest_path", ("--seed", "9")),
])
def test_fit_rejects_a_flag_the_method_ignores(tmp_path, train_csv, capsys, method, flag):
    model = tmp_path / "m.json"
    assert run("fit", "--method", method, "--input", str(train_csv),
               "--output", str(model), *flag) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag[0].lstrip("-").replace("-", "_") in err and method in err
    assert not model.exists()


@pytest.mark.parametrize("flag, name", [
    (("--sparsify", "-0.5"), "sparsify"),
    (("--sparsify", "nan"), "sparsify"),
    (("--rff-dim", "7"), "rff_dim"),
    (("--rff-dim", "7", "--start", "random"), "rff_dim"),
    (("--seed", "5"), "seed"),
    (("--seed", "5", "--start", "uniform"), "seed"),
    (("--sparsify", "1.0"), "sparsify"),
    (("--tol", "nan"), "tol"),
    (("--tol", "inf"), "tol"),
    (("--seed", "-1", "--start", "rff"), "seed"),
])
def test_fit_rejects_a_popularity_flag_out_of_range_or_ignored(
    tmp_path, train_csv, capsys, flag, name
):
    # fit_popularity checks sparsify and tol after the transform fit, whose
    # boundary warning on this file prints before the error line
    model = tmp_path / "m.json"
    assert run("fit", "--method", "popularity", "--input", str(train_csv),
               "--output", str(model), *flag) == 1
    *warned, err = capsys.readouterr().err.splitlines()
    assert err.startswith("error:") and name in err
    assert warned == (["warning: transform fit hit a search boundary for column(s) x2"]
                      if name in ("sparsify", "tol") else [])
    assert not model.exists()


def test_default_fit_config_is_unchanged(tmp_path, train_csv):
    # Unset method flags resolve to their defaults; a model file stores only its
    # method's settings, and popularity's as it always has.
    stored = {}
    for method in ("popularity", "shortest_path", "vertex_degree"):
        model = tmp_path / f"{method}.json"
        assert run("fit", "--method", method, "--input", str(train_csv),
                   "--output", str(model)) == 0
        stored[method] = json.loads(model.read_text())["config"]
    assert stored["popularity"] == {"seed": 0, "tol": 1e-8, "max_iter": 10_000,
                                    "sparsify": 0.0, "start": "uniform", "rff_dim": None}
    assert list(stored["popularity"]) == ["seed", "tol", "max_iter", "sparsify", "start",
                                          "rff_dim"]
    assert stored["shortest_path"] == {"q": 0.5, "k": None}
    assert stored["vertex_degree"] == {}


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("fit", "--method", "popularity", "--nonsense", "x")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# score


def test_score_labels_top_fraction(tmp_path, train_csv, pop_model):
    out = tmp_path / "scores.csv"
    assert run("score", "--model", str(pop_model), "--input", str(train_csv),
               "--output", str(out), "--top-fraction", "0.2") == 0
    header, rows = read_csv_rows(out)
    assert header == ["row_index", "relative_anomaly", "dora", "label"]
    assert sum(r[3] == "1" for r in rows) == 60
    doras = [float(r[2]) for r in rows]
    assert all(0.0 < v < 1.0 for v in doras)


def test_score_training_data_reproduces_fit_scores(tmp_path, train_csv):
    model = tmp_path / "m.json"
    fit_scores = tmp_path / "fit_scores.csv"
    assert run("fit", "--method", "popularity", "--input", str(train_csv),
               "--output", str(model), "--train-scores", str(fit_scores)) == 0
    out = tmp_path / "scores.csv"
    assert run("score", "--model", str(model), "--input", str(train_csv),
               "--output", str(out)) == 0
    _, fit_rows = read_csv_rows(fit_scores)
    _, score_rows = read_csv_rows(out)
    got = np.array([float(r[1]) for r in score_rows])
    want = np.array([float(r[1]) for r in fit_rows])
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_score_shortest_path_marks_normal_set(tmp_path, train_csv):
    model = tmp_path / "sp.json"
    assert run("fit", "--method", "shortest_path", "--input", str(train_csv),
               "--output", str(model), "--q", "0.5") == 0
    out = tmp_path / "scores.csv"
    assert run("score", "--model", str(model), "--input", str(train_csv),
               "--output", str(out)) == 0
    header, rows = read_csv_rows(out)
    assert header == ["row_index", "ra_q", "dora", "label", "is_normal_set"]
    normal_scores = [float(r[1]) for r in rows if r[4] == "1"]
    assert normal_scores and all(v == 0.0 for v in normal_scores)


def test_dense_shortest_path_fit_with_underflowed_kernel_entries(tmp_path):
    data = tmp_path / "train.csv"
    assert run("synth", "--dataset", "scraping", "--n", "1000", "--seed", "0",
               "--output", str(data)) == 0
    model, scores = tmp_path / "sp.json", tmp_path / "train_scores.csv"
    assert run("fit", "--method", "shortest_path", "--metric", "l1", "--input", str(data),
               "--output", str(model), "--train-scores", str(scores)) == 0
    bundle = load_model(model)
    x = bundle.training.values
    assert np.any(kernel_rows(x, x, bundle.gamma, bundle.metric) == 0.0)
    _, rows = read_csv_rows(scores)
    ra_q = np.array([float(r[1]) for r in rows])
    normal = np.array([r[3] == "1" for r in rows])
    assert normal.any() and np.all(ra_q[normal] == 0.0) and np.all(np.isfinite(ra_q))


def test_score_neg_log_display_column(tmp_path, train_csv, pop_model):
    out = tmp_path / "scores.csv"
    assert run("score", "--model", str(pop_model), "--input", str(train_csv),
               "--output", str(out), "--neg-log-display") == 0
    header, rows = read_csv_rows(out)
    assert header[-1] == "display_score"
    raw, disp = float(rows[0][1]), float(rows[0][-1])
    assert disp == pytest.approx(-np.log(-raw))


def test_score_rejects_column_mismatch(tmp_path, pop_model, capsys):
    bad = tmp_path / "bad.csv"
    write_csv(bad, ["a", "b", "c"], [(1.0, 2.0, 3.0)])
    assert run("score", "--model", str(pop_model), "--input", str(bad),
               "--output", str(tmp_path / "out.csv")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "explain"])
def test_a_file_with_swapped_columns_gives_one_error_line(tmp_path, capsys, command):
    # Read by position, the swapped file would score every row at DORA 0.9967, far out,
    # and change 94 of the 300 labels.
    rng = np.random.default_rng(0)
    x = np.column_stack((rng.uniform(1.0, 10.0, 300), rng.uniform(100.0, 1000.0, 300)))
    train, swapped, model = (tmp_path / name for name in ("t.csv", "s.csv", "m.json"))
    write_csv(train, ["x1", "x2"], x.tolist())
    write_csv(swapped, ["x2", "x1"], x[:, ::-1].tolist())
    assert run("fit", "--method", "vertex_degree", "--preprocess", "standardize",
               "--input", str(train), "--output", str(model)) == 0
    capsys.readouterr()
    flags = ["--output", str(tmp_path / "out.csv")] if command == "score" else []
    assert run(command, "--model", str(model), "--input", str(swapped), *flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: input columns ['x2', 'x1'] differ from the model's ['x1', 'x2']\n")


# ---------------------------------------------------------------------------
# explain


def test_explain_prints_table_and_writes_csv(tmp_path, train_csv, pop_model, capsys):
    out = tmp_path / "explain.csv"
    assert run("explain", "--model", str(pop_model), "--input", str(train_csv),
               "--row", "299", "--output", str(out)) == 0
    shown = capsys.readouterr().out
    assert "closest normal training row" in shown
    header, rows = read_csv_rows(out)
    assert header == ["feature", "anomalous_value", "closest_normal_value", "difference"]
    assert len(rows) == 2
    diffs = [abs(float(r[3])) for r in rows]
    assert diffs == sorted(diffs, reverse=True)


def test_explain_row_out_of_range(tmp_path, train_csv, pop_model, capsys):
    assert run("explain", "--model", str(pop_model), "--input", str(train_csv),
               "--row", "12345") == 1
    assert "out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid


def test_grid_three_by_three_lexicographic(tmp_path, pop_model):
    out = tmp_path / "grid.csv"
    assert run("grid", "--model", str(pop_model), "--output", str(out),
               "--resolution", "3", "--bounds", "0", "1", "0", "1") == 0
    header, rows = read_csv_rows(out)
    assert header == ["x1", "x2", "score"]
    pts = [(float(r[0]), float(r[1])) for r in rows]
    assert pts == [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]


def test_grid_scores_rise_away_from_data(tmp_path, pop_model):
    out = tmp_path / "grid.csv"
    assert run("grid", "--model", str(pop_model), "--output", str(out),
               "--resolution", "5", "--bounds", "0", "40", "-0.5", "0.5") == 0
    _, rows = read_csv_rows(out)
    # walk along y = 0 away from both clusters: scores increase toward 0
    line = [float(r[2]) for r in rows if float(r[1]) == 0.0]
    assert np.all(np.diff(line[1:]) > 0.0)


def test_grid_zero_region_for_shortest_path(tmp_path):
    rng = np.random.default_rng(5)
    cluster = np.vstack([[0.0, 0.0], rng.uniform(-0.1, 0.1, size=(8, 2))])
    far = np.array([[7.0, 7.0], [7.2, 6.8], [6.8, 7.1]])
    csv_path = tmp_path / "pts.csv"
    write_csv(csv_path, ["x1", "x2"], np.vstack([cluster, far]))
    model = tmp_path / "sp.json"
    assert run("fit", "--method", "shortest_path", "--input", str(csv_path),
               "--output", str(model), "--q", "0.5",
               "--preprocess", "standardize") == 0
    out = tmp_path / "grid.csv"
    # resolution 3 over [0,1]^2 puts a grid point exactly on the training
    # point (0, 0), which sits in the normal set
    assert run("grid", "--model", str(model), "--output", str(out),
               "--resolution", "3", "--bounds", "0", "1", "0", "1") == 0
    _, rows = read_csv_rows(out)
    corner = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert float(corner[0][2]) == 0.0


def test_grid_requires_two_dimensions(tmp_path, capsys):
    rng = np.random.default_rng(6)
    csv_path = tmp_path / "three.csv"
    write_csv(csv_path, ["a", "b", "c"], rng.normal(size=(30, 3)))
    model = tmp_path / "m.json"
    assert run("fit", "--method", "popularity", "--input", str(csv_path),
               "--output", str(model), "--preprocess", "standardize") == 0
    assert run("grid", "--model", str(model), "--output",
               str(tmp_path / "g.csv")) == 1
    assert "2-D" in capsys.readouterr().err


def test_grid_validates_resolution_and_bounds(tmp_path, pop_model, capsys):
    assert run("grid", "--model", str(pop_model), "--output",
               str(tmp_path / "g.csv"), "--resolution", "1") == 1
    assert run("grid", "--model", str(pop_model), "--output",
               str(tmp_path / "g.csv"), "--bounds", "1", "0", "0", "1") == 1
    capsys.readouterr()


def test_standardize_on_a_column_lost_under_the_unit_shift(tmp_path, capsys):
    # t - 1 rounds every value of 1e-20..4e-20 to -1: zero variance, not nan
    csv_path = tmp_path / "tiny.csv"
    write_csv(csv_path, ["x1", "x2"], [[k * 1e-20, float(k)] for k in (1, 2, 3, 4)])
    assert run("fit", "--method", "popularity", "--input", str(csv_path), "--output",
               str(tmp_path / "m.json"), "--preprocess", "standardize") == 1
    assert capsys.readouterr().err == (
        "error: column 'x1': transformed column has zero variance\n")


@pytest.mark.parametrize("body, message", [
    (b'x1,x2\n"' + b"1" * 131_073 + b'",2\n', "field larger than field limit"),
    (b"x1,x2\n1,2\n\xff,3\n", "can't decode byte 0xff"),
], ids=["field-over-the-limit", "not-utf-8"])
def test_unreadable_csv_gives_one_error_line(tmp_path, capsys, body, message):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(body)
    assert run("fit", "--method", "popularity", "--input", str(csv_path),
               "--output", str(tmp_path / "m.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: ") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------------------
# compare


def test_compare_reports_all_methods(tmp_path, train_csv, capsys):
    out = tmp_path / "report.csv"
    assert run("compare", "--input", str(train_csv), "--output", str(out)) == 0
    shown = capsys.readouterr().out
    for method in ("popularity", "vertex_degree", "shortest_path"):
        assert method in shown
    header, rows = read_csv_rows(out)
    assert header == ["method", "precision", "recall"]
    assert len(rows) == 3
    for r in rows:
        assert 0.0 <= float(r[1]) <= 1.0 and 0.0 <= float(r[2]) <= 1.0


def test_compare_requires_labels(tmp_path, capsys):
    path = tmp_path / "plain.csv"
    write_csv(path, ["x1", "x2"], np.random.default_rng(7).normal(size=(20, 2)))
    assert run("compare", "--input", str(path)) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# ecdf


def test_ecdf_export(tmp_path, pop_model):
    out = tmp_path / "ecdf.csv"
    assert run("ecdf", "--model", str(pop_model), "--output", str(out)) == 0
    header, rows = read_csv_rows(out)
    assert header == ["score", "ecdf"]
    scores = [float(r[0]) for r in rows]
    levels = [float(r[1]) for r in rows]
    assert scores == sorted(scores)
    assert levels[-1] == 1.0
    np.testing.assert_allclose(levels, (np.arange(300) + 1) / 300)


# ---------------------------------------------------------------------------
# persistence

def test_model_round_trip_preserves_scores(tmp_path, train_csv, pop_model):
    doc = json.loads(pop_model.read_text())
    assert doc["format_version"] == 2
    assert doc["method"] == "popularity"
    out1 = tmp_path / "s1.csv"
    assert run("score", "--model", str(pop_model), "--input", str(train_csv),
               "--output", str(out1)) == 0
    # rewrite the model file and score again: bit-identical output
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(doc))
    out2 = tmp_path / "s2.csv"
    assert run("score", "--model", str(copy), "--input", str(train_csv),
               "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unsupported_format_version_rejected(tmp_path, pop_model, capsys):
    doc = json.loads(pop_model.read_text())
    doc["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("score", "--model", str(bad), "--input", str(pop_model),
               "--output", str(tmp_path / "out.csv")) == 1
    assert "format version" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, key", [
    (lambda doc: doc["state"].pop("s_vec"), "state.s_vec"),
    (lambda doc: doc.pop("transforms"), "transforms"),
    (lambda doc: doc["training"].pop(), "state.s_vec"),  # one row fewer than s_vec entries
], ids=["no-s_vec", "no-transforms", "short-training"])
def test_malformed_model_file_gives_one_error_line(tmp_path, train_csv, pop_model, capsys,
                                                   corrupt, key):
    doc = json.loads(pop_model.read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert run("score", "--model", str(bad), "--input", str(train_csv),
               "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and key in err
    assert not out.exists()


NOT_FINITE = "'transforms' entry for column 'x1' is not finite with sd > 0"


def with_transform(doc, **fields):
    """The model document with fields of its first transform replaced."""
    first, *rest = doc["transforms"]
    return {**doc, "transforms": [{**first, **fields}, *rest]}


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: [], "holds no JSON object"),
    (lambda doc: {**doc, "transforms": [{"column": "x"}]}, "malformed 'transforms' entry"),
    (lambda doc: {**doc, "method": ["x"]}, "malformed 'method' entry"),
    (lambda doc: {**doc, "columns": 5}, "malformed 'columns' entry"),
    (lambda doc: {**doc, "gamma": None}, "malformed 'gamma' entry"),
    (lambda doc: {**doc, "training": None}, "malformed 'training' entry"),
    (lambda doc: {**doc, "transforms": [{**doc["transforms"][0], "lam": None},
                                        *doc["transforms"][1:]]},
     "malformed 'transforms' entry"),
    (lambda doc: {**doc, "state": {**doc["state"], "denom": "x"}}, "malformed 'state' entry"),
    (lambda doc: {**doc, "metric": ["x"]}, "malformed 'metric' entry"),
    (lambda doc: {**doc, "training": [["x", *doc["training"][0][1:]], *doc["training"][1:]]},
     "malformed 'training' entry"),
    (lambda doc: {**doc, "method": "x"}, "malformed 'method' entry: unknown method 'x'"),
    (lambda doc: "{", "model file is not JSON"),  # a string is written as it is
    (lambda doc: {**doc, "format_version": 1},
     "format version 1 is not supported (expected 2); refit the model"),
    (lambda doc: {**doc, "state": list(doc["state"])}, "malformed 'state' entry"),
    (lambda doc: {**doc, "state": {**doc["state"], "s_vec": [-0.5, *doc["state"]["s_vec"][1:]]}},
     "'state.s_vec' entry is -0.5 at index 0, not a positive finite real"),
    (lambda doc: {**doc, "transforms": [*doc["transforms"], doc["transforms"][0]]},
     "'transforms' entry holds 3 transforms for 2 columns"),
    (lambda doc: with_transform(doc, sd=0.0), NOT_FINITE),
    (lambda doc: with_transform(doc, sd=-1.0), NOT_FINITE),
    (lambda doc: with_transform(doc, sd=math.inf), NOT_FINITE),
    (lambda doc: with_transform(doc, delta=math.nan), NOT_FINITE),
    (lambda doc: with_transform(doc, lam=math.inf), NOT_FINITE),
    (lambda doc: with_transform(doc, mean=-math.inf), NOT_FINITE),
], ids=["list", "transform-without-fields", "method-list", "columns-number", "gamma-null",
        "training-null", "lam-null", "denom-string", "metric-list", "training-string",
        "method-unknown", "not-json", "version-1", "state-list", "s_vec-negative",
        "transforms-extra", "sd-zero", "sd-negative", "sd-inf", "delta-nan", "lam-inf",
        "mean-inf"])
def test_model_file_of_the_wrong_shape_gives_one_error_line(tmp_path, train_csv, pop_model,
                                                            capsys, corrupt, message):
    bad = tmp_path / "bad.json"
    doc = corrupt(json.loads(pop_model.read_text()))
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out.csv"
    assert run("score", "--model", str(bad), "--input", str(train_csv),
               "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and message in err
    assert not out.exists()
