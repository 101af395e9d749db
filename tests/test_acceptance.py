"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Each criterion is a separate test so the summary maps one-to-one onto
pytest results; the printed line carries the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from relanom.dataset import Dataset
from relanom.graph import rbf_similarity_matrix, threshold_sparsify
from relanom.degree import vertex_degrees
from relanom.model_io import ModelBundle, load_model, save_model
from relanom.popularity import (
    fit_popularity,
    power_iteration,
    relative_anomaly,
    rff_feature_map,
    rff_warm_start,
)
from relanom.preprocess import apply_preprocessor, fit_box_cox, fit_preprocessor
from relanom.scoring import ScoreDistribution, dora_batch, label_top_fraction
from relanom.shortest_path import (
    fit_shortest_path,
    multi_source_shortest_paths,
    select_normal_set,
)
from relanom.synth import LABEL_ANOMALOUS, scraping_analogue, wifi_analogue

from conftest import oracle_paths, random_dataset

GAMMA_POPULARITY = 0.2
GAMMA_BASELINE = 0.5


def report(capsys, line, ok):
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def precision_recall(predicted, truth):
    tp = int(np.sum(predicted & truth))
    precision = tp / int(predicted.sum())
    recall = tp / int(truth.sum())
    return precision, recall


@pytest.fixture(scope="module")
def scraping_fit():
    raw, labels = scraping_analogue(1000, seed=0)
    data = apply_preprocessor(raw, fit_preprocessor(raw, "box-cox"))
    model = fit_popularity(data, GAMMA_POPULARITY, tol=1e-10)
    return raw, labels == LABEL_ANOMALOUS, data, model


@pytest.fixture(scope="module")
def wifi_fit():
    raw, labels = wifi_analogue(1000, seed=0)
    data = apply_preprocessor(raw, fit_preprocessor(raw, "standardize"))
    model = fit_popularity(data, GAMMA_POPULARITY, tol=1e-10)
    return raw, labels == LABEL_ANOMALOUS, data, model


def test_ac01_relative_beats_frequency_on_scraping(capsys):
    start = time.perf_counter()
    raw, labels = scraping_analogue(1000, seed=0)
    truth = labels == LABEL_ANOMALOUS
    data = apply_preprocessor(raw, fit_preprocessor(raw, "box-cox"))
    ra = relative_anomaly(fit_popularity(data, GAMMA_POPULARITY))
    precision, recall = precision_recall(label_top_fraction(ra, 0.2), truth)
    vd = vertex_degrees(rbf_similarity_matrix(data, GAMMA_BASELINE))
    _, vd_recall = precision_recall(label_top_fraction(-vd, 0.2), truth)
    elapsed = time.perf_counter() - start
    ok = precision >= 0.95 and recall >= 0.95 and vd_recall < recall and elapsed <= 10.0
    report(capsys, f"AC1 separation: popularity p={precision:.3f} r={recall:.3f}, "
                   f"baseline r={vd_recall:.3f}, {elapsed:.2f}s", ok)


def test_ac02_far_cluster_on_wifi(capsys, wifi_fit):
    raw, far, data, model = wifi_fit
    medium = (raw.values[:, 0] > 1.0) & ~far
    pop_labels = label_top_fraction(relative_anomaly(model), 0.13)
    far_rate = float(pop_labels[far].mean())
    medium_rate = float(pop_labels[medium].mean())
    vd = vertex_degrees(rbf_similarity_matrix(data, GAMMA_BASELINE))
    vd_labels = label_top_fraction(-vd, 0.13)
    vd_medium_rate = float(vd_labels[medium].mean())
    ok = far_rate >= 0.95 and medium_rate <= 0.05 and vd_medium_rate >= 0.5
    report(capsys, f"AC2 far cluster: popularity far={far_rate:.3f} "
                   f"medium={medium_rate:.3f}, baseline medium={vd_medium_rate:.3f}", ok)


def test_ac03_eigen_oracle(capsys):
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 1.0
    done = 0
    while done < 100:
        n = int(rng.integers(2, 11))
        s = rng.uniform(0.05, 1.0, size=(n, n))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        vals, vecs = np.linalg.eigh(s)
        if n > 1 and vals[-1] - vals[-2] < 1e-3:
            continue
        res = power_iteration(s, tol=1e-12, max_iter=1_000_000)
        worst = min(worst, abs(float(res.s_vec @ vecs[:, -1])))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-8 and elapsed <= 1.0
    report(capsys, f"AC3 eigen oracle: min cosine={worst:.2e} over 100 matrices, "
                   f"{elapsed:.3f}s", ok)


def test_ac04_path_enumeration_oracle(capsys):
    rng = np.random.default_rng(1)
    worst_sum, worst_prod = 0.0, 0.0
    for case in range(100):
        n = int(rng.integers(3, 9))
        data = Dataset(rng.normal(scale=1.5, size=(n, 2)))
        q = float(rng.uniform(0.2, 0.8))
        gamma = float(rng.uniform(0.5, 3.0))
        model = fit_shortest_path(data, gamma, q)
        s = rbf_similarity_matrix(data, gamma).matrix
        dist, prod = oracle_paths(s, model.normal_set)
        worst_sum = max(worst_sum, float(np.max(np.abs(model.ra_q - dist))))
        worst_prod = max(worst_prod, float(np.max(np.abs(np.exp(-model.ra_q) - prod))))
    ok = worst_sum <= 1e-10 and worst_prod <= 1e-10
    report(capsys, f"AC4 path oracle: max |min-sum err|={worst_sum:.2e}, "
                   f"max |max-product err|={worst_prod:.2e}", ok)


def test_ac05_stationarity_identity(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        s = rng.uniform(0.01, 1.0, size=(n, n))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        vd = s.sum(axis=1)
        p = s / vd[:, None]
        defect = float(np.abs(p.T @ vd - vd).sum() / np.abs(vd).sum())
        worst = max(worst, defect)
    ok = worst <= 1e-12
    report(capsys, f"AC5 stationarity identity: max L1 defect={worst:.2e}", ok)


def test_ac06_out_of_sample_consistency(capsys, scraping_fit, wifi_fit):
    errs = {}
    # The scorer that `score` runs, on the fitted eigenvector and model-space rows
    for name, prep, (_, _, data, model) in (("scraping", "box-cox", scraping_fit),
                                            ("wifi", "standardize", wifi_fit)):
        bundle = ModelBundle(
            method="popularity", preprocess=prep, metric=model.graph.metric,
            gamma=GAMMA_POPULARITY, config={}, transforms=[], training=data,
            state={"s_vec": model.s_vec, "denom": model.lambda1},
        )
        scores = bundle.score_model(data.values)
        errs[name] = float(np.max(np.abs(scores + model.s_vec)))
    ok = all(err <= 1e-6 for err in errs.values())
    report(capsys, "AC6 training-row consistency: "
                   + ", ".join(f"{k} err={v:.2e}" for k, v in errs.items()), ok)


def test_ac07_sparsification_keeps_labels(capsys, scraping_fit, wifi_fit):
    same = {}
    for name, (_, _, data, model) in (("scraping", scraping_fit), ("wifi", wifi_fit)):
        dense_labels = label_top_fraction(relative_anomaly(model), 0.2)
        sparse_model = fit_popularity(data, GAMMA_POPULARITY, sparsify=0.5, tol=1e-10)
        sparse_labels = label_top_fraction(relative_anomaly(sparse_model), 0.2)
        same[name] = bool(np.array_equal(dense_labels, sparse_labels))
    ok = all(same.values())
    report(capsys, "AC7 half sparsification: "
                   + ", ".join(f"{k} top-20% identical={v}" for k, v in same.items()), ok)


def test_ac08_rff_warm_start(capsys, scraping_fit):
    _, _, data, _ = scraping_fit
    s = rbf_similarity_matrix(data, GAMMA_POPULARITY).matrix
    warm_iters, random_iters = [], []
    for seed in range(20):
        warm = rff_warm_start(data, 256, GAMMA_POPULARITY, seed)
        warm_iters.append(power_iteration(s, s0=warm, tol=1e-8).iterations)
        rand = np.random.default_rng(seed).random(data.n) + 1e-12
        random_iters.append(power_iteration(s, s0=rand, tol=1e-8).iterations)
    med_warm = float(np.median(warm_iters))
    med_random = float(np.median(random_iters))
    phi = rff_feature_map(data, 4096, GAMMA_POPULARITY, seed=0)
    kernel_err = float(np.max(np.abs(phi.T @ phi - s)))
    ok = med_warm <= med_random and kernel_err <= 0.1
    report(capsys, f"AC8 warm start: median iters {med_warm:.0f} <= {med_random:.0f}, "
                   f"kernel max err={kernel_err:.3f} at 4096 features", ok)


def test_ac09_transform_recovery(capsys):
    lognormal = np.exp(np.random.default_rng(42).standard_normal(2000))
    lam_log = fit_box_cox(lognormal).lam
    gaussian = np.random.default_rng(7).standard_normal(2000) + 10.0
    lam_gauss = fit_box_cox(gaussian).lam
    ok = -0.2 <= lam_log <= 0.2 and 0.8 <= lam_gauss <= 1.2
    report(capsys, f"AC9 transform recovery: lognormal lam={lam_log:.3f}, "
                   f"gaussian lam={lam_gauss:.3f}", ok)


def test_ac10_structural_invariants(capsys, tmp_path):
    rng = np.random.default_rng(3)
    checks = 0

    # dominant eigenvector positivity
    for _ in range(100):
        n = int(rng.integers(2, 25))
        s = rng.uniform(0.05, 1.0, size=(n, n))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        assert np.all(power_iteration(s, tol=1e-8).s_vec > 0.0)
    checks += 1

    # score normalization stays inside (0, 1) and is weakly monotone
    for _ in range(100):
        dist = ScoreDistribution.from_scores(rng.normal(size=int(rng.integers(1, 80))))
        vals = dora_batch(dist, np.sort(rng.normal(scale=2.0, size=40)))
        assert np.all((vals > 0.0) & (vals < 1.0))
        assert np.all(np.diff(vals) >= 0.0)
    checks += 1

    # path scores shrink as q grows (set inclusion and pointwise)
    # and are zero exactly on the normal set
    for case in range(100):
        data = random_dataset(int(rng.integers(6, 16)), 2, seed=1000 + case)
        vd = vertex_degrees(rbf_similarity_matrix(data, 1.0))
        q1, q2 = sorted(rng.uniform(0.1, 0.9, size=2))
        if q1 == q2:
            q2 = min(0.95, q1 + 0.05)
        weights = -np.log(rbf_similarity_matrix(data, 1.0).matrix)
        _, set1 = select_normal_set(vd, q1)
        _, set2 = select_normal_set(vd, q2)
        assert set(set1.tolist()) <= set(set2.tolist())
        ra1 = multi_source_shortest_paths(weights, set1)
        ra2 = multi_source_shortest_paths(weights, set2)
        assert np.all(ra1 >= ra2 - 1e-12)
        for ra, members in ((ra1, set1), (ra2, set2)):
            inside = np.zeros(data.n, dtype=bool)
            inside[members] = True
            assert np.all(ra[inside] == 0.0) and np.all(ra[~inside] > 0.0)
    checks += 2

    # top-fraction label cardinality
    from fractions import Fraction

    for _ in range(100):
        n = int(rng.integers(1, 400))
        fraction = round(float(rng.uniform(0.01, 0.99)), 3)
        expected = max(1, math.ceil(Fraction(str(fraction)) * n))
        assert label_top_fraction(rng.normal(size=n), fraction).sum() == expected
    checks += 1

    # persistence round trip reproduces scores bit-for-bit
    methods = ("popularity", "vertex_degree", "shortest_path")
    for case in range(100):
        data = random_dataset(12, 2, seed=2000 + case)
        method = methods[case % 3]
        if method == "popularity":
            m = fit_popularity(data, 1.0)
            state = {"s_vec": m.s_vec, "lambda1": m.lambda1, "denom": m.lambda1,
                     "iterations": m.iterations, "residual": m.residual}
        elif method == "vertex_degree":
            vd = vertex_degrees(rbf_similarity_matrix(data, 1.0))
            state = {"vd": vd, "stationary": vd / vd.sum()}
        else:
            m = fit_shortest_path(data, 1.0, q=0.5)
            state = {"vd": m.vd, "normal_set": m.normal_set, "ra_q": m.ra_q}
        bundle = ModelBundle(
            method=method, preprocess="standardize",
            metric=rbf_similarity_matrix(data, 1.0).metric, gamma=1.0,
            config={}, transforms=fit_preprocessor(data, "standardize"),
            training=data, state=state,
        )
        path = tmp_path / f"m{case}.json"
        save_model(path, bundle)
        loaded = load_model(path)
        pts = random_dataset(6, 2, seed=3000 + case).values
        assert np.array_equal(bundle.score_model(pts), loaded.score_model(pts))
    checks += 1

    ok = checks == 6
    report(capsys, f"AC10 structural invariants: {checks}/6 families x 100 cases", ok)
