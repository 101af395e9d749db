"""The paper's claim as a curve: relative detection as the anomaly grows common.

The wifi layout, with its far tight anomalous cluster at weight w and the
other clusters scaled by (1 - w) / 0.87, so that w = 0.13 is ``wifi_analogue``.
Each method is fitted with its default gamma on n = 1000 rows (seed 0), and
the top-w fraction of its scores is labelled, so F1 = precision = recall.
Vertex degree counts neighbours and loses the cluster once it is common; the
relative methods (popularity and shortest path) keep it at every w.

F1 of popularity / vertex degree / shortest path, measured on seeds 0-2:

    w      standardize              Box-Cox (seed 0)
    0.05   1.000 / 1.000 / 1.000    0.780 / 0.780 / 1.000
    0.13   1.000 / 0.000 / 1.000    0.392 / 0.392 / 1.000
    0.20   1.000 / 0.310 / 1.000    0.630 / 0.630 / 1.000
    0.30   1.000 / 0.600 / 1.000    0.617 / 0.627 / 1.000
"""

import numpy as np
import pytest

from relanom.model_io import fit_model
from relanom.scoring import label_top_fraction
from relanom.synth import LABEL_ANOMALOUS, LABEL_NORMAL, ClusterSpec, generate_mixture

WEIGHTS = (0.05, 0.13, 0.2, 0.3)
RELATIVE, BASELINE = ("popularity", "shortest_path"), "vertex_degree"


def wifi_layout(w):
    scale = (1.0 - w) / 0.87
    return [
        ClusterSpec(0.72 * scale, (0.0, 0.0), 0.0, LABEL_NORMAL),
        ClusterSpec(0.08 * scale, (2.1, 2.1), 0.18, LABEL_NORMAL),
        ClusterSpec(0.07 * scale, (3.1, 3.1), 0.18, LABEL_NORMAL),
        ClusterSpec(w, (4.6, 4.6), 0.10, LABEL_ANOMALOUS),
    ]


def f1_curve(preprocess):
    """{method: [F1 at each of WEIGHTS]} with the top-w fraction labelled."""
    curve = {method: [] for method in (*RELATIVE, BASELINE)}
    for w in WEIGHTS:
        raw, labels = generate_mixture(wifi_layout(w), 1000, 0)
        truth = labels == LABEL_ANOMALOUS
        for method, f1 in curve.items():
            bundle, _ = fit_model(raw, method, preprocess=preprocess)
            predicted = label_top_fraction(bundle.train_scores_rowwise(), w)
            f1.append(2 * int(np.sum(predicted & truth)) / (predicted.sum() + truth.sum()))
    return curve


@pytest.mark.parametrize("preprocess", [
    "standardize",
    pytest.param("box-cox", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 1: the power iteration stops on the 2-norm residual, before the "
            "anomaly tail of the eigenvector converges, so popularity tracks vertex degree"))),
])
def test_relative_detectors_hold_as_the_anomaly_grows_common(preprocess):
    curve = f1_curve(preprocess)
    shown = {method: [round(f1, 3) for f1 in f1s] for method, f1s in curve.items()}
    for method in RELATIVE:
        assert min(curve[method]) >= 0.95, shown
    # frequent enough to be dense: vertex degree flags the medium clusters instead
    assert max(f1 for w, f1 in zip(WEIGHTS, curve[BASELINE]) if w >= 0.13) <= 0.7, shown
