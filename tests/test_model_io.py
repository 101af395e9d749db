"""Model bundles: out-of-sample scoring under both distance metrics."""

import numpy as np
import pytest

from relanom.graph import DistanceMetric
from relanom.model_io import fit_model
from relanom.popularity import fit_popularity, score_batch
from relanom.shortest_path import fit_shortest_path, score_batch_shortest_path
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
    points = np.vstack([train, train + 0.1])
    if method == "popularity":
        model = fit_popularity(bundle.training, bundle.gamma, metric=metric)
        expect = score_batch(model, points)
    elif method == "shortest_path":
        model = fit_shortest_path(bundle.training, bundle.gamma, 0.5, metric=metric)
        expect = score_batch_shortest_path(model, points)
    else:
        return
    assert np.array_equal(bundle.score_model(points), expect)
