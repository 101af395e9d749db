"""ECDF score normalization, top-fraction labeling, deviation explanations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from relanom.dataset import Dataset
from relanom.graph import DistanceMetric
from relanom.scoring import (
    ScoreDistribution,
    dora_batch,
    explain_deviations,
    label_top_fraction,
)


# ---------------------------------------------------------------------------
# dora


def test_rank_three_of_three():
    dist = ScoreDistribution.from_scores(np.array([-3.0, -2.0, -1.0]))
    assert dora_batch(dist, [-1.0])[0] == pytest.approx(3 / 4)


def test_below_all_training_scores():
    dist = ScoreDistribution.from_scores(np.array([-3.0, -2.0, -1.0]))
    assert dora_batch(dist, [-10.0])[0] == pytest.approx(1 / 8)  # 1 / (2 (n + 1))


def test_single_training_score():
    dist = ScoreDistribution.from_scores(np.array([0.7]))
    assert dora_batch(dist, [0.7])[0] == pytest.approx(0.5)


def test_interior_rank():
    dist = ScoreDistribution.from_scores(np.array([-3.0, -2.0, -1.0]))
    assert dora_batch(dist, [-2.5])[0] == pytest.approx(1 / 4)
    assert dora_batch(dist, [-1.5])[0] == pytest.approx(2 / 4)


def test_strictly_inside_unit_interval_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        dist = ScoreDistribution.from_scores(rng.normal(size=n))
        queries = np.sort(rng.normal(scale=3.0, size=50))
        vals = dora_batch(dist, queries)
        assert np.all((vals > 0.0) & (vals < 1.0))
        assert np.all(np.diff(vals) >= 0.0)


def test_training_scores_map_near_uniform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=500)
    dist = ScoreDistribution.from_scores(scores)
    assert abs(float(dora_batch(dist, scores).mean()) - 0.5) < 0.05


def test_empty_scores_rejected():
    with pytest.raises(ValueError):
        ScoreDistribution.from_scores(np.array([]))


# ---------------------------------------------------------------------------
# label_top_fraction


def test_two_of_ten():
    scores = np.arange(10.0)
    labels = label_top_fraction(scores, 0.2)
    assert labels.sum() == 2
    assert labels[-2:].all()


def test_thirteen_percent_of_thousand():
    rng = np.random.default_rng(2)
    labels = label_top_fraction(rng.normal(size=1000), 0.13)
    assert labels.sum() == 130


def test_all_equal_takes_first_index():
    labels = label_top_fraction(np.full(5, 1.0), 0.2)
    assert labels.tolist() == [True, False, False, False, False]


def test_ties_at_cut_prefer_smaller_index():
    scores = np.array([5.0, 9.0, 9.0, 9.0, 1.0])
    labels = label_top_fraction(scores, 0.4)
    assert labels.tolist() == [False, True, True, False, False]


def test_cardinality_is_ceiling_of_fraction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 1000))
        fraction = round(float(rng.uniform(0.001, 0.999)), 3)
        expected = math.ceil(Fraction(str(fraction)) * n)  # exact rational ceiling
        labels = label_top_fraction(rng.normal(size=n), fraction)
        assert labels.sum() == max(1, expected)


def test_fraction_bounds_enforced():
    scores = np.arange(4.0)
    for fraction in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            label_top_fraction(scores, fraction)
    with pytest.raises(ValueError):
        label_top_fraction(np.array([]), 0.5)


# ---------------------------------------------------------------------------
# explain_deviations


def make_training():
    values = np.array([[-1.0, 0.0], [-2.0, 1.5], [4.0, 4.0], [5.5, -1.5]])
    training = Dataset(values, ["x1", "x2"])
    dora_scores = np.array([0.1, 0.2, 0.9, 0.95])  # last two are anomalous
    return training, dora_scores


def test_two_feature_example():
    training, dora_scores = make_training()
    exp = explain_deviations(np.array([5.0, -2.0]), training, dora_scores, 0.5,
                             DistanceMetric.MANHATTAN)
    assert exp.closest_index == 0
    np.testing.assert_allclose(exp.difference, [6.0, -2.0])
    assert exp.columns[exp.feature_order[0]] == "x1"
    rows = exp.rows()
    assert rows[0] == ("x1", 5.0, -1.0, 6.0)
    assert rows[1] == ("x2", -2.0, 0.0, -2.0)


def test_anomaly_equal_to_normal_point_has_zero_diff():
    training, dora_scores = make_training()
    exp = explain_deviations(training.values[1].copy(), training, dora_scores, 0.5,
                             DistanceMetric.MANHATTAN)
    assert exp.closest_index == 1
    np.testing.assert_array_equal(exp.difference, [0.0, 0.0])


def test_matches_brute_force_scan():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        training = Dataset(rng.normal(size=(n, 3)))
        dora_scores = rng.uniform(size=n)
        p = float(rng.uniform(0.2, 0.9))
        if not np.any(dora_scores < p):
            continue
        x = rng.normal(size=3)
        exp = explain_deviations(x, training, dora_scores, p, DistanceMetric.MANHATTAN)
        # brute-force oracle: scan qualifying rows, smaller index wins ties
        best, best_d = None, np.inf
        for i in range(n):
            if dora_scores[i] < p:
                d = float(np.abs(training.values[i] - x).sum())
                if d < best_d - 1e-15:
                    best, best_d = i, d
        assert exp.closest_index == best
        np.testing.assert_allclose(exp.difference, x - training.values[best])


def test_ranking_invariant_under_common_rescale():
    training, dora_scores = make_training()
    x = np.array([3.0, -2.5])
    base = explain_deviations(x, training, dora_scores, 0.5, DistanceMetric.MANHATTAN)
    scaled = explain_deviations(
        10.0 * x, Dataset(10.0 * training.values, list(training.columns)),
        dora_scores, 0.5, DistanceMetric.MANHATTAN,
    )
    assert base.feature_order == scaled.feature_order


def test_euclidean_metric_changes_nothing_here():
    training, dora_scores = make_training()
    exp = explain_deviations(np.array([5.0, -2.0]), training, dora_scores, 0.5,
                             DistanceMetric.EUCLIDEAN)
    assert exp.closest_index == 0


def test_no_qualifying_normal_points():
    training, dora_scores = make_training()
    with pytest.raises(ValueError, match="increase p"):
        explain_deviations(np.array([0.0, 0.0]), training, dora_scores, 0.05,
                           DistanceMetric.MANHATTAN)


def test_threshold_and_shape_validated():
    training, dora_scores = make_training()
    with pytest.raises(ValueError):
        explain_deviations(np.array([0.0, 0.0]), training, dora_scores, 1.5,
                           DistanceMetric.MANHATTAN)
    with pytest.raises(ValueError):
        explain_deviations(np.array([0.0]), training, dora_scores, 0.5,
                           DistanceMetric.MANHATTAN)
