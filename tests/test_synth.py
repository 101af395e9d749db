"""Synthetic dataset generators: determinism, counts, cluster statistics."""

from dataclasses import replace

import numpy as np
import pytest

from relanom import synth
from relanom.synth import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    ClusterSpec,
    generate_mixture,
    scraping_analogue,
    wifi_analogue,
)


def test_scraping_split_and_labels():
    data, labels = scraping_analogue(1000, seed=0)
    assert data.n == 1000 and data.d == 2
    assert (labels == LABEL_NORMAL).sum() == 800
    assert (labels == LABEL_ANOMALOUS).sum() == 200


def test_scraping_cluster_statistics():
    data, labels = scraping_analogue(1000, seed=0)
    normal = data.values[labels == LABEL_NORMAL]
    anom = data.values[labels == LABEL_ANOMALOUS]
    # empirical means within 4 sd / sqrt(count) of the cluster centers
    assert np.all(np.abs(normal.mean(axis=0) - [0.0, 0.0]) < 4 * 0.3 / np.sqrt(800))
    assert np.all(np.abs(anom.mean(axis=0) - [6.0, 0.0]) < 4 * 1.5 / np.sqrt(200))


def test_wifi_cluster_layout():
    data, labels = wifi_analogue(1000, seed=0)
    assert data.n == 1000
    anom = labels == LABEL_ANOMALOUS
    assert anom.sum() == 130
    # 72% of rows sit on a single exact point
    vals, counts = np.unique(data.values, axis=0, return_counts=True)
    assert counts.max() == 720
    atom = vals[np.argmax(counts)]
    np.testing.assert_array_equal(atom, [0.0, 0.0])
    # the anomalous cluster is the farthest from the origin
    dist = np.linalg.norm(data.values, axis=1)
    assert dist[anom].min() > dist[~anom].max() - 1.0


def test_wifi_cluster_means():
    data, labels = wifi_analogue(1000, seed=3)
    anom = labels == LABEL_ANOMALOUS
    far = data.values[anom]
    assert np.all(np.abs(far.mean(axis=0) - [4.6, 4.6]) < 4 * 0.10 / np.sqrt(far.shape[0]))


@pytest.mark.parametrize("maker", [scraping_analogue, wifi_analogue])
def test_same_seed_bit_identical(maker):
    d1, l1 = maker(500, seed=11)
    d2, l2 = maker(500, seed=11)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(l1, l2)
    d3, _ = maker(500, seed=12)
    assert not np.array_equal(d1.values, d3.values)


def test_point_mass_cluster_is_exact():
    specs = [ClusterSpec(1.0, (2.5, -1.0), 0.0, LABEL_NORMAL)]
    data, labels = generate_mixture(specs, 10, seed=0)
    np.testing.assert_array_equal(data.values, np.tile([2.5, -1.0], (10, 1)))
    assert all(lab == LABEL_NORMAL for lab in labels)


def test_counts_follow_weights():
    specs = [
        ClusterSpec(0.25, (0.0,), 1.0, LABEL_NORMAL),
        ClusterSpec(0.75, (5.0,), 1.0, LABEL_ANOMALOUS),
    ]
    data, labels = generate_mixture(specs, 400, seed=1)
    assert (labels == LABEL_NORMAL).sum() == 100
    assert (labels == LABEL_ANOMALOUS).sum() == 300
    assert data.n == 400


def old_rule_mixture(specs, n, seed):
    """The former draw: round(weight * n) rows per cluster, in spec order."""
    rng, blocks, labels = np.random.default_rng(seed), [], []
    for spec in specs:
        count = int(np.floor(spec.weight * n + 0.5))
        blocks.append(np.asarray(spec.mean) + spec.sd * rng.standard_normal((count, 2)))
        labels += [spec.label] * count
    return np.vstack(blocks), np.array(labels)


@pytest.mark.parametrize("maker", [scraping_analogue, wifi_analogue])
def test_a_mixture_has_exactly_n_rows(maker, monkeypatch):
    # Rounding each cluster's weight * n gave the wifi layout 2 rows at n=3, 9 at
    # n=8 and 151 at n=150.  Where it gave n rows, the data are unchanged.
    with monkeypatch.context() as mp:
        mp.setattr(synth, "generate_mixture", lambda specs, n, seed: specs)
        specs = maker()
    numbered = [replace(spec, label=str(i)) for i, spec in enumerate(specs)]
    weights = np.array([spec.weight for spec in specs])
    unchanged = 0
    for n in range(2, 2001):
        data, labels = maker(n, seed=n % 5)
        assert data.n == labels.size == n
        _, clusters = generate_mixture(numbered, n, seed=0)
        counts = np.bincount(clusters.astype(int), minlength=len(specs))
        assert counts.sum() == n and np.all(np.abs(counts - weights * n) < 1.0)
        old, old_labels = old_rule_mixture(specs, n, seed=n % 5)
        if len(old) == n:
            unchanged += 1
            assert np.array_equal(data.values, old) and np.array_equal(labels, old_labels)
    assert unchanged > 1000


def test_leftover_rows_go_to_the_largest_remainders_then_the_earlier_cluster():
    specs = [ClusterSpec(w, (float(i),), 0.0, str(i)) for i, w in enumerate([0.4, 0.3, 0.3])]
    # n=5: 2, 1.5, 1.5, which rounding made 6 rows; the tie goes to the earlier cluster
    assert generate_mixture(specs, 5, seed=0)[1].tolist() == ["0", "0", "1", "1", "2"]
    # n=7: 2.8, 2.1, 2.1 -> floors 2, 2, 2 and one row left, to the remainder 0.8
    assert generate_mixture(specs, 7, seed=0)[1].tolist() == ["0"] * 3 + ["1"] * 2 + ["2"] * 2


def test_empty_specs_rejected():
    with pytest.raises(ValueError):
        generate_mixture([], 100, seed=0)


def test_tiny_n_rejected():
    specs = [ClusterSpec(1.0, (0.0,), 1.0, LABEL_NORMAL)]
    with pytest.raises(ValueError):
        generate_mixture(specs, 1, seed=0)


def test_weights_must_sum_to_one():
    specs = [
        ClusterSpec(0.5, (0.0,), 1.0, LABEL_NORMAL),
        ClusterSpec(0.3, (1.0,), 1.0, LABEL_NORMAL),
    ]
    with pytest.raises(ValueError, match="sum"):
        generate_mixture(specs, 100, seed=0)
