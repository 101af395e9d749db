"""Seeded Gaussian-mixture generators with ground-truth labels.

Two canned datasets mirror the qualitative shape of the evaluation data:
a two-cluster set where a tight popular mass coexists with a diffuse
far-away anomalous cluster, and a four-cluster set where most traffic
sits at a single point, two medium clusters are normal, and a far tight
cluster is anomalous despite being locally dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

__all__ = [
    "ClusterSpec",
    "generate_mixture",
    "scraping_analogue",
    "wifi_analogue",
    "LABEL_NORMAL",
    "LABEL_ANOMALOUS",
]

LABEL_NORMAL = "normal"
LABEL_ANOMALOUS = "anomalous"


@dataclass(frozen=True)
class ClusterSpec:
    """Isotropic Gaussian component; sd = 0 gives a point mass."""

    weight: float
    mean: tuple[float, ...]
    sd: float
    label: str = LABEL_NORMAL


def generate_mixture(specs: list[ClusterSpec], n: int, seed: int):
    """Draw exactly n points with a seeded generator, weight * n per cluster.

    Each cluster gets the integer part of weight * n; the rows left over go one
    each to the largest remainders, ties to the earlier cluster.

    Returns ``(Dataset, labels)`` where labels align row-for-row with the
    data.  Rows are grouped by cluster in spec order; identical seeds
    give identical datasets.
    """
    if not specs:
        raise ValueError("at least one cluster is required")
    if n < 2:
        raise ValueError("n must be at least 2")
    total_weight = sum(c.weight for c in specs)
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError(f"cluster weights sum to {total_weight}, expected 1")
    d = len(specs[0].mean)
    if d < 1 or any(len(c.mean) != d for c in specs):
        raise ValueError("all cluster means must share the same dimension")
    if any(c.sd < 0.0 for c in specs):
        raise ValueError("cluster sd must be nonnegative")
    exact = np.array([c.weight for c in specs]) * n
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact, kind="stable")[: n - counts.sum()]] += 1
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for spec, count in zip(specs, counts.tolist()):
        if count == 0:
            continue
        draws = rng.standard_normal((count, d))
        blocks.append(np.asarray(spec.mean) + spec.sd * draws)
        labels.extend([spec.label] * count)
    values = np.vstack(blocks)
    return Dataset(values), np.array(labels)


def scraping_analogue(n: int = 1000, seed: int = 0):
    """Tight popular mass at the origin, diffuse anomalous cluster far out."""
    specs = [
        ClusterSpec(0.8, (0.0, 0.0), 0.3, LABEL_NORMAL),
        ClusterSpec(0.2, (6.0, 0.0), 1.5, LABEL_ANOMALOUS),
    ]
    return generate_mixture(specs, n, seed)


def wifi_analogue(n: int = 1000, seed: int = 0):
    """72% point mass, two medium normal clusters, one far dense anomaly.

    All clusters sit on the main diagonal so that both columns share one
    distribution and per-column standardization rescales without warping
    the cluster layout.  The far cluster is tighter (locally denser) than
    the medium clusters, so frequency-based scoring prefers to flag the
    medium clusters while relative scoring flags the far cluster.
    """
    specs = [
        ClusterSpec(0.72, (0.0, 0.0), 0.0, LABEL_NORMAL),
        ClusterSpec(0.08, (2.1, 2.1), 0.18, LABEL_NORMAL),
        ClusterSpec(0.07, (3.1, 3.1), 0.18, LABEL_NORMAL),
        ClusterSpec(0.13, (4.6, 4.6), 0.10, LABEL_ANOMALOUS),
    ]
    return generate_mixture(specs, n, seed)


DATASETS = {"scraping": scraping_analogue, "wifi": wifi_analogue}
