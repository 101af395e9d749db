"""Vertex-degree frequency baseline and its random-walk view.

The vertex degree of an observation is the row sum of the similarity
matrix, a kernel density estimate up to scale.  Ranking ascending vertex
degree is the frequency-based baseline that relative methods improve on.
The row-normalized similarity matrix is a transition matrix; for a
symmetric similarity matrix its stationary distribution is exactly the
vertex degrees divided by their sum (detailed balance), the closed form
the vertex-degree fit stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import Dataset
from .graph import DistanceMetric, SimilarityGraph, _top_k_columns, for_row_blocks

__all__ = [
    "VertexDegrees",
    "vertex_degrees",
    "median_knn_distance",
    "vd_knn_approx",
]


@dataclass(frozen=True)
class VertexDegrees:
    """Row sums of a similarity graph, diagonal included."""

    vd: np.ndarray
    gamma: float


def vertex_degrees(graph: SimilarityGraph) -> VertexDegrees:
    """Row sums of the graph; a kernel graph is summed a row block at a time."""
    if graph.matrix is None:
        vd = np.concatenate(for_row_blocks(
            lambda rows, out: graph.rows(rows, out).sum(axis=1), graph.n, graph.n))
    else:
        vd = np.asarray(graph.matrix.sum(axis=1)).ravel()
    return VertexDegrees(vd=vd, gamma=graph.gamma)


def median_knn_distance(
    data: Dataset, k: int, metric: DistanceMetric = DistanceMetric.EUCLIDEAN
) -> float:
    """Median of the positive k-nearest-neighbor distances of all observations.

    Zero distances (duplicate rows) are left out; raises when no distance
    is positive.
    """
    return _positive_median(_knn_distances(data, k, metric))


def _positive_median(knn: np.ndarray) -> float:
    positive = knn[knn > 0.0]
    if positive.size == 0:
        raise ValueError("every k-nearest-neighbor distance is 0; no expansion point")
    return float(np.median(positive))


def _knn_distances(data: Dataset, k: int, metric: DistanceMetric) -> np.ndarray:
    """Each row's k nearest-neighbor distances, ascending (self excluded),
    selected in ``for_row_blocks`` blocks on every core, never as an n x n matrix."""
    x = data.values
    _, neg = _top_k_columns(lambda rows, out: np.negative(
        cdist(x[rows], x, metric.cdist_name, out=out), out=out), data.n, k)
    return np.sort(-neg, axis=1)[:, 1:]  # column 0 is the row's own distance 0


def vd_knn_approx(
    data: Dataset,
    k: int,
    gamma: float,
    v: float | None = None,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> np.ndarray:
    """Linearized vertex degree from each row's k nearest neighbors.

    First-order expansion of the kernel around distance ``v``:

        k * e^(-v^2/gamma) * (1 + 2 v^2 / gamma)
        - (2 v e^(-v^2/gamma) / gamma) * sum of the k neighbor distances

    ``v`` defaults to ``median_knn_distance``, the median of the positive
    k-nearest-neighbor distances.  The approximation is affine in the
    distance sums, so it preserves the ascending-vd ranking that the
    baseline thresholds; the diagonal self-similarity is a rank-invariant
    constant and is omitted.
    """
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ValueError("gamma must be a positive finite real")
    knn = _knn_distances(data, k, metric)
    if v is None:
        v = _positive_median(knn)
    if not (v > 0.0 and np.isfinite(v)):
        raise ValueError("expansion point v must be a positive finite real")
    ev = np.exp(-v * v / gamma)
    const = k * ev * (1.0 + 2.0 * v * v / gamma)
    slope = 2.0 * v * ev / gamma
    return const - slope * knn.sum(axis=1)
