"""Vertex-degree frequency baseline and its random-walk view.

The vertex degree of an observation is the row sum of the similarity
matrix, a kernel density estimate up to scale.  Ranking ascending vertex
degree is the frequency-based baseline that relative methods improve on.
The row-normalized similarity matrix is a transition matrix whose
stationary distribution is proportional to the vertex degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .graph import DistanceMetric, SimilarityGraph, _top_k_columns, pairwise_distances

__all__ = [
    "VertexDegrees",
    "ConvergenceError",
    "vertex_degrees",
    "transition_matrix",
    "stationary_distribution",
    "median_knn_distance",
    "vd_knn_approx",
]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last observed residual."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class VertexDegrees:
    """Row sums of a similarity graph, diagonal included."""

    vd: np.ndarray
    gamma: float


def vertex_degrees(graph: SimilarityGraph) -> VertexDegrees:
    vd = np.asarray(graph.matrix.sum(axis=1)).ravel()
    return VertexDegrees(vd=vd, gamma=graph.gamma)


def transition_matrix(graph: SimilarityGraph) -> np.ndarray:
    """Row-stochastic matrix P = diag(S 1)^-1 S for a dense graph."""
    if graph.is_sparse:
        raise ValueError(
            "transition matrix requires a dense graph; truncated graphs "
            "may be reducible"
        )
    s = graph.matrix
    return s / s.sum(axis=1, keepdims=True)


def stationary_distribution(
    p: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000
) -> np.ndarray:
    """Dominant left eigenvector of a strictly positive transition matrix.

    Power iteration from the uniform distribution; the row-stochastic
    structure keeps every iterate a probability vector.  Convergence is
    declared when the L1 stationarity residual of the returned vector is
    within ``tol``.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(p <= 0.0):
        raise ValueError(
            "stationary distribution requires strictly positive transitions; "
            "build it from a dense similarity graph"
        )
    if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("rows of the transition matrix must sum to 1")
    n = p.shape[0]
    pt = np.ascontiguousarray(p.T)
    pi = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        nxt = pt @ pi
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        if residual <= tol:
            # residual is the L1 stationarity defect of pi itself
            return pi
        pi = nxt
    raise ConvergenceError("stationary distribution did not converge", residual)


def median_knn_distance(
    data: Dataset, k: int, metric: DistanceMetric = DistanceMetric.EUCLIDEAN
) -> float:
    """Median over all observations' k-nearest-neighbor distances."""
    return float(np.median(_knn_distances(data, k, metric)))


def _knn_distances(data: Dataset, k: int, metric: DistanceMetric) -> np.ndarray:
    """Each row's k nearest-neighbor distances, ascending (self excluded)."""
    neg = -pairwise_distances(data, metric)
    knn = -np.take_along_axis(neg, _top_k_columns(neg, k), axis=1)
    return np.sort(knn, axis=1)[:, 1:]  # column 0 is the row's own distance 0


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

    ``v`` defaults to the median of all k-nearest-neighbor distances.
    The approximation is affine in the distance sums, so it preserves the
    ascending-vd ranking that the baseline thresholds; the diagonal
    self-similarity is a rank-invariant constant and is omitted.
    """
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ValueError("gamma must be a positive finite real")
    knn = _knn_distances(data, k, metric)
    if v is None:
        v = float(np.median(knn))
    if not (v > 0.0 and np.isfinite(v)):
        raise ValueError("expansion point v must be a positive finite real")
    ev = np.exp(-v * v / gamma)
    const = k * ev * (1.0 + 2.0 * v * v / gamma)
    slope = 2.0 * v * ev / gamma
    return const - slope * knn.sum(axis=1)
