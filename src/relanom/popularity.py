"""Relative anomaly scoring by eigenvector popularity.

The dominant eigenvector of the (unnormalized) similarity matrix assigns
each observation a popularity weight that accounts for the popularity of
its neighbors, not just how many neighbors it has.  The relative anomaly
score is the negated eigenvector entry, so larger means more anomalous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .degree import ConvergenceError
from .graph import (
    DistanceMetric,
    SimilarityGraph,
    kernel_rows,
    rbf_similarity_matrix,
    threshold_sparsify,
)

__all__ = [
    "PowerResult",
    "PopularityModel",
    "power_iteration",
    "rff_feature_map",
    "rff_warm_start",
    "fit_popularity",
    "relative_anomaly",
    "kernel_extension",
    "score_new",
    "score_batch",
]


@dataclass(frozen=True)
class PowerResult:
    s_vec: np.ndarray
    lambda1: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class PopularityModel:
    """Fitted popularity scorer.

    ``denom`` freezes the eigenvalue estimate ``lambda1`` = s' S s of the
    returned unit vector on the fitted (possibly sparsified) graph, so
    out-of-sample scores reproduce the training scores on training rows.
    """

    s_vec: np.ndarray
    lambda1: float
    denom: float
    graph: SimilarityGraph
    iterations: int
    residual: float


def power_iteration(
    s_matrix,
    s0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> PowerResult:
    """Dominant eigenpair of a symmetric matrix by power iteration.

    Convergence is declared when the 2-norm residual
    ``|| S s - (s' S s) s ||`` of the current unit iterate is within
    ``tol``; that iterate is returned, so the reported residual is the
    residual of the returned vector.  The sign is fixed to the
    all-positive orientation.
    """
    n = s_matrix.shape[0]
    if s_matrix.shape[0] != s_matrix.shape[1]:
        raise ValueError("matrix must be square")
    diag = s_matrix.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix must have a strictly positive diagonal")
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    if s0 is None:
        s = np.full(n, 1.0 / math.sqrt(n))
    else:
        s = np.abs(np.asarray(s0, dtype=np.float64))
        norm = np.linalg.norm(s)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("starting vector must be nonzero and finite")
        s = s / norm
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = s_matrix @ s
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("power iteration produced non-finite values")
        lam = float(s @ y)
        residual = float(np.linalg.norm(y - lam * s))
        if residual <= tol:
            if s.sum() < 0.0:
                s = -s
            return PowerResult(s_vec=s, lambda1=lam, iterations=it, residual=residual)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise FloatingPointError("power iteration hit the zero vector")
        s = y / norm
    raise ConvergenceError("power iteration did not converge", residual)


def rff_feature_map(data: Dataset, n_features: int, gamma: float, seed: int) -> np.ndarray:
    """Random Fourier features for the Euclidean kernel, stacked D x n.

    z(x) = sqrt(2/D) cos(Wx + b) with W entries N(0, 2/gamma) and phases
    uniform on [0, 2*pi), so z(x)'z(y) is an unbiased estimate of
    exp(-||x - y||^2 / gamma).
    """
    if n_features < 1:
        raise ValueError("n_features must be at least 1")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("gamma must be a positive finite real")
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, math.sqrt(2.0 / gamma), size=(n_features, data.d))
    b = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    return math.sqrt(2.0 / n_features) * np.cos(w @ data.values.T + b[:, None])


def rff_warm_start(data: Dataset, n_features: int, gamma: float, seed: int) -> np.ndarray:
    """Random-Fourier-feature estimate of the dominant eigenvector.

    The dominant eigenvector of the small D x D matrix Phi Phi' lifts
    back to observation space; its magnitudes, normalized, seed the full
    power iteration.
    """
    phi = rff_feature_map(data, n_features, gamma, seed)
    small = phi @ phi.T
    # Lift any tiny negative diagonal noise; the matrix is PSD by form.
    np.fill_diagonal(small, np.maximum(small.diagonal(), 1e-12))
    lead = power_iteration(small, tol=1e-10, max_iter=10_000)
    start = np.abs(phi.T @ lead.s_vec)
    norm = float(np.linalg.norm(start))
    if norm == 0.0:
        raise ValueError("random features produced a degenerate start vector")
    return start / norm


def fit_popularity(
    data: Dataset,
    gamma: float,
    *,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    sparsify: float = 0.0,
    start: str = "uniform",
    rff_dim: int = 256,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> PopularityModel:
    """Build the similarity graph and run the power iteration.

    ``start`` selects the initial vector: "uniform" (default), "random"
    (seeded positive entries), or "rff" (random Fourier feature warm
    start of dimension ``rff_dim``).  ``sparsify`` > 0 drops that
    fraction of the smallest off-diagonal similarity pairs first.
    """
    graph = rbf_similarity_matrix(data, gamma, metric)
    if sparsify > 0.0:
        graph = threshold_sparsify(graph, sparsify)
    if start == "uniform":
        s0 = None
    elif start == "random":
        s0 = np.random.default_rng(seed).random(data.n) + 1e-12
    elif start == "rff":
        if metric is not DistanceMetric.EUCLIDEAN:
            raise ValueError("the random-feature warm start requires the euclidean metric")
        s0 = rff_warm_start(data, rff_dim, gamma, seed)
    else:
        raise ValueError(f"unknown start '{start}'")
    result = power_iteration(graph.matrix, s0, tol=tol, max_iter=max_iter)
    if np.any(result.s_vec <= 0.0):
        raise FloatingPointError(
            "dominant eigenvector is not strictly positive; the graph is "
            "effectively disconnected at this gamma"
        )
    return PopularityModel(
        s_vec=result.s_vec,
        lambda1=result.lambda1,
        denom=result.lambda1,
        graph=graph,
        iterations=result.iterations,
        residual=result.residual,
    )


def relative_anomaly(model: PopularityModel) -> np.ndarray:
    """Training scores: negated eigenvector entries (larger = more anomalous)."""
    return -model.s_vec


def kernel_extension(
    points: np.ndarray,
    training: np.ndarray,
    s_vec: np.ndarray,
    denom: float,
    gamma: float,
    metric: DistanceMetric,
) -> np.ndarray:
    """Out-of-sample scores -(k(x)' s) / (s' S s) of model-space points.

    ``k(x)`` holds the kernel similarities of x to the training rows, so on
    a training row this reproduces the training score up to the power
    iteration residual.
    """
    return -(kernel_rows(points, training, gamma, metric) @ s_vec) / denom


def score_batch(model: PopularityModel, points: np.ndarray) -> np.ndarray:
    """Out-of-sample scores via the kernel extension of the eigenvector.

    Points must already be mapped through the model's feature transforms.
    """
    g = model.graph
    return kernel_extension(points, g.source.values, model.s_vec, model.denom, g.gamma, g.metric)


def score_new(model: PopularityModel, x: np.ndarray) -> float:
    """Score one new observation (model space); larger = more anomalous."""
    return float(score_batch(model, np.atleast_2d(x))[0])
