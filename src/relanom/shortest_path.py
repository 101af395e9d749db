"""Relative anomaly scoring by shortest paths to the most typical points.

The top-q fraction of observations by vertex degree form the "normal
set".  Every edge gets weight -ln s_ij, so a path's weight is the negated
log of its similarity product; the score of an observation is its
shortest-path distance to the normal set.  A zero similarity is no edge.
Normal observations score exactly 0, and exp(-score) is the best
similarity product achievable along any path into the normal set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .dataset import Dataset
from .degree import VertexDegrees, vertex_degrees
from .graph import (
    DistanceMetric,
    SimilarityGraph,
    for_row_blocks,
    kernel_graph,
    knn_truncate,
    max_symmetrize,
    rbf_similarity_matrix,
    sq_distances,
)
from .scoring import ScoreDistribution

__all__ = [
    "ShortestPathModel",
    "select_normal_set",
    "path_weights",
    "multi_source_shortest_paths",
    "fit_shortest_path",
    "one_hop_extension",
    "score_batch_shortest_path",
]


@dataclass(frozen=True)
class ShortestPathModel:
    vd: VertexDegrees
    q: float
    normal_set: np.ndarray
    ra_q: np.ndarray
    graph: SimilarityGraph


def select_normal_set(vd: VertexDegrees | np.ndarray, q: float):
    """Indices whose vertex degree exceeds that of a 1-q share of the data.

    Membership: ecdf(vd_l) > 1 - q with the right-continuous ECDF, i.e.
    the top-q fraction by vertex degree, tied degrees entering or leaving
    together.  Returns ``(distribution, indices)``; the set is never empty
    since the maximum always qualifies.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    values = vd.vd if isinstance(vd, VertexDegrees) else vd
    dist = ScoreDistribution.from_scores(values)
    members = np.nonzero(dist.ecdf(values) > 1.0 - q)[0]
    return dist, members


def path_weights(graph: SimilarityGraph):
    """Edge-weight view -ln s_ij of a similarity graph; a zero similarity is no edge.

    Negative similarities are rejected.  A zero weighs +inf, as an absent
    sparse entry does.  A kernel entry exp(-d^2/gamma) loses precision only
    past d^2/gamma ~708 and is zero past ~745, so distances below ~708 equal
    those of the exact weights d^2/gamma up to rounding.
    """
    values = graph.matrix.data if graph.is_sparse else graph.matrix
    if np.any(values < 0.0):
        raise ValueError("similarities must be nonnegative")
    with np.errstate(divide="ignore"):
        weights = -np.log(values)
    if not graph.is_sparse:
        return weights
    out = graph.matrix.copy()
    out.data = weights
    return out


def multi_source_shortest_paths(weights, sources: np.ndarray) -> np.ndarray:
    """Dijkstra distances from the nearest of several sources.

    Equivalent to adding a virtual source with zero-weight edges to every
    listed vertex.  ``weights`` is a dense ndarray or CSR matrix of
    nonnegative edge weights, or a dense SimilarityGraph, whose rows become
    weights -ln s (``path_weights``) one settled row at a time.  Absent sparse
    entries mean "no edge" and stored zeros are edges.  Unreachable vertices
    get +inf.  Dense input runs an O(n^2) array Dijkstra; sparse input runs
    csgraph's, which would drop the zero-weight edges of dense input.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("at least one source vertex is required")
    if sparse.issparse(weights):
        return dijkstra(weights, directed=True, indices=sources, min_only=True)
    if isinstance(weights, SimilarityGraph):
        s = weights.matrix
        if s.min() < 0.0:
            raise ValueError("similarities must be nonnegative")

        def row_weights(u):
            return -np.log(s[u])
    else:
        s, row_weights = weights, weights.__getitem__
    n = s.shape[0]
    dist = np.full(n, np.inf)
    key = dist.copy()  # tentative distances; +inf once settled
    key[sources] = 0.0
    done = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore"):  # -ln 0 = +inf: no edge
        for _ in range(n):
            u = int(np.argmin(key))
            if key[u] == np.inf:
                break
            dist[u], key[u], done[u] = key[u], np.inf, True
            cand = dist[u] + row_weights(u)
            cand[done] = np.inf
            np.minimum(key, cand, out=key)
    return dist


def fit_shortest_path(
    data: Dataset,
    gamma: float,
    q: float,
    k: int | None = None,
    *,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> ShortestPathModel:
    """Select the normal set by vertex degree, then run multi-source Dijkstra.

    Vertex degrees are the row sums of the full kernel.  Without ``k`` the
    paths run on the dense graph.  With ``k`` they run on the
    k-nearest-neighbor graph, symmetrized by keeping an edge when either
    endpoint kept it; then one pass over kernel row blocks gives both the
    degrees and the kNN selection, and no n x n matrix is built.
    Disconnected vertices score +inf and trigger a warning.
    """
    if not 0.0 < q < 1.0:  # before the kernel pass, which can take seconds
        raise ValueError("q must be in (0, 1)")
    if k is None:
        path_graph = weights = rbf_similarity_matrix(data, gamma, metric)
        vd = vertex_degrees(path_graph)
    else:
        kernel, sums = kernel_graph(data, gamma, metric), np.empty(data.n)

        def read_rows(rows, out):
            sums[rows] = kernel.rows(rows, out).sum(axis=1)  # before the diagonal is masked

        path_graph = max_symmetrize(knn_truncate(kernel, k, read_rows))
        vd, weights = VertexDegrees(sums, gamma), path_weights(path_graph)
    _, normal = select_normal_set(vd, q)
    ra_q = multi_source_shortest_paths(weights, normal)
    unreachable = int(np.sum(np.isinf(ra_q)))
    if unreachable:
        warnings.warn(
            f"{unreachable} observations are unreachable from the normal set; "
            "their scores are +inf",
            stacklevel=2,
        )
    return ShortestPathModel(vd=vd, q=q, normal_set=normal, ra_q=ra_q, graph=path_graph)


def one_hop_extension(
    points: np.ndarray,
    training: np.ndarray,
    ra_q: np.ndarray,
    gamma: float,
    metric: DistanceMetric,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Out-of-sample scores: min over training rows of edge weight + ra_q.

    A new observation connects to every training row with weight
    -ln s(x, x_j) = d(x, x_j)^2 / gamma; its score is the cheapest entry
    point into the fitted distances ``ra_q``.  ``out``, a points x training
    buffer, holds the weights when given.
    """
    w = sq_distances(points, training, metric, out)
    np.divide(w, gamma, out=w)
    return np.add(w, ra_q, out=w).min(axis=1)


def score_batch_shortest_path(model: ShortestPathModel, points: np.ndarray) -> np.ndarray:
    """One-hop extension of the fitted distances; points must be in model space."""
    g, x = model.graph, np.atleast_2d(points)
    return np.concatenate(for_row_blocks(lambda rows, out: one_hop_extension(
        x[rows], g.source.values, model.ra_q, g.gamma, g.metric, out), len(x), g.n))
