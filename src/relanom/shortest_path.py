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
    knn_truncate,
    map_row_blocks,
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
    nonnegative edge weights; absent sparse entries mean "no edge" and
    stored zeros are edges.  Unreachable vertices get +inf.  Dense weights
    run an O(n^2) array Dijkstra; sparse ones run csgraph's, which would
    drop the zero-weight edges of dense input.
    """
    n = weights.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("at least one source vertex is required")
    if sparse.issparse(weights):
        return dijkstra(weights, directed=True, indices=sources, min_only=True)
    dist = np.full(n, np.inf)
    key = dist.copy()  # tentative distances; +inf once settled
    key[sources] = 0.0
    done = np.zeros(n, dtype=bool)
    for _ in range(n):
        u = int(np.argmin(key))
        if key[u] == np.inf:
            break
        dist[u], key[u], done[u] = key[u], np.inf, True
        cand = dist[u] + weights[u]
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

    Vertex degrees always come from the dense graph; when ``k`` is given
    the paths run on the k-nearest-neighbor graph, symmetrized by keeping
    an edge when either endpoint kept it.  Disconnected vertices score
    +inf and trigger a warning.
    """
    dense = rbf_similarity_matrix(data, gamma, metric)
    vd = vertex_degrees(dense)
    _, normal = select_normal_set(vd, q)
    path_graph = dense if k is None else max_symmetrize(knn_truncate(dense, k))
    ra_q = multi_source_shortest_paths(path_weights(path_graph), normal)
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
) -> np.ndarray:
    """Out-of-sample scores: min over training rows of edge weight + ra_q.

    A new observation connects to every training row with weight
    -ln s(x, x_j) = d(x, x_j)^2 / gamma; its score is the cheapest entry
    point into the fitted distances ``ra_q``.
    """
    return np.min(sq_distances(points, training, metric) / gamma + ra_q, axis=1)


def score_batch_shortest_path(model: ShortestPathModel, points: np.ndarray) -> np.ndarray:
    """One-hop extension of the fitted distances; points must be in model space."""
    g = model.graph
    return map_row_blocks(lambda x: one_hop_extension(
        x, g.source.values, model.ra_q, g.gamma, g.metric), points, g.n)
