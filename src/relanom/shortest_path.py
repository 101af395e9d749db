"""Relative anomaly scoring by shortest paths to the most typical points.

The top-q fraction of observations by vertex degree form the "normal
set".  Every edge gets weight -ln s_ij, so a path's weight is the negated
log of its similarity product; the score of an observation is its
shortest-path distance to the normal set.  A kernel graph weighs -ln s_ij as
d_ij^2 / gamma, finite where s_ij underflows; a stored zero is no edge.
Normal observations score exactly 0, and exp(-score) is the best
similarity product achievable along any path into the normal set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra

from .dataset import Dataset
from .degree import vertex_degrees
from .graph import (
    DistanceMetric,
    SimilarityGraph,
    for_row_blocks,
    kernel_graph,
    knn_truncate,
    max_symmetrize,
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
]


@dataclass(frozen=True)
class ShortestPathModel:
    vd: np.ndarray
    normal_set: np.ndarray
    ra_q: np.ndarray
    graph: SimilarityGraph


def check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")


def select_normal_set(vd: np.ndarray, q: float):
    """Indices whose vertex degree exceeds that of a 1-q share of the data.

    Membership: ecdf(vd_l) > 1 - q with the right-continuous ECDF, i.e.
    the top-q fraction by vertex degree, tied degrees entering or leaving
    together.  Returns ``(distribution, indices)``; the set is never empty
    since the maximum always qualifies.
    """
    check_q(q)
    dist = ScoreDistribution.from_scores(vd)
    members = np.nonzero(dist.ecdf(vd) > 1.0 - q)[0]
    return dist, members


def path_weights(graph: SimilarityGraph):
    """Edge-weight view -ln s_ij of a stored graph; a zero similarity is no edge.

    A kernel graph is refused: ``multi_source_shortest_paths`` weighs its edges
    d^2/gamma as it reads them.  Negative similarities are rejected.  A zero
    weighs +inf, as an absent sparse entry does.
    """
    if graph.matrix is None:
        raise ValueError("a kernel graph stores no weights; use multi_source_shortest_paths")
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
    listed vertex.  ``weights`` is an ndarray or CSR matrix of nonnegative
    edge weights, or a SimilarityGraph: a stored one's similarities become
    weights -ln s (``path_weights``), and a kernel graph's edges weigh
    d^2/gamma, evaluated as read in O(n) memory, on every pair of vertices.
    An ndarray's +inf entries and a CSR's absent entries mean "no edge";
    zero weights are edges.  Unreachable vertices get +inf.  Stored weights
    run csgraph's Dijkstra, an ndarray as the CSR of its finite entries.  On
    a kernel graph the sources settle at distance 0, one row-block pass on
    every core keys each other vertex by its least weight from a source, and
    an array Dijkstra settles the rest on one core, one row per vertex.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("at least one source vertex is required")
    if isinstance(weights, SimilarityGraph) and weights.matrix is not None:
        weights = path_weights(weights)
    if not isinstance(weights, SimilarityGraph):
        if not sparse.issparse(weights):
            weights = csgraph_from_dense(weights, null_value=np.inf)
        return dijkstra(weights, directed=True, indices=sources, min_only=True)
    gamma, metric, x = weights.gamma, weights.metric, weights.source.values  # a kernel graph
    dist = np.full(len(x), np.inf)
    dist[sources] = 0.0
    sources, rest = np.flatnonzero(dist == 0.0), np.flatnonzero(dist)  # rest: left to settle
    cols, key = x[rest], np.empty(rest.size)

    def source_keys(rows, out):  # in place: the pass holds O(n) beside its scratch
        w = _edge_weights(x[sources], cols[rows], gamma, metric, out.reshape(sources.size, -1))
        np.min(w, axis=0, out=key[rows])

    for_row_blocks(source_keys, rest.size, sources.size)
    buf, m = np.empty((1, rest.size)), rest.size  # rest, key and cols: the first m unsettled
    while m:
        p = int(np.argmin(key[:m]))
        u, du = rest[p], key[p]
        if du == np.inf:
            break
        dist[u], m = du, m - 1
        rest[p], key[p], cols[p] = rest[m], key[m], cols[m]
        w = _edge_weights(x[[u]], cols[:m], gamma, metric, buf[:, :m])[0]
        np.minimum(key[:m], np.add(du, w, out=w), out=key[:m])
    return dist


def fit_shortest_path(
    data: Dataset,
    gamma: float,
    q: float = 0.5,
    k: int | None = None,
    *,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> ShortestPathModel:
    """Select the normal set by vertex degree, then run multi-source Dijkstra.

    Vertex degrees are the row sums of the full kernel.  Without ``k`` the
    paths run on the dense graph, a kernel graph whose rows are evaluated as
    Dijkstra reads them.  Equal rows have equal degrees and paths of weight 0
    between them, so only the distinct rows' degrees are summed, and Dijkstra
    runs on the graph of the distinct rows, from those holding a row of the
    normal set, which is chosen over every row's degree.  With ``k`` they run
    on the k-nearest-neighbor graph of every row, symmetrized by keeping an
    edge when either endpoint kept it; one pass over kernel row blocks then
    gives both the degrees and the kNN selection.  No n x n matrix is built.
    Unreachable vertices, which only a kNN graph has, score +inf and warn.
    """
    check_q(q)  # before the kernel pass, which can take seconds
    kernel = kernel_graph(data, gamma, metric)
    if k is None:  # every row takes its distinct row's degree and distance
        path_graph, paths = kernel, replace(kernel, source=data.distinct.data)
        vd, vertex = vertex_degrees(kernel), data.distinct.inverse
    else:
        vd, vertex = np.empty(data.n), np.arange(data.n)

        def read_rows(rows, out):
            vd[rows] = kernel.rows(rows, out).sum(axis=1)  # before the diagonal is masked

        path_graph = paths = max_symmetrize(knn_truncate(kernel, k, read_rows))
    _, normal = select_normal_set(vd, q)
    ra_q = multi_source_shortest_paths(paths, vertex[normal])[vertex]  # weighs either graph
    if unreachable := int(np.sum(np.isinf(ra_q))):
        warnings.warn(f"{unreachable} observations are unreachable from the normal set; "
                      "their scores are +inf", stacklevel=2)
    return ShortestPathModel(vd=vd, normal_set=normal, ra_q=ra_q, graph=path_graph)


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
    w = _edge_weights(points, training, gamma, metric, out)
    return np.add(w, ra_q, out=w).min(axis=1)


def _edge_weights(a, b, gamma, metric, out=None):
    """Weights -ln s = d(a_i, b_j)^2 / gamma, the same bits for the fit and the score."""
    w = sq_distances(a, b, metric, out)
    return np.divide(w, gamma, out=w)
