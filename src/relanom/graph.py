"""Kernel similarity graphs over numeric observations.

Observations become vertices; the edge weight between two observations is
the radial basis similarity exp(-d(x_i, x_j)^2 / gamma).  Graphs are dense
by default; two sparsifiers are provided, a per-row k-nearest-neighbor
truncation and a global small-value threshold that preserves symmetry and
connectivity, found by a partition and an O(n^2) maximum spanning tree pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist

from .dataset import Dataset, atomic_write_text

__all__ = [
    "DistanceMetric",
    "SimilarityGraph",
    "sq_distances",
    "kernel_rows",
    "rbf_similarity_matrix",
    "knn_truncate",
    "threshold_sparsify",
    "max_symmetrize",
    "dump_graph",
]

DENSE_LIMIT = 20_000
_BLOCK_ENTRIES = 1 << 19  # entries per row block (4 MB of float64)


class DistanceMetric(str, Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"

    @property
    def cdist_name(self) -> str:
        return "euclidean" if self is DistanceMetric.EUCLIDEAN else "cityblock"


@dataclass(frozen=True)
class SimilarityGraph:
    """Similarity matrix plus the construction parameters.

    ``matrix`` is a dense ndarray or a CSR matrix whose stored entries
    equal the dense kernel values exactly; absent entries in the sparse
    case mean "no edge", and for shortest paths so do zero entries (kernel
    values below the float range).  ``source`` keeps the (model-space)
    observations the graph was built from, so downstream scorers can
    evaluate the kernel against new points.
    """

    matrix: np.ndarray | sparse.csr_matrix
    gamma: float
    metric: DistanceMetric
    symmetric: bool
    source: Dataset
    drop_threshold: float | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.matrix)


def sq_distances(a: np.ndarray, b: np.ndarray, metric: DistanceMetric) -> np.ndarray:
    """Squared distances d(a_i, b_j)^2 between the rows of ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if metric is DistanceMetric.EUCLIDEAN:
        return cdist(a, b, metric="sqeuclidean")
    d = cdist(a, b, metric="cityblock")
    return d * d


def kernel_rows(
    points: np.ndarray, training: np.ndarray, gamma: float, metric: DistanceMetric
) -> np.ndarray:
    """Kernel similarities exp(-d^2 / gamma) of each query point against the training rows."""
    return np.exp(-sq_distances(points, training, metric) / gamma)


def row_blocks(m: int, width: int) -> list[slice]:
    """Row slices covering 0..m-1, each of max(1, _BLOCK_ENTRIES // width) rows but the last."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def map_row_blocks(score_rows, points: np.ndarray, width: int) -> np.ndarray:
    """``score_rows`` of ``points``, one slice of ``row_blocks(len(points), width)`` at a time."""
    points = np.atleast_2d(points)
    scores = np.empty(len(points))
    for rows in row_blocks(len(points), width):
        scores[rows] = score_rows(points[rows])
    return scores


def rbf_similarity_matrix(
    data: Dataset,
    gamma: float,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> SimilarityGraph:
    """Dense similarity graph S_ij = exp(-d(x_i, x_j)^2 / gamma)."""
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("gamma must be a positive finite real")
    if data.n < 2:
        raise ValueError("similarity graph needs at least 2 observations")
    if data.n > DENSE_LIMIT:
        raise ValueError(
            f"n = {data.n} exceeds the dense limit of {DENSE_LIMIT}; "
            "construct a k-nearest-neighbor graph instead"
        )
    x, s = data.values, np.empty((data.n, data.n))
    for rows in row_blocks(data.n, data.n):
        s[rows] = kernel_rows(x[rows], x, gamma, metric)
    return SimilarityGraph(s, gamma, metric, symmetric=True, source=data)


def _top_k_columns(score_rows, n: int, k: int):
    """Per row, ascending: the diagonal and the columns of the k largest other
    entries, ties toward the smaller column; returns those columns and their
    values.  ``score_rows(rows)`` returns a fresh copy of the score rows in the
    slice ``rows``, so only one block of ``row_blocks(n, n)`` is held at a time."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    cols = np.empty((n, k + 1), dtype=np.int64)
    values = np.empty((n, k + 1))
    for rows in row_blocks(n, n):
        block, lo = score_rows(rows), rows.start
        i = np.arange(len(block))
        own = block[i, lo + i]
        block[i, lo + i] = -np.inf
        kth = np.partition(block, n - k, axis=1)[:, [n - k]]  # a copy: frees the partition
        keep = block >= kth
        # Rows with more ties at the k-th value than places keep the first ones.
        tie_rows = np.nonzero(keep.sum(axis=1) > k)[0]
        sub, at = block[tie_rows], kth[tie_rows]
        greater, tied = sub > at, sub == at
        keep[tie_rows] = greater | (tied & (greater.sum(1, keepdims=True) + tied.cumsum(1) <= k))
        keep[i, lo + i] = True
        block[i, lo + i] = own
        picked = np.nonzero(keep)[1].reshape(-1, k + 1)
        cols[rows] = picked
        values[rows] = np.take_along_axis(block, picked, axis=1)
    return cols, values


def knn_truncate(graph: SimilarityGraph, k: int) -> SimilarityGraph:
    """Directed sparsification: each row keeps its k most similar others.

    Ties break toward the smaller column index.  The diagonal is always
    retained.  The result is generally asymmetric.  Rows are selected a
    block of ``row_blocks`` at a time, in O(_BLOCK_ENTRIES) working memory.
    """
    if graph.is_sparse:
        raise ValueError("kNN truncation expects a dense graph")
    cols, values = _top_k_columns(lambda rows: graph.matrix[rows].copy(), graph.n, k)
    indptr = np.arange(0, cols.size + 1, k + 1)
    mat = sparse.csr_matrix((values.ravel(), cols.ravel(), indptr), shape=graph.matrix.shape)
    return SimilarityGraph(mat, graph.gamma, graph.metric, symmetric=False, source=graph.source)


def threshold_sparsify(graph: SimilarityGraph, drop_fraction: float) -> SimilarityGraph:
    """Drop the smallest symmetric off-diagonal pairs of a dense graph.

    Exactly floor(drop_fraction * n*(n-1)/2) pairs are removed by ``np.partition``,
    smallest values first, tied ones in (i, j) order.  If that disconnects the graph,
    the largest dropped pairs are restored until it is connected: only when the cut
    reaches the least edge of a maximum spanning tree, which an O(n^2) Prim pass
    finds.  The diagonal is always kept; kept entries, zeros too, equal the dense ones.
    """
    if graph.is_sparse:
        raise ValueError("threshold sparsification expects a dense graph")
    if not graph.symmetric:
        raise ValueError("threshold sparsification expects a symmetric graph")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    n, s = graph.n, graph.matrix
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    vals = s[upper]  # the pairs in (i, j) order
    drop = int(math.floor(drop_fraction * vals.size + 1e-9))
    keep, threshold = upper, None
    if drop:
        key, parent, weight = s[0].copy(), np.zeros(n, dtype=np.int64), np.full(n, np.nan)
        key[0] = weight[0] = -np.inf  # Prim from 0; weight[v]: v's edge into the tree, nan before
        for _ in range(n - 1):
            u = int(np.argmax(key))
            weight[u], key[u] = key[u], -np.inf
            better = (s[u] > key) & np.isnan(weight)
            parent[better], key[better] = u, s[u, better]
        vb = weight[1:].min()
        # Kruskal in descending (value, i, j) order: tree edges above vb (weight 1) span what
        # all pairs above vb do; pairs tied at vb join them, latest first.  The last it adds stays.
        above, tied = np.flatnonzero(weight > vb), np.flatnonzero(upper & (s == vb))
        tree = minimum_spanning_tree(sparse.csr_matrix(
            (np.r_[np.ones(above.size), n * n + 1.0 - tied],
             (np.r_[above, tied // n], np.r_[parent[above], tied % n])), shape=(n, n)))
        drop = min(drop, (vals < vb).sum() + (tied <= n * n - tree.data.max()).sum())
        threshold = float(np.partition(vals, drop - 1)[drop - 1])
        ties = np.flatnonzero(upper & (s == threshold))  # dropped first in (i, j) order
        keep = upper & (s > threshold)
        keep.flat[ties[drop - np.count_nonzero(vals < threshold):]] = True
    keep = keep | keep.T | np.eye(n, dtype=bool)
    flat = np.flatnonzero(keep)  # row-major: sorted, canonical CSR indices
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    mat = sparse.csr_matrix((s.ravel()[flat], flat % n, indptr), shape=(n, n))
    return SimilarityGraph(mat, graph.gamma, graph.metric, symmetric=True,
                           source=graph.source, drop_threshold=threshold)


def max_symmetrize(graph: SimilarityGraph) -> SimilarityGraph:
    """Keep an edge when either direction kept it (values are symmetric)."""
    if not graph.is_sparse:
        return graph
    m = graph.matrix.maximum(graph.matrix.T).tocsr()
    return SimilarityGraph(
        m, graph.gamma, graph.metric, symmetric=True, source=graph.source,
        drop_threshold=graph.drop_threshold,
    )


def dump_graph(graph: SimilarityGraph, path) -> None:
    """Write stored entries as coordinate-format lines ``i,j,s_ij``.

    Indices are 0-based and values keep full precision; for sparse graphs
    only retained entries appear.
    """
    if graph.is_sparse:
        m = graph.matrix.tocoo()
        lines = [f"{i},{j},{v!r}"
                 for i, j, v in zip(m.row.tolist(), m.col.tolist(), m.data.tolist())]
    else:
        lines = [f"{i},{j},{v!r}" for i, row in enumerate(graph.matrix)
                 for j, v in enumerate(row.tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")
