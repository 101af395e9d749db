"""Kernel similarity graphs over numeric observations.

Observations become vertices; the edge weight between two observations is
the radial basis similarity exp(-d(x_i, x_j)^2 / gamma).  Graphs are dense
by default; two sparsifiers are provided, a per-row k-nearest-neighbor
truncation and a global small-value threshold that preserves symmetry and
connectivity.
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
    "pairwise_distances",
    "sq_distances",
    "kernel_rows",
    "rbf_similarity_matrix",
    "knn_truncate",
    "threshold_sparsify",
    "max_symmetrize",
    "dump_graph",
]

DENSE_LIMIT = 20_000
_BLOCK_ROWS = 128  # rows per block of the kNN selection


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


def pairwise_distances(data: Dataset, metric: DistanceMetric = DistanceMetric.EUCLIDEAN) -> np.ndarray:
    """Dense n x n distance matrix (zero diagonal, symmetric)."""
    return cdist(data.values, data.values, metric=metric.cdist_name)


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
    s = kernel_rows(data.values, data.values, gamma, metric)
    np.fill_diagonal(s, 1.0)
    return SimilarityGraph(s, gamma, metric, symmetric=True, source=data)


def _top_k_columns(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, ascending: the diagonal and the columns of the k largest other
    entries, ties toward the smaller column.  Works on copies of row blocks."""
    n = scores.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    cols = np.empty((n, k + 1), dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        block = scores[lo : lo + _BLOCK_ROWS].copy()
        np.fill_diagonal(block[:, lo:], -np.inf)
        kth = np.partition(block, n - k, axis=1)[:, n - k, None]
        keep = block >= kth
        # Rows with more ties at the k-th value than places keep the first ones.
        tie_rows = np.nonzero(keep.sum(axis=1) > k)[0]
        sub, at = block[tie_rows], kth[tie_rows]
        greater, tied = sub > at, sub == at
        keep[tie_rows] = greater | (tied & (greater.sum(1, keepdims=True) + tied.cumsum(1) <= k))
        np.fill_diagonal(keep[:, lo:], True)
        cols[lo : lo + len(block)] = np.nonzero(keep)[1].reshape(-1, k + 1)
    return cols


def knn_truncate(graph: SimilarityGraph, k: int) -> SimilarityGraph:
    """Directed sparsification: each row keeps its k most similar others.

    Ties break toward the smaller column index.  The diagonal is always
    retained.  The result is generally asymmetric.  Rows are selected a
    block at a time, in O(_BLOCK_ROWS * n) working memory.
    """
    if graph.is_sparse:
        raise ValueError("kNN truncation expects a dense graph")
    cols = _top_k_columns(graph.matrix, k)
    values = np.take_along_axis(graph.matrix, cols, axis=1).ravel()
    indptr = np.arange(0, cols.size + 1, k + 1)
    mat = sparse.csr_matrix((values, cols.ravel(), indptr), shape=graph.matrix.shape)
    return SimilarityGraph(mat, graph.gamma, graph.metric, symmetric=False, source=graph.source)


def threshold_sparsify(graph: SimilarityGraph, drop_fraction: float) -> SimilarityGraph:
    """Drop the smallest symmetric off-diagonal pairs of a dense graph.

    Exactly floor(drop_fraction * n*(n-1)/2) pairs are removed, smallest
    values first (ties by index).  If removal disconnects the graph, the
    drop threshold is reduced, restoring the largest dropped pairs, until
    the graph is connected again.  The diagonal is always retained and
    kept entries equal the dense entries exactly.
    """
    if graph.is_sparse:
        raise ValueError("threshold sparsification expects a dense graph")
    if not graph.symmetric:
        raise ValueError("threshold sparsification expects a symmetric graph")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    n = graph.n
    s = graph.matrix
    rows, cols = np.triu_indices(n, k=1)
    vals = s[rows, cols]
    npairs = vals.size
    m_drop = int(math.floor(drop_fraction * npairs + 1e-9))
    # triu_indices lists pairs in (i, j) order: the stable sort breaks ties by (i, j)
    order = np.argsort(vals, kind="stable")
    if m_drop:
        # Kept pairs are a suffix of ``order``.  The shortest connected
        # suffix starts at the bottleneck: the lowest-ranked edge of the
        # maximum spanning tree.  Weighting pairs by descending rank makes
        # the weights distinct (the tree is unique) and that edge the tree's
        # heaviest.
        rank = np.empty(npairs)
        rank[order] = np.arange(npairs, 0, -1)
        tree = minimum_spanning_tree(sparse.csr_matrix((rank, (rows, cols)), shape=(n, n)))
        m_drop = min(m_drop, npairs - int(tree.data.max()))
    kept = order[m_drop:]
    threshold = float(vals[order[m_drop - 1]]) if m_drop else None

    ki, kj = rows[kept], cols[kept]
    diag = np.arange(n)
    coo_i = np.concatenate((ki, kj, diag))
    coo_j = np.concatenate((kj, ki, diag))
    coo_v = np.concatenate((vals[kept], vals[kept], s[diag, diag]))
    mat = sparse.coo_matrix((coo_v, (coo_i, coo_j)), shape=(n, n)).tocsr()
    return SimilarityGraph(
        mat, graph.gamma, graph.metric, symmetric=True, source=graph.source,
        drop_threshold=threshold,
    )


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
        mat = graph.matrix.tocoo()
        lines = [f"{i},{j},{float(v)!r}" for i, j, v in zip(mat.row, mat.col, mat.data)]
    else:
        lines = [f"{i},{j},{v!r}" for i, row in enumerate(graph.matrix)
                 for j, v in enumerate(row.tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")
