"""Kernel similarity graphs over numeric observations.

Observations become vertices; the edge weight between two observations is
the radial basis similarity exp(-d(x_i, x_j)^2 / gamma).  A kernel graph
evaluates its rows a block at a time and has no size limit; a dense graph
(of the fits, only popularity's) holds all n^2 entries, up to
``DENSE_LIMIT`` rows.  Two sparsifiers are provided, a per-row
k-nearest-neighbor truncation of either and a global small-value threshold
of a dense graph that preserves symmetry and connectivity, found by an
in-place partition of the pairs and an O(n^2) maximum spanning tree pass.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
    "kernel_graph",
    "rbf_similarity_matrix",
    "knn_truncate",
    "threshold_sparsify",
    "max_symmetrize",
    "dump_graph",
]

DENSE_LIMIT = 20_000  # most rows of a dense n x n graph; popularity fits build one
_BLOCK_ENTRIES = 1 << 19  # entries of the row blocks in flight together (4 MB of float64)
# Kernel row blocks run on every core of the affinity mask; cdist, exp and numpy
# reductions release the GIL.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _start_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="relanom-rows")


_start_pool()
if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but not its threads
    os.register_at_fork(after_in_child=_start_pool)


class DistanceMetric(str, Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"

    @property
    def cdist_name(self) -> str:
        return "euclidean" if self is DistanceMetric.EUCLIDEAN else "cityblock"


@dataclass(frozen=True)
class SimilarityGraph:
    """Similarity matrix plus the construction parameters.

    ``matrix`` is a dense ndarray, a CSR matrix whose stored entries
    equal the dense kernel values exactly, or None for a kernel graph, whose
    rows ``rows`` evaluates on demand.  Absent entries in the sparse case
    mean "no edge", and for shortest paths so do zero entries (kernel
    values below the float range).  ``source`` keeps the (model-space)
    observations the graph was built from, so downstream scorers can
    evaluate the kernel against new points.
    """

    matrix: np.ndarray | sparse.csr_matrix | None
    gamma: float
    metric: DistanceMetric
    symmetric: bool
    source: Dataset
    drop_threshold: float | None = None

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.matrix)

    def rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The dense rows in ``rows``, a fresh copy or written into ``out``; a kernel
        graph evaluates them."""
        if self.matrix is None:
            x = self.source.values
            return kernel_rows(x[rows], x, self.gamma, self.metric, out)
        return np.positive(self.matrix[rows], out=out)  # a copy, into out when given


def sq_distances(
    a: np.ndarray, b: np.ndarray, metric: DistanceMetric, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances d(a_i, b_j)^2 between the rows of ``a`` and ``b``, written
    into ``out`` (C-contiguous float64) when given."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if metric is DistanceMetric.EUCLIDEAN:
        return cdist(a, b, metric="sqeuclidean", out=out)
    d = cdist(a, b, metric="cityblock", out=out)
    return np.multiply(d, d, out=d)


def kernel_rows(
    points: np.ndarray, training: np.ndarray, gamma: float, metric: DistanceMetric,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel similarities exp(-d^2 / gamma) of each query point against the training
    rows, computed in place in ``out`` when given."""
    k = sq_distances(points, training, metric, out)
    np.divide(k, -gamma, out=k)  # the bits of -d^2 / gamma
    return np.exp(k, out=k)


def row_blocks(m: int, width: int) -> list[slice]:
    """Row slices covering 0..m-1, each of max(1, _BLOCK_ENTRIES // width) rows but the last."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def for_row_blocks(fn, m: int, width: int) -> list:
    """``fn(rows, scratch)`` for every slice of ``row_blocks(m, width * _WORKERS)``, on
    ``_WORKERS`` threads; returns the results in block order (one empty block if m is 0).

    ``scratch`` is a C-contiguous float64 buffer of ``rows``' length by ``width`` that
    ``fn`` may overwrite.  The buffers are allocated here, one per worker, and reused,
    so the blocks in flight hold ``_BLOCK_ENTRIES`` entries together.  A single block
    runs inline.  An exception raised by ``fn`` reaches the caller.
    """
    blocks = row_blocks(m, width * _WORKERS) or [slice(0, 0)]
    if len(blocks) == 1:
        return [fn(blocks[0], np.empty((m, width)))]
    free = queue.SimpleQueue()
    for _ in range(min(_WORKERS, len(blocks))):
        free.put(np.empty((blocks[0].stop, width)))

    def run(rows):
        scratch = free.get()
        try:
            return fn(rows, scratch[: rows.stop - rows.start])
        finally:
            free.put(scratch)

    return list(_POOL.map(run, blocks))


def kernel_graph(
    data: Dataset,
    gamma: float,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> SimilarityGraph:
    """Similarity graph S_ij = exp(-d(x_i, x_j)^2 / gamma) with no matrix:
    its rows are evaluated when read, so it has no size limit."""
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("gamma must be a positive finite real")
    if data.n < 2:
        raise ValueError("similarity graph needs at least 2 observations")
    return SimilarityGraph(None, gamma, metric, symmetric=True, source=data)


def rbf_similarity_matrix(
    data: Dataset,
    gamma: float,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> SimilarityGraph:
    """Dense similarity graph S_ij = exp(-d(x_i, x_j)^2 / gamma), the rows of
    ``kernel_graph`` in one n x n array; refused past ``DENSE_LIMIT`` rows."""
    graph = kernel_graph(data, gamma, metric)
    if data.n > DENSE_LIMIT:
        raise ValueError(
            f"n = {data.n} exceeds the dense limit of {DENSE_LIMIT} for popularity; "
            "--method vertex_degree and --method shortest_path scale past it"
        )
    s = np.empty((data.n, data.n))
    for_row_blocks(lambda rows, _: graph.rows(rows, s[rows]), data.n, data.n)
    return replace(graph, matrix=s)


def _top_k_columns(read_rows, n: int, k: int):
    """Per row, ascending: the diagonal and the columns of the k largest other
    entries, ties toward the smaller column; returns those columns and their
    values.  ``read_rows(rows, out)`` writes the score rows in ``rows`` into ``out``: half
    of a ``for_row_blocks`` scratch block, whose other half holds the partition and tie rows."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    cols, values = np.empty((n, k + 1), dtype=np.int64), np.empty((n, k + 1))

    def select(rows, scratch):
        lo, i = rows.start, np.arange(rows.stop - rows.start)
        block, work = scratch.reshape(2, len(i), n)
        read_rows(rows, block)
        own = block[i, lo + i]
        block[i, lo + i] = -np.inf
        np.copyto(work, block)
        work.partition(n - k, axis=1)
        kth = work[:, [n - k]]  # a copy: work holds the tie rows below
        keep = block >= kth
        tie = np.flatnonzero((counts := keep.sum(axis=1)) > k)  # more ties than places
        eq = np.take(block, tie, axis=0, out=work[: tie.size], mode="clip") == kth[tie]
        at = np.flatnonzero(eq)  # the ties row by row; take's "raise" mode would buffer
        first = np.searchsorted(at, np.arange(tie.size + 1) * n)
        room = k - counts[tie] + np.diff(first)  # the places the entries above kth leave
        at = at[np.repeat(first[:-1] - np.cumsum(room) + room, room) + np.arange(room.sum())]
        keep[tie] ^= eq  # keeps only the entries above kth, then the first ties that fit
        keep[tie[at // n], at % n] = True
        keep[i, lo + i] = True
        block[i, lo + i] = own
        cols[rows] = (np.flatnonzero(keep) % n).reshape(-1, k + 1)
        values[rows] = np.take_along_axis(block, cols[rows], axis=1)

    for_row_blocks(select, n, 2 * n)
    return cols, values


def knn_truncate(graph: SimilarityGraph, k: int, read_rows=None) -> SimilarityGraph:
    """Directed sparsification: each row keeps its k most similar others.

    Ties break toward the smaller column index.  The diagonal is always
    retained.  The result is generally asymmetric.  Rows are selected from a
    dense or a kernel graph on every core, in the pool's ``_BLOCK_ENTRIES`` of
    working memory.  ``read_rows(rows, out)`` (default ``graph.rows``) writes each
    block into ``out`` once; a caller's reader may also record what it reads.
    """
    if graph.is_sparse:
        raise ValueError("kNN truncation expects a dense or kernel graph")
    n = graph.n
    cols, values = _top_k_columns(read_rows or graph.rows, n, k)
    indptr = np.arange(0, cols.size + 1, k + 1)
    mat = sparse.csr_matrix((values.ravel(), cols.ravel(), indptr), shape=(n, n))
    return SimilarityGraph(mat, graph.gamma, graph.metric, symmetric=False, source=graph.source)


def _upper_flat(mask: np.ndarray) -> np.ndarray:
    """Flat indices i * n + j, i < j, of the true entries of an n x n mask, in (i, j) order."""
    flat = np.flatnonzero(mask)
    return flat[flat // len(mask) < flat % len(mask)]


def threshold_sparsify(graph: SimilarityGraph, drop_fraction: float) -> SimilarityGraph:
    """Drop the smallest symmetric off-diagonal pairs of a dense graph.

    Exactly floor(drop_fraction * n*(n-1)/2) pairs are removed by an in-place partition,
    smallest values first, tied ones in (i, j) order.  If that disconnects the graph,
    the largest dropped pairs are restored until it is connected: only when the cut
    reaches the least edge of a maximum spanning tree, which an O(n^2) Prim pass finds.
    The diagonal is always kept; kept entries, zeros too, equal the dense ones (int32 CSR).
    """
    if not isinstance(graph.matrix, np.ndarray):
        raise ValueError("threshold sparsification expects a dense graph")
    if not graph.symmetric:
        raise ValueError("threshold sparsification expects a symmetric graph")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    n, s = graph.n, graph.matrix
    drop = int(math.floor(drop_fraction * (n * (n - 1) // 2) + 1e-9))
    keep, threshold = np.ones((n, n), dtype=bool), None
    if drop:
        key, parent, weight = s[0].copy(), np.zeros(n, dtype=np.int64), np.full(n, np.nan)
        key[0] = weight[0] = -np.inf  # Prim from 0; weight[v]: v's edge into the tree, nan before
        # open_: not in the tree; better: the open vertices u is closer to (False once closed)
        open_, better = np.arange(n) > 0, np.zeros(n, dtype=bool)
        for _ in range(n - 1):
            u = key.argmax()
            weight[u], key[u], open_[u], better[u] = key[u], -np.inf, False, False
            np.greater(s[u], key, out=better, where=open_)
            np.copyto(parent, u, where=better)
            np.copyto(key, s[u], where=better)
        vb = weight[1:].min()
        # Kruskal in descending (value, i, j) order: tree edges above vb (weight 1) span what
        # all pairs above vb do; pairs tied at vb join them, latest first.  The last it adds stays.
        above, tied = np.flatnonzero(weight > vb), _upper_flat(s == vb)
        tree = minimum_spanning_tree(sparse.csr_matrix(
            (np.r_[np.ones(above.size), n * n + 1.0 - tied],
             (np.r_[above, tied // n], np.r_[parent[above], tied % n])), shape=(n, n)))
        vals = np.concatenate([s[i, i + 1:] for i in range(n - 1)])  # the pairs, row by row
        drop = min(drop, np.count_nonzero(vals < vb) + (tied <= n * n - tree.data.max()).sum())
        vals.partition(drop - 1)
        threshold = float(vals[drop - 1])
        below = np.count_nonzero(vals[: drop - 1] < threshold)  # the dropped pairs under it
        del vals
        ties = _upper_flat(s == threshold)[drop - below:]  # ties are dropped in (i, j) order
        keep = np.greater(s, threshold)  # symmetric: kernel values are bitwise symmetric
        keep.flat[ties] = keep.T.flat[ties] = True
        np.fill_diagonal(keep, True)
    indptr = np.r_[0, np.count_nonzero(keep, axis=1)].cumsum(dtype=np.int32)
    cols = np.broadcast_to(np.arange(n, dtype=np.int32), (n, n))[keep]  # row-major: canonical
    return replace(graph, matrix=sparse.csr_matrix((s[keep], cols, indptr), shape=(n, n)),
                   drop_threshold=threshold)


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
    only retained entries appear.  The lines are formatted and written a row
    at a time; a dense or kernel graph is read, and a kernel graph evaluated,
    a row block at a time.
    """
    if graph.is_sparse:
        m = graph.matrix.tocsr()
        rows = (zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())
                for lo, hi in zip(m.indptr[:-1].tolist(), m.indptr[1:].tolist()))
    else:
        rows = (enumerate(row) for block in row_blocks(graph.n, graph.n)
                for row in graph.rows(block).tolist())
    atomic_write_text(path, ("".join([f"{i},{j},{v!r}\n" for j, v in row])
                             for i, row in enumerate(rows)))
