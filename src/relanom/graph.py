"""Kernel similarity graphs over numeric observations.

Observations become vertices; the edge weight between two observations is
the radial basis similarity exp(-d(x_i, x_j)^2 / gamma).  A kernel graph
evaluates its rows a block at a time and has no size limit; a dense graph
holds all n^2 entries, or the upper triangle a symmetric product reads, up
to ``DENSE_LIMIT`` rows.  Equal observations have equal kernel rows, so the
fits work on the distinct rows of a graph's source (``Dataset.distinct``),
each weighted by the number of rows equal to it.  Two sparsifiers are
provided, a per-row k-nearest-neighbor truncation of either and a global
small-value threshold of a kernel graph that preserves symmetry and
connectivity: an O(m^2) maximum spanning tree pass and a partition of the
pairs find the cut in a dense kernel of the m distinct rows it builds, which
then holds the cut.  Every popularity fit is such a cut, one that drops
nothing unless it sparsifies.
"""

from __future__ import annotations

import math
import mmap
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from .dataset import Dataset, atomic_write_text

__all__ = [
    "DistanceMetric",
    "SimilarityGraph",
    "ThresholdCut",
    "sq_distances",
    "kernel_rows",
    "kernel_graph",
    "rbf_similarity_matrix",
    "knn_truncate",
    "threshold_sparsify",
    "max_symmetrize",
    "dump_graph",
]

DENSE_LIMIT = 20_000  # most rows of a dense n x n graph: 3.2 GB, 1.6 GB as popularity's triangle
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

    ``matrix`` is a dense ndarray, a CSR matrix whose stored entries equal
    the dense kernel values exactly, a ``ThresholdCut``, or None for a kernel
    graph, whose rows ``rows`` evaluates on demand.  Absent entries in the
    sparse case mean "no edge", and for shortest paths on a stored matrix so
    do zero entries (kernel values below the float range); a kernel graph's
    path weights are d^2/gamma, finite even there.  ``source`` keeps the
    (model-space) observations, so scorers can evaluate the kernel on new points.
    """

    matrix: np.ndarray | sparse.csr_matrix | ThresholdCut | None
    gamma: float
    metric: DistanceMetric
    source: Dataset

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.matrix)

    def rows(self, rows: slice | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The dense rows ``rows`` (a slice or indices), absent entries 0, a fresh copy or
        written into ``out``; a kernel graph evaluates them, and a cut's zeroes those under
        its threshold."""
        if isinstance(m := self.matrix, np.ndarray) or self.is_sparse:
            return np.positive(m[rows].toarray() if self.is_sparse else m[rows], out=out)
        x = self.source.values
        block = kernel_rows(x[rows], x, self.gamma, self.metric, out)
        if m is not None:
            np.copyto(block, 0.0, where=block < m.threshold)
        return block


@dataclass(frozen=True)
class ThresholdCut:
    """The kernel entries ``threshold_sparsify`` keeps, ``nnz`` of them with the diagonal:
    those at or above ``threshold``; it dropped ``dropped`` pairs for the ``asked`` ones.  A
    plain fit's cut drops none (threshold -inf).  As returned, it holds the ``kernel`` of the
    m distinct rows, whose upper triangle, the half dsymv reads, is the cut's until freed."""

    threshold: float
    nnz: int
    asked: int
    dropped: int
    kernel: np.ndarray | None = None


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


def _upper_rows(s: np.ndarray, graph: SimilarityGraph, rows: slice, scratch: np.ndarray):
    """Kernel rows ``rows`` from column rows.start on, evaluated into ``s``; returns them."""
    lo, hi, n, x = rows.start, rows.stop, graph.n, graph.source.values
    d = sq_distances(x[lo:hi], x[lo:], graph.metric,
                     scratch.ravel()[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo))
    v = np.divide(d, -graph.gamma, out=s[lo:hi, lo:])  # the bits of kernel_rows
    return np.exp(v, out=v)


def kernel_graph(
    data: Dataset,
    gamma: float,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
) -> SimilarityGraph:
    """Similarity graph S_ij = exp(-d(x_i, x_j)^2 / gamma) with no matrix:
    its rows are evaluated when read, so it has no size limit."""
    check_graph(gamma)
    return SimilarityGraph(None, gamma, metric, source=data)


def check_graph(gamma: float, k: int | None = None, n: int = 0) -> None:
    """Refuse a bandwidth that is not a positive finite real, and a kNN degree ``k``
    outside [1, n - 1] for ``n`` rows."""
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("gamma must be a positive finite real")
    if k is not None and not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")


def rbf_similarity_matrix(
    data: Dataset,
    gamma: float,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    *,
    upper_only: bool = False,
) -> SimilarityGraph:
    """Dense similarity graph S_ij = exp(-d(x_i, x_j)^2 / gamma), the rows of
    ``kernel_graph`` in one n x n array; refused past ``DENSE_LIMIT`` rows.

    With ``upper_only`` a block of rows lo..hi-1 is written from column lo on: the
    upper triangle, diagonal included, is the half ``dsymv`` reads; the rest of the
    lower one reads as zeros.  The array lies in an anonymous mapping without huge
    pages, so the unwritten pages never become resident: about 4 n^2 bytes of the
    8 n^2, plus one page per row.
    """
    graph = kernel_graph(data, gamma, metric)
    if (n := graph.n) > DENSE_LIMIT:
        raise ValueError(f"{n} distinct rows exceed the dense limit of {DENSE_LIMIT} for "
                         "popularity; --method vertex_degree and --method shortest_path "
                         "scale past it")
    if not upper_only:
        s = np.empty((n, n))  # written in place, block by block: no scratch
        list(_POOL.map(lambda rows: graph.rows(rows, s[rows]), row_blocks(n, n * _WORKERS)))
        return replace(graph, matrix=s)
    # numpy's allocator asks for huge pages, each of which the triangle would touch
    buf = mmap.mmap(-1, 8 * n * n)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    s = np.frombuffer(buf, dtype=np.float64).reshape(n, n)
    for_row_blocks(lambda rows, scratch: _upper_rows(s, graph, rows, scratch), n, n)
    return replace(graph, matrix=s)


def knn_truncate(graph: SimilarityGraph, k: int, read_rows=None) -> SimilarityGraph:
    """Directed sparsification: each row keeps its k most similar others.

    Ties break toward the smaller column index.  The diagonal is always
    retained.  The result is generally asymmetric.  Rows are selected from a
    dense or a kernel graph on every core, in the pool's ``_BLOCK_ENTRIES`` of
    working memory.  ``read_rows(rows, out)`` (default ``graph.rows``) writes each
    block into ``out``, part of a ``for_row_blocks`` scratch block that also holds the
    partition and tie rows and the keep mask; a caller's reader may record what it reads.
    """
    if graph.is_sparse:
        raise ValueError("kNN truncation expects a dense or kernel graph")
    n, read_rows = graph.n, read_rows or graph.rows
    check_graph(graph.gamma, k, n)
    cols, values = np.empty((n, k + 1), dtype=np.int64), np.empty((n, k + 1))

    def select(rows, scratch):  # per row, ascending: the diagonal and the k kept columns
        lo, i, flat = rows.start, np.arange(r := rows.stop - rows.start), scratch.reshape(-1)
        block, work = flat[: 2 * r * n].reshape(2, r, n)
        keep = flat[2 * r * n:].view(np.bool_)[: r * n].reshape(r, n)
        read_rows(rows, block)
        own = block[i, lo + i]
        block[i, lo + i] = -np.inf
        np.copyto(work, block)
        work.partition(n - k, axis=1)
        kth = work[:, [n - k]]  # a copy: work holds the tie rows below
        np.greater_equal(block, kth, out=keep)
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

    for_row_blocks(select, n, 2 * n + n // 8 + 1)
    indptr = np.arange(0, cols.size + 1, k + 1)
    mat = sparse.csr_matrix((values.ravel(), cols.ravel(), indptr), shape=(n, n))
    return SimilarityGraph(mat, graph.gamma, graph.metric, source=graph.source)


def _select(vals: np.ndarray, extra: np.ndarray, weights: np.ndarray, k: int) -> float:
    """The k-th smallest of ``vals``, each counted once, and ``extra``, each counted
    ``weights`` times.  With E = weights.sum(), it is at least the (k-E)-th smallest of
    ``vals``, if k > E, and at most the k-th, if k <= vals.size.  ``vals`` is partitioned
    in place at those ranks; the values between them and the extra ones in their range
    are searched by quickselect, pivoting at k's share of the weight left, or at the
    median after a step that kept over 3/4 of the values.  Time O(vals.size + extra.size);
    without extra values it is one partition."""
    if vals.size:
        lo, hi = k - 1 - int(weights.sum()), min(k, vals.size) - 1
        vals.partition(hi)
        if 0 <= lo < hi:  # numpy's partition at two ranks at once is 5x slower
            vals[:hi].partition(lo)
        low, lo = (vals[lo], lo) if lo >= 0 else (-np.inf, 0)
        inside = (extra >= low) & (extra <= (vals[hi] if k <= vals.size else np.inf))
        k -= lo + int(weights.sum(where=extra < low))
        extra = np.concatenate([vals[lo: hi + 1], extra[inside]])
        weights = np.concatenate([np.ones(hi + 1 - lo, dtype=np.int64), weights[inside]])
    share = True
    while True:
        r = min(extra.size - 1, extra.size * k // int(weights.sum())) if share else extra.size // 2
        pivot = np.partition(extra, r)[r]
        below, at = extra < pivot, extra == pivot
        if (under := int(weights.sum(where=below))) >= k:
            keep = below
        elif (upto := under + int(weights.sum(where=at))) >= k:
            return float(pivot)
        else:
            k, keep = k - upto, ~(below | at)
        share = 4 * np.count_nonzero(keep) <= 3 * extra.size
        extra, weights = extra[keep], weights[keep]


def threshold_sparsify(graph: SimilarityGraph, drop_fraction: float) -> SimilarityGraph:
    """Drop the smallest symmetric off-diagonal pairs of a kernel graph (``kernel_graph``).

    The cut keeps every entry at or above one threshold: just above q, the ``asked``-th
    smallest pair, asked = floor(drop_fraction * n*(n-1)/2), so that the pairs tied at q go
    too, unless that disconnects the graph.  Then it is the least edge of a maximum spanning
    tree, and the pairs tied at it stay.  Equal observations therefore keep equal rows,
    and the cut is found on the m distinct rows of ``graph.source.distinct``: a distinct
    pair stands for the product of its rows' counts, a group of c equal rows for c(c-1)/2
    pairs at 1.0, and an O(m^2) Prim pass over a dense m x m kernel built here finds the
    spanning tree.  The pairs are partitioned in the kernel's buffer, which then holds the
    returned cut's ``kernel``; the graph returned is ``graph``, with n^2 entries, cut.
    """
    if graph.matrix is not None:
        raise ValueError("threshold sparsification expects a kernel graph (matrix=None)")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    n, distinct = graph.n, graph.source.distinct
    m, counts = distinct.data.n, distinct.counts
    asked = int(math.floor(drop_fraction * (pairs := n * (n - 1) // 2) + 1e-9))
    if not asked:
        s = rbf_similarity_matrix(distinct.data, graph.gamma, graph.metric,
                                  upper_only=True).matrix
        return replace(graph, matrix=ThresholdCut(-np.inf, n * n, 0, 0, s))
    graph_m = replace(graph, source=distinct.data)
    s = rbf_similarity_matrix(distinct.data, graph.gamma, graph.metric).matrix
    key, open_, vb = s[0].copy(), np.arange(m) > 0, 1.0  # equal rows' pairs are 1.0, the most
    key[0] = -np.inf  # Prim from 0; key[v]: open vertex v's largest pair into the tree
    for _ in range(m - 1):
        u = key.argmax()
        vb, key[u], open_[u] = min(vb, key[u]), -np.inf, False
        np.maximum(key, s[u], out=key, where=open_)
    # A pair u < v of distinct rows stands for c_u c_v pairs.  The rows without equal ones
    # move their pairs, row by row, to the front of the kernel's buffer, each counted once.
    # First the other rows' pairs go to extra with their counts: those with a later row
    # c_u c_v times, those with an earlier row, counted once there, c_u - 1 more times.
    once = counts == 1
    extra, weights = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for u in np.flatnonzero(~once):
        extra += [s[u, :u][once[:u]], s[u, u + 1:]]
        weights += [np.full(np.count_nonzero(once[:u]), counts[u] - 1), counts[u] * counts[u + 1:]]
    extra, weights = np.concatenate(extra), np.concatenate(weights)  # copies, before the moves
    vals, size = s.reshape(-1), 0
    for i in np.flatnonzero(once[:-1]):
        vals[size: size + m - 1 - i] = s[i, i + 1:]
        size += m - 1 - i
    vals = vals[:size]
    # the c(c-1)/2 pairs of a group of c equal rows are 1.0, the largest
    q = 1.0 if asked > vals.size + weights.sum() else _select(vals, extra, weights, asked)
    threshold = float(min(np.nextafter(q, np.inf), vb))
    # the pairs under the threshold, before the cut pass overwrites vals
    drop = int(np.count_nonzero(vals < threshold) + weights.sum(where=extra < threshold))
    del vals

    def cut(rows, scratch):  # the upper rows again, zeroed under the threshold
        v = _upper_rows(s, graph_m, rows, scratch)
        mask = scratch.reshape(-1).view(np.bool_)[: v.size].reshape(v.shape)  # the distances' room
        np.copyto(v, 0.0, where=np.less(v, threshold, out=mask))

    for_row_blocks(cut, m, m)
    return replace(graph, matrix=ThresholdCut(threshold, n + 2 * (pairs - drop), asked, drop, s))


def max_symmetrize(graph: SimilarityGraph) -> SimilarityGraph:
    """Keep an edge when either direction kept it (values are symmetric)."""
    if not graph.is_sparse:
        return graph
    return replace(graph, matrix=graph.matrix.maximum(graph.matrix.T).tocsr())


def dump_graph(graph: SimilarityGraph, path) -> None:
    """Write stored entries as coordinate-format lines ``i,j,s_ij``.

    Indices are 0-based and values keep full precision; for sparse graphs and cuts
    only retained entries appear.  The lines are formatted and written a row at a
    time; other graphs are read, and a kernel (a cut's too) evaluated, by row block.
    """
    if graph.is_sparse:
        m = graph.matrix.tocsr()
        rows = (zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())
                for lo, hi in zip(m.indptr[:-1].tolist(), m.indptr[1:].tolist()))
    else:  # a cut's rows are 0 under its threshold, which is 0 or less if it keeps zeros
        threshold = graph.matrix.threshold if isinstance(graph.matrix, ThresholdCut) else -np.inf
        rows = (zip(np.flatnonzero(keep).tolist(), row[keep].tolist())
                for block in row_blocks(graph.n, graph.n) for row in graph.rows(block)
                for keep in [row >= threshold])
    atomic_write_text(path, ("".join([f"{i},{j},{v!r}\n" for j, v in row])
                             for i, row in enumerate(rows)))
