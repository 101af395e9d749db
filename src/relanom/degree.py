"""Vertex-degree frequency baseline and its random-walk view.

The vertex degree of an observation is the row sum of the similarity
matrix, a kernel density estimate up to scale.  Equal observations have
equal rows, so a fit sums only the rows of a dataset's distinct
observations, each over every column, and gives each observation its
distinct row's sum.  Ranking ascending vertex degree is the
frequency-based baseline that relative methods improve on.
The row-normalized similarity matrix is a transition matrix; for a
symmetric similarity matrix its stationary distribution is exactly the
vertex degrees divided by their sum (detailed balance), the closed form
the vertex-degree fit stores.
"""

from __future__ import annotations

import numpy as np

from .graph import SimilarityGraph, for_row_blocks

__all__ = ["vertex_degrees"]


def vertex_degrees(graph: SimilarityGraph, rows: np.ndarray | None = None) -> np.ndarray:
    """Row sums of the graph, diagonal included, of every row or of the rows ``rows``
    (indices); a kernel graph (or a cut of one) is summed a row block at a time."""
    if graph.is_sparse or isinstance(graph.matrix, np.ndarray):
        m = graph.matrix if rows is None else graph.matrix[rows]
        return np.asarray(m.sum(axis=1)).ravel()
    rows = np.arange(graph.n) if rows is None else rows
    return np.concatenate(for_row_blocks(
        lambda block, out: graph.rows(rows[block], out).sum(axis=1), rows.size, graph.n))
