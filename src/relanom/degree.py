"""Vertex-degree frequency baseline and its random-walk view.

The vertex degree of an observation is the row sum of the similarity
matrix, a kernel density estimate up to scale.  Equal observations have
equal rows, so the degrees of a kernel graph sum only the rows of its
source's distinct observations, each over every column, and give each
observation its distinct row's sum.  Ranking ascending vertex degree is the
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


def vertex_degrees(graph: SimilarityGraph) -> np.ndarray:
    """Row sums of the graph, diagonal included.  A kernel graph (or a cut of one) sums
    the row of each of its source's distinct rows once, a row block at a time."""
    if graph.is_sparse or isinstance(graph.matrix, np.ndarray):
        return np.asarray(graph.matrix.sum(axis=1)).ravel()
    distinct = graph.source.distinct
    sums = for_row_blocks(lambda block, out: graph.rows(distinct.rows[block], out).sum(axis=1),
                          distinct.data.n, graph.n)
    return np.concatenate(sums)[distinct.inverse]
