"""Vertex-degree frequency baseline and its random-walk view.

The vertex degree of an observation is the row sum of the similarity
matrix, a kernel density estimate up to scale.  Ranking ascending vertex
degree is the frequency-based baseline that relative methods improve on.
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
    """Row sums of the graph, diagonal included; a kernel graph (or a cut of one) is
    summed a row block at a time."""
    if graph.is_sparse or isinstance(graph.matrix, np.ndarray):
        return np.asarray(graph.matrix.sum(axis=1)).ravel()
    return np.concatenate(for_row_blocks(
        lambda rows, out: graph.rows(rows, out).sum(axis=1), graph.n, graph.n))
