"""Relative anomaly scoring by eigenvector popularity.

The dominant eigenvector of the (unnormalized) similarity matrix assigns
each observation a popularity weight that accounts for the popularity of
its neighbors, not just how many neighbors it has.  The relative anomaly
score is the negated eigenvector entry, so larger means more anomalous.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsymv, dsyrk

from .dataset import Dataset
from .graph import (
    DistanceMetric,
    SimilarityGraph,
    check_graph,
    kernel_graph,
    kernel_rows,
    threshold_sparsify,
)

__all__ = [
    "ConvergenceError",
    "PowerResult",
    "PopularityModel",
    "power_iteration",
    "rff_feature_map",
    "rff_warm_start",
    "fit_popularity",
    "relative_anomaly",
    "kernel_extension",
]

_TOL, _MAX_ITER = 1e-8, 10_000  # the power iteration's stopping rule unless given
STARTS = ("uniform", "rff")  # fit_popularity's start vectors


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last observed residual."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class PowerResult:
    s_vec: np.ndarray
    lambda1: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class PopularityModel(PowerResult):
    """Fitted popularity scorer: the power iteration's result on ``graph``.

    ``lambda1`` = s' S s of the returned unit vector on the fitted (possibly sparsified)
    graph is the out-of-sample denominator.  By the iteration's entrywise test, a training
    row of a plain fit scores out of sample its training score to a relative ``tol``, up to
    rounding; a sparsified fit's out-of-sample kernel keeps the dropped pairs, which only
    lower it.  ``graph`` is the kernel graph with the fit's ``ThresholdCut``; the n x n
    array is freed.
    """

    graph: SimilarityGraph


def _check_stopping(tol: float, max_iter: int) -> None:
    if not (tol > 0.0 and math.isfinite(tol)) or max_iter < 1:
        raise ValueError("tol must be a positive finite real and max_iter at least 1")


def check_popularity(metric: DistanceMetric, *, tol: float, max_iter: int, sparsify: float,
                     start: str) -> None:
    """Refuse the settings ``fit_popularity`` refuses before it reads its data, but gamma."""
    _check_stopping(tol, max_iter)
    if not 0.0 <= sparsify < 1.0:
        raise ValueError(f"sparsify must be in [0, 1), got {sparsify}")
    if start not in STARTS:
        raise ValueError(f"unknown start '{start}'")
    if start == "rff" and metric is not DistanceMetric.EUCLIDEAN:
        raise ValueError("the random-feature warm start requires the euclidean metric")


def _symmetric_product(s_matrix, weights):
    """The function v -> w * (S (w * v)) that ``power_iteration`` applies, for the
    ``weights`` w: the BLAS ``dsymv`` on the upper triangle of S (the lower one is never
    read).

    ``dsymv`` takes a Fortran-ordered matrix.  The transpose of a C-ordered S is one,
    with S's upper triangle as its lower one; any other layout is copied once, here,
    not by f2py in every product.
    """
    a = np.asarray(s_matrix, dtype=np.float64)
    a, lower = (a.T, 1) if a.flags.c_contiguous else (np.asfortranarray(a), 0)
    return lambda v: np.multiply(weights, dsymv(1.0, a, weights * v, lower=lower))


def power_iteration(
    s_matrix,
    s0: np.ndarray | None = None,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
    weights: np.ndarray | None = None,
    *,
    nonnegative: bool = True,
) -> PowerResult:
    """Dominant eigenpair of a symmetric matrix by power iteration.

    The unit iterate s, with y = S s and lambda = s' y, is returned once the 2-norm
    residual ``|| y - lambda s ||`` is within ``tol`` and so is every entry's relative
    change ``|y_i / lambda - s_i| / |s_i|``, which converges the small entries the 2-norm
    barely weighs.  The sign is fixed to the all-positive orientation.  The products read
    only S's upper triangle, in the BLAS symmetric product ``dsymv`` on the library's
    threads (see ``_symmetric_product``).

    The iteration runs on W S W, W = diag(w), from w / ||w|| unless ``s0`` is given:
    S over distinct rows that stand for w_u^2 equal rows each.  Its eigenpair is the one
    of those rows' matrix, whose eigenvector is s / w on every row of a group, with the
    same eigenvalue, norm, residual and relative changes.  The default weights, all ones,
    multiply exactly: the plain iteration on S from the uniform vector.

    A ``nonnegative`` S keeps every iterate positive, so an entry that reaches 0 has
    underflowed below the float range, and is refused at once (``FloatingPointError``).
    """
    n = s_matrix.shape[0]
    if s_matrix.shape[0] != s_matrix.shape[1]:
        raise ValueError("matrix must be square")
    diag = s_matrix.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix must have a strictly positive diagonal")
    _check_stopping(tol, max_iter)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    product = _symmetric_product(s_matrix, w)
    s = np.abs(np.asarray(w if s0 is None else s0, dtype=np.float64))
    norm = np.linalg.norm(s)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("starting vector must be nonzero and finite")
    s = s / norm
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = product(s)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("power iteration produced non-finite values")
        if nonnegative and not np.all(y):
            raise FloatingPointError("dominant eigenvector is not strictly positive; the "
                                     "graph is effectively disconnected at this gamma")
        lam = float(s @ y)
        residual = float(np.linalg.norm(y - lam * s))
        if residual <= tol and np.all(np.abs(y / lam - s) <= tol * np.abs(s)):
            if s.sum() < 0.0:
                s = -s
            return PowerResult(s_vec=s, lambda1=lam, iterations=it, residual=residual)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise FloatingPointError("power iteration hit the zero vector")
        s = y / norm
    raise ConvergenceError("power iteration did not converge", residual)


def rff_feature_map(data: Dataset, n_features: int, gamma: float, seed: int) -> np.ndarray:
    """Random Fourier features for the Euclidean kernel, stacked D x n.

    z(x) = sqrt(2/D) cos(Wx + b) with W entries N(0, 2/gamma) and phases
    uniform on [0, 2*pi), so z(x)'z(y) is an unbiased estimate of
    exp(-||x - y||^2 / gamma).
    """
    if n_features < 1:
        raise ValueError("n_features must be at least 1")
    check_graph(gamma)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, math.sqrt(2.0 / gamma), size=(n_features, data.d))
    b = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    # z' = x w' in Fortran order is z in C order; the features are written in place.
    z = dgemm(1.0, data.values.T, w.T, trans_a=1).T
    z += b[:, None]
    np.cos(z, out=z)
    z *= math.sqrt(2.0 / n_features)
    return z


def rff_warm_start(data: Dataset, n_features: int, gamma: float, seed: int) -> np.ndarray:
    """Random-Fourier-feature estimate of the dominant eigenvector.

    The dominant eigenvector of the small D x D matrix Phi Phi' lifts
    back to observation space; its magnitudes, normalized, seed the full
    power iteration.  Its products run on scipy's BLAS, like the power
    iteration's: numpy loads its own library, whose idle threads would spin
    against ``dsymv``'s.
    """
    phi = rff_feature_map(data, n_features, gamma, seed)
    small = dsyrk(1.0, phi.T, trans=1)  # phi phi', upper triangle only: the one dsymv reads
    # Lift any tiny negative diagonal noise; the matrix is PSD by form.
    np.fill_diagonal(small, np.maximum(small.diagonal(), 1e-12))
    lead = power_iteration(small, tol=1e-10, nonnegative=False)
    start = np.abs(dgemv(1.0, phi.T, lead.s_vec))
    norm = float(np.linalg.norm(start))
    if norm == 0.0:
        raise ValueError("random features produced a degenerate start vector")
    return start / norm


def fit_popularity(
    data: Dataset,
    gamma: float,
    *,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
    sparsify: float = 0.0,
    start: str = "uniform",
) -> PopularityModel:
    """Cut the similarity graph and run the power iteration on the cut.

    The keyword arguments after ``metric`` are the fit settings, in a model file's order.
    ``start``, one of ``STARTS``, selects the initial vector, which changes only the
    number of products: "uniform", or "rff", ``rff_warm_start`` with 256 features drawn
    with seed 0.  The cut is ``threshold_sparsify``'s: it drops the ``sparsify`` fraction
    of the smallest off-diagonal similarity pairs, which must lie in [0, 1), and the pairs
    tied with the last of them, unless that disconnects the graph (a ``UserWarning`` then
    gives the fraction dropped); a plain fit's fraction 0 drops nothing.  Equal
    observations keep equal rows, so the iteration runs on the m x m cut of
    ``data.distinct``, weighted by the square roots of their counts (all 1 without equal
    rows), from the start vector's mean over each group; every row gets its group's
    entry.  A gamma so small that an entry underflows to 0 is refused there.
    """
    # Every flag is checked, and the warm start built, before the kernel exists.
    check_popularity(metric, tol=tol, max_iter=max_iter, sparsify=sparsify, start=start)
    distinct = data.distinct
    w = np.sqrt(distinct.counts)
    s0 = None  # uniform
    if start == "rff":  # w * (the group means of the warm start)
        s0 = np.bincount(distinct.inverse, rff_warm_start(data, 256, gamma, 0)) / w
    cut = (graph := threshold_sparsify(kernel_graph(data, gamma, metric), sparsify)).matrix
    graph = replace(graph, matrix=replace(cut, kernel=None))  # the kernel goes to dsymv only
    if cut.dropped < cut.asked:  # pairs kept for connectivity
        warnings.warn(f"--sparsify {sparsify:g} dropped only "
                      f"{cut.dropped / (data.n * (data.n - 1) // 2):.4f} of the pairs; the rest "
                      "keep the graph connected", stacklevel=2)
    result = power_iteration(cut.kernel, s0, tol=tol, max_iter=max_iter,  # freed on return
                             weights=w)
    s_vec = (result.s_vec / w)[distinct.inverse]
    return PopularityModel(**{**vars(result), "s_vec": s_vec}, graph=graph)


def relative_anomaly(model: PopularityModel) -> np.ndarray:
    """Training scores: negated eigenvector entries (larger = more anomalous)."""
    return -model.s_vec


def kernel_extension(
    points: np.ndarray,
    training: np.ndarray,
    s_vec: np.ndarray,
    denom: float,
    gamma: float,
    metric: DistanceMetric,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Out-of-sample scores -(k(x)' s) / (s' S s) of model-space points.

    ``k(x)`` holds the kernel similarities of x to the training rows, so on
    a training row this reproduces the training score up to the power
    iteration residual.  Rows are summed one by one, unlike a BLAS matvec, so
    a point's score does not depend on the other points scored with it.
    ``out``, a points x training buffer, holds the kernel rows when given.
    """
    k = kernel_rows(points, training, gamma, metric, out)
    return -np.multiply(k, s_vec, out=k).sum(axis=1) / denom
