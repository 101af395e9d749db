"""Score normalization, thresholding, and feature-level explanations.

Raw anomaly scores live on method-specific scales.  The degree of
relative anomaly (DORA) maps a score to its rank among the training
scores, r / (n + 1), giving a common (0, 1) scale.  Labeling marks a
fixed top fraction, and explanations compare an anomalous observation
with its closest confidently-normal training point, feature by feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import Dataset
from .graph import DistanceMetric

__all__ = [
    "ScoreDistribution",
    "Explanation",
    "dora",
    "dora_batch",
    "label_top_fraction",
    "explain_deviations",
]


@dataclass(frozen=True)
class ScoreDistribution:
    """Sorted training scores against which new scores are ranked."""

    sorted_scores: np.ndarray

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "ScoreDistribution":
        arr = np.asarray(scores, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("score distribution needs at least one score")
        return cls(np.sort(arr))

    @property
    def n(self) -> int:
        return self.sorted_scores.size

    def ecdf(self, t) -> np.ndarray | float:
        """Right-continuous empirical CDF: F(t) = #{scores <= t} / n."""
        out = np.searchsorted(self.sorted_scores, t, side="right") / self.n
        return float(out) if np.isscalar(t) else out


def dora(dist: ScoreDistribution, score: float) -> float:
    """Degree of relative anomaly of one score: #{training <= score}/(n+1).

    Scores below the entire training distribution map to 1/(2(n+1)), so
    the result is always strictly inside (0, 1) and weakly increasing in
    the score.
    """
    return float(dora_batch(dist, np.asarray([score]))[0])


def dora_batch(dist: ScoreDistribution, scores: np.ndarray) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    n = dist.n
    r = np.searchsorted(dist.sorted_scores, arr, side="right")
    out = r / (n + 1.0)
    out[r == 0] = 1.0 / (2.0 * (n + 1.0))
    return out


def label_top_fraction(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Boolean mask marking exactly ceil(fraction * n) largest scores.

    Ties at the cutoff resolve toward the smaller index.
    """
    arr = np.asarray(scores, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("cannot label an empty score vector")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    # Guard the ceiling against float noise in fraction * n.
    m = max(1, math.ceil(fraction * n - 1e-9))
    order = np.argsort(-arr, kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:m]] = True
    return mask


@dataclass(frozen=True)
class Explanation:
    """Feature-by-feature comparison against the closest normal point."""

    anomalous: np.ndarray
    closest_normal: np.ndarray
    closest_index: int
    difference: np.ndarray
    feature_order: list[int]
    columns: list[str]
    p: float

    def rows(self):
        """(feature, anomalous value, closest normal value, difference),
        sorted by decreasing absolute difference."""
        return [
            (
                self.columns[j],
                float(self.anomalous[j]),
                float(self.closest_normal[j]),
                float(self.difference[j]),
            )
            for j in self.feature_order
        ]


def explain_deviations(
    x_anomalous: np.ndarray,
    training: Dataset,
    dora_scores: np.ndarray,
    p: float,
    metric: DistanceMetric = DistanceMetric.MANHATTAN,
) -> Explanation:
    """Compare an anomaly with its closest confidently-normal neighbor.

    Normal candidates are training points with DORA below ``p``; the
    closest one (componentwise-robust L1 distance by default) anchors the
    comparison, and features are ranked by absolute difference, ties
    toward the smaller index.
    """
    x = np.asarray(x_anomalous, dtype=np.float64).ravel()
    if x.size != training.d:
        raise ValueError(f"observation has {x.size} features, training has {training.d}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    scores = np.asarray(dora_scores, dtype=np.float64)
    if scores.size != training.n:
        raise ValueError("need one DORA value per training observation")
    candidates = np.nonzero(scores < p)[0]
    if candidates.size == 0:
        raise ValueError(
            f"no training observation has DORA below {p}; increase p"
        )
    d = cdist(x[None, :], training.values[candidates], metric=metric.cdist_name)[0]
    closest = int(candidates[int(np.argmin(d))])
    diff = x - training.values[closest]
    order = list(np.argsort(-np.abs(diff), kind="stable"))
    return Explanation(
        anomalous=x,
        closest_normal=training.values[closest].copy(),
        closest_index=closest,
        difference=diff,
        feature_order=[int(j) for j in order],
        columns=list(training.columns),
        p=p,
    )
