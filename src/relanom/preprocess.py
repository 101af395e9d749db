"""Per-column Box-Cox power transforms and standardization.

Each feature column is shifted positive, power-transformed toward
normality, and standardized to zero mean and unit sample variance.  The
shift ``delta`` and exponent ``lam`` are chosen jointly by maximizing the
Gaussian profile log-likelihood of the transformed values, including the
Jacobian term of the transform: a golden-section search over lam in
[-2, 2] at each of a few candidate shifts, keeping the best pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset

__all__ = [
    "FeatureTransform",
    "apply_box_cox",
    "fit_box_cox",
    "fit_preprocessor",
    "apply_preprocessor",
]

LAMBDA_MIN = -2.0
LAMBDA_MAX = 2.0
# Shift candidates place the shifted minimum one quartile-distance above
# zero.  Smaller shifts invite the unbounded-likelihood degeneracy of the
# shifted power transform (the likelihood grows without bound as the
# shifted minimum approaches zero with lam < 1), which in practice blows
# the low tail of a column out to numerical isolation.
SHIFT_QUANTILES = (0.25, 0.5, 0.75)
POSITIVITY_MARGIN = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FeatureTransform:
    """Fitted per-column transform: Box-Cox parameters plus scaling.

    ``boundary`` is set when the likelihood search stopped against the
    edge of its domain, which signals an unbounded-likelihood column
    (typically many tied values at the minimum).  ``raw_min``/``raw_max``
    record the training-data range for later domain checks.
    """

    column: str
    delta: float
    lam: float
    mean: float
    sd: float
    boundary: bool = False
    raw_min: float = math.nan
    raw_max: float = math.nan


def apply_box_cox(x, delta: float, lam: float):
    """Shifted power transform ((x+delta)^lam - 1)/lam, log when lam == 0.

    Raises ``ValueError`` when any shifted value is not strictly positive.
    """
    arr = np.asarray(x, dtype=np.float64)
    t = arr + delta
    if np.any(t <= 0.0):
        bad = float(np.min(arr))
        raise ValueError(
            f"Box-Cox domain error: value {bad} plus shift {delta} is not positive"
        )
    out = _box_cox(t, lam)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _box_cox(t: np.ndarray, lam: float) -> np.ndarray:
    """The power transform (t^lam - 1)/lam of shifted values t > 0, log t at lam == 0."""
    if lam == 0.0:
        return np.log(t)
    return (np.power(t, lam) - 1.0) / lam


def _profile_loglik(shifted: np.ndarray, log_shifted_sum: float, lam: float) -> float:
    # Gaussian profile log-likelihood with the transform Jacobian,
    # constants dropped.  np.var's steps run in the one buffer y; a
    # non-finite y makes the mean nan or inf, checked before y - mean warns.
    y = _box_cox(shifted, lam)
    n = shifted.size
    mean = np.add.reduce(y) / n
    if not math.isfinite(mean):
        return -math.inf
    y -= mean
    var = float(np.add.reduce(np.multiply(y, y, out=y)) / n)
    if var <= 0.0 or not math.isfinite(var):
        return -math.inf
    return -0.5 * n * math.log(var) + (lam - 1.0) * log_shifted_sum


def _shift_floor(column: np.ndarray) -> float:
    """The least shift that leaves the column positive: -xmin + margin * range."""
    xmin = float(np.min(column))
    return -xmin + POSITIVITY_MARGIN * (float(np.max(column)) - xmin)


def _shift_candidates(column: np.ndarray) -> list[float]:
    xmin = float(np.min(column))
    floor = _shift_floor(column)
    cands = [floor]
    if floor < 0.0:
        cands.append(0.0)
    # Quantile-based shifts: land the shifted minimum at the distance from
    # the minimum to each quartile.  Degenerates to the floor alone when
    # the quartiles tie the minimum (heavy atom at the smallest value).
    for q in np.quantile(column, SHIFT_QUANTILES):
        if q > xmin:
            cands.append(-xmin + (float(q) - xmin))
    uniq = sorted({c for c in cands if c >= floor or c == 0.0})
    return uniq


def fit_box_cox(column) -> FeatureTransform:
    """Fit (delta, lam) for one column by profile likelihood.

    A golden-section search over lam in [-2, 2] at each of a small set of
    positivity-ensuring shifts; the best (delta, lam) wins, the first shift
    on a tie.
    """
    arr = np.asarray(column, dtype=np.float64).ravel()
    distinct = np.unique(arr).size
    if distinct < 2:
        raise ValueError("constant column cannot be transformed")
    if distinct < 3:
        raise ValueError("column needs at least 3 distinct values")
    best = (-math.inf, 0.0, 0.0)  # (loglik, lam, delta)
    for delta in _shift_candidates(arr):
        shifted = arr + delta
        log_sum = float(np.sum(np.log(shifted)))
        lam, ll = _golden_section(lambda lam: _profile_loglik(shifted, log_sum, lam),
                                  LAMBDA_MIN, LAMBDA_MAX)
        if ll > best[0]:
            best = (ll, lam, delta)
    if not math.isfinite(best[0]):
        raise ValueError("Box-Cox likelihood is degenerate for this column")
    _, lam_star, delta_star = best
    boundary = (
        lam_star <= LAMBDA_MIN + 1e-9
        or lam_star >= LAMBDA_MAX - 1e-9
        or abs(delta_star - _shift_floor(arr)) <= 1e-12 * max(1.0, abs(delta_star))
    )
    return _transform(arr, delta_star, lam_star, boundary)


def _transform(column: np.ndarray, delta: float, lam: float,
               boundary: bool = False) -> FeatureTransform:
    """The fitted transform of a column: its shift and exponent, the mean and
    sample sd of the transformed values, and the raw range."""
    y = apply_box_cox(column, delta, lam)
    sd = float(np.std(y, ddof=1))
    if sd <= 0.0:
        raise ValueError("transformed column has zero variance")
    return FeatureTransform("", delta, lam, float(np.mean(y)), sd, boundary,
                            float(np.min(column)), float(np.max(column)))


def _golden_section(f, lo: float, hi: float, tol: float = 1e-9):
    # Maximize a unimodal-ish f on [lo, hi], here all of lam's [-2, 2]: 49
    # evaluations of f, and a maximum at an edge ends within tol / 2 of it.
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def fit_preprocessor(data: Dataset, mode: str = "box-cox") -> list[FeatureTransform]:
    """Fit one :class:`FeatureTransform` per column.

    ``mode``, one of ``PREPROCESSORS``, names the fit: "box-cox" runs the full
    likelihood fit; "standardize" pins lam = 1 (with a positivity shift folded
    into the mean) so the output is plain standardization.  Columns whose fit
    stopped at a search boundary are named in one ``UserWarning``.
    """
    if data.n < 2:
        raise ValueError("preprocessing needs at least 2 observations")
    if mode not in PREPROCESSORS:
        raise ValueError(f"unknown preprocessing mode '{mode}'")
    transforms = []
    for j, name in enumerate(data.columns):
        col = data.values[:, j]
        try:
            tf = PREPROCESSORS[mode](col)
        except ValueError as exc:
            raise ValueError(f"column '{name}': {exc}") from None
        transforms.append(replace(tf, column=name))
    if boundary := [tf.column for tf in transforms if tf.boundary]:
        warnings.warn("transform fit hit a search boundary for column(s) "
                      + ", ".join(boundary), stacklevel=2)
    return transforms


def _standardize_transform(column: np.ndarray) -> FeatureTransform:
    arr = np.asarray(column, dtype=np.float64)
    if np.unique(arr).size < 2:
        raise ValueError("constant column cannot be transformed")
    return _transform(arr, 0.0 if np.min(arr) > 0.0 else _shift_floor(arr), 1.0)


PREPROCESSORS = {"box-cox": fit_box_cox, "standardize": _standardize_transform}


def apply_preprocessor(data: Dataset, transforms: list[FeatureTransform]) -> Dataset:
    """Map raw observations into model space: Box-Cox then standardize.

    Raises ``ValueError`` naming the row and column when a value falls
    outside the fitted transform's domain.
    """
    if data.d != len(transforms):
        raise ValueError(
            f"data has {data.d} columns but {len(transforms)} transforms were fitted"
        )
    out = np.empty_like(data.values)
    for j, tf in enumerate(transforms):
        col = data.values[:, j]
        shifted = col + tf.delta
        if np.any(shifted <= 0.0):
            row = int(np.argmax(shifted <= 0.0))
            raise ValueError(
                f"row {row}, column '{tf.column}': value {col[row]} is outside "
                f"the fitted transform domain (shift {tf.delta})"
            )
        out[:, j] = (_box_cox(shifted, tf.lam) - tf.mean) / tf.sd
    return Dataset(out, list(data.columns))
