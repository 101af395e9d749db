"""Per-column Box-Cox power transforms and standardization.

Each feature column is shifted positive, power-transformed toward
normality, and standardized to zero mean and unit sample variance.  The
shift ``delta`` and exponent ``lam`` are chosen jointly by maximizing the
Gaussian profile log-likelihood of the transformed values, including the
Jacobian term of the transform.
"""

from __future__ import annotations

import math
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
LAMBDA_STEP = 0.05
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
    if lam == 0.0:
        out = np.log(t)
    else:
        out = (np.power(t, lam) - 1.0) / lam
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _profile_loglik(shifted: np.ndarray, log_shifted_sum: float, lam: float) -> float:
    # Gaussian profile log-likelihood with the transform Jacobian,
    # constants dropped.  np.var's steps run in the one buffer y; a
    # non-finite y makes the mean nan or inf, checked before y - mean warns.
    if lam == 0.0:
        y = np.log(shifted)
    else:
        y = (np.power(shifted, lam) - 1.0) / lam
    n = shifted.size
    mean = np.add.reduce(y) / n
    if not math.isfinite(mean):
        return -math.inf
    y -= mean
    var = float(np.add.reduce(np.multiply(y, y, out=y)) / n)
    if var <= 0.0 or not math.isfinite(var):
        return -math.inf
    return -0.5 * n * math.log(var) + (lam - 1.0) * log_shifted_sum


def _shift_candidates(column: np.ndarray) -> list[float]:
    xmin = float(np.min(column))
    rng = float(np.max(column)) - xmin
    floor = -xmin + POSITIVITY_MARGIN * rng
    cands = [floor]
    if xmin > POSITIVITY_MARGIN * rng:
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

    Grid search over lam in [-2, 2] step 0.05 crossed with a small set of
    positivity-ensuring shifts, then golden-section refinement of lam at
    the winning shift.
    """
    arr = np.asarray(column, dtype=np.float64).ravel()
    distinct = np.unique(arr).size
    if distinct < 2:
        raise ValueError("constant column cannot be transformed")
    if distinct < 3:
        raise ValueError("column needs at least 3 distinct values")
    lambdas = np.array([i * LAMBDA_STEP for i in range(-40, 41)])
    best = (-math.inf, 0.0, 0.0)  # (loglik, lam, delta)
    for delta in _shift_candidates(arr):
        shifted = arr + delta
        log_sum = float(np.sum(np.log(shifted)))
        for lam in lambdas:
            ll = _profile_loglik(shifted, log_sum, float(lam))
            if ll > best[0]:
                best = (ll, float(lam), delta)
    if not math.isfinite(best[0]):
        raise ValueError("Box-Cox likelihood is degenerate for this column")
    _, lam_star, delta_star = best
    lo = max(LAMBDA_MIN, lam_star - LAMBDA_STEP)
    hi = min(LAMBDA_MAX, lam_star + LAMBDA_STEP)
    shifted = arr + delta_star
    log_sum = float(np.sum(np.log(shifted)))
    lam_star, ll_star = _golden_section(
        lambda lam: _profile_loglik(shifted, log_sum, lam), lo, hi
    )
    y = apply_box_cox(arr, delta_star, lam_star)
    sd = float(np.std(y, ddof=1))
    if sd <= 0.0:
        raise ValueError("transformed column has zero variance")
    boundary = (
        lam_star <= LAMBDA_MIN + 1e-9
        or lam_star >= LAMBDA_MAX - 1e-9
        or _at_shift_floor(arr, delta_star)
    )
    return FeatureTransform(
        column="",
        delta=delta_star,
        lam=lam_star,
        mean=float(np.mean(y)),
        sd=sd,
        boundary=boundary,
        raw_min=float(np.min(arr)),
        raw_max=float(np.max(arr)),
    )


def _at_shift_floor(column: np.ndarray, delta: float) -> bool:
    xmin = float(np.min(column))
    rng = float(np.max(column)) - xmin
    return abs(delta - (-xmin + POSITIVITY_MARGIN * rng)) <= 1e-12 * max(1.0, abs(delta))


def _golden_section(f, lo: float, hi: float, tol: float = 1e-9):
    # Maximize a unimodal-ish scalar function on [lo, hi].
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

    ``mode="box-cox"`` runs the full likelihood fit; ``mode="standardize"``
    pins lam = 1 (with a positivity shift folded into the mean) so the
    output is plain standardization.
    """
    if data.n < 2:
        raise ValueError("preprocessing needs at least 2 observations")
    if mode not in ("box-cox", "standardize"):
        raise ValueError(f"unknown preprocessing mode '{mode}'")
    transforms = []
    for j, name in enumerate(data.columns):
        col = data.values[:, j]
        try:
            if mode == "box-cox":
                tf = fit_box_cox(col)
            else:
                tf = _standardize_transform(col)
        except ValueError as exc:
            raise ValueError(f"column '{name}': {exc}") from None
        transforms.append(replace(tf, column=name))
    return transforms


def _standardize_transform(column: np.ndarray) -> FeatureTransform:
    arr = np.asarray(column, dtype=np.float64)
    if np.unique(arr).size < 2:
        raise ValueError("constant column cannot be transformed")
    xmin = float(np.min(arr))
    rng = float(np.max(arr)) - xmin
    delta = 0.0 if xmin > 0.0 else -xmin + POSITIVITY_MARGIN * rng
    y = apply_box_cox(arr, delta, 1.0)
    sd = float(np.std(y, ddof=1))
    return FeatureTransform(
        column="",
        delta=delta,
        lam=1.0,
        mean=float(np.mean(y)),
        sd=sd,
        raw_min=xmin,
        raw_max=float(np.max(arr)),
    )


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
        y = apply_box_cox(col, tf.delta, tf.lam)
        out[:, j] = (y - tf.mean) / tf.sd
    return Dataset(out, list(data.columns))
