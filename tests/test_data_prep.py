"""Column transform tests: shifted power transform, MLE fit, standardization.

The fit is checked against an independent coarse grid-search oracle that
recomputes the profile log-likelihood from scratch.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relanom import preprocess
from relanom.dataset import Dataset
from relanom.preprocess import (
    LAMBDA_MAX,
    FeatureTransform,
    _shift_candidates,
    apply_box_cox,
    apply_preprocessor,
    fit_box_cox,
    fit_preprocessor,
)


# ---------------------------------------------------------------------------
# independent oracle: profile log-likelihood and brute grid search


def oracle_loglik(column, delta, lam):
    """Gaussian profile log-likelihood of the transformed column.

    -n/2 * ln(mle variance) plus the Jacobian term (lam - 1) * sum ln(x + delta),
    additive constants dropped.  Written from the definition, independent of
    the implementation under test.
    """
    shifted = np.asarray(column, dtype=np.float64) + delta
    assert np.all(shifted > 0)
    y = np.log(shifted) if lam == 0.0 else (shifted**lam - 1.0) / lam
    var = np.mean((y - y.mean()) ** 2)
    if var <= 0 or not np.isfinite(var):
        return -math.inf
    n = shifted.size
    return -0.5 * n * math.log(var) + (lam - 1.0) * np.sum(np.log(shifted))


def oracle_grid_lambda(column, delta=0.0):
    """Best lam on a [-2, 2] grid at a fixed shift, step 0.01."""
    grid = np.arange(-200, 201) / 100.0
    lls = [oracle_loglik(column, delta, lam) for lam in grid]
    return float(grid[int(np.argmax(lls))])


# ---------------------------------------------------------------------------
# apply_box_cox


def test_identity_power_shifts_by_one():
    assert apply_box_cox(3.0, 0.0, 1.0) == 2.0


def test_log_case_at_e():
    assert apply_box_cox(math.e, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_square_root_case():
    # (sqrt(4) - 1) / 0.5
    assert apply_box_cox(4.0, 0.0, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_domain_error_on_nonpositive_shifted_value():
    with pytest.raises(ValueError, match="not positive"):
        apply_box_cox(-1.0, 0.5, 1.0)


def test_vectorized_matches_scalar():
    xs = np.array([0.5, 1.0, 2.0, 7.5])
    out = apply_box_cox(xs, 0.25, 0.3)
    for x, y in zip(xs, out):
        assert y == apply_box_cox(float(x), 0.25, 0.3)


@pytest.mark.parametrize("lam", [-1.5, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_strictly_increasing_for_fixed_parameters(lam):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.1, 10.0, size=200))
    y = apply_box_cox(x, 0.0, lam)
    assert np.all(np.diff(y) > 0)


def test_continuity_at_lambda_zero():
    x = np.linspace(0.2, 5.0, 50)
    logs = np.log(x)
    for lam in (1e-6, -1e-6):
        assert np.max(np.abs(apply_box_cox(x, 0.0, lam) - logs)) < 1e-4


# ---------------------------------------------------------------------------
# fit_box_cox


def test_constant_column_rejected():
    with pytest.raises(ValueError, match="constant column"):
        fit_box_cox(np.full(3, 4.2))


def test_two_distinct_values_rejected():
    with pytest.raises(ValueError, match="at least 3 distinct"):
        fit_box_cox(np.array([1.0, 2.0, 1.0, 2.0]))


def test_lognormal_column_recovers_log_transform():
    rng = np.random.default_rng(42)
    col = np.exp(rng.standard_normal(2000))
    tf = fit_box_cox(col)
    assert -0.2 <= tf.lam <= 0.2
    # independent grid oracle agrees the optimum is near zero
    assert abs(oracle_grid_lambda(col)) <= 0.2
    assert abs(tf.lam - oracle_grid_lambda(col, tf.delta)) <= 0.02


def test_shifted_gaussian_recovers_identity_transform():
    rng = np.random.default_rng(7)
    col = rng.standard_normal(2000) + 10.0
    tf = fit_box_cox(col)
    assert 0.8 <= tf.lam <= 1.2
    # oracle agrees with the fitted lam at the fitted shift, and the fit
    # dominates the best unshifted option
    assert abs(tf.lam - oracle_grid_lambda(col, tf.delta)) <= 0.02
    best_unshifted = max(oracle_loglik(col, 0.0, lam) for lam in np.arange(-2, 2.01, 0.05))
    assert oracle_loglik(col, tf.delta, tf.lam) >= best_unshifted - 1e-9


def test_fitted_likelihood_beats_identity_baseline():
    rng = np.random.default_rng(11)
    for col in (
        np.exp(rng.standard_normal(500)),
        rng.uniform(2.0, 3.0, size=500),
        rng.gamma(2.0, 1.0, size=500) + 0.5,
    ):
        tf = fit_box_cox(col)
        fitted = oracle_loglik(col, tf.delta, tf.lam)
        baseline = oracle_loglik(col, 0.0, 1.0)
        assert fitted >= baseline - 1e-9


def test_boundary_flag_set_when_lambda_pegs():
    # extremely heavy right tail: the fit settles at the shift floor
    rng = np.random.default_rng(5)
    assert fit_box_cox(np.exp(4.0 * rng.standard_normal(400)) + 1.0).boundary
    # a long left tail pins lam at the upper search edge
    for seed in range(4):
        col = 100.0 - np.exp(2.0 * np.random.default_rng(seed).standard_normal(500))
        tf = fit_box_cox(col)
        assert tf.lam >= LAMBDA_MAX - 1e-9
        assert tf.boundary


def test_search_costs_at_most_fifty_evaluations_per_shift(monkeypatch):
    calls = []
    evaluate = preprocess._profile_loglik

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(preprocess, "_profile_loglik", counted)
    col = np.random.default_rng(3).gamma(2.0, 1.0, 300)
    fit_box_cox(col)
    assert len(calls) <= 50 * len(_shift_candidates(col))


COLUMN_KINDS = {
    "lognormal": lambda rng, n: np.exp(rng.standard_normal(n)),
    "gamma": lambda rng, n: rng.gamma(2.0, 1.0, n),
    "left-skewed": lambda rng, n: 100.0 - np.exp(2.0 * rng.standard_normal(n)),
    "rounded": lambda rng, n: np.round(rng.gamma(1.5, 2.0, n)),
    "reciprocal": lambda rng, n: 1.0 / rng.normal(5.0, 1.0, n),
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(COLUMN_KINDS)), n=st.integers(5, 400),
       seed=st.integers(0, 2**32 - 1))
def test_fit_matches_or_beats_a_lambda_grid_at_every_shift(kind, n, seed):
    # The search must find at least the best value of an 81-point lam grid
    # over every candidate shift, whatever the likelihood's shape in lam.
    col = COLUMN_KINDS[kind](np.random.default_rng(seed), n)
    assume(np.unique(col).size >= 3)
    candidates = _shift_candidates(col)
    tf = fit_box_cox(col)
    assert tf.delta in candidates
    grid_best = max(oracle_loglik(col, delta, lam)
                    for delta in candidates for lam in np.linspace(-2.0, 2.0, 81))
    fitted = oracle_loglik(col, tf.delta, tf.lam)
    assert fitted >= grid_best - 1e-9 * abs(grid_best)


# ---------------------------------------------------------------------------
# fit_preprocessor / apply_preprocessor


def test_standardize_mode_on_one_two_three():
    data = Dataset(np.array([[1.0], [2.0], [3.0]]))
    (tf,) = fit_preprocessor(data, "standardize")
    assert tf.delta == 0.0 and tf.lam == 1.0
    # transform maps to (0, 1, 2): mean 1, sample sd 1
    assert tf.mean == pytest.approx(1.0)
    assert tf.sd == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["box-cox", "standardize"])
def test_training_data_standardized(mode):
    rng = np.random.default_rng(13)
    data = Dataset(np.column_stack([rng.gamma(3.0, 2.0, 300), rng.normal(5.0, 2.0, 300)]))
    out = apply_preprocessor(data, fit_preprocessor(data, mode))
    assert np.all(np.abs(out.values.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(out.values.std(axis=0, ddof=1) - 1.0) < 1e-10)


def test_lognormal_column_flagged_inside_two_column_fit():
    rng = np.random.default_rng(21)
    data = Dataset(
        np.column_stack([rng.normal(4.0, 1.0, 2000), np.exp(rng.standard_normal(2000))]),
        ["a", "b"],
    )
    tfs = fit_preprocessor(data, "box-cox")
    assert tfs[1].column == "b"
    assert -0.2 <= tfs[1].lam <= 0.2


def test_identity_transform_shifts_input():
    tf = FeatureTransform(column="x1", delta=0.0, lam=1.0, mean=0.0, sd=1.0)
    data = Dataset(np.array([[4.0], [9.0]]))
    out = apply_preprocessor(data, [tf])
    np.testing.assert_allclose(out.values[:, 0], [3.0, 8.0])


def test_column_error_prefix_names_column():
    data = Dataset(np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]), ["u", "v"])
    with pytest.raises(ValueError, match="column 'v'"):
        fit_preprocessor(data, "box-cox")


def test_new_value_below_shift_rejected():
    data = Dataset(np.array([[1.0], [2.0], [4.0]]))
    tfs = fit_preprocessor(data, "box-cox")
    bad = Dataset(np.array([[-1.0 - tfs[0].delta]]))
    with pytest.raises(ValueError, match="row 0"):
        apply_preprocessor(bad, tfs)


def test_transform_count_must_match_columns():
    data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
    tf = FeatureTransform(column="x1", delta=0.0, lam=1.0, mean=0.0, sd=1.0)
    with pytest.raises(ValueError):
        apply_preprocessor(data, [tf])
