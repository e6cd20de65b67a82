import json

import numpy as np
import pytest

from bookcast.features import FEATURE_NAMES
from bookcast.metrics import pinball
from bookcast.selection import (L1QuantileFit, default_alpha_grid,
                                fit_l1_lqr, importance_breakdown, objective,
                                select_features, standardize, top_k, tune_alpha)
from bookcast.selection import SelectionResult
from bookcast.util import pinball_quantile
from oracles import brute_objective, grid_search_l1_lqr, pinball_optimal_intercept


# ---------------------------------------------------------------- standardize

def test_standardize_two_point_column():
    Xs, _, mean, scale, zero = standardize(np.array([[1.0], [3.0]]))
    assert np.allclose(Xs[:, 0], [-1.0, 1.0])
    assert mean[0] == 2.0 and scale[0] == 1.0  # population std of {1,3}
    assert not zero[0]


def test_standardize_constant_column_flagged():
    Xs, _, mean, scale, zero = standardize(np.array([[5.0], [5.0]]))
    assert np.allclose(Xs, 0.0)
    assert scale[0] == 1.0
    assert zero[0]


def test_standardize_transforms_others_with_train_stats():
    X_train = np.array([[0.0], [2.0]])
    X_val = np.array([[4.0]])
    _, (val_s,), mean, scale, _ = standardize(X_train, X_val)
    assert val_s[0, 0] == (4.0 - 1.0) / 1.0


def test_standardize_rejects_empty():
    with pytest.raises(ValueError):
        standardize(np.empty((0, 3)))


# ---------------------------------------------------------------- solver

def test_intercept_only_is_empirical_quantile():
    rng = np.random.default_rng(0)
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    fit = fit_l1_lqr(np.empty((5, 0)), y, 0.5, 0.0)
    assert fit.intercept == 3.0
    for n in (11, 101):
        y = rng.normal(size=n) * 40
        for tau in (0.1, 0.5, 0.9):
            fit = fit_l1_lqr(np.empty((n, 0)), y, tau, 0.0)
            assert fit.intercept == pinball_quantile(y, tau)
            below = np.sum(y < fit.intercept) / n
            at_or_below = np.sum(y <= fit.intercept) / n
            assert below <= tau <= at_or_below


def test_exact_linear_fit_zero_loss():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 1))
    y = 2.0 * X[:, 0]
    for tau in (0.1, 0.5, 0.9):
        fit = fit_l1_lqr(X, y, tau, 0.0)
        assert fit.beta[0] == pytest.approx(2.0, abs=1e-6)
        loss = float(np.sum(pinball(y, X @ fit.beta + fit.intercept, tau)))
        assert loss < 1e-6


def test_huge_alpha_gives_exact_zeros():
    rng = np.random.default_rng(2)
    X, _, _, _, _ = standardize(rng.normal(size=(30, 5)))
    y = rng.normal(size=30)
    fit = fit_l1_lqr(X, y, 0.7, 1e6)
    assert np.all(fit.beta == 0.0)
    assert fit.intercept == pinball_quantile(y, 0.7)


def test_objective_trace_non_increasing_and_valid():
    rng = np.random.default_rng(3)
    X, _, _, _, _ = standardize(rng.normal(size=(60, 8)))
    y = X[:, 0] * 3 - X[:, 4] + rng.normal(size=60)
    fit = fit_l1_lqr(X, y, 0.3, 0.5)
    trace = np.array(fit.objective_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    reported = trace[-1]
    recomputed = brute_objective(X, y, 0.3, 0.5, fit.beta, fit.intercept)
    assert reported == pytest.approx(recomputed, rel=1e-9)


def test_objective_beats_independent_reference_points():
    rng = np.random.default_rng(4)
    X, _, _, _, _ = standardize(rng.normal(size=(50, 4)))
    y = X[:, 1] * 2 + rng.normal(size=50) * 0.5
    tau, alpha = 0.4, 0.8
    fit = fit_l1_lqr(X, y, tau, alpha)
    final = fit.objective_trace[-1]
    # intercept-only reference
    ref0 = objective(X, y, tau, alpha, np.zeros(4), pinball_quantile(y, tau))
    assert final <= ref0 + 1e-9
    # least-squares reference with its own pinball-optimal intercept
    ls = np.linalg.lstsq(np.column_stack([X, np.ones(50)]), y, rcond=None)[0]
    b_ls = pinball_optimal_intercept(y - X @ ls[:-1], tau)
    ref_ls = objective(X, y, tau, alpha, ls[:-1], b_ls)
    assert final <= ref_ls + 1e-9


def test_restart_from_perturbed_start_agrees():
    rng = np.random.default_rng(5)
    X, _, _, _, _ = standardize(rng.normal(size=(80, 6)))
    y = X[:, 0] - 2 * X[:, 5] + rng.normal(size=80) * 0.3
    tau, alpha = 0.5, 1.0
    fit = fit_l1_lqr(X, y, tau, alpha)
    start = (fit.beta + rng.normal(size=6) * 0.5, fit.intercept + 1.0)
    refit = fit_l1_lqr(X, y, tau, alpha, start=start)
    assert refit.objective_trace[-1] == pytest.approx(fit.objective_trace[-1], rel=5e-4)


def test_solver_rejects_bad_inputs():
    X = np.ones((3, 1))
    y = np.ones(3)
    with pytest.raises(ValueError):
        fit_l1_lqr(X, np.array([1.0, np.nan, 2.0]), 0.5, 0.0)
    with pytest.raises(ValueError):
        fit_l1_lqr(X, y, 0.5, -1.0)
    with pytest.raises(ValueError):
        fit_l1_lqr(X, y, 1.5, 0.0)
    with pytest.raises(ValueError):
        fit_l1_lqr(X, np.ones(4), 0.5, 0.0)


def test_brute_force_grid_equivalence_small_problems():
    rng = np.random.default_rng(6)
    for trial in range(4):
        n = int(rng.integers(8, 21))
        d = int(rng.integers(1, 3))
        X, _, _, _, _ = standardize(rng.normal(size=(n, d)))
        beta_true = rng.uniform(-1.5, 1.5, size=d)
        y = X @ beta_true + rng.normal(size=n) * 0.3
        tau = float(rng.choice([0.2, 0.5, 0.8]))
        alpha = float(rng.choice([0.0, 0.5, 2.0]))
        fit = fit_l1_lqr(X, y, tau, alpha)
        grid_min = grid_search_l1_lqr(X, y, tau, alpha)
        slack = (np.sum(np.abs(X)) / n * n + alpha) * 1e-3 * d + 1e-9
        assert fit.objective_trace[-1] <= grid_min + slack
        assert fit.objective_trace[-1] >= grid_min - slack


# ---------------------------------------------------------------- tune_alpha

def _split_data(rng, n_informative=3, d=20, n=120):
    X = rng.normal(size=(n, d))
    beta = np.zeros(d)
    beta[:n_informative] = [3.0, -2.0, 1.5][:n_informative]
    y = X @ beta + rng.normal(size=n) * 0.2
    X, _, _, _, _ = standardize(X)
    half = n // 2
    return (X[:half], y[:half]), (X[half:], y[half:])


def test_tune_alpha_singleton_grid():
    rng = np.random.default_rng(7)
    train, val = _split_data(rng)
    best, fits = tune_alpha(train, val, 0.5, alpha_grid=[0.25])
    assert best == 0.25
    assert set(fits) == {0.25}


def test_tune_alpha_tie_prefers_larger():
    rng = np.random.default_rng(8)
    n = 40
    X = np.zeros((n, 1))  # feature carries nothing; all alphas tie
    y = rng.normal(size=n)
    train, val = (X[:20], y[:20]), (X[20:], y[20:])
    best, _ = tune_alpha(train, val, 0.5, alpha_grid=[1e-4, 1e-2])
    assert best == 1e-2


def test_tune_alpha_recovers_informative_superset():
    rng = np.random.default_rng(9)
    train, val = _split_data(rng, n_informative=3, d=50, n=240)
    grid = default_alpha_grid(12)
    best, fits = tune_alpha(train, val, 0.5, alpha_grid=grid)
    best_fit = fits[best]
    selected = set(np.flatnonzero(np.abs(best_fit.beta) > 1e-6))
    assert {0, 1, 2} <= selected
    losses = {a: float(np.mean(pinball(val[1], val[0] @ f.beta + f.intercept, 0.5)))
              for a, f in fits.items()}
    assert losses[best] <= losses[min(fits)] + 1e-12


def test_tune_alpha_rejects_out_of_range_grid():
    rng = np.random.default_rng(10)
    train, val = _split_data(rng)
    with pytest.raises(ValueError):
        tune_alpha(train, val, 0.5, alpha_grid=[10.0])
    with pytest.raises(ValueError):
        tune_alpha(train, val, 0.5, alpha_grid=[])


# ---------------------------------------------------------------- selection

def _fit_with(beta_by_name, tau, alpha=0.1):
    beta = np.zeros(len(FEATURE_NAMES))
    names = list(FEATURE_NAMES)
    for name, val in beta_by_name.items():
        beta[names.index(name)] = val
    return L1QuantileFit(tau=tau, alpha=alpha, beta=beta, intercept=0.0,
                         objective_trace=[0.0], converged=True, n_iter=1)


def test_select_features_threshold_and_union():
    fits = {
        0.1: _fit_with({"vwap|buy|15": 0.5, "momentum|sell|1": 1e-9}, 0.1),
        0.9: _fit_with({"max_price|sell|60": -0.25}, 0.9),
    }
    res = select_features(fits, FEATURE_NAMES)
    assert res.per_tau_selected[0.1] == ["vwap|buy|15"]
    assert res.per_tau_selected[0.9] == ["max_price|sell|60"]
    assert set(res.union) == {"vwap|buy|15", "max_price|sell|60"}


def test_select_features_all_below_threshold():
    fits = {0.5: _fit_with({"vwap|buy|15": 1e-8}, 0.5)}
    res = select_features(fits, FEATURE_NAMES)
    assert res.per_tau_selected[0.5] == []
    assert res.union == []


def test_importance_sums_absolute_coefficients():
    fits = {
        0.1: _fit_with({"vwap|buy|15": 0.2}, 0.1),
        0.5: _fit_with({"vwap|buy|15": -0.3}, 0.5),
        0.9: _fit_with({"vwap|buy|15": 0.1}, 0.9),
    }
    res = select_features(fits, FEATURE_NAMES)
    assert res.importance["vwap|buy|15"] == pytest.approx(0.6)


def test_breakdown_concentration_and_normalization():
    fits = {0.5: _fit_with({"vwap|buy|15": 0.4, "vwap|sell|60": 0.4}, 0.5)}
    res = select_features(fits, FEATURE_NAMES)
    br = importance_breakdown(res)
    assert br.by_family["vwap"] == pytest.approx(1.0)
    assert sum(br.by_family.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(br.by_window.values()) == pytest.approx(1.0, abs=1e-9)
    assert br.by_side["buy"] == pytest.approx(0.5)
    assert br.by_side["sell"] == pytest.approx(0.5)


def test_breakdown_all_zero_errors():
    fits = {0.5: _fit_with({}, 0.5)}
    res = select_features(fits, FEATURE_NAMES)
    with pytest.raises(ValueError):
        importance_breakdown(res)


def test_top_k_rankings():
    fits = {0.5: _fit_with({"vwap|buy|1": 0.5, "vwap|buy|5": -0.7,
                            "vwap|buy|15": 0.6}, 0.5)}
    res = select_features(fits, FEATURE_NAMES)
    names, short = top_k(res, 0.5, 2)
    assert names == ["vwap|buy|5", "vwap|buy|15"]
    assert not short
    names, short = top_k(res, 0.5, 5)
    assert len(names) == 3 and short
    one, _ = top_k(res, 0.5, 1)
    assert one == ["vwap|buy|5"]
    with pytest.raises(ValueError):
        top_k(res, 0.5, 0)


def test_top_k_ties_break_by_name():
    fits = {0.5: _fit_with({"vwap|sell|1": 0.5, "vwap|buy|1": -0.5}, 0.5)}
    res = select_features(fits, FEATURE_NAMES)
    names, _ = top_k(res, 0.5, 2)
    assert names == ["vwap|buy|1", "vwap|sell|1"]


def test_selection_result_round_trips_through_json():
    fits = {
        0.1: _fit_with({"vwap|buy|15": 1 / 3, "momentum|sell|1": 1e-9}, 0.1, 0.37),
        0.5: _fit_with({}, 0.5, 1e-8),
        0.9: _fit_with({"max_price|sell|60": -0.25, "vwap|buy|15": 2 ** -20}, 0.9, 0.1),
    }
    sel = select_features(fits, FEATURE_NAMES)
    # coefficient dust counts towards importance but is not kept per tau
    assert sel.per_tau_coef == {0.1: {"vwap|buy|15": 1 / 3}, 0.5: {},
                                0.9: {"max_price|sell|60": -0.25}}
    assert sel.importance["momentum|sell|1"] == 1e-9
    payload = json.loads(json.dumps(sel.to_dict(), sort_keys=True))
    assert SelectionResult.from_dict(payload, FEATURE_NAMES) == sel
