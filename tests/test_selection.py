import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bookcast import selection
from bookcast.features import FEATURE_NAMES
from bookcast.metrics import pinball
from bookcast.selection import (GAP_TOL, L1QuantileFit, SolverConfig, alpha_max,
                                default_alpha_grid, fit_l1_lqr, importance_breakdown,
                                objective, select_features, standardize, top_k,
                                tune_alpha)
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


def test_repeated_fits_are_identical():
    rng = np.random.default_rng(5)
    X, _, _, _, _ = standardize(rng.normal(size=(80, 6)))
    y = X[:, 0] - 2 * X[:, 5] + rng.normal(size=80) * 0.3
    first, second = (fit_l1_lqr(X, y, 0.5, 1.0) for _ in range(2))
    assert first.beta.tobytes() == second.beta.tobytes()
    assert (first.intercept, first.objective_trace, first.n_iter, first.gap) == \
        (second.intercept, second.objective_trace, second.n_iter, second.gap)


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


def _highs():
    """bench/checks.py, whose highs_l1qr solves the L1-QR LP with HiGHS."""
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.highs_l1qr


def _oracle_cases():
    rng = np.random.default_rng(12)
    wide, _, _, _, _ = standardize(rng.normal(size=(30, 60)))           # n < d
    tall, _, _, _, _ = standardize(rng.normal(size=(80, 12)))
    twin = np.column_stack([tall, tall[:, 3]])                          # a duplicate
    cases = []
    for X, alphas, tie_free in ((wide, (0.02, 0.1, 0.3), True),
                                (tall, (0.0, 0.01, 0.1), True),
                                (twin, (0.05, 0.2), False),
                                (np.empty((25, 0)), (0.0, 1.0), True)):
        n, d = X.shape
        y = X[:, :3] @ np.array([2.0, -1.0, 0.5])[:min(d, 3)] if d else np.zeros(n)
        y = y + rng.standard_t(3, size=n)
        for tau in (0.1, 0.5, 0.85):
            cases += [(X, y, tau, a * n, tie_free) for a in alphas]
    return cases


def test_fit_matches_highs_optimum_and_support():
    highs_l1qr = _highs()
    for X, y, tau, alpha, tie_free in _oracle_cases():
        optimum, beta = highs_l1qr(X, y, tau, alpha)
        fit = fit_l1_lqr(X, y, tau, alpha)
        where = (X.shape, tau, alpha)
        own = objective(X, y, tau, alpha, fit.beta, fit.intercept)
        assert fit.converged and fit.gap <= GAP_TOL, where
        assert fit.objective_trace[-1] == own, where
        assert abs(own - optimum) <= GAP_TOL * max(1.0, abs(optimum)), where
        if tie_free and alpha > 0:
            assert np.array_equal(np.flatnonzero(fit.beta),
                                  np.flatnonzero(np.abs(beta) > 1e-9)), where


def test_capped_solve_is_not_converged():
    rng = np.random.default_rng(13)
    X, _, _, _, _ = standardize(rng.normal(size=(60, 20)))
    y = X[:, 0] + rng.normal(size=60)
    capped = fit_l1_lqr(X, y, 0.3, 0.5, SolverConfig(max_iter=1))
    assert capped.n_iter == 1 and not capped.converged and capped.gap > GAP_TOL
    full = fit_l1_lqr(X, y, 0.3, 0.5)
    assert full.converged and full.n_iter > 1
    assert full.objective_trace[-1] <= capped.objective_trace[-1]


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


def test_anchored_grid_starts_where_beta_zero_stops_being_optimal():
    highs_l1qr = _highs()
    rng = np.random.default_rng(14)
    train, val = _split_data(rng, d=40, n=160)
    X, y = train
    n = len(y)
    for tau in (0.1, 0.5, 0.9):
        top = alpha_max(X, y, tau)
        _, fits = tune_alpha(train, val, tau, alpha_grid=6)
        grid = sorted(fits)
        assert len(grid) == 6 and grid[-1] == top / n
        assert grid[0] == pytest.approx(1e-2 * top / n, rel=1e-12)
        at_top = fits[grid[-1]]
        assert at_top.n_iter == 0 and at_top.converged and np.all(at_top.beta == 0.0)
        empty = objective(X, y, tau, top, np.zeros(X.shape[1]), pinball_quantile(y, tau))
        assert highs_l1qr(X, y, tau, top)[0] == pytest.approx(empty, rel=1e-9)
        below = 0.99 * top
        optimum = highs_l1qr(X, y, tau, below)[0]
        empty = objective(X, y, tau, below, np.zeros(X.shape[1]), pinball_quantile(y, tau))
        assert optimum < empty * (1 - 1e-9)
        assert np.count_nonzero(fit_l1_lqr(X, y, tau, below).beta) > 0


def test_tune_alpha_rejects_out_of_range_grid():
    rng = np.random.default_rng(10)
    train, val = _split_data(rng)
    with pytest.raises(ValueError):
        tune_alpha(train, val, 0.5, alpha_grid=[10.0])
    with pytest.raises(ValueError):
        tune_alpha(train, val, 0.5, alpha_grid=[])



def test_tune_alpha_rejects_an_empty_validation_set_before_any_fit(monkeypatch):
    rng = np.random.default_rng(11)
    train, (X_val, y_val) = _split_data(rng)
    monkeypatch.setattr(selection, "fit_l1_lqr", None)  # any fit would raise TypeError
    with pytest.raises(ValueError, match="validation set is empty"):
        tune_alpha(train, (X_val[:0], y_val[:0]), 0.5, alpha_grid=4)

# ---------------------------------------------------------------- selection

def _fit_with(beta_by_name, tau, alpha=0.1):
    beta = np.zeros(len(FEATURE_NAMES))
    names = list(FEATURE_NAMES)
    for name, val in beta_by_name.items():
        beta[names.index(name)] = val
    return L1QuantileFit(tau=tau, alpha=alpha, beta=beta, intercept=0.0,
                         objective_trace=[0.0], converged=True, n_iter=1,
                         gap=0.0, alpha_max=1.0)


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
