"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Heavy criteria run at desk scale with seeded synthetic data; the
configurations below were chosen so every check completes well inside its
time budget.
"""

import datetime as dt
import json
import math

import numpy as np
import pytest

import bookcast.cli as cli
from bookcast.experiment import design_matrix
from bookcast.features import (FEATURE_NAMES, WINDOW_LABELS,
                               extract_features, parse_feature_name,
                               window_trades)
from bookcast.market import (ProductSpec, SplitBoundaries, build_samples,
                             split_dataset)
from bookcast.metrics import aql, aqcr, mae, pinball
from bookcast.models import LQRModel, QGBTModel, QKNNModel, QMLPModel
from bookcast.search import ParamSpec, SearchSpace
from bookcast.selection import (SolverConfig, default_alpha_grid, fit_l1_lqr,
                                standardize)
from bookcast.synth import SynthConfig, generate, make_domain_pair
from bookcast.transfer import (domain_from_split, ensure_selection, run_pair,
                               run_strategy, trade_count_ratio)
from bookcast.util import UTC, pinball_quantile
from conftest import T_D, T_F, mk_trade
from oracles import brute_id3, brute_knn_quantiles, brute_stats, grid_search_l1_lqr

Q3 = (0.1, 0.5, 0.9)
START = dt.datetime(2024, 3, 1, tzinfo=UTC)
SPEC60 = ProductSpec(market="DE", product_type="60min")


def _pass(num, message):
    print(f"\n[PASS] criterion {num}: {message}")


# ------------------------------------------------------------------ 1

def test_criterion_01_feature_cardinality():
    rng = np.random.default_rng(0)
    trades = [mk_trade(float(rng.uniform(0, 400)), float(rng.uniform(20, 80)),
                       float(rng.uniform(0.1, 5)),
                       side="+" if i % 2 else "-", seq=i)
              for i in range(40)]
    vec = extract_features(trades, T_F)
    assert vec is not None and vec.shape == (384,)
    assert len(FEATURE_NAMES) == 384 and len(set(FEATURE_NAMES)) == 384
    # 32 per (side, window): price family 7 percentiles + 7 scalars,
    # volume family 7 percentiles + 9 scalars, plus vwap and momentum
    per_cell = {}
    for name in FEATURE_NAMES:
        family, side, window, pct = parse_feature_name(name)
        per_cell.setdefault((side, window), []).append((family, pct))
    assert len(per_cell) == 12
    for cell, entries in per_cell.items():
        assert len(entries) == 32, cell
        price_pctls = sum(1 for f, p in entries if f == "price_pctl")
        volume_pctls = sum(1 for f, p in entries if f == "volume_pctl")
        assert price_pctls == 7 and volume_pctls == 7
    _pass(1, "384 features = 32 per (side, window) x 2 sides x 6 windows")


# ------------------------------------------------------------------ 2

def test_criterion_02_oracle_equivalence_features_and_target():
    rng = np.random.default_rng(42)
    names = list(FEATURE_NAMES)
    name_pos = {n: i for i, n in enumerate(names)}
    for trial in range(1000):
        n_buy = int(rng.integers(1, 10))
        n_sell = int(rng.integers(1, 10))
        trades = []
        for i in range(n_buy + n_sell):
            trades.append(mk_trade(float(rng.uniform(0, 400)),
                                   float(rng.uniform(-100, 400)),
                                   float(rng.uniform(0.01, 40)),
                                   side="+" if i < n_buy else "-", seq=i))
        # feature statistics against naive sort-and-scan
        vec = extract_features(trades, T_F)
        for side, sign in (("buy", "+"), ("sell", "-")):
            side_trades = [t for t in trades if t.side == sign]
            for label, minutes in zip(WINDOW_LABELS,
                                      (1, 5, 15, 60, 180, math.inf)):
                in_window = window_trades(side_trades, T_F, minutes)
                if not in_window:
                    continue
                expected = brute_stats(in_window)
                for key, val in expected.items():
                    if "|" in key:
                        family, pct = key.split("|")
                        col = f"{family}|{side}|{label}|{pct}"
                    else:
                        col = f"{key}|{side}|{label}"
                    got = vec[name_pos[col]]
                    assert got == pytest.approx(val, rel=1e-9, abs=1e-12)
        # target index against explicit summation
        from bookcast.target import compute_id3
        res = compute_id3(trades, T_D, dt.timedelta(minutes=30))
        exp_val, exp_n, _ = brute_id3(trades, T_D, dt.timedelta(minutes=30))
        assert res.trades_used == exp_n
        if exp_val is None:
            assert res.value is None
        else:
            assert res.value == pytest.approx(exp_val, rel=1e-9)
    _pass(2, "1000 fuzzed trade sets match brute force to 1e-9 relative")


# ------------------------------------------------------------------ 3

def test_criterion_03_pinball_aql_identities():
    rng = np.random.default_rng(7)
    y = rng.uniform(-200, 200, size=10_000)
    yhat = rng.uniform(-200, 200, size=10_000)
    lhs = pinball(y, yhat, 0.5)
    rhs = 0.5 * np.abs(y - yhat)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    a = aql(y, yhat[:, None], (0.5,))
    m = mae(y, yhat)
    assert abs(a - m / 2) <= 1e-12 * max(1.0, abs(a))
    _pass(3, "pinball(.,.,0.5) = |err|/2 and AQL({0.5}) = MAE/2 on 10k pairs")


# ------------------------------------------------------------------ 4

def test_criterion_04_l1_lqr_quantile_property():
    rng = np.random.default_rng(11)
    for n in (11, 101):
        y = rng.normal(size=n) * 25  # continuous draws: tie-free
        for tau in (0.1, 0.5, 0.9):
            fit = fit_l1_lqr(np.empty((n, 0)), y, tau, 0.0)
            assert fit.intercept == pinball_quantile(y, tau)
            below = np.sum(y < fit.intercept) / n
            at_or_below = np.sum(y <= fit.intercept) / n
            assert below <= tau <= at_or_below
    X, _, _, _, _ = standardize(rng.normal(size=(50, 8)))
    y = rng.normal(size=50)
    for tau in (0.1, 0.5, 0.9):
        fit = fit_l1_lqr(X, y, tau, 1e6)
        assert np.all(fit.beta == 0.0)
    _pass(4, "intercept-only fits bracket the empirical quantile exactly; "
             "alpha=1e6 zeroes every coefficient")


# ------------------------------------------------------------------ 5

def test_criterion_05_l1_lqr_brute_force_equivalence():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(6, 21))
        d = int(rng.integers(1, 3))
        X, _, _, _, _ = standardize(rng.normal(size=(n, d)))
        beta_true = rng.uniform(-1.2, 1.2, size=d)
        y = X @ beta_true + rng.normal(size=n) * 0.4
        tau = float(rng.choice([0.2, 0.5, 0.8]))
        alpha = float(rng.choice([0.0, 0.5, 2.0]))
        fit = fit_l1_lqr(X, y, tau, alpha)
        grid_min = grid_search_l1_lqr(X, y, tau, alpha, span=3.0,
                                      coarse=0.05, fine=1e-3)
        lipschitz = float(np.sum(np.abs(X))) + alpha
        slack = lipschitz * 1e-3 * d + 1e-9
        assert abs(fit.objective_trace[-1] - grid_min) <= slack, trial
    _pass(5, "20 small problems match exhaustive grid search within "
             "1e-3-grid resolution")


# ------------------------------------------------------------------ 6

def test_criterion_06_qknn_oracle():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(300, 5))
    y = rng.normal(size=300) * 40
    model = QKNNModel(Q3, n_neighbors=11)
    model.fit(X, y)
    queries = rng.normal(size=(200, 5))
    pred = model.predict(queries)
    for i in range(200):
        expected = brute_knn_quantiles(X, y, queries[i], 11, list(Q3))
        assert np.array_equal(pred[i], expected)
    _pass(6, "uniform-weight QKNN equals sort-and-quantile brute force "
             "on 200 queries")


# ------------------------------------------------------------------ 7

def test_criterion_07_qgbt_monotone_training_loss():
    rng = np.random.default_rng(19)
    for trial in range(5):
        X = rng.normal(size=(200, 5))
        y = X[:, 0] * 4 + np.abs(X[:, 1]) + rng.normal(size=200)
        model = QGBTModel(Q3, seed=trial, n_estimators=100, max_depth=3,
                          learning_rate=1.0, subsample=1.0,
                          colsample_by_tree=1.0)
        report = model.fit(X, y)
        trace = np.array(report.loss_trace)
        assert trace.size == 100
        assert np.all(np.diff(trace) <= 1e-12), trial
    _pass(7, "training pinball loss non-increasing over 100 boosting "
             "iterations on 5 datasets")


# ------------------------------------------------------------------ 8

def test_criterion_08_qmlp_gradient_check():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    model = QMLPModel(Q3, seed=5, hidden_size=6, n_layers=2)
    model._init_params(4)
    _, grads = model.loss_and_grads(X, y)
    h = 1e-6
    checked = 0
    for p, g in zip(model.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = model.loss_and_grads(X, y)
            p[idx] = orig - h
            lm, _ = model.loss_and_grads(X, y)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[idx]))
            if denom > 1e-10:
                assert abs(fd - g[idx]) / denom < 1e-4
                checked += 1
    assert checked > 50
    _pass(8, f"analytic gradients match central differences on "
             f"{checked} parameters (rel err < 1e-4)")


# ------------------------------------------------------------------ 9

def test_criterion_09_aqcr_exactness():
    assert aqcr(np.array([[1.0, 2.0, 3.0]]), Q3) == 0.0
    assert aqcr(np.array([[5.0, 4.0, 6.0]]), Q3) == 1 / 3
    assert aqcr(np.array([[3.0, 2.0, 1.0]]), Q3) == 1.0
    _pass(9, "hand-enumerated 3-quantile crossing fractions 0, 1/3, 1 exact")


# ------------------------------------------------------------------ 10

def test_criterion_10_selection_beats_naive_baseline():
    # 200 expected trades per product, price-path volatility 5 EUR/MWh
    # per sqrt(hour); wide spreads make per-trade noise that averaging
    # features remove and the bare last price cannot
    days = 40
    session_hours = 10.0
    lam = 200.0 / (session_hours - 0.5)
    end = START + dt.timedelta(days=days)
    bounds = SplitBoundaries(START + dt.timedelta(days=24),
                             START + dt.timedelta(days=32), end)
    grid = default_alpha_grid(10)
    solver = SolverConfig(max_iter=1500)
    naive2 = ["last_price|buy|inf", "last_price|sell|inf"]

    wins = 0
    for seed in range(5):
        cfg = SynthConfig(seed=seed, liquidity=lam, volatility=5.0,
                          session_hours=session_hours, half_spread=15.0)
        data = generate(cfg, SPEC60, START, end)
        samples, _ = build_samples(data.trades, SPEC60, START, end)
        split = split_dataset(samples, bounds)
        domain = domain_from_split("m", split)
        sel = ensure_selection(domain, Q3, grid, solver)
        assert sel.union

        X_tr, y_tr = design_matrix(split.train, sel.union)
        X_te, y_te = design_matrix(split.test, sel.union)
        X_tr_s, (X_te_s,), _, _, _ = standardize(X_tr, X_te)
        preds = np.empty((len(y_te), len(Q3)))
        for j, tau in enumerate(Q3):
            fit = fit_l1_lqr(X_tr_s, y_tr, tau, sel.alpha_per_tau[tau], solver)
            preds[:, j] = X_te_s @ fit.beta + fit.intercept
        aql_selected = aql(y_te, preds, Q3)

        X_tr2, _ = design_matrix(split.train, naive2)
        X_te2, _ = design_matrix(split.test, naive2)
        X_tr2_s, (X_te2_s,), _, _, _ = standardize(X_tr2, X_te2)
        baseline = LQRModel(Q3, l1_weight=1e-6)
        baseline.fit(X_tr2_s, y_tr)
        aql_naive2 = aql(y_te, baseline.predict(X_te2_s), Q3)
        if aql_selected < aql_naive2:
            wins += 1
    assert wins >= 3, f"selected features won only {wins}/5 seeds"
    _pass(10, f"L1-selected features beat the last-price baseline on "
              f"{wins}/5 seeds")


# ------------------------------------------------------------------ 11

QMLP_DESK_SPACE = SearchSpace({
    "hidden_size": ParamSpec("int", 32, 128),
    "n_layers": ParamSpec("int", 2, 3),
    "dropout_rate": ParamSpec("float", 0.0, 0.2),
    "learning_rate": ParamSpec("float", 3e-4, 1e-2, log=True),
    "batch_size": ParamSpec("int", 64, 256),
})


def test_criterion_11_asymmetric_generalization():
    end = START + dt.timedelta(days=30)
    bounds = SplitBoundaries(START + dt.timedelta(days=18),
                             START + dt.timedelta(days=24), end)
    cfg_a = SynthConfig(seed=101, liquidity=2.0, volatility=5.0,
                        session_hours=8.0, half_spread=8.0)
    cfg_b = SynthConfig(seed=202, liquidity=20.0, volatility=5.0,
                        session_hours=8.0, half_spread=8.0)
    A, B = make_domain_pair(cfg_a, cfg_b, SPEC60, START, end, bounds)

    c_liquid_to_sparse = trade_count_ratio(A, B)
    c_sparse_to_liquid = trade_count_ratio(B, A)
    assert 8.5 <= c_liquid_to_sparse <= 11.5
    assert 1 / 11.5 <= c_sparse_to_liquid <= 1 / 8.5

    # at 432 training rows, penalties weaker than ~3e-2 per sample cannot
    # regularize 384 features, so the grid starts inside the sparse zone
    grid = np.logspace(np.log10(3e-2), 0, 6)
    solver = SolverConfig(max_iter=3000)
    points = run_pair(A, B, "qmlp", budget=10, seeds=[0, 1, 2], quantiles=Q3,
                      strategies=("B->A",), space=QMLP_DESK_SPACE,
                      base_config={"max_epochs": 60, "patience": 8},
                      alpha_grid=grid, solver_cfg=solver,
                      feature_mode="top5").points
    by_c = {round(p["trade_count_ratio"], 3): p["loss_ratio"] for p in points}
    l_from_liquid = points[0]["loss_ratio"]   # C ~ 10
    l_from_sparse = points[1]["loss_ratio"]   # C ~ 0.1
    assert l_from_liquid <= 1.25, by_c
    assert l_from_sparse > l_from_liquid, by_c
    _pass(11, f"C={c_liquid_to_sparse:.2f}: L(liquid->sparse)="
              f"{l_from_liquid:.3f} <= 1.25 < L(sparse->liquid)="
              f"{l_from_sparse:.3f}")


# ------------------------------------------------------------------ 12

def test_criterion_12_transfer_strategy_identity():
    end = START + dt.timedelta(days=10)
    bounds = SplitBoundaries(START + dt.timedelta(days=6),
                             START + dt.timedelta(days=8), end)
    grid = default_alpha_grid(5)
    solver = SolverConfig(max_iter=400, stages=2)

    def fresh(name):
        cfg = SynthConfig(seed=31, liquidity=15.0, session_hours=8.0)
        data = generate(cfg, SPEC60, START, end)
        samples, _ = build_samples(data.trades, SPEC60, START, end)
        return domain_from_split(name, split_dataset(samples, bounds))

    for family, base_cfg, tol in (
        ("qknn", None, 0.0),
        ("qmlp", {"max_epochs": 20, "patience": 5}, 1e-6),
    ):
        A, B = fresh("A"), fresh("B")
        base = run_strategy("A->A", A, B, family, 2, 0, Q3,
                            base_config=base_cfg, alpha_grid=grid,
                            solver_cfg=solver)
        assert base.loss_ratio == 1.0
        mirrored = run_strategy("B->A", A, B, family, 2, 0, Q3,
                                base_config=base_cfg, alpha_grid=grid,
                                solver_cfg=solver,
                                baseline_aql=base.metrics.aql)
        for field in ("aql", "aqcr", "rmse", "mae", "r2"):
            diff = abs(getattr(mirrored.metrics, field)
                       - getattr(base.metrics, field))
            assert diff <= tol, (family, field, diff)
        if tol == 0.0:
            assert mirrored.metrics == base.metrics
    _pass(12, "A->A loss ratio is exactly 1; B->A with B=A reproduces the "
              "report (QKNN bit-exact, QMLP within 1e-6)")


# ------------------------------------------------------------------ 13

PIPELINE_CFG = {
    "seed": 0,
    "seeds": [0, 1],
    "market": "DE",
    "product_type": "60min",
    "horizon_start": "2024-03-01T00:00:00",
    "horizon_end": "2024-03-08T00:00:00",
    "train_end": "2024-03-05T00:00:00",
    "val_end": "2024-03-06T00:00:00",
    "test_end": "2024-03-08T00:00:00",
    "synth": {"liquidity": 15.0, "session_hours": 8.0},
    "selector": {"alpha_grid_size": 5, "max_iter": 300, "stages": 2},
    "model": {"family": "qmlp", "search_budget": 2, "feature_set": "full",
              "config": {"max_epochs": 15, "patience": 5}},
    "transfer": {
        "model_family": "qknn",
        "model_config": {},
        "budget": 2,
        "seeds": [0],
        "strategies": ["A->A", "B->A", "A+B->A"],
        "domain_a": {"name": "A", "synth": {"liquidity": 10.0}},
        "domain_b": {"name": "B", "synth": {"liquidity": 25.0}},
    },
}


def _run_pipeline(workspace, cfg_path):
    for command in ("synth", "extract", "select", "train", "evaluate",
                    "transfer"):
        rc = cli.main([command, "--config", str(cfg_path)])
        assert rc == 0, f"{command} exited {rc}"


def _snapshot(workspace):
    # trials logs carry wall-clock durations and are the one declared
    # exception to byte-identical reruns
    out = {}
    for path in sorted(workspace.rglob("*")):
        if path.is_file() and path.suffix in (".csv", ".json"):
            out[str(path.relative_to(workspace))] = path.read_bytes()
    return out


def test_criterion_13_end_to_end_determinism(tmp_path):
    cfg = json.loads(json.dumps(PIPELINE_CFG))
    workspace = tmp_path / "ws"
    cfg["workspace"] = str(workspace)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    _run_pipeline(workspace, cfg_path)
    first = _snapshot(workspace)
    assert len(first) >= 8  # trades meta, features, drops, selection, metrics, transfer
    _run_pipeline(workspace, cfg_path)
    second = _snapshot(workspace)

    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed between runs"
    _pass(13, f"two pipeline runs produced byte-identical CSV/JSON outputs "
              f"({len(first)} files)")
