import numpy as np
import pytest

from bookcast.metrics import pinball
from bookcast.models import (LQRModel, QGBTModel, QKNNModel, QMLPModel,
                             load_checkpoint, make_model, qgbt, save_checkpoint)
from bookcast.selection import SolverConfig
from bookcast.util import pinball_quantile, rng_for
from oracles import (brute_knn_quantiles, brute_qgbt_node_gains,
                     per_row_knn_predict, pinball_optimal_intercept,
                     reference_qgbt_fit, reference_qmlp_fit,
                     weighted_quantile_geq)

Q3 = (0.1, 0.5, 0.9)


# ---------------------------------------------------------------- pinball

def test_pinball_values():
    assert pinball(10.0, 6.0, 0.5) == 2.0
    assert pinball(10.0, 6.0, 0.9) == pytest.approx(3.6)
    assert pinball(6.0, 10.0, 0.9) == pytest.approx(0.4)
    assert pinball(7.0, 7.0, 0.3) == 0.0


def test_pinball_median_is_half_abs():
    rng = np.random.default_rng(0)
    y = rng.normal(size=1000)
    yhat = rng.normal(size=1000)
    assert np.allclose(pinball(y, yhat, 0.5), 0.5 * np.abs(y - yhat), atol=0, rtol=0)


def test_pinball_rejects_bad_tau():
    with pytest.raises(ValueError):
        pinball(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        pinball(1.0, 0.0, 1.0)


# ---------------------------------------------------------------- contract

def test_quantiles_must_ascend():
    with pytest.raises(ValueError):
        QKNNModel((0.9, 0.1), n_neighbors=1)
    with pytest.raises(ValueError):
        QKNNModel((0.5, 0.5), n_neighbors=1)


def test_make_model_rejects_unknown_family():
    with pytest.raises(ValueError):
        make_model("mystery", Q3)


def test_prediction_shapes_all_families():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    for family, cfg in (("lqr", {}), ("qknn", {"n_neighbors": 5}),
                        ("qgbt", {"n_estimators": 5, "max_depth": 2}),
                        ("qmlp", {"hidden_size": 8, "max_epochs": 3})):
        model = make_model(family, Q3, seed=0, **cfg)
        model.fit(X, y)
        out = model.predict(X[:7])
        assert out.shape == (7, 3), family


# ---------------------------------------------------------------- LQR

def test_lqr_exact_linear():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 1))
    y = 3.0 * X[:, 0]
    m = LQRModel(Q3, l1_weight=0.0)
    m.fit(X, y)
    pred = m.predict(X)
    for j, tau in enumerate(Q3):
        assert float(np.sum(pinball(y, pred[:, j], tau))) < 1e-4


def test_lqr_intercept_only_quantiles():
    rng = np.random.default_rng(3)
    y = rng.normal(size=31)
    m = LQRModel(Q3, l1_weight=0.0)
    m.fit(np.empty((31, 0)), y)
    pred = m.predict(np.empty((4, 0)))
    for j, tau in enumerate(Q3):
        assert np.all(pred[:, j] == pinball_quantile(y, tau))


def test_lqr_solver_from_a_mapping_of_its_fields():
    # a config file can give the solver only as a mapping; YAML reads an
    # exponent without a dot, such as 1e-3, as text
    m = LQRModel(Q3, solver={"kappa": "1e-3", "stages": 1})
    assert m.solver == SolverConfig(kappa=1e-3, stages=1)
    assert LQRModel(Q3, solver=m.solver).solver is m.solver
    assert LQRModel(Q3).solver == SolverConfig()
    with pytest.raises(TypeError, match="bogus"):
        LQRModel(Q3, solver={"bogus": 1})


# ---------------------------------------------------------------- QKNN

def test_qknn_uniform_median_of_neighbors():
    X = np.array([[0.0], [0.1], [0.2], [5.0], [6.0]])
    y = np.array([1.0, 2.0, 9.0, 100.0, 200.0])
    m = QKNNModel((0.5,), n_neighbors=3)
    m.fit(X, y)
    assert m.predict(np.array([[0.05]]))[0, 0] == 2.0


def test_qknn_k_equals_n_gives_global_quantile():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    m = QKNNModel((0.5,), n_neighbors=20)
    m.fit(X, y)
    out = m.predict(rng.normal(size=(5, 2)))
    assert np.allclose(out, np.quantile(y, 0.5))


def test_qknn_distance_weighting_zero_distance_dominates():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([10.0, 20.0, 30.0])
    m = QKNNModel(Q3, n_neighbors=3, weights="distance")
    m.fit(X, y)
    out = m.predict(np.array([[0.0]]))
    assert np.allclose(out, 10.0)


def test_qknn_fit_rejects_k_above_n():
    m = QKNNModel((0.5,), n_neighbors=10)
    with pytest.raises(ValueError):
        m.fit(np.zeros((5, 2)), np.zeros(5))


def test_qknn_uniform_oracle_200_queries():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 4))
    y = rng.normal(size=150) * 30
    for metric in ("euclidean", "manhattan"):
        m = QKNNModel(Q3, n_neighbors=9, metric=metric)
        m.fit(X, y)
        queries = rng.normal(size=(100, 4))
        pred = m.predict(queries)
        for i in range(100):
            expected = brute_knn_quantiles(X, y, queries[i], 9, list(Q3), metric)
            assert np.array_equal(pred[i], expected)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("weights", ["uniform", "distance"])
def test_qknn_predict_matches_per_row_oracle_bit_for_bit(metric, weights):
    rng = np.random.default_rng(11)
    for case in range(60):
        n, d, m = int(rng.integers(1, 40)), int(rng.integers(1, 8)), int(rng.integers(1, 50))
        if case % 2:  # integer grids tie distances and targets
            X = rng.integers(0, 3, size=(n, d)).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            queries = rng.integers(0, 3, size=(m, d)).astype(float)
        else:
            X, y, queries = rng.normal(size=(n, d)), rng.normal(size=n), rng.normal(size=(m, d))
        queries[: m // 3] = X[rng.integers(0, n, size=m // 3)]  # zero distances
        queries = np.asfortranarray(queries)  # as column indexing leaves them
        k = n if case % 3 == 0 else int(rng.integers(1, n + 1))
        taus = Q3 if case % 4 else (0.05, 0.25, 0.5, 0.75, 0.95)
        model = QKNNModel(taus, n_neighbors=k, metric=metric, weights=weights)
        model.fit(X, y)
        expected = per_row_knn_predict(X, y, queries, k, taus, metric, weights)
        assert model.predict(queries).tobytes() == expected.tobytes(), case
    # several predict chunks: manhattan keeps (rows, n_train, d) per chunk
    X, y = rng.normal(size=(60, 50)), rng.integers(0, 5, size=60).astype(float)
    queries = np.asfortranarray(rng.normal(size=(200, 50)))
    model = QKNNModel(Q3, n_neighbors=7, metric=metric, weights=weights)
    model.fit(X, y)
    expected = per_row_knn_predict(X, y, queries, 7, Q3, metric, weights)
    assert model.predict(queries).tobytes() == expected.tobytes()


def test_qknn_weighted_quantile_definition():
    vals = np.array([1.0, 2.0, 3.0])
    w = np.array([1.0, 1.0, 2.0])
    # cumulative normalized weights: 0.25, 0.5, 1.0
    assert weighted_quantile_geq(vals, w, 0.5) == 2.0
    assert weighted_quantile_geq(vals, w, 0.51) == 3.0
    assert weighted_quantile_geq(vals, w, 0.25) == 1.0


# ---------------------------------------------------------------- QGBT

def test_qgbt_constant_target():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 3))
    y = np.full(60, 42.0)
    m = QGBTModel(Q3, n_estimators=3, max_depth=3)
    report = m.fit(X, y)
    assert np.allclose(m.predict(X), 42.0)
    assert report.loss_trace[-1] == 0.0


def test_qgbt_root_only_predicts_global_quantile():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 4))
    y = rng.normal(size=80) * 10
    m = QGBTModel(Q3, n_estimators=1, max_depth=0, learning_rate=1.0)
    m.fit(X, y)
    out = m.predict(X[:5])
    for j, tau in enumerate(Q3):
        assert np.allclose(out[:, j], pinball_quantile(y, tau))


def test_qgbt_monotone_training_loss():
    rng = np.random.default_rng(8)
    for trial in range(3):
        X = rng.normal(size=(150, 5))
        y = X[:, 0] * 5 + np.sin(X[:, 1]) + rng.normal(size=150)
        m = QGBTModel(Q3, seed=trial, n_estimators=60, max_depth=3,
                      learning_rate=1.0, subsample=1.0, colsample_by_tree=1.0)
        report = m.fit(X, y)
        diffs = np.diff(np.array(report.loss_trace))
        assert np.all(diffs <= 1e-12)


def test_qgbt_deterministic_under_subsampling():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 6))
    y = rng.normal(size=100)
    cfg = dict(n_estimators=15, max_depth=3, subsample=0.6, colsample_by_tree=0.5)
    a = QGBTModel(Q3, seed=11, **cfg)
    a.fit(X, y)
    b = QGBTModel(Q3, seed=11, **cfg)
    b.fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))


def test_qgbt_config_validation():
    with pytest.raises(ValueError):
        QGBTModel(Q3, n_estimators=0)
    with pytest.raises(ValueError):
        QGBTModel(Q3, max_depth=-1)
    with pytest.raises(ValueError):
        QGBTModel(Q3, subsample=0.0)


def test_qgbt_bins_beyond_int16():
    # 40000 distinct values need bin indices above 32767
    X = np.arange(40000.0)[:, None]
    m = QGBTModel((0.875,), n_estimators=1, max_depth=1, learning_rate=1.0,
                  max_bins=40000)
    m.fit(X, X[:, 0])
    # the 0.875-quantile of y is 34999, so the pure split of the residual
    # signs sends x <= 34998 left
    tree = m._tree(0)
    assert tree.feature[0] == 0
    assert 34998.0 <= tree.threshold[0] < 34999.0


def test_qgbt_regularization_shrinks_leaves():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(100, 3))
    y = X[:, 0] * 10 + rng.normal(size=100)
    plain = QGBTModel((0.5,), n_estimators=1, max_depth=2, learning_rate=1.0)
    plain.fit(X, y)
    heavy = QGBTModel((0.5,), n_estimators=1, max_depth=2, learning_rate=1.0,
                      reg_lambda=1e6)
    heavy.fit(X, y)
    base = pinball_quantile(y, 0.5)
    assert np.abs(heavy.predict(X) - base).max() < np.abs(plain.predict(X) - base).max()


def _check_qgbt_tree(model, tree, X, residual, grad, rows, feats, tau):
    """Compare every node of one fitted tree with the plain-loop oracle."""
    node_rows = {0: list(rows)}
    depth = {0: 0}
    order = [0]
    for node in order:
        r = node_rows[node]
        cands, squares = brute_qgbt_node_gains(X, grad, r, feats, model.max_bins)
        tol = 1e-12 * squares
        best = max((c[0] for c in cands), default=-np.inf)
        f = int(tree.feature[node])
        if f < 0:
            assert (depth[node] >= model.max_depth or len(r) < 2
                    or best <= 1e-12 + tol), (node, best)
            q = pinball_optimal_intercept(residual[r], tau)
            q = float(np.sign(q)) * max(abs(q) - model.reg_alpha, 0.0)
            want = q * (len(r) / (len(r) + model.reg_lambda)) * model.learning_rate
            assert tree.value[node] == pytest.approx(want, rel=1e-12, abs=0)
            continue
        assert depth[node] < model.max_depth and best > 1e-12 - tol
        # ties go to the lowest feature, then the lowest threshold
        first = next(c for c in cands if c[0] >= best - tol)
        assert (f, float(tree.threshold[node])) == first[1:], (node, first)
        left = [i for i in r if X[i, f] <= tree.threshold[node]]
        right = [i for i in r if X[i, f] > tree.threshold[node]]
        for child, child_rows in ((tree.left[node], left), (tree.right[node], right)):
            node_rows[int(child)] = child_rows
            depth[int(child)] = depth[node] + 1
            order.append(int(child))
    assert sorted(order) == list(range(tree.feature.size))


@pytest.mark.parametrize("cfg", [
    {"n_estimators": 3, "max_depth": 3},
    {"n_estimators": 3, "max_depth": 3, "subsample": 0.6},
    {"n_estimators": 3, "max_depth": 2, "colsample_by_tree": 0.5},
    {"n_estimators": 3, "max_depth": 3, "max_bins": 4,
     "reg_alpha": 0.05, "reg_lambda": 3.0},
    {"n_estimators": 2, "max_depth": 0},
])
def test_qgbt_splits_match_plain_loop_oracle(cfg):
    rng = np.random.default_rng(12)
    n, d = 48, 4
    X = rng.normal(size=(n, d))
    X[:, 2] = 0.7                      # constant column: never splittable
    X[:, 3] = np.round(X[:, 3])        # few distinct values: tied bins
    y = 4.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + X[:, 3] + rng.normal(size=n)
    seed = 5
    model = QGBTModel(Q3, seed=seed, learning_rate=0.3, **cfg)
    model.fit(X, y)
    n_sub = max(1, int(round(model.subsample * n)))
    n_feat = max(1, int(round(model.colsample_by_tree * d)))
    for qi, tau in enumerate(Q3):
        # replay the fit's row and feature draws and its residuals
        draw = rng_for(seed, qi)
        pred = np.full(n, model.state()[1]["base"][qi])
        for m in range(model.n_estimators):
            tree = model._tree(qi * model.n_estimators + m)
            rows = (np.arange(n) if n_sub == n
                    else np.sort(draw.choice(n, size=n_sub, replace=False)))
            feats = (np.arange(d) if n_feat == d
                     else np.sort(draw.choice(d, size=n_feat, replace=False)))
            residual = y - pred
            grad = np.where(residual >= 0, tau, tau - 1.0)
            _check_qgbt_tree(model, tree, X, residual, grad, rows, feats, tau)
            pred += tree.apply(X)


def _qgbt_fuzz_data(case, n):
    """n rows of six columns: three continuous, one constant, one rounded
    to a few values and one duplicating column 0; plus 20 new rows, some
    outside the training range."""
    rng = np.random.default_rng(300 + case)
    X = rng.normal(size=(n, 6))
    X[:, 1] *= rng.exponential(size=n)        # heavy tails
    X[:, 3] = -1.25                            # constant
    X[:, 4] = np.round(2.0 * X[:, 4]) / 2.0    # few distinct values
    X[:, 5] = X[:, 0]                          # duplicated column
    y = 3.0 * X[:, 0] + np.sin(2.0 * X[:, 1]) + X[:, 4] + rng.normal(size=n)
    X_new = np.vstack([X[:10], 3.0 * rng.normal(size=(20, 6))])
    return X, y, X_new


@pytest.mark.parametrize("case,n,cfg", [
    (0, 40, {"n_estimators": 4, "max_depth": 3}),
    (1, 300, {"n_estimators": 4, "max_depth": 5, "max_bins": 16, "subsample": 0.7}),
    (2, 120, {"n_estimators": 5, "max_depth": 2, "max_bins": 4,
              "colsample_by_tree": 0.5}),
    (3, 90, {"n_estimators": 3, "max_depth": 4, "max_bins": 40000}),
    (4, 500, {"n_estimators": 4, "max_depth": 1, "subsample": 0.5,
              "colsample_by_tree": 0.6, "reg_alpha": 0.05, "reg_lambda": 2.0}),
    (5, 60, {"n_estimators": 2, "max_depth": 0}),
    (6, 200, {"n_estimators": 3, "max_depth": 4, "max_bins": 16,
              "colsample_by_tree": 0.4, "learning_rate": 0.5}),
    (7, 12, {"n_estimators": 3, "max_depth": 5, "max_bins": 4, "subsample": 0.8}),
    (8, 700, {"n_estimators": 2, "max_depth": 5, "subsample": 0.9,
              "colsample_by_tree": 0.8}),
])
def test_qgbt_fit_matches_reference_bit_for_bit(case, n, cfg, monkeypatch):
    """Histograms over occupied bins and flat scatter-adds grow the same
    trees, bit for bit, as full-width histograms with 2-D scatter-adds; and
    a histogram is no wider than a feature can occupy, so 40 rows binned
    with max_bins=256 (case 0) search at most 40 bins per feature."""
    widths = []

    class Recording(qgbt._SplitSearch):
        def __init__(self, n_rows, n_feats, width):
            widths.append(width)
            super().__init__(n_rows, n_feats, width)

    monkeypatch.setattr(qgbt, "_SplitSearch", Recording)
    X, y, X_new = _qgbt_fuzz_data(case, n)
    model = QGBTModel(Q3, seed=case, **cfg)
    report = model.fit(X, y)
    assert widths and max(widths) <= min(n, model.max_bins)
    arrays, loss_trace, predictions = reference_qgbt_fit(Q3, case, X, y, X_new, **cfg)
    got = model.state()[1]
    assert list(got) == list(arrays)
    for name, want in arrays.items():
        assert got[name].dtype == want.dtype, name
        assert got[name].tobytes() == want.tobytes(), name
    assert report.loss_trace == loss_trace
    assert model.predict(X_new).tobytes() == predictions.tobytes()


# ---------------------------------------------------------------- QMLP

def test_qmlp_output_dimensionality():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    m = QMLPModel((0.25, 0.75), hidden_size=8, n_layers=2, max_epochs=2)
    m.fit(X, y)
    assert m.predict(X[:3]).shape == (3, 2)


def test_qmlp_constant_target_converges():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(64, 3))
    y = np.full(64, 5.0)
    m = QMLPModel(Q3, seed=0, hidden_size=16, n_layers=2, learning_rate=2e-2,
                  lr_decay=0.005, batch_size=64, max_epochs=3000, patience=3000)
    m.fit(X, y, X, y)
    assert np.abs(m.predict(X) - 5.0).max() < 1e-2


def test_qmlp_gradient_check_finite_differences():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    m = QMLPModel(Q3, seed=5, hidden_size=6, n_layers=2)
    m._init_params(4)
    loss, grads = m.loss_and_grads(X, y)
    h = 1e-6
    for p, g in zip(m.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = m.loss_and_grads(X, y)
            p[idx] = orig - h
            lm, _ = m.loss_and_grads(X, y)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[idx]))
            if denom > 1e-10:
                assert abs(fd - g[idx]) / denom < 1e-4


def test_qmlp_loss_and_grads_returns_fresh_arrays():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    m = QMLPModel(Q3, seed=5, hidden_size=6, n_layers=2)
    m._init_params(4)
    _, first = m.loss_and_grads(X, y)
    kept = [g.copy() for g in first]
    _, second = m.loss_and_grads(-X, y + 1.0)
    for g, k in zip(first, kept):
        assert np.array_equal(g, k)
        assert not any(np.shares_memory(g, p) for p in second + m.parameters())


def test_qmlp_early_stopping_restores_best():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(100, 3))
    y = X[:, 0] + rng.normal(size=100) * 0.1
    m = QMLPModel(Q3, seed=1, hidden_size=16, n_layers=2, learning_rate=5e-3,
                  batch_size=32, max_epochs=200, patience=5)
    report = m.fit(X[:70], y[:70], X[70:], y[70:])
    assert report.early_stop_epoch <= len(report.val_aql_trace)
    assert len(report.val_aql_trace) < 200  # stopped early
    best = min(report.val_aql_trace)
    from bookcast.metrics import aql
    assert aql(y[70:], m.predict(X[70:]), Q3) == pytest.approx(best, rel=1e-12)


def test_qmlp_deterministic():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    cfg = dict(hidden_size=12, n_layers=2, dropout_rate=0.2, learning_rate=1e-3,
               batch_size=16, max_epochs=10)
    a = QMLPModel(Q3, seed=9, **cfg)
    a.fit(X, y)
    b = QMLPModel(Q3, seed=9, **cfg)
    b.fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))


def _qmlp_cases():
    """Fuzzed configurations: dropout, lr_decay, batch below and above n,
    early stops, runs without a validation set, and networks whose largest
    layer spans several Adam blocks (380 x 3, 520 x 2)."""
    rng = np.random.default_rng(31)
    for case in range(24):
        n, d = int(rng.integers(5, 60)), int(rng.integers(1, 10))
        cfg = dict(hidden_size=int(rng.integers(1, 24)), n_layers=int(rng.integers(1, 4)),
                   dropout_rate=float(rng.choice([0.0, 0.25])),
                   learning_rate=float(rng.choice([1e-3, 3e-2])),
                   batch_size=int(rng.integers(1, 70)), max_epochs=int(rng.integers(1, 15)),
                   patience=int(rng.integers(1, 4)), lr_decay=float(rng.choice([0.0, 0.2])))
        yield case, n, d, cfg, case % 4 != 0
    for case, (hidden, layers, d) in enumerate([(190, 2, 40), (128, 3, 60),
                                                 (380, 3, 8), (520, 2, 8)], start=24):
        yield case, 50, d, dict(hidden_size=hidden, n_layers=layers, dropout_rate=0.2,
                                learning_rate=1e-2, batch_size=16, max_epochs=4,
                                patience=1, lr_decay=0.1), True


@pytest.mark.parametrize("case,n,d,cfg,with_val", list(_qmlp_cases()))
def test_qmlp_fit_matches_per_tensor_adam_bit_for_bit(case, n, d, cfg, with_val):
    rng = np.random.default_rng(case)
    X = rng.normal(size=(n, d))
    y = X[:, 0] + rng.normal(size=n)
    X_val, y_val = (rng.normal(size=(9, d)), rng.normal(size=9)) if with_val else (None, None)
    model = QMLPModel(Q3, seed=case, **cfg)
    report = model.fit(X, y, X_val, y_val)
    weights, biases, loss_trace, val_trace, best_epoch = reference_qmlp_fit(
        Q3, case, X, y, X_val, y_val, **cfg)
    arrays = model.state()[1]
    for i, (w, b) in enumerate(zip(weights, biases)):
        assert arrays[f"W{i}"].tobytes() == w.tobytes()
        assert arrays[f"b{i}"].tobytes() == b.tobytes()
    assert report.loss_trace == loss_trace
    assert report.val_aql_trace == val_trace
    assert report.early_stop_epoch == best_epoch


def test_qmlp_fit_peak_memory_is_few_parameter_vectors():
    """Parameters, both Adam moments and the best-epoch snapshot are one flat
    vector each, and the gradients are written a layer at a time into one
    buffer sized to the largest layer (W then b), which Adam consumes during
    backprop; nothing parameter-sized is allocated per step."""
    import tracemalloc
    rng = np.random.default_rng(16)
    X = rng.normal(size=(100, 50))
    y = rng.normal(size=100)
    model = QMLPModel(Q3, seed=0, hidden_size=600, n_layers=4, max_epochs=3)
    tracemalloc.start()
    try:
        model.fit(X, y, X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.nbytes for p in model.parameters())
    assert peak < 5 * param_bytes


def test_qmlp_aborts_on_divergence():
    X = np.full((20, 2), 1e308)  # overflows the first matmul into inf/nan
    y = np.ones(20)
    m = QMLPModel(Q3, hidden_size=8, learning_rate=1e-1, max_epochs=50)
    with pytest.raises(RuntimeError, match="non-finite"):
        m.fit(X, y)


# ---------------------------------------------------------------- checkpoints

@pytest.mark.parametrize("family,cfg", [
    ("lqr", {"l1_weight": 0.01}),
    ("qknn", {"n_neighbors": 4, "weights": "distance"}),
    ("qgbt", {"n_estimators": 8, "max_depth": 3, "subsample": 0.8}),
    ("qmlp", {"hidden_size": 8, "n_layers": 2, "max_epochs": 5}),
])
def test_checkpoint_round_trip_bit_exact(tmp_path, family, cfg):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = make_model(family, Q3, seed=3, **cfg)
    model.fit(X, y)
    queries = rng.normal(size=(11, 3))
    expected = model.predict(queries)
    path = tmp_path / f"{family}.npz"
    prep = {"feature_names": ["a", "b", "c"], "mean": np.zeros(3), "scale": np.ones(3)}
    save_checkpoint(path, model, prep=prep)
    loaded, loaded_prep = load_checkpoint(path)
    assert type(loaded) is type(model)
    assert loaded.quantiles == model.quantiles
    assert loaded_prep["feature_names"] == ["a", "b", "c"]
    got = loaded.predict(queries)
    assert np.array_equal(got, expected)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises((ValueError, KeyError)):
        load_checkpoint(path)


@pytest.mark.parametrize("family,cfg,extra_meta", [
    ("qgbt", {"n_estimators": 4, "max_depth": 2, "subsample": 0.8},
     {"trees_per_tau": [4, 4, 4]}),
    ("qmlp", {"hidden_size": 8, "n_layers": 2, "max_epochs": 5}, {"n_layers_total": 3}),
])
def test_checkpoint_with_derivable_meta_keys_loads(tmp_path, family, cfg, extra_meta):
    """Checkpoints once carried meta keys that the config implies; such a
    file still loads and predicts bit for bit."""
    rng = np.random.default_rng(19)
    X, y, queries = rng.normal(size=(40, 3)), rng.normal(size=40), rng.normal(size=(7, 3))
    model = make_model(family, Q3, seed=2, **cfg)
    model.fit(X, y)
    path = tmp_path / "old.npz"
    save_checkpoint(path, model, extra_meta=extra_meta)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.predict(queries), model.predict(queries))


@pytest.mark.parametrize("family,cfg", [
    ("lqr", {}), ("qknn", {"n_neighbors": 3}), ("qgbt", {"n_estimators": 2}),
    ("qmlp", {"hidden_size": 4, "n_layers": 2, "max_epochs": 1}),
])
def test_checkpoint_missing_an_array_names_it(tmp_path, family, cfg):
    rng = np.random.default_rng(20)
    model = make_model(family, Q3, seed=0, **cfg)
    model.fit(rng.normal(size=(12, 2)), rng.normal(size=12))
    path = tmp_path / "partial.npz"
    save_checkpoint(path, model)
    dropped = model.array_names[-1]
    with np.load(path) as data:
        kept = {k: data[k] for k in data.files if k != dropped}
    np.savez(path, **kept)
    with pytest.raises(ValueError, match=f"lacks parameter arrays \\['{dropped}'\\]"):
        load_checkpoint(path)


# ---------------------------------------------------------------- shared contract

# checkpoint array names, in order: bench/tracer.py reads qgbt's "feature",
# and files written before must keep loading
ARRAY_NAMES = {
    "lqr": ["beta", "intercept"],
    "qknn": ["X", "y"],
    "qgbt": ["base", "feature", "threshold", "left", "right", "value", "tree_start"],
    "qmlp": ["W0", "b0", "W1", "b1", "W2", "b2"],
}

SMALL_CFGS = [
    ("lqr", {"l1_weight": 0.01}),
    ("qknn", {"n_neighbors": 4, "weights": "distance"}),
    ("qgbt", {"n_estimators": 4, "max_depth": 2, "subsample": 0.8}),
    ("qmlp", {"hidden_size": 8, "n_layers": 2, "max_epochs": 5}),
]


def test_families_inherit_the_contract():
    from bookcast.models import FAMILIES, QuantileModel
    for cls in FAMILIES.values():
        for name in ("fit", "predict", "state"):
            assert getattr(cls, name) is getattr(QuantileModel, name), (cls, name)
        assert cls.from_state.__func__ is QuantileModel.from_state.__func__, cls
        # a fitted model is its checkpoint arrays: no per-family translation
        assert not any(hasattr(cls, hook) for hook in ("_state", "_restore")), cls


@pytest.mark.parametrize("family,cfg", SMALL_CFGS)
def test_unfitted_model_refuses_predict_and_state(family, cfg):
    model = make_model(family, Q3, seed=0, **cfg)
    with pytest.raises(RuntimeError, match="model is not fitted"):
        model.predict(np.zeros((2, 3)))
    with pytest.raises(RuntimeError, match="model is not fitted"):
        model.state()


def test_qmlp_diverged_fit_leaves_model_unfitted():
    X = np.full((20, 2), 1e308)
    y = np.ones(20)
    m = QMLPModel(Q3, hidden_size=8, learning_rate=1e-1, max_epochs=50)
    with pytest.raises(RuntimeError, match="non-finite"):
        m.fit(X, y)
    with pytest.raises(RuntimeError, match="model is not fitted"):
        m.predict(np.zeros((3, 2)))
    # a failed refit also discards the earlier fit's weights
    m.fit(np.ones((20, 2)), y)
    assert m.predict(np.zeros((3, 2))).shape == (3, 3)
    with pytest.raises(RuntimeError, match="non-finite"):
        m.fit(X, y)
    with pytest.raises(RuntimeError, match="model is not fitted"):
        m.state()


@pytest.mark.parametrize("with_val", [False, True])
@pytest.mark.parametrize("family,cfg", SMALL_CFGS)
def test_state_survives_from_state(family, cfg, with_val):
    rng = np.random.default_rng(18)
    X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
    val = (rng.normal(size=(9, 3)), rng.normal(size=9)) if with_val else (None, None)
    model = make_model(family, Q3, seed=4, **cfg)
    model.fit(X, y, *val)
    meta, arrays = model.state()
    assert meta["family"] == family and meta["config"] == model.config()
    assert list(arrays) == ARRAY_NAMES[family]
    meta2, arrays2 = type(model).from_state(meta, arrays).state()
    assert meta2 == meta
    assert list(arrays2) == list(arrays)
    for key, a in arrays.items():
        b = arrays2[key]
        assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), key
