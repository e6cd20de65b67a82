"""Independent checks of bookcast outputs.

Every check recomputes its expectation from first principles (plain loops,
a sort-and-quantile oracle, an exact LP) instead of comparing against a
stored copy of earlier output. Each returns a list of problem strings; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from pathlib import Path

import numpy as np

# the ID3 target window opens this long before delivery
LEAD_US = 180 * 60_000_000
WINDOWS_MIN = (1, 5, 15, 60, 180, None)  # None is the unbounded window
PERCENTILES = (10, 25, 45, 50, 55, 75, 90)
REL = 1e-9
EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
ONE_US = dt.timedelta(microseconds=1)


def close(a, b, rel=REL, abs_tol=1e-9):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def pinball_sum(y, yhat, tau):
    diff = np.asarray(y, dtype=float) - np.asarray(yhat, dtype=float)
    return float(np.sum(np.where(diff >= 0, tau * diff, (tau - 1.0) * diff)))


def own_aql(y, yhat, quantiles):
    y = np.asarray(y, dtype=float)
    total = sum(pinball_sum(y, yhat[:, j], tau) for j, tau in enumerate(quantiles))
    return total / (y.size * len(quantiles))


def pinball_optimal_constant(y, tau):
    """The constant minimizing summed pinball loss: order statistic ceil(tau*n)."""
    v = sorted(float(x) for x in y)
    k = min(max(math.ceil(tau * len(v)), 1), len(v))
    return v[k - 1]


def l1qr_objective(X, y, tau, alpha, beta, intercept):
    return (pinball_sum(y, X @ beta + intercept, tau)
            + alpha * float(np.sum(np.abs(beta))))


# ------------------------------------------------------------------ ingest

def _us(t):
    return (t - EPOCH) // ONE_US


def check_round_trip(written, parsed, rejected):
    """CSV write -> parse must give back the same trades, field for field."""
    problems = []
    if rejected:
        problems.append(f"parse rejected {len(rejected)} rows of valid trades")
    if len(written) != len(parsed):
        return problems + [f"round trip: wrote {len(written)} trades, parsed {len(parsed)}"]
    for i, (a, b) in enumerate(zip(written, parsed)):
        if (a.product_start != b.product_start or a.side != b.side
                or a.exec_time != b.exec_time or a.price != b.price
                or a.volume != b.volume):
            problems.append(f"round trip: trade {i} differs: {a} vs {b}")
            break
    return problems


def _interp_percentile(sorted_vals, pct):
    h = (len(sorted_vals) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def window_stats(rows):
    """The 32 statistics of one side's (exec_us, seq, price, volume) rows,
    keyed by feature family (and percentile), by plain loops."""
    rows = sorted(rows)
    prices = [r[2] for r in rows]
    vols = [r[3] for r in rows]
    n = len(rows)
    out = {}
    for fam, vals in (("price", prices), ("volume", vols)):
        srt = sorted(vals)
        for p in PERCENTILES:
            out[(f"{fam}_pctl", p)] = _interp_percentile(srt, p)
        mean = math.fsum(vals) / n
        out[(f"min_{fam}", None)] = srt[0]
        out[(f"max_{fam}", None)] = srt[-1]
        out[(f"first_{fam}", None)] = vals[0]
        out[(f"last_{fam}", None)] = vals[-1]
        out[(f"mean_{fam}", None)] = mean
        out[(f"{fam}_vol", None)] = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / n)
        out[(f"delta_{fam}", None)] = vals[-1] - vals[0]
    out[("sum_volume", None)] = math.fsum(vols)
    out[("trade_count", None)] = float(n)
    vwap = math.fsum(p * v for p, v in zip(prices, vols)) / math.fsum(vols)
    out[("vwap", None)] = vwap
    out[("momentum", None)] = 0.0 if abs(vwap) < 1e-9 else (prices[-1] - vwap) / vwap
    return out


def check_sample(sample, product_trades, delta_us, feature_names):
    """Plain-loop ID3 target and every per-window statistic of one sample,
    matched to the feature vector by feature name."""
    problems = []
    t_d = _us(sample.delivery_time)
    t_f = t_d - LEAD_US
    in_target = [(t.price, t.volume) for t in product_trades
                 if t_d - LEAD_US <= _us(t.exec_time) <= t_d - delta_us]
    if in_target:
        vwap = (sum(p * v for p, v in in_target) / sum(v for _, v in in_target))
        if sample.target_id3 is None or not close(sample.target_id3, vwap):
            problems.append(f"{sample.delivery_time}: target {sample.target_id3} != VWAP {vwap}")
    elif sample.target_id3 is not None:
        problems.append(f"{sample.delivery_time}: target set over an empty window")
    if sample.matched_trade_count != len(in_target):
        problems.append(f"{sample.delivery_time}: matched {sample.matched_trade_count} "
                        f"trades, window holds {len(in_target)}")

    pos = {name: i for i, name in enumerate(feature_names)}
    for side, label in (("+", "buy"), ("-", "sell")):
        rows = [(_us(t.exec_time), t.seq, t.price, t.volume)
                for t in product_trades if t.side == side and _us(t.exec_time) <= t_f]
        fallback = None
        for w in reversed(WINDOWS_MIN):  # longest first, so empties can borrow
            wl = "inf" if w is None else str(w)
            in_w = rows if w is None else [r for r in rows if r[0] > t_f - w * 60_000_000]
            stats = window_stats(in_w) if in_w else fallback
            fallback = stats
            for (fam, pct), want in stats.items():
                name = f"{fam}|{label}|{wl}" + ("" if pct is None else f"|{pct}")
                got = sample.features[pos[name]]
                if not close(got, want, rel=1e-9, abs_tol=1e-9):
                    problems.append(f"{sample.delivery_time} {name}: {got} != {want}")
    return problems


def check_build_report(report, n_products):
    problems = []
    if report.n_products != n_products:
        problems.append(f"n_products {report.n_products} != {n_products}")
    if report.n_built + report.n_discarded_features != report.n_products:
        problems.append(f"built {report.n_built} + dropped {report.n_discarded_features} "
                        f"!= {report.n_products} products")
    return problems


# ------------------------------------------------------------------ select

def highs_l1qr(X, y, tau, alpha):
    """Exact optimum of sum pinball_tau(y - X beta - b) + alpha |beta|_1,
    written as an LP over (beta+, beta-, b+, b-, u, v) >= 0 with
    y = X beta + b + u - v, and solved by HiGHS. Returns (optimum, beta)."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, d = X.shape
    c = np.concatenate([np.full(2 * d, alpha), [0.0, 0.0],
                        np.full(n, tau), np.full(n, 1.0 - tau)])
    Xs = sparse.csr_matrix(X)
    ones = sparse.csr_matrix(np.ones((n, 1)))
    eye = sparse.identity(n, format="csr")
    A = sparse.hstack([Xs, -Xs, ones, -ones, eye, -eye], format="csc")
    res = linprog(c, A_eq=A, b_eq=np.asarray(y, dtype=float), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    beta = res.x[:d] - res.x[d:2 * d]
    intercept = res.x[2 * d] - res.x[2 * d + 1]
    own = l1qr_objective(X, y, tau, alpha, beta, intercept)
    if not close(own, res.fun, rel=1e-6, abs_tol=1e-6):
        raise RuntimeError(f"HiGHS solution objective {own} disagrees with {res.fun}")
    return float(res.fun), beta


def fit_gap(fit, X, y, tau, alpha, optimum):
    """Relative gap of a returned L1-QR fit to the LP optimum, recomputed from
    its coefficients, plus problems when the fit misreports its objective."""
    own = l1qr_objective(X, y, tau, alpha, fit.beta, fit.intercept)
    problems = []
    if not close(fit.objective_trace[-1], own):
        problems.append(f"tau={tau} alpha={alpha:g}: reported objective "
                        f"{fit.objective_trace[-1]} but coefficients give {own}")
    return (own - optimum) / max(1.0, abs(optimum)), problems


def expected_alpha(fits, X_val, y_val, tau):
    """Validation-pinball argmin over the returned fits, ties to the larger alpha."""
    best, best_loss = None, math.inf
    for alpha in sorted(fits):
        fit = fits[alpha]
        loss = pinball_sum(y_val, X_val @ fit.beta + fit.intercept, tau) / len(y_val)
        if loss <= best_loss:
            best, best_loss = alpha, loss
    return best


# ------------------------------------------------------------------ models

def knn_oracle(X_train, y_train, X_rows, k, quantiles, weights):
    """Sort-and-quantile QKNN over manhattan distance, row by row."""
    out = np.empty((len(X_rows), len(quantiles)))
    for r, x in enumerate(X_rows):
        dist = [float(np.sum(np.abs(X_train[i] - x))) for i in range(len(X_train))]
        nearest = sorted(range(len(dist)), key=lambda i: (dist[i], i))[:k]
        ys = [float(y_train[i]) for i in nearest]
        if weights == "uniform":
            out[r] = [_interp_percentile(sorted(ys), 100.0 * t) for t in quantiles]
            continue
        w = [1.0 / (dist[i] + 1e-12) for i in nearest]
        pairs = sorted(zip(ys, w), key=lambda p: p[0])
        total = math.fsum(w)
        for j, tau in enumerate(quantiles):
            acc = 0.0
            for v, wi in pairs:
                acc += wi
                if acc / total >= tau:
                    break
            out[r, j] = v
    return out


def non_increasing(trace):
    return all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def check_lqr(X, y, quantiles, alpha, beta, intercept):
    """Each quantile's objective is no worse than the zero-coefficient start."""
    problems = []
    for j, tau in enumerate(quantiles):
        final = l1qr_objective(X, y, tau, alpha, beta[j], intercept[j])
        start = pinball_sum(y, np.full(len(y), pinball_optimal_constant(y, tau)), tau)
        if final > start * (1 + 1e-12):
            problems.append(f"lqr tau={tau}: objective {final} worse than start {start}")
    return problems


# ------------------------------------------------------------------ pipeline

def _only(paths, what):
    paths = list(paths)
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one {what}, found {len(paths)}")
    return paths[0]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_pipeline(ws, cfg, n_products, load_checkpoint):
    """Cross-check the artifacts one CLI chain left in workspace ``ws``.

    ``load_checkpoint`` is the program's loader: the metric recomputation
    starts from the checkpoints the chain wrote. Returns (problems, scatter
    rows as (target, source, C, L))."""
    ws = Path(ws)
    problems = []
    q = [float(t) for t in cfg["quantiles"]]

    drops = json.loads(_only(ws.glob("features/*/drop_report.json"), "drop report").read_text())
    if drops["n_products"] != n_products:
        problems.append(f"drop report: n_products {drops['n_products']} != {n_products}")
    if drops["n_built"] + drops["n_discarded_features"] != drops["n_products"]:
        problems.append(f"drop report: {drops['n_built']} built + "
                        f"{drops['n_discarded_features']} dropped != {drops['n_products']}")

    header, rows = read_csv(_only(ws.glob("features/*/features.csv"), "features.csv"))
    lo = dt.datetime.fromisoformat(cfg["val_end"]).replace(tzinfo=dt.timezone.utc)
    hi = dt.datetime.fromisoformat(cfg["test_end"]).replace(tzinfo=dt.timezone.utc)
    test = [r for r in rows if r[2] and
            lo <= dt.datetime.fromisoformat(r[0].replace("Z", "+00:00")) < hi]
    y_test = np.array([float(r[2]) for r in test])
    metrics = json.loads(_only(ws.glob("metrics/*/metrics.json"), "metrics.json").read_text())
    family = cfg["model"]["family"]
    for seed in cfg["seeds"]:
        model, prep = load_checkpoint(
            _only(ws.glob(f"models/*/{family}_seed{seed}.npz"), f"seed {seed} checkpoint"))
        cols = [header.index(name) for name in prep["feature_names"]]
        X = np.array([[float(r[c]) for c in cols] for r in test])
        pred = model.predict((X - prep["mean"]) / prep["scale"])
        want = own_aql(y_test, pred, q)
        got = metrics["per_seed"][str(seed)]["aql"]
        if not close(got, want):
            problems.append(f"metrics.json seed {seed}: AQL {got} != recomputed {want}")

    reports = json.loads(_only(ws.glob("transfer/*/reports.json"), "reports.json").read_text())
    if reports["loss_ratio"].get("A->A") != 1.0:
        problems.append(f"A->A loss ratio is {reports['loss_ratio'].get('A->A')}, not 1")
    mean_aql = {s: math.fsum(r["metrics"]["aql"] for r in runs) / len(runs)
                for s, runs in reports["runs"].items()}
    _, table = read_csv(_only(ws.glob("transfer/*/table.csv"), "table.csv"))
    for row in table:
        strategy, ratio = row[0], float(row[6])
        if not close(ratio, mean_aql[strategy] / mean_aql["A->A"], rel=1e-12):
            problems.append(f"table {strategy}: loss ratio {ratio} != "
                            f"{mean_aql[strategy] / mean_aql['A->A']} from reports.json")
    _, scatter = read_csv(_only(ws.glob("transfer/*/scatter.csv"), "scatter.csv"))
    points = [(r[0], r[1], float(r[2]), float(r[3])) for r in scatter]
    if len(points) != 2 or not close(points[0][2] * points[1][2], 1.0, rel=1e-12):
        problems.append(f"scatter trade-count ratios are not reciprocal: {points}")
    return problems, points
