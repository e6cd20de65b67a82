"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain loops over sorted copies, deliberately
avoiding the library's vectorized code paths.
"""

from __future__ import annotations

import math

import numpy as np

from bookcast.util import to_micros


def brute_id3(trades, t_d, delta_m):
    """Explicit-summation VWAP over the closed target window."""
    lo = t_d - __import__("datetime").timedelta(minutes=180)
    hi = t_d - delta_m
    pv = 0.0
    vol = 0.0
    n = 0
    for t in trades:
        if lo <= t.exec_time <= hi:
            pv += t.price * t.volume
            vol += t.volume
            n += 1
    return (pv / vol if n else None), n, vol


def brute_percentile(values, p):
    """Linear interpolation at rank 1 + p*(n-1) over the sorted values."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    rank = p * (n - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac


def brute_stats(trades):
    """All 32 per-(side, window) statistics by naive sort-and-scan."""
    rows = sorted(trades, key=lambda t: (to_micros(t.exec_time), t.seq))
    prices = [t.price for t in rows]
    volumes = [t.volume for t in rows]
    n = len(rows)
    mean_p = sum(prices) / n
    mean_v = sum(volumes) / n
    vwap = sum(p * v for p, v in zip(prices, volumes)) / sum(volumes)
    out = {
        "min_price": min(prices), "max_price": max(prices),
        "first_price": prices[0], "last_price": prices[-1],
        "mean_price": mean_p,
        "price_vol": math.sqrt(sum((p - mean_p) ** 2 for p in prices) / n),
        "delta_price": prices[-1] - prices[0],
        "min_volume": min(volumes), "max_volume": max(volumes),
        "first_volume": volumes[0], "last_volume": volumes[-1],
        "mean_volume": mean_v,
        "volume_vol": math.sqrt(sum((v - mean_v) ** 2 for v in volumes) / n),
        "delta_volume": volumes[-1] - volumes[0],
        "sum_volume": sum(volumes),
        "trade_count": n,
        "vwap": vwap,
        "momentum": 0.0 if abs(vwap) < 1e-9 else (prices[-1] - vwap) / vwap,
    }
    for p in (10, 25, 45, 50, 55, 75, 90):
        out[f"price_pctl|{p}"] = brute_percentile(prices, p / 100)
        out[f"volume_pctl|{p}"] = brute_percentile(volumes, p / 100)
    return out


def numpy_window_stats(prices, volumes):
    """The 32 statistics of one non-empty window, in the kernel's row order,
    by per-window numpy calls (np.quantile, mean, std, dot)."""
    levels = np.array([10, 25, 45, 50, 55, 75, 90], dtype=float) / 100.0
    p0 = float(prices[0])
    vwap = p0 + float(np.dot(prices - p0, volumes) / np.sum(volumes))
    momentum = 0.0 if abs(vwap) < 1e-9 else (float(prices[-1]) - vwap) / vwap
    return np.concatenate([
        np.quantile(prices, levels),
        [prices.min(), prices.max(), prices[0], prices[-1], prices.mean(),
         np.std(prices), prices[-1] - prices[0]],
        np.quantile(volumes, levels),
        [volumes.min(), volumes.max(), volumes[0], volumes[-1], volumes.mean(),
         np.std(volumes), volumes[-1] - volumes[0], volumes.sum(),
         float(prices.size), vwap, momentum],
    ])


def numpy_side_windows(times_us, prices, volumes, t_f_us):
    """One side's (6, 32) window statistics, one numpy_window_stats call per
    non-empty window; an empty window copies the next longer one."""
    rows = []
    for minutes in (1, 5, 15, 60, 180, None):
        start = 0 if minutes is None else int(np.searchsorted(
            times_us, t_f_us - minutes * 60_000_000, side="right"))
        rows.append(numpy_window_stats(prices[start:], volumes[start:])
                    if start < times_us.size else None)
    for i in range(len(rows) - 2, -1, -1):
        if rows[i] is None:
            rows[i] = rows[i + 1]
    return np.vstack(rows)


def brute_pinball(y, yhat, tau):
    if y >= yhat:
        return tau * (y - yhat)
    return (1 - tau) * (yhat - y)


def brute_objective(X, y, tau, alpha, beta, intercept):
    total = 0.0
    for i in range(len(y)):
        pred = intercept
        for j in range(X.shape[1]):
            pred += X[i, j] * beta[j]
        total += brute_pinball(y[i], pred, tau)
    return total + alpha * sum(abs(b) for b in beta)


def pinball_optimal_intercept(resid, tau):
    xs = np.sort(np.asarray(resid, dtype=float))
    k = int(np.ceil(tau * xs.size))
    k = min(max(k, 1), xs.size)
    return float(xs[k - 1])


def grid_search_l1_lqr(X, y, tau, alpha, span=3.0, coarse=0.05, fine=1e-3):
    """Coarse-to-fine exhaustive search over beta with the intercept set to
    its exact 1-D optimum at every grid point (valid because the objective
    is convex, so the refinement box around the coarse argmin contains the
    global minimizer)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]

    def eval_grid(axes):
        best_val = np.inf
        best_beta = None
        mesh = np.meshgrid(*axes, indexing="ij") if d else [np.zeros(1)]
        flat = np.stack([m.ravel() for m in mesh], axis=1) if d else np.zeros((1, 0))
        for beta in flat:
            resid = y - X @ beta
            b = pinball_optimal_intercept(resid, tau)
            val = float(np.sum(np.where(resid - b >= 0, tau * (resid - b),
                                        (tau - 1.0) * (resid - b))))
            val += alpha * float(np.sum(np.abs(beta)))
            if val < best_val:
                best_val = val
                best_beta = beta.copy()
        return best_val, best_beta

    if d == 0:
        return eval_grid([])[0]
    coarse_axes = [np.arange(-span, span + coarse / 2, coarse) for _ in range(d)]
    _, center = eval_grid(coarse_axes)
    fine_axes = [np.arange(c - coarse, c + coarse + fine / 2, fine) for c in center]
    return eval_grid(fine_axes)[0]


def brute_knn_quantiles(X_train, y_train, query, k, taus, metric="euclidean"):
    if metric == "euclidean":
        d = np.sqrt(((X_train - query) ** 2).sum(axis=1))
    else:
        d = np.abs(X_train - query).sum(axis=1)
    near = y_train[np.argsort(d, kind="stable")[:k]]
    return np.quantile(near, taus)


def brute_qgbt_node_gains(X, grad, rows, feats, max_bins):
    """Every candidate split of one QGBT node, with its gain, by plain loops.

    A feature's candidate thresholds are the distinct quantiles of its
    training column at levels 1/max_bins, ..., (max_bins-1)/max_bins; a
    split sends the node's rows with x <= threshold left. The gain is
    sum_l^2/n_l + sum_r^2/n_r - sum^2/n over the gradients. Returns
    (gain, feature, threshold) for every split that leaves both sides
    non-empty, in feature-then-threshold order, and the sum of squared
    gradients of the node, which bounds every term of a gain.
    """
    probe = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    total = 0.0
    squares = 0.0
    for i in rows:
        total += grad[i]
        squares += grad[i] * grad[i]
    parent = total * total / len(rows)
    out = []
    for f in feats:
        cuts = sorted(set(float(c) for c in np.quantile(X[:, f], probe)))
        for cut in cuts:
            sum_l = sum_r = 0.0
            n_l = n_r = 0
            for i in rows:
                if X[i, f] <= cut:
                    sum_l += grad[i]
                    n_l += 1
                else:
                    sum_r += grad[i]
                    n_r += 1
            if n_l and n_r:
                out.append((sum_l * sum_l / n_l + sum_r * sum_r / n_r - parent,
                            int(f), cut))
    return out, squares
