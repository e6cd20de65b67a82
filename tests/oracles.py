"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain loops over sorted copies, deliberately
avoiding the library's vectorized code paths.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from bookcast.features import FEATURE_NAMES
from bookcast.market import (BUY, SAMPLE_CSV_FIXED, SELL, SIDES, TRADE_CSV_HEADER,
                             RejectedRow, Sample, TradeParseError, TradeTable)
from bookcast.metrics import aql, pinball
from bookcast.util import (UTC, format_timestamp, from_micros, parse_timestamp,
                           pinball_quantile, rng_for, soft_threshold, to_micros)


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


def weighted_quantile_geq(values: np.ndarray, weights: np.ndarray, tau: float) -> float:
    """Smallest value whose cumulative normalized weight reaches tau."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w) / np.sum(w)
    idx = int(np.searchsorted(cum, tau, side="left"))
    idx = min(idx, v.size - 1)
    return float(v[idx])


def per_row_knn_predict(X_train, y_train, queries, k, taus, metric, weights,
                        eps=1e-12):
    """QKNN predictions one query row at a time.

    Distances follow the model's own formulas (the Gram expansion for
    euclidean), so the comparison can be bit for bit; each row then takes
    ``np.quantile`` of its k nearest targets (uniform) or
    ``weighted_quantile_geq`` with weights 1/(d + eps) (distance).
    """
    Q = np.ascontiguousarray(queries, dtype=float)
    if metric == "euclidean":
        d2 = (np.sum(Q ** 2, axis=1)[:, None] + np.sum(X_train ** 2, axis=1)[None, :]
              - 2.0 * Q @ X_train.T)
        dists = np.sqrt(np.maximum(d2, 0.0))
    else:
        dists = np.array([np.abs(q - X_train).sum(axis=1) for q in Q])
    out = np.empty((Q.shape[0], len(taus)))
    for i in range(Q.shape[0]):
        order = np.argsort(dists[i], kind="stable")[:k]
        near = y_train[order]
        if weights == "uniform":
            out[i] = np.quantile(near, taus)
        else:
            w = 1.0 / (dists[i, order] + eps)
            out[i] = [weighted_quantile_geq(near, w, t) for t in taus]
    return out


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


def _reference_bin_features(X, max_bins):
    """QGBT's binning before histograms spanned only occupied bins: bin b of
    a feature holds edges[b - 1] < x <= edges[b], and every feature has
    len(edges) + 1 bins, occupied or not."""
    probe = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    cuts = np.quantile(X, probe, axis=0)
    edges_per_feature = []
    binned = np.empty(X.shape, dtype=np.int32)
    for j in range(X.shape[1]):
        edges = np.unique(cuts[:, j])
        edges_per_feature.append(edges)
        binned[:, j] = np.searchsorted(edges, X[:, j], side="left")
    return edges_per_feature, binned


def _reference_best_split(codes, g, n_feats, width):
    """QGBT's split search with 2-D scatter-adds of the broadcast gradients
    into a histogram `width` bins wide for every feature."""
    if width < 2:
        return None
    n = g.size
    total_sum = float(g.sum())
    hist = np.zeros((2, n_feats, width))
    cnt, sums = hist.reshape(2, -1)
    np.add.at(cnt, codes, 1.0)
    np.add.at(sums, codes, g[:, None])
    np.cumsum(hist, axis=2, out=hist)
    cnt_l, sum_l = hist[0, :, :-1], hist[1, :, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        right = np.empty((n_feats, width - 1))
        gain = np.empty_like(right)
        np.subtract(total_sum, sum_l, out=right)
        np.square(right, out=right)
        np.subtract(n, cnt_l, out=gain)
        right /= gain
        np.square(sum_l, out=gain)
        gain /= cnt_l
        gain += right
        gain -= total_sum * total_sum / n
    np.copyto(gain, -np.inf, where=(cnt_l == 0) | (cnt_l == n))
    pos, k = divmod(int(np.argmax(gain)), width - 1)
    return (pos, k) if gain[pos, k] > 1e-12 else None


def _reference_apply(nodes, X):
    """Leaf value of each row of X in one tree given as node arrays."""
    feature, threshold, left, right, value = nodes
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = 0
        while feature[node] >= 0:
            go_left = X[i, feature[node]] <= threshold[node]
            node = left[node] if go_left else right[node]
        out[i] = value[node]
    return out


def reference_qgbt_fit(quantiles, seed, X, y, X_pred=None, n_estimators=100,
                       max_depth=6, learning_rate=0.1, subsample=1.0,
                       colsample_by_tree=1.0, reg_alpha=0.0, reg_lambda=0.0,
                       max_bins=256):
    """QGBT training with every feature binned to len(edges) + 1 bins and
    2-D broadcast scatter-adds in split search.

    Draws the same row and feature subsamples as ``QGBTModel.fit``. Returns
    (arrays, loss_trace, predictions): arrays are the checkpoint arrays by
    name, and predictions are for X_pred (X when None).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    edges, binned = _reference_bin_features(X, max_bins)
    n_sub = max(1, int(round(subsample * n)))
    n_feat = max(1, int(round(colsample_by_tree * d))) if d else 0
    width = max((e.size + 1 for e in edges), default=0)
    offsets = np.arange(n_feat) * width

    def leaf_value(residual, r, tau):
        v = pinball_quantile(residual[r], tau)
        v = float(soft_threshold(np.array([v]), reg_alpha)[0])
        v *= r.size / (r.size + reg_lambda)
        return v * learning_rate

    base = np.array([pinball_quantile(y, t) for t in quantiles])
    trees = []
    traces = np.zeros((len(quantiles), n_estimators))
    for qi, tau in enumerate(quantiles):
        rng = rng_for(seed, qi)
        pred = np.full(n, base[qi])
        for m in range(n_estimators):
            rows = (np.arange(n) if n_sub == n
                    else np.sort(rng.choice(n, size=n_sub, replace=False)))
            feats = (np.arange(d) if n_feat == d
                     else np.sort(rng.choice(d, size=n_feat, replace=False)))
            residual = y - pred
            grad = np.where(residual >= 0, tau, tau - 1.0)
            codes = binned[:, feats] + offsets
            feature, threshold, left, right, value = [-1], [np.nan], [-1], [-1], [np.nan]
            node_rows, node_depth = [rows], [0]
            node = 0
            while node < len(feature):
                r = node_rows[node]
                best = None
                if node_depth[node] < max_depth and r.size >= 2:
                    best = _reference_best_split(codes[r], grad[r], n_feat, width)
                if best is None:
                    value[node] = leaf_value(residual, r, tau)
                else:
                    pos, k = best
                    f = int(feats[pos])
                    mask = binned[r, f] <= k
                    feature[node] = f
                    threshold[node] = float(edges[f][k])
                    left[node], right[node] = len(feature), len(feature) + 1
                    for child_rows in (r[mask], r[~mask]):
                        feature.append(-1)
                        threshold.append(np.nan)
                        left.append(-1)
                        right.append(-1)
                        value.append(np.nan)
                        node_rows.append(child_rows)
                        node_depth.append(node_depth[node] + 1)
                node += 1
            tree = (np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
                    np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                    np.array(value, dtype=float))
            trees.append(tree)
            pred += _reference_apply(tree, X)
            traces[qi, m] = float(np.mean(pinball(y, pred, tau)))
    names = ("feature", "threshold", "left", "right", "value")
    arrays = {"base": base}
    for i, name in enumerate(names):
        arrays[name] = np.concatenate([t[i] for t in trees])
    arrays["tree_start"] = np.cumsum([0] + [t[0].size for t in trees], dtype=np.int64)
    X_pred = X if X_pred is None else np.asarray(X_pred, dtype=float)
    predictions = np.empty((X_pred.shape[0], len(quantiles)))
    for qi in range(len(quantiles)):
        out = np.full(X_pred.shape[0], base[qi])
        for tree in trees[qi * n_estimators: (qi + 1) * n_estimators]:
            out += _reference_apply(tree, X_pred)
        predictions[:, qi] = out
    return arrays, list(traces.mean(axis=0)), predictions


def reference_qmlp_fit(quantiles, seed, X, y, X_val=None, y_val=None,
                       hidden_size=64, n_layers=2, dropout_rate=0.0,
                       learning_rate=1e-3, batch_size=64, max_epochs=500,
                       patience=10, lr_decay=0.0):
    """QMLP training in float32 with weights, biases and Adam state as
    separate per-tensor arrays and whole-tensor Adam updates.

    Draws the same random streams as ``QMLPModel.fit`` (init, rounded to
    float32; shuffle; dropout). The loss is taken in float64 against the
    float64 targets and its gradient rounded once to float32. Returns
    (weights, biases, loss_trace, val_aql_trace, early_stop_epoch) with the
    best-epoch weights restored.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    taus = np.array(quantiles)
    X = np.asarray(X, dtype=float).astype(np.float32)
    y = np.asarray(y, dtype=float)
    rng = rng_for(seed, 0)
    sizes = [X.shape[1]] + [hidden_size] * n_layers + [len(quantiles)]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32))
        biases.append(rng.uniform(-bound, bound, size=fan_out).astype(np.float32))

    def forward(A, drop=None):
        acts, masks, h = [A], [], A
        for l in range(n_layers):
            h = np.maximum(h @ weights[l] + biases[l], 0.0)
            if drop is not None:
                mask = drop.random(h.shape) >= dropout_rate
                h = h * mask / (1.0 - dropout_rate)
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(h)
        return h @ weights[-1] + biases[-1], acts, masks

    shuffle_rng = rng_for(seed, 1)
    dropout_rng = rng_for(seed, 2) if dropout_rate > 0 else None
    n = X.shape[0]
    batch = min(batch_size, n)
    params = [a for pair in zip(weights, biases) for a in pair]
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    step = 0
    loss_trace, val_trace = [], []
    best_val, best_params, best_epoch, wait = np.inf, None, 0, 0
    for epoch in range(1, max_epochs + 1):
        lr = learning_rate / (1.0 + lr_decay * (epoch - 1))
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, batch):
            idx = order[lo: lo + batch]
            out, acts, masks = forward(X[idx], dropout_rng)
            diff = y[idx][:, None] - out
            losses = np.where(diff >= 0, taus * diff, (taus - 1.0) * diff)
            epoch_loss += float(losses.mean()) * idx.size
            g = (np.where(diff >= 0, -taus, 1.0 - taus) * (1.0 / losses.size)).astype(np.float32)
            grads_w = [None] * len(weights)
            grads_b = [None] * len(biases)
            grads_w[-1] = acts[-1].T @ g
            grads_b[-1] = g.sum(axis=0)
            upstream = g @ weights[-1].T
            for l in range(n_layers - 1, -1, -1):
                if masks[l] is not None:
                    upstream = upstream * masks[l] / (1.0 - dropout_rate)
                upstream = upstream * (acts[l + 1] > 0)
                grads_w[l] = acts[l].T @ upstream
                grads_b[l] = upstream.sum(axis=0)
                if l > 0:
                    upstream = upstream @ weights[l].T
            grads = [a for pair in zip(grads_w, grads_b) for a in pair]
            step += 1
            for p, grad, m, v in zip(params, grads, m_state, v_state):
                m *= b1
                m += (1 - b1) * grad
                v *= b2
                v += (1 - b2) * grad ** 2
                m_hat = m / (1 - b1 ** step)
                v_hat = v / (1 - b2 ** step)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        loss_trace.append(epoch_loss / n)
        if X_val is not None and y_val is not None and len(y_val):
            val = aql(y_val, forward(np.asarray(X_val, dtype=np.float32))[0], quantiles)
            val_trace.append(val)
            if val < best_val:
                best_val, best_epoch, wait = val, epoch, 0
                best_params = [p.copy() for p in params]
            else:
                wait += 1
                if wait >= patience:
                    break
    if best_params is not None:
        for p, bp in zip(params, best_params):
            p[...] = bp
    else:
        best_epoch = len(loss_trace)
    return weights, biases, loss_trace, val_trace, best_epoch


# ------------------------------------------------------------ CSV codecs
# The trade and sample CSV codecs as they were when they worked one row, or
# one value, at a time; the columnar codecs must match them byte for byte
# and value for value.

def reference_parse_trades(source, tz=UTC):
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise TradeParseError(1, "empty input, expected header") from None
    if [h.strip() for h in header] != TRADE_CSV_HEADER:
        raise TradeParseError(1, f"bad header {header!r}, expected {TRADE_CSV_HEADER}")

    def field(lineno, name, parse, raw):
        try:
            return parse(raw)
        except (ValueError, OverflowError) as exc:
            raise TradeParseError(lineno, str(exc), name) from None

    def micros(raw):
        return to_micros(parse_timestamp(raw, tz))

    rows = []
    rejected = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise TradeParseError(lineno, f"expected 5 fields, got {len(row)}")
        raw_start, raw_side, raw_exec, raw_price, raw_volume = row
        product_us = field(lineno, "product_start", micros, raw_start)
        side = raw_side.strip()
        if side not in SIDES:
            raise TradeParseError(lineno, f"side must be '+' or '-', got {raw_side!r}",
                                  "side")
        exec_us = field(lineno, "exec_time", micros, raw_exec)
        price = field(lineno, "price", float, raw_price)
        volume = field(lineno, "volume", float, raw_volume)
        for name, value in (("price", price), ("volume", volume)):
            if not math.isfinite(value):
                raise TradeParseError(lineno, f"non-finite value {value!r}", name)
        if volume <= 0:
            rejected.append(RejectedRow(lineno, f"volume {volume} <= 0"))
            continue
        if exec_us >= product_us:
            rejected.append(RejectedRow(lineno, "exec_time at or after product_start"))
            continue
        rows.append((product_us, exec_us, side == BUY, price, volume, len(rows)))
    return TradeTable._of_rows(rows)._by_time(), rejected


def reference_write_trades_csv(trades, fh):
    table = TradeTable.from_trades(trades)
    starts = {us: format_timestamp(from_micros(us))
              for us in np.unique(table.product_us).tolist()}
    writer = csv.writer(fh)
    writer.writerow(TRADE_CSV_HEADER)
    writer.writerows(
        [starts[p], BUY if buy else SELL, format_timestamp(from_micros(e)),
         repr(price), repr(volume)]
        for p, e, buy, price, volume in zip(
            table.product_us.tolist(), table.exec_us.tolist(), table.is_buy.tolist(),
            table.price.tolist(), table.volume.tolist()))


def reference_write_samples_csv(samples, fh, extra=None):
    extra = extra or {}
    writer = csv.writer(fh)
    writer.writerow(SAMPLE_CSV_FIXED + list(FEATURE_NAMES) + list(extra))
    for s in samples:
        if s.features is None:
            raise ValueError("cannot serialize a sample without features")
        row = [
            format_timestamp(s.delivery_time),
            format_timestamp(s.forecast_time),
            "" if s.target_id3 is None else repr(s.target_id3),
            str(s.matched_trade_count),
        ]
        row.extend(repr(float(v)) for v in s.features)
        row.extend(str(v) for v in extra.values())
        writer.writerow(row)


def reference_read_samples_csv(fh):
    reader = csv.reader(fh)
    header = next(reader)
    expected = SAMPLE_CSV_FIXED + list(FEATURE_NAMES)
    if header[: len(expected)] != expected:
        raise ValueError("sample CSV header does not match the canonical layout")
    out = []
    for row in reader:
        t_d = parse_timestamp(row[0])
        t_f = parse_timestamp(row[1])
        target = float(row[2]) if row[2] else None
        count = int(row[3])
        vec = np.array([float(v) for v in row[4: 4 + len(FEATURE_NAMES)]])
        out.append(Sample(t_d, t_f, vec, target, count))
    return out
