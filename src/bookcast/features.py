"""Per-sample orderbook feature extraction.

For each sample, 32 trade statistics are computed per market side over six
look-back windows ending at the forecast time t_f, giving a 384-value
vector (32 x 2 sides x 6 windows). Windows are left-open, right-closed
(t_f - w, t_f]; the unbounded window covers all history up to t_f. An
empty window borrows the statistics of the smallest strictly longer
non-empty window; a sample whose unbounded window is empty on either side
is discarded.

One kernel, ``product_features``, computes every window of a block of
products in whole-array passes; ``side_window_stats`` and
``extract_features`` are its one-side and one-product calls. Its results
are numpy's, bit for bit, on one (2, m) price/volume block per window:
each window is sorted on its own, and sums, volatilities and VWAP dots run
on the windows grouped by length (``np.add.reduceat`` and ``np.einsum``
across lengths round differently).
"""

from __future__ import annotations

import datetime as dt
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .util import to_micros

WINDOW_MINUTES: Tuple[float, ...] = (1, 5, 15, 60, 180, math.inf)
WINDOW_LABELS: Tuple[str, ...] = ("1", "5", "15", "60", "180", "inf")
PERCENTILES: Tuple[int, ...] = (10, 25, 45, 50, 55, 75, 90)
SIDE_LABELS: Tuple[str, ...] = ("buy", "sell")

# (family slug, expands over percentile levels) in fixed table order
FAMILIES: Tuple[Tuple[str, bool], ...] = (
    ("price_pctl", True),
    ("min_price", False),
    ("max_price", False),
    ("first_price", False),
    ("last_price", False),
    ("mean_price", False),
    ("price_vol", False),
    ("delta_price", False),
    ("volume_pctl", True),
    ("min_volume", False),
    ("max_volume", False),
    ("first_volume", False),
    ("last_volume", False),
    ("mean_volume", False),
    ("volume_vol", False),
    ("delta_volume", False),
    ("sum_volume", False),
    ("trade_count", False),
    ("vwap", False),
    ("momentum", False),
)
FAMILY_SLUGS = tuple(f for f, _ in FAMILIES)
_PERCENTILE_FAMILIES = {f for f, p in FAMILIES if p}

VWAP_EPS = 1e-9  # momentum denominator guard; prices cross zero

_SIDE_ALIASES = {"buy": "buy", "sell": "sell", "+": "buy", "-": "sell"}


def _window_label(window) -> str:
    if window is None or window == math.inf or window == "inf":
        return "inf"
    m = float(window)
    if m not in WINDOW_MINUTES:
        raise ValueError(f"window must be one of {WINDOW_MINUTES}, got {window}")
    return str(int(m))


def feature_name(family: str, side: str, window, percentile: Optional[int] = None) -> str:
    """Canonical feature name, e.g. ``price_pctl|buy|15|45`` or ``vwap|sell|inf``."""
    if family not in FAMILY_SLUGS:
        raise ValueError(f"unknown feature family {family!r}")
    if side not in _SIDE_ALIASES:
        raise ValueError(f"unknown side {side!r}")
    label = _window_label(window)
    if family in _PERCENTILE_FAMILIES:
        if percentile is None:
            raise ValueError(f"{family} requires a percentile level")
        if percentile not in PERCENTILES:
            raise ValueError(f"percentile must be one of {PERCENTILES}, got {percentile}")
        return f"{family}|{_SIDE_ALIASES[side]}|{label}|{percentile}"
    if percentile is not None:
        raise ValueError(f"{family} does not take a percentile level")
    return f"{family}|{_SIDE_ALIASES[side]}|{label}"


def parse_feature_name(name: str) -> Tuple[str, str, str, Optional[int]]:
    """Inverse of feature_name: (family, side, window label, percentile)."""
    parts = name.split("|")
    if len(parts) == 3:
        family, side, label = parts
        pct = None
    elif len(parts) == 4:
        family, side, label, raw = parts
        pct = int(raw)
    else:
        raise ValueError(f"malformed feature name {name!r}")
    if family not in FAMILY_SLUGS or side not in SIDE_LABELS or label not in WINDOW_LABELS:
        raise ValueError(f"malformed feature name {name!r}")
    return family, side, label, pct


# per-(side, window) layout: the 32 statistics in family order
_SUBVEC: List[Tuple[str, Optional[int]]] = [
    (family, p) for family, is_pctl in FAMILIES
    for p in (PERCENTILES if is_pctl else (None,))]
N_STATS = len(_SUBVEC)

# family-major: each family's (side, window, level) block is contiguous
FEATURE_NAMES: Tuple[str, ...] = tuple(
    feature_name(family, side, label, p)
    for slug in FAMILY_SLUGS for side in SIDE_LABELS for label in WINDOW_LABELS
    for family, p in _SUBVEC if family == slug)
N_FEATURES = len(FEATURE_NAMES)

_NAME_POS = {n: i for i, n in enumerate(FEATURE_NAMES)}
# feature-vector column of each kernel cell, in (side, window, statistic) order
_FROM_KERNEL = np.argsort([_NAME_POS[feature_name(family, side, label, p)]
                           for side in SIDE_LABELS for label in WINDOW_LABELS
                           for family, p in _SUBVEC])
_LEVELS = np.array(PERCENTILES, dtype=float) / 100.0
# ages t_f - exec_time at the windows' left edges: a trade of age a lies in
# window k when 0 <= a < _AGE_EDGES[k + 1]
_AGE_EDGES = np.array([0] + [int(w * 60_000_000) for w in WINDOW_MINUTES[:-1]], dtype=np.int64)
# trades per kernel block (a larger product is a block of its own); a
# block's windows hold at most six copies of its trades
BLOCK_TRADES = 1 << 13


def window_trades(trades_side: Sequence, t_f: dt.datetime, window) -> list:
    """Trades of one side with exec_time in (t_f - window, t_f]; the
    unbounded window keeps everything up to t_f. A per-trade reference for
    the window bounds; the kernel counts each window's trades."""
    t_f_us = to_micros(t_f)
    label = _window_label(window)
    if label == "inf":
        return [t for t in trades_side if to_micros(t.exec_time) <= t_f_us]
    lo = t_f_us - int(float(label) * 60_000_000)
    return [t for t in trades_side if lo < to_micros(t.exec_time) <= t_f_us]


def _ragged_range(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] + arange(sizes[i])."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if ends.size else 0)


def _window_stats(times_us: np.ndarray, prices: np.ndarray, volumes: np.ndarray,
                  offsets: np.ndarray, t_f_us: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The (G, 6, 32) window statistics of G groups of trades, and each
    group's trade count up to its t_f (a group with none is left unset).

    Group g is rows offsets[g]:offsets[g+1], sorted by (exec_time, seq),
    with forecast time t_f_us[g]. Each window is a suffix of the group's
    trades up to t_f: every distinct non-empty suffix is computed once,
    and an empty window copies the row of the next longer window.
    """
    n_groups, n = t_f_us.size, len(WINDOW_LABELS) + 1
    counts = np.diff(offsets)
    # 0 after t_f, k + 1 for a trade first inside window k
    level = np.searchsorted(_AGE_EDGES, np.repeat(t_f_us, counts) - times_us, side="right")
    sizes = np.bincount(np.repeat(np.arange(n_groups) * n, counts) + level,
                        minlength=n_groups * n).reshape(-1, n)[:, 1:].cumsum(axis=1)
    fresh = sizes > 0
    fresh[:, :-1] &= sizes[:, :-1] != sizes[:, 1:]
    group, window = np.nonzero(fresh)
    m = sizes[group, window]
    by_length = np.argsort(m, kind="stable")
    group, window, m = group[by_length], window[by_length], m[by_length]
    base = np.cumsum(m) - m  # each suffix's first element in the expansion
    rows = _ragged_range(offsets[group] + sizes[group, -1] - m, m)
    block = np.stack((prices[rows], volumes[rows]))  # (2, expanded), time order
    srt = block.copy()
    sums, squares, dots = np.empty((2, m.size)), np.empty((2, m.size)), np.empty(m.size)
    # the suffixes of each length as (2, count, length) views
    lengths, firsts, n_suffixes = np.unique(m, return_index=True, return_counts=True)
    spans = [(slice(a, a + c), slice(lo, lo + c * length), length)
             for length, a, c, lo in zip(lengths.tolist(), firsts.tolist(),
                                         n_suffixes.tolist(), base[firsts].tolist())]
    for cut, span, length in spans:
        srt[:, span].reshape(2, -1, length).sort(axis=-1)
        block[:, span].reshape(2, -1, length).sum(axis=-1, out=sums[:, cut])
    dev = block - np.repeat(sums / m, m, axis=1)
    dev *= dev
    centered = block[0] - np.repeat(block[0, base], m)
    for cut, span, length in spans:
        dev[:, span].reshape(2, -1, length).sum(axis=-1, out=squares[:, cut])
        np.matmul(centered[span].reshape(-1, 1, length), block[1, span].reshape(-1, length, 1),
                  out=dots[cut, None, None])

    # numpy's "linear" quantile: virtual index (m-1)q and its two-sided
    # lerp; a single value (m == 1) is read as the top neighbour
    virtual = (m - 1)[:, None] * _LEVELS
    top = virtual >= (m - 1)[:, None]
    below = np.where(top, -1, np.floor(virtual).astype(np.intp))
    gamma = virtual - below
    lo = base[:, None] + np.where(top, m[:, None] - 1, below)
    lo_val, hi_val = srt[:, lo], srt[:, np.where(top, lo, lo + 1)]
    diff = hi_val - lo_val
    pctl = lo_val + diff * gamma
    np.subtract(hi_val, diff * (1 - gamma), out=pctl, where=gamma >= 0.5)

    last = base + m - 1
    first_val, last_val = block[:, base], block[:, last]
    stats = np.empty((m.size, N_STATS))
    # price and volume rows of the 32: 7 percentiles, min, max, first, last,
    # mean, volatility, delta
    cells = stats[:, :28].reshape(-1, 2, 14).transpose(1, 0, 2)
    cells[:, :, :7] = pctl
    cells[:, :, 7:] = np.stack((srt[:, base], srt[:, last], first_val, last_val, sums / m,
                                np.sqrt(squares / m), last_val - first_val), axis=-1)
    # centered weighted mean: exact for constant prices, well conditioned
    # for price levels far from zero
    vwap = first_val[0] + dots / sums[1]
    momentum = np.zeros(m.size)
    np.divide(last_val[0] - vwap, vwap, out=momentum, where=np.abs(vwap) >= VWAP_EPS)
    stats[:, 28:] = np.stack((sums[1], m, vwap, momentum), axis=1)

    out = np.empty((n_groups, n - 1, N_STATS))
    out[group, window] = stats
    for k in range(n - 3, -1, -1):
        np.copyto(out[:, k], out[:, k + 1], where=~fresh[:, k, None])
    return out, sizes[:, -1]


def side_window_stats(times_us: np.ndarray, prices: np.ndarray, volumes: np.ndarray,
                      t_f_us: int) -> np.ndarray:
    """The (6, 32) statistics of one side, a row per window in
    ``WINDOW_LABELS`` order and the statistics in family order: the
    one-side call of the kernel.

    Arrays hold the side's trades at or before t_f, sorted by (exec_time,
    seq). Percentiles use linear interpolation between order statistics;
    volatility uses population (1/n) normalization. Raises ValueError when
    the side has no trades.
    """
    if times_us.size == 0:
        raise ValueError("side_window_stats requires at least one trade")
    return _window_stats(times_us, prices, volumes, np.array([0, times_us.size]),
                         np.array([t_f_us], dtype=np.int64))[0][0]


def product_features(table, rows: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, t_f_us: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The (P, 384) feature matrix of P products and the mask of the kept
    ones: a product without a buy or a sell at or before its t_f is
    discarded, and its row is NaN.

    Product p is rows rows[lo[p]:hi[p]] of the ``TradeTable`` ``table``, in
    (exec_time, seq) order, with forecast time t_f_us[p]. Products go
    through the kernel in blocks of at most ``BLOCK_TRADES`` trades (or one
    product); the block size changes no bit of the result.
    """
    lo, hi, t_f_us = (np.asarray(a, dtype=np.int64) for a in (lo, hi, t_f_us))
    n_trades = hi - lo
    ends = np.cumsum(n_trades)
    features = np.empty((lo.size, N_FEATURES))
    kept = np.empty(lo.size, dtype=bool)
    a = 0
    while a < lo.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - n_trades[a] + BLOCK_TRADES,
                                           side="right")))
        # the block's rows grouped by (product, side), keeping their order
        block = rows[_ragged_range(lo[a:b], n_trades[a:b])]
        side = np.repeat(np.arange(0, 2 * (b - a), 2), n_trades[a:b]) + ~table.is_buy[block]
        block = block[np.argsort(side, kind="stable")]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(side, minlength=2 * (b - a)))))
        stats, n_past = _window_stats(table.exec_us[block], table.price[block],
                                      table.volume[block], offsets, np.repeat(t_f_us[a:b], 2))
        kept[a:b] = (n_past > 0).reshape(-1, 2).all(axis=1)
        np.take(stats.reshape(b - a, -1), _FROM_KERNEL, axis=1, out=features[a:b])
        a = b
    features[~kept] = np.nan
    return features, kept


def extract_features(trades: Sequence, t_f: dt.datetime) -> Optional[np.ndarray]:
    """The 384-value feature vector for one product at forecast time t_f,
    or None when either side has an empty full-history window (discard):
    the one-product call of the kernel.

    Takes a ``TradeTable`` or a sequence of ``Trade``.
    """
    from .market import TradeTable  # market imports this module

    table = TradeTable.from_trades(trades)
    features, kept = product_features(table, np.arange(len(table)), [0], [len(table)],
                                      [to_micros(t_f)])
    return features[0] if kept[0] else None
