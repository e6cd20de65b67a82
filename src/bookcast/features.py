"""Per-sample orderbook feature extraction.

For each sample, 32 trade statistics are computed per market side over six
look-back windows ending at the forecast time t_f, giving a 384-value
vector (32 x 2 sides x 6 windows). Windows are left-open, right-closed
(t_f - w, t_f]; the unbounded window covers all history up to t_f. An
empty window borrows the statistics of the smallest strictly longer
non-empty window; a sample whose unbounded window is empty on either side
is discarded. One kernel, ``side_window_stats``, computes all six windows
of a side; ``extract_features`` and sample assembly both go through it.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

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
# (window, statistic) -> position in the feature vector, per side
_SIDE_POS: Dict[str, np.ndarray] = {
    side: np.array([[_NAME_POS[feature_name(family, side, label, p)]
                     for family, p in _SUBVEC] for label in WINDOW_LABELS], dtype=np.intp)
    for side in SIDE_LABELS
}
_LEVELS = np.array(PERCENTILES, dtype=float) / 100.0
_BOUNDED_US = np.array([int(w * 60_000_000) for w in WINDOW_MINUTES[:-1]], dtype=np.int64)


def window_trades(trades_side: Sequence, t_f: dt.datetime, window) -> list:
    """Trades of one side with exec_time in (t_f - window, t_f]; the
    unbounded window keeps everything up to t_f. A per-trade reference for
    the window bounds; the kernel finds windows with ``searchsorted``."""
    t_f_us = to_micros(t_f)
    label = _window_label(window)
    if label == "inf":
        return [t for t in trades_side if to_micros(t.exec_time) <= t_f_us]
    lo = t_f_us - int(float(label) * 60_000_000)
    return [t for t in trades_side if lo < to_micros(t.exec_time) <= t_f_us]


@functools.lru_cache(maxsize=4096)
def _lerp_plan(m: int) -> Tuple[np.ndarray, ...]:
    """numpy's "linear" quantile plan for m sorted values: the neighbour
    indices of each virtual index (m-1)q, clamped to the last value at the
    top, the interpolation weight and the mask of its t >= 0.5 branch."""
    virtual = (m - 1) * _LEVELS
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    top = virtual >= m - 1
    below[top] = -1
    above[top] = -1
    gamma = virtual - below
    plan = (below, above, gamma, gamma >= 0.5)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _suffix_stats(block: np.ndarray, row: np.ndarray) -> None:
    """Write the 32 statistics of one window into ``row``.

    ``block`` stacks the window's prices and volumes as a (2, m) array in
    (exec_time, seq) order. Percentiles reproduce numpy's ``quantile`` with
    method "linear" bit for bit: virtual index (m-1)q, neighbours clamped at
    the top, and its two-sided lerp. Mean and std are numpy's row
    reductions of the time-ordered block.
    """
    m = block.shape[1]
    srt = np.sort(block, axis=1)
    below, above, gamma, upper = _lerp_plan(m)
    lo = srt[:, below]
    hi = srt[:, above]
    diff = hi - lo
    pctl = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=pctl, where=upper)

    sums = block.sum(axis=1)
    means = sums / m
    dev = block - means[:, None]
    std = np.sqrt((dev * dev).sum(axis=1) / m)
    # price and volume rows of the 32: 7 percentiles, min, max, first, last,
    # mean, volatility, delta
    cells = row[:28].reshape(2, 14)
    cells[:, :7] = pctl
    cells[:, 7] = srt[:, 0]
    cells[:, 8] = srt[:, -1]
    cells[:, 9] = block[:, 0]
    cells[:, 10] = block[:, -1]
    cells[:, 11] = means
    cells[:, 12] = std
    cells[:, 13] = block[:, -1] - block[:, 0]

    prices, volumes = block
    # centered weighted mean: exact for constant prices, well conditioned
    # for price levels far from zero
    p0 = float(prices[0])
    vwap = p0 + float(np.dot(prices - p0, volumes) / sums[1])
    last_p = float(prices[-1])
    momentum = 0.0 if abs(vwap) < VWAP_EPS else (last_p - vwap) / vwap
    row[28:] = (sums[1], m, vwap, momentum)


def side_window_stats(times_us: np.ndarray, prices: np.ndarray, volumes: np.ndarray,
                      t_f_us: int) -> np.ndarray:
    """The (6, 32) statistics of one side, a row per window in
    ``WINDOW_LABELS`` order and the statistics in family order.

    Arrays hold the side's trades at or before t_f, sorted by (exec_time,
    seq). Nested windows share the right endpoint, so each window is a
    suffix; each distinct non-empty suffix is computed once, and an empty
    window copies the row of the next longer window. Percentiles use linear
    interpolation between order statistics; volatility uses population
    (1/n) normalization. Raises ValueError when the side has no trades.
    """
    n = times_us.size
    if n == 0:
        raise ValueError("side_window_stats requires at least one trade")
    starts = np.searchsorted(times_us, t_f_us - _BOUNDED_US, side="right").tolist()
    block = np.stack((prices, volumes))
    out = np.empty((len(WINDOW_LABELS), N_STATS))
    _suffix_stats(block, out[-1])
    last = 0
    for k in range(len(starts) - 1, -1, -1):
        start = starts[k]
        if start >= n or start == last:
            out[k] = out[k + 1]
        else:
            _suffix_stats(block[:, start:], out[k])
            last = start
    return out


def extract_features(trades: Sequence, t_f: dt.datetime) -> Optional[np.ndarray]:
    """The 384-value feature vector for one product at forecast time t_f,
    or None when either side has an empty full-history window (discard).

    Takes a ``TradeTable`` or a sequence of ``Trade``.
    """
    from .market import TradeTable  # market imports this module

    table = TradeTable.from_trades(trades)
    t_f_us = to_micros(t_f)
    past = table[:np.searchsorted(table.exec_us, t_f_us, side="right")]
    vec = np.empty(N_FEATURES, dtype=float)
    for side, mask in (("buy", past.is_buy), ("sell", ~past.is_buy)):
        if not mask.any():
            return None
        vec[_SIDE_POS[side]] = side_window_stats(past.exec_us[mask], past.price[mask],
                                                 past.volume[mask], t_f_us)
    return vec
