import datetime as dt
import math
from multiprocessing import get_context
from types import SimpleNamespace

import numpy as np
import pytest

from bookcast.features import (FAMILIES, FAMILY_SLUGS, FEATURE_NAMES, PERCENTILES,
                               WINDOW_LABELS, extract_features, feature_name,
                               parse_feature_name, side_window_stats,
                               window_trades)
from bookcast.market import TradeTable
from bookcast.util import to_micros
from conftest import T_F, mk_trade
from oracles import brute_stats, numpy_side_windows


# ---------------------------------------------------------------- naming

def test_cardinality():
    assert len(FEATURE_NAMES) == 384
    assert len(set(FEATURE_NAMES)) == 384
    assert len(FAMILY_SLUGS) == 20
    per_side_window = 18 + 2 * len(PERCENTILES)
    assert per_side_window == 32
    assert 32 * 2 * len(WINDOW_LABELS) == 384


def test_feature_name_examples():
    assert feature_name("max_price", "sell", 60) == "max_price|sell|60"
    assert feature_name("price_pctl", "buy", math.inf, 10) == "price_pctl|buy|inf|10"
    assert feature_name("price_pctl", "buy", 15, 45) == "price_pctl|buy|15|45"
    assert feature_name("vwap", "-", None) == "vwap|sell|inf"


def test_feature_name_rejects_bad_combinations():
    with pytest.raises(ValueError):
        feature_name("vwap", "buy", 1, 50)
    with pytest.raises(ValueError):
        feature_name("price_pctl", "buy", 1)
    with pytest.raises(ValueError):
        feature_name("price_pctl", "buy", 1, 33)
    with pytest.raises(ValueError):
        feature_name("nope", "buy", 1)
    with pytest.raises(ValueError):
        feature_name("vwap", "mid", 1)


def test_parse_feature_name_round_trip():
    for name in FEATURE_NAMES:
        family, side, label, pct = parse_feature_name(name)
        window = math.inf if label == "inf" else int(label)
        assert feature_name(family, side, window, pct) == name


def test_header_enumeration_order():
    # family-major, buy before sell, windows ascending, percentiles ascending
    assert FEATURE_NAMES[0] == "price_pctl|buy|1|10"
    assert FEATURE_NAMES[6] == "price_pctl|buy|1|90"
    assert FEATURE_NAMES[7] == "price_pctl|buy|5|10"
    assert FEATURE_NAMES[42] == "price_pctl|sell|1|10"
    assert FEATURE_NAMES[84] == "min_price|buy|1"
    assert FEATURE_NAMES[-1] == "momentum|sell|inf"


# ---------------------------------------------------------------- windows

def test_window_membership():
    t1 = mk_trade(0.5, 10, 1, seq=0)   # 30s before t_f
    t2 = mk_trade(1.5, 20, 1, seq=1)   # 90s before t_f
    assert window_trades([t2, t1], T_F, 1) == [t1]


def test_window_inf_keeps_history_only():
    past = mk_trade(1000, 10, 1, seq=0)
    future = mk_trade(-1, 20, 1, seq=1)  # after t_f
    assert window_trades([past, future], T_F, math.inf) == [past]


def test_window_right_boundary_closed():
    at_tf = mk_trade(0, 10, 1)
    assert window_trades([at_tf], T_F, 1) == [at_tf]


def test_window_left_boundary_open():
    at_edge = mk_trade(1, 10, 1)  # exactly t_f - 1min
    assert window_trades([at_edge], T_F, 1) == []
    assert window_trades([at_edge], T_F, 5) == [at_edge]


# ---------------------------------------------------------------- stats

def _family_slots():
    slots, i = {}, 0
    for family, is_pctl in FAMILIES:
        width = len(PERCENTILES) if is_pctl else 1
        slots[family] = slice(i, i + width) if is_pctl else i
        i += width
    return slots


SLOTS = _family_slots()  # family -> position (or slice) in a kernel row


def kernel_stats(trades):
    """The kernel's statistics of one side's trades, all at or before T_F,
    read from its unbounded-window row by family name."""
    table = TradeTable.from_trades(trades)
    row = side_window_stats(table.exec_us, table.price, table.volume, to_micros(T_F))[-1]
    return SimpleNamespace(**{family: tuple(row[slot]) if isinstance(slot, slice) else row[slot]
                              for family, slot in SLOTS.items()})


def test_stats_two_trade_example():
    trades = [mk_trade(2, 10, 2, seq=0), mk_trade(1, 20, 2, seq=1)]
    s = kernel_stats(trades)
    assert s.vwap == 15.0
    assert s.momentum == pytest.approx((20 - 15) / 15)
    assert s.delta_price == 10.0
    assert s.price_vol == 5.0
    assert s.sum_volume == 4.0
    assert s.trade_count == 2
    assert s.price_pctl[PERCENTILES.index(50)] == 15.0
    assert s.first_price == 10.0 and s.last_price == 20.0


def test_stats_single_trade_degenerate():
    s = kernel_stats([mk_trade(1, 10, 2)])
    assert s.min_price == s.max_price == s.first_price == s.last_price == 10.0
    assert all(p == 10.0 for p in s.price_pctl)
    assert s.price_vol == 0.0 and s.delta_price == 0.0 and s.momentum == 0.0
    assert s.trade_count == 1


def test_stats_momentum_zero_vwap_guard():
    trades = [mk_trade(2, -5, 1, seq=0), mk_trade(1, 5, 1, seq=1)]
    s = kernel_stats(trades)
    assert s.vwap == 0.0
    assert s.momentum == 0.0


def test_stats_requires_nonempty():
    with pytest.raises(ValueError):
        kernel_stats([])


def test_stats_first_last_ties_broken_by_seq():
    a = mk_trade(1, 10, 1, seq=0)
    b = mk_trade(1, 20, 1, seq=1)
    s = kernel_stats([b, a])
    assert s.first_price == 10.0 and s.last_price == 20.0


def test_kernel_matches_numpy_formulas_bit_for_bit():
    # fuzzed sides against np.quantile/mean/std/dot per window: tied prices
    # and volumes, repeated timestamps on a grid that hits window edges,
    # empty short windows and suffixes of every length
    rng = np.random.default_rng(29)
    t_f_us = to_micros(T_F)
    lengths, empty_windows = set(), 0
    for trial in range(600):
        n = int(rng.integers(1, 61))
        if trial % 2:
            minutes = rng.integers(0, 24, n) * 0.25
        else:
            minutes = rng.uniform(0, 400, n)
        times = np.sort(t_f_us - np.round(minutes * 60_000_000).astype(np.int64))
        if trial % 3 == 0:
            prices = rng.choice([-3.5, 0.0, 41.25, 41.5, 60.0], n)
            volumes = rng.choice([0.5, 1.0, 2.0], n)
        else:
            prices = rng.uniform(-80, 300, n)
            volumes = rng.uniform(0.01, 30, n)
        got = side_window_stats(times, prices, volumes, t_f_us)
        want = numpy_side_windows(times, prices, volumes, t_f_us)
        assert got.shape == (len(WINDOW_LABELS), 32)
        assert got.tobytes() == want.tobytes(), trial
        counts = got[:, SLOTS["trade_count"]]
        starts = np.searchsorted(times, t_f_us - np.array([1, 5, 15, 60, 180]) * 60_000_000,
                                 side="right")
        empty_windows += int(np.sum(starts == n))
        lengths.update(int(c) for c in counts)
    assert {1, 2} <= lengths and max(lengths) >= 8
    assert empty_windows > 0


# ---------------------------------------------------------------- extraction

def _two_sided(buy_offsets, sell_offsets):
    trades = []
    for i, (m, p, v) in enumerate(buy_offsets):
        trades.append(mk_trade(m, p, v, side="+", seq=i))
    for j, (m, p, v) in enumerate(sell_offsets, start=len(buy_offsets)):
        trades.append(mk_trade(m, p, v, side="-", seq=j))
    return trades


def test_extract_full_vector():
    rng = np.random.default_rng(0)
    buys = [(float(rng.uniform(0, 500)), float(rng.uniform(10, 90)),
             float(rng.uniform(0.1, 5))) for _ in range(50)]
    sells = [(float(rng.uniform(0, 500)), float(rng.uniform(10, 90)),
              float(rng.uniform(0.1, 5))) for _ in range(50)]
    vec = extract_features(_two_sided(buys, sells), T_F)
    assert vec is not None
    assert vec.shape == (384,)
    assert np.isfinite(vec).all()


def test_extract_fallback_copies_next_longer_window():
    # buys: nothing in 1min, plenty in 5min
    buys = [(3.0, 40, 1), (4.0, 44, 2)]
    sells = [(0.5, 50, 1), (90.0, 55, 1)]
    trades = _two_sided(buys, sells)
    vec = extract_features(trades, T_F)
    names = list(FEATURE_NAMES)
    for family in ("vwap", "min_price", "trade_count", "sum_volume"):
        w1 = vec[names.index(f"{family}|buy|1")]
        w5 = vec[names.index(f"{family}|buy|5")]
        assert w1 == w5
    # sell 1-minute window is genuinely populated and differs from 5-minute
    assert vec[names.index("trade_count|sell|1")] == 1.0


def test_extract_fallback_idempotent_on_nonempty():
    buys = [(0.5, 40, 1), (3.0, 42, 1), (700.0, 41, 2)]
    sells = [(0.2, 50, 1), (20.0, 52, 2)]
    trades = _two_sided(buys, sells)
    vec = extract_features(trades, T_F)
    names = list(FEATURE_NAMES)
    only_w1_buy = [t for t in trades if t.side == "+"
                   and t.exec_time > T_F - dt.timedelta(minutes=1)]
    s = kernel_stats(only_w1_buy)
    assert vec[names.index("vwap|buy|1")] == s.vwap
    assert vec[names.index("trade_count|buy|1")] == s.trade_count


def test_extract_discards_empty_side():
    buys = [(1.0, 40, 1)]
    assert extract_features(_two_sided(buys, []), T_F) is None


def test_extract_discards_future_only_side():
    buys = [(1.0, 40, 1)]
    sells = [(-5.0, 50, 1)]  # sell trade after t_f only
    assert extract_features(_two_sided(buys, sells), T_F) is None


def test_extract_oracle_equivalence_1000():
    rng = np.random.default_rng(7)
    names = list(FEATURE_NAMES)
    for trial in range(1000):
        n_buy = int(rng.integers(1, 12))
        n_sell = int(rng.integers(1, 12))
        buys = [(float(rng.uniform(0, 400)), float(rng.uniform(-80, 300)),
                 float(rng.uniform(0.01, 30))) for _ in range(n_buy)]
        sells = [(float(rng.uniform(0, 400)), float(rng.uniform(-80, 300)),
                  float(rng.uniform(0.01, 30))) for _ in range(n_sell)]
        trades = _two_sided(buys, sells)
        vec = extract_features(trades, T_F)
        assert vec is not None
        for side, sign in (("buy", "+"), ("sell", "-")):
            side_trades = [t for t in trades if t.side == sign]
            for label, minutes in zip(WINDOW_LABELS, (1, 5, 15, 60, 180, math.inf)):
                in_window = window_trades(side_trades, T_F, minutes)
                if not in_window:
                    continue  # fallback handled by dedicated tests
                expected = brute_stats(in_window)
                for key, val in expected.items():
                    if "|" in key:
                        family, pct = key.split("|")
                        col = f"{family}|{side}|{label}|{pct}"
                    else:
                        col = f"{key}|{side}|{label}"
                    got = vec[names.index(col)]
                    assert got == pytest.approx(val, rel=1e-9, abs=1e-12), (trial, col)


def test_monotone_containment():
    rng = np.random.default_rng(11)
    names = list(FEATURE_NAMES)
    for _ in range(50):
        buys = [(float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
                 float(rng.uniform(0.1, 5))) for _ in range(30)]
        sells = [(float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
                  float(rng.uniform(0.1, 5))) for _ in range(30)]
        vec = extract_features(_two_sided(buys, sells), T_F)
        for side in ("buy", "sell"):
            for w1, w2 in zip(WINDOW_LABELS[:-1], WINDOW_LABELS[1:]):
                side_trades = [t for t in _two_sided(buys, sells)
                               if (t.side == "+") == (side == "buy")]
                lo = window_trades(side_trades, T_F,
                                   math.inf if w1 == "inf" else int(w1))
                if not lo:
                    continue
                assert vec[names.index(f"min_price|{side}|{w1}")] >= \
                    vec[names.index(f"min_price|{side}|{w2}")]
                assert vec[names.index(f"max_price|{side}|{w1}")] <= \
                    vec[names.index(f"max_price|{side}|{w2}")]
                assert vec[names.index(f"trade_count|{side}|{w1}")] <= \
                    vec[names.index(f"trade_count|{side}|{w2}")]
                assert vec[names.index(f"sum_volume|{side}|{w1}")] <= \
                    vec[names.index(f"sum_volume|{side}|{w2}")] + 1e-12


def test_price_shift_equivariance():
    rng = np.random.default_rng(13)
    buys = [(float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
             float(rng.uniform(0.1, 5))) for _ in range(20)]
    sells = [(float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
              float(rng.uniform(0.1, 5))) for _ in range(20)]
    base = extract_features(_two_sided(buys, sells), T_F)
    c = 37.5
    shifted = extract_features(_two_sided(
        [(m, p + c, v) for m, p, v in buys],
        [(m, p + c, v) for m, p, v in sells]), T_F)
    names = list(FEATURE_NAMES)
    shift_families = ("min_price", "max_price", "first_price", "last_price",
                      "mean_price", "vwap", "price_pctl")
    unchanged_families = ("price_vol", "delta_price", "min_volume", "max_volume",
                          "first_volume", "last_volume", "mean_volume",
                          "volume_vol", "delta_volume", "sum_volume", "trade_count")
    for i, name in enumerate(names):
        family = parse_feature_name(name)[0]
        if family in shift_families:
            assert shifted[i] == pytest.approx(base[i] + c, rel=1e-9)
        elif family in unchanged_families:
            assert shifted[i] == pytest.approx(base[i], rel=1e-12)


def _extract_at_tf(trades):
    return extract_features(trades, T_F)


def test_parallel_extraction_matches_sequential():
    rng = np.random.default_rng(17)
    batches = []
    for _ in range(8):
        buys = [(float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
                 float(rng.uniform(0.1, 5))) for _ in range(10)]
        sells = [(float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
                  float(rng.uniform(0.1, 5))) for _ in range(10)]
        batches.append(_two_sided(buys, sells))
    sequential = [extract_features(b, T_F) for b in batches]
    with get_context("spawn").Pool(2) as pool:
        parallel = pool.map(_extract_at_tf, batches)
    for s, p in zip(sequential, parallel):
        assert np.array_equal(s, p)
