"""Sample assembly's batched window kernel against per-window numpy calls."""

import datetime as dt

import numpy as np
import pytest

from bookcast import features
from bookcast.features import (FAMILIES, FEATURE_NAMES, PERCENTILES, SIDE_LABELS,
                               WINDOW_LABELS, feature_name, product_features)
from bookcast.market import BuildReport, ProductSpec, Trade, TradeTable, build_samples
from bookcast.synth import SynthConfig, generate
from bookcast.target import LEAD_TIME
from bookcast.util import UTC, to_micros
from oracles import numpy_side_windows

SPEC = ProductSpec(market="DE", product_type="60min")
START = dt.datetime(2024, 6, 1, tzinfo=UTC)
N_PRODUCTS = 24
KINDS = ("thin", "liquid", "buy_only", "sell_only", "empty", "thin_untargeted")
# minutes before t_f: every bounded window edge, repeated, and points between
EDGE_GRID = (0.0, 0.5, 1.0, 1.0, 3.0, 5.0, 5.0, 7.5, 15.0, 15.0, 20.0, 60.0, 100.0,
             180.0, 180.0, 240.0, 400.0)

# feature-vector positions of one side's (window, statistic) cells
POSITIONS = {side: np.array([[FEATURE_NAMES.index(feature_name(family, side, label, p))
                              for family, is_pctl in FAMILIES
                              for p in (PERCENTILES if is_pctl else (None,))]
                             for label in WINDOW_LABELS])
             for side in SIDE_LABELS}


def _side(rng, t_d, side, kind):
    """(exec_time, price, volume, side) rows of one side before t_f."""
    if kind == "liquid":
        n = int(rng.integers(30, 90))
        minutes = rng.integers(0, 800, n) * 0.5
    else:
        n = int(rng.integers(1, 5))
        minutes = rng.choice(EDGE_GRID, n)
    if rng.random() < 0.5:
        prices = rng.choice([-3.5, 0.0, 41.25, 41.5, 60.0], n)
        volumes = rng.choice([0.5, 1.0, 2.0], n)
    else:
        prices = rng.uniform(-80, 300, n)
        volumes = rng.uniform(0.01, 30, n)
    t_f = t_d - LEAD_TIME
    return [(t_f - dt.timedelta(minutes=float(m)), float(p), float(v), side)
            for m, p, v in zip(minutes, prices, volumes)]


def fuzzed_book(seed):
    """Trades of N_PRODUCTS hourly DE products from START, plus trades of an
    off-grid product, and the report build_samples must give for them."""
    rng = np.random.default_rng(seed)
    rows, expected = [], dict.fromkeys(
        ("n_built", "n_discarded_features", "n_discarded_with_target", "n_missing_target"), 0)
    for k in range(N_PRODUCTS):
        t_d = START + dt.timedelta(hours=k)
        kind = KINDS[k % len(KINDS)]
        product = []
        if kind not in ("empty", "sell_only"):
            product += _side(rng, t_d, "+", kind)
        if kind not in ("empty", "buy_only"):
            product += _side(rng, t_d, "-", kind)
        # the target window [t_d - 180min, t_d - 30min] and the gate's last half hour
        after = rng.choice({"thin": [0.0, 30.0, 150.0], "liquid": [0.0, 30.0, 150.0],
                            "buy_only": [30.0, 150.0]}.get(kind, [151.0, 170.0]), 3)
        product += [(t_d - LEAD_TIME + dt.timedelta(minutes=float(m)), 50.0 + m, 1.0,
                     str(rng.choice(["+", "-"]))) for m in after]
        rows += [(t_d, *row) for row in product]
        t_f = t_d - LEAD_TIME
        dropped = {"+", "-"} - {side for t, _, _, side in product if t <= t_f} != set()
        targeted = any(t_f <= t <= t_d - SPEC.delta_m for t, _, _, _ in product)
        assert dropped == (kind in ("buy_only", "sell_only", "empty"))
        expected["n_built"] += not dropped
        expected["n_discarded_features"] += dropped
        expected["n_discarded_with_target"] += dropped and targeted
        expected["n_missing_target"] += not dropped and not targeted
    off_grid = START + dt.timedelta(hours=9, minutes=30)
    rows += [(off_grid, *row) for row in _side(rng, off_grid, "+", "liquid")]
    order = rng.permutation(len(rows))
    trades = [Trade(rows[i][0], rows[i][4], rows[i][1], rows[i][2], rows[i][3], seq)
              for seq, i in enumerate(order.tolist())]
    return trades, BuildReport(n_products=N_PRODUCTS, **expected)


@pytest.mark.parametrize("seed", range(6))
def test_build_samples_matches_the_numpy_oracle_bit_for_bit(seed):
    trades, expected = fuzzed_book(seed)
    end = START + dt.timedelta(hours=N_PRODUCTS)
    samples, report = build_samples(trades, SPEC, START, end)
    assert report == expected
    empty_windows = 0
    for sample in samples:
        t_f_us = to_micros(sample.forecast_time)
        for side, sign in zip(SIDE_LABELS, ("+", "-")):
            rows = sorted((to_micros(t.exec_time), t.seq, t.price, t.volume) for t in trades
                          if t.product_start == sample.delivery_time and t.side == sign
                          and to_micros(t.exec_time) <= t_f_us)
            times, _, prices, volumes = (np.array(c) for c in zip(*rows))
            want = numpy_side_windows(times, prices, volumes, t_f_us)
            assert sample.features[POSITIONS[side]].tobytes() == want.tobytes(), \
                (sample.delivery_time, side)
            empty_windows += int(np.sum(times[-1] <= t_f_us - np.array([1, 5, 15]) * 60_000_000))
    assert empty_windows > 0


def _products(table, spec, start, end):
    order = np.argsort(table.product_us, kind="stable")
    keys = table.product_us[order]
    step = spec.duration // dt.timedelta(microseconds=1)
    deliveries = np.arange(to_micros(start), to_micros(end), step)
    lead = LEAD_TIME // dt.timedelta(microseconds=1)
    return (order, np.searchsorted(keys, deliveries, side="left"),
            np.searchsorted(keys, deliveries, side="right"), deliveries - lead)


@pytest.mark.parametrize("book", ["fuzzed", "synth"])
def test_block_size_does_not_change_a_bit(book, monkeypatch):
    if book == "fuzzed":
        spec, end = SPEC, START + dt.timedelta(hours=N_PRODUCTS)
        table = TradeTable.from_trades(fuzzed_book(7)[0])
    else:
        spec = ProductSpec(market="AT", product_type="15min")
        end = START + dt.timedelta(days=1)
        table = generate(SynthConfig(seed=3, liquidity=6.0), spec, START, end).trades
    args = (table, *_products(table, spec, START, end))
    monkeypatch.setattr(features, "BLOCK_TRADES", len(table))
    whole, kept = product_features(*args)
    assert kept.any() and (book == "synth") == kept.all()
    for block_trades in (1, 37, 500):
        monkeypatch.setattr(features, "BLOCK_TRADES", block_trades)
        blocked, kept_too = product_features(*args)
        assert blocked.tobytes() == whole.tobytes()
        assert np.array_equal(kept_too, kept)
    assert np.isnan(whole[~kept]).all() and np.isfinite(whole[kept]).all()
