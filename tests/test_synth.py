import datetime as dt
import io

import numpy as np
import pytest

from bookcast.features import FEATURE_NAMES, parse_feature_name
from bookcast.market import (ProductSpec, SplitBoundaries, build_samples,
                             parse_trades, write_trades_csv)
from bookcast.synth import SynthConfig, build_domain, generate, make_domain_pair
from bookcast.util import UTC

SPEC = ProductSpec(market="DE", product_type="60min")
START = dt.datetime(2024, 3, 1, tzinfo=UTC)


def _horizon(days):
    return START, START + dt.timedelta(days=days)


def test_same_seed_bit_identical():
    cfg = SynthConfig(seed=3, liquidity=25.0)
    a = generate(cfg, SPEC, *_horizon(2))
    b = generate(cfg, SPEC, *_horizon(2))
    assert a.trades == b.trades


def test_different_seed_differs():
    a = generate(SynthConfig(seed=1), SPEC, *_horizon(1))
    b = generate(SynthConfig(seed=2), SPEC, *_horizon(1))
    assert a.trades != b.trades


def test_output_passes_canonical_parser():
    data = generate(SynthConfig(seed=5, liquidity=20.0), SPEC, *_horizon(2))
    buf = io.StringIO()
    write_trades_csv(data.trades, buf)
    trades, rejected = parse_trades(buf.getvalue())
    assert rejected == []
    assert trades == data.trades


def test_liquidity_doubling_scales_counts():
    start, end = _horizon(21)  # ~500 products
    low = generate(SynthConfig(seed=11, liquidity=10.0), SPEC, start, end)
    high = generate(SynthConfig(seed=12, liquidity=20.0), SPEC, start, end)
    n_products = 21 * 24
    mean_low = len(low.trades) / n_products
    mean_high = len(high.trades) / n_products
    assert mean_high / mean_low == pytest.approx(2.0, rel=0.05)


def test_poisson_counts_within_three_standard_errors():
    cfg = SynthConfig(seed=13, liquidity=15.0)
    start, end = _horizon(42)  # ~1000 products
    data = generate(cfg, SPEC, start, end)
    n_products = 42 * 24
    expected = cfg.liquidity * (cfg.session_hours - 0.5)  # DE gate closure 30 min
    observed = len(data.trades) / n_products
    se = np.sqrt(expected / n_products)
    assert abs(observed - expected) <= 3 * se


def test_zero_volatility_zero_spread_prices_equal_base():
    cfg = SynthConfig(seed=17, liquidity=30.0, volatility=0.0, half_spread=0.0,
                      base_price=42.0)
    start, end = _horizon(1)
    data = generate(cfg, SPEC, start, end)
    assert all(t.price == 42.0 for t in data.trades)
    samples, _ = build_samples(data.trades, SPEC, start, end)
    names = list(FEATURE_NAMES)
    price_level_families = {"price_pctl", "min_price", "max_price", "first_price",
                            "last_price", "mean_price", "vwap"}
    for s in samples:
        if s.target_id3 is not None:
            assert s.target_id3 == 42.0
        for i, name in enumerate(names):
            family = parse_feature_name(name)[0]
            if family in price_level_families:
                assert s.features[i] == 42.0, name
            elif family in ("price_vol", "delta_price", "momentum"):
                assert s.features[i] == 0.0, name


def test_trades_strictly_inside_session():
    cfg = SynthConfig(seed=19, liquidity=50.0, session_hours=6.0)
    start, end = _horizon(1)
    data = generate(cfg, SPEC, start, end)
    for t in data.trades:
        open_time = t.product_start - dt.timedelta(hours=6)
        gate = t.product_start - dt.timedelta(minutes=30)
        assert open_time < t.exec_time < gate


def test_volumes_positive():
    data = generate(SynthConfig(seed=23), SPEC, *_horizon(1))
    assert all(t.volume > 0 for t in data.trades)


def _boundaries(days_train, days_val, days_total):
    return SplitBoundaries(START + dt.timedelta(days=days_train),
                           START + dt.timedelta(days=days_train + days_val),
                           START + dt.timedelta(days=days_total))


def test_make_domain_pair_equal_liquidity_unit_ratio():
    from bookcast.transfer import trade_count_ratio
    start, end = _horizon(21)
    b = _boundaries(11, 4, 21)
    cfg_a = SynthConfig(seed=1, liquidity=12.0)
    cfg_b = SynthConfig(seed=2, liquidity=12.0)
    A, B = make_domain_pair(cfg_a, cfg_b, SPEC, start, end, b)
    assert trade_count_ratio(A, B) == pytest.approx(1.0, rel=0.10)


def test_make_domain_pair_tenfold_ratio():
    from bookcast.transfer import trade_count_ratio
    start, end = _horizon(21)
    b = _boundaries(11, 4, 21)
    cfg_a = SynthConfig(seed=3, liquidity=5.0)
    cfg_b = SynthConfig(seed=4, liquidity=50.0)
    A, B = make_domain_pair(cfg_a, cfg_b, SPEC, start, end, b)
    assert trade_count_ratio(A, B) == pytest.approx(10.0, rel=0.15)


def test_make_domain_pair_identical_configs_identical_domains():
    start, end = _horizon(7)
    b = _boundaries(4, 1, 7)
    cfg = SynthConfig(seed=9, liquidity=15.0)
    A, B = make_domain_pair(cfg, cfg, SPEC, start, end, b)
    assert A.avg_matched_trades == B.avg_matched_trades
    xa = np.vstack([s.features for s in A.split.test])
    xb = np.vstack([s.features for s in B.split.test])
    assert np.array_equal(xa, xb)


def test_make_domain_pair_rejects_mismatched_price_process():
    start, end = _horizon(7)
    b = _boundaries(4, 1, 7)
    with pytest.raises(ValueError):
        make_domain_pair(SynthConfig(seed=1, volatility=1.0),
                         SynthConfig(seed=2, volatility=2.0),
                         SPEC, start, end, b)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(liquidity=0.0)


def test_build_domain_reports_counts():
    cfg = SynthConfig(seed=29, liquidity=20.0)
    start, end = _horizon(7)
    dom, report = build_domain("X", cfg, SPEC, start, end, _boundaries(4, 1, 7))
    assert report.n_products == 7 * 24
    assert dom.avg_matched_trades > 0
    assert len(dom.split.train) > len(dom.split.val)


def test_quarter_hour_products_end_to_end():
    # AT gate closure is zero, so the target window runs to delivery
    spec = ProductSpec(market="AT", product_type="15min")
    start, end = _horizon(3)
    cfg = SynthConfig(seed=31, liquidity=40.0, session_hours=6.0)
    data = generate(cfg, spec, start, end)
    samples, report = build_samples(data.trades, spec, start, end)
    assert report.n_products == 3 * 96
    supervised_targets = [s for s in samples if s.target_id3 is not None]
    assert len(supervised_targets) > 0.9 * report.n_built
    for s in samples[:50]:
        assert s.delivery_time - s.forecast_time == dt.timedelta(minutes=180)
        assert s.features.shape == (384,)
