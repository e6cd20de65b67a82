import datetime as dt
import io

import numpy as np
import pytest

from bookcast.features import FEATURE_NAMES, WINDOW_LABELS, extract_features
from bookcast.market import (ProductSpec, SampleParseError, SplitBoundaries, Trade,
                             TradeParseError, TradeTable, build_samples,
                             enumerate_products, parse_trades, read_samples_csv,
                             split_dataset, supervised, write_samples_csv,
                             write_trades_csv)
from bookcast.synth import SynthConfig, generate
from bookcast.target import LEAD_TIME, compute_id3
from bookcast.util import UTC
from conftest import mk_trade, mk_window_trade

HEADER = "product_start,side,exec_time,price,volume\n"


def test_parse_single_valid_row():
    csv = HEADER + "2024-06-01T12:00:00Z,+,2024-06-01T08:00:00Z,50.0,5.0\n"
    trades, rejected = parse_trades(csv)
    assert rejected == []
    assert len(trades) == 1
    t = trades[0]
    assert t.side == "+" and t.seq == 0
    assert t.price == 50.0 and t.volume == 5.0
    assert t.exec_time == dt.datetime(2024, 6, 1, 8, tzinfo=UTC)


def test_parse_rejects_bad_volume_with_line():
    csv = (HEADER
           + "2024-06-01T12:00:00Z,+,2024-06-01T08:00:00Z,50.0,5.0\n"
           + "2024-06-01T12:00:00Z,+,2024-06-01T08:00:00Z,50.0,-1\n")
    trades, rejected = parse_trades(csv)
    assert len(trades) == 1
    assert len(rejected) == 1
    assert rejected[0].line == 3
    assert "volume" in rejected[0].reason


def test_parse_rejects_exec_after_delivery():
    csv = HEADER + "2024-06-01T12:00:00Z,-,2024-06-01T12:00:00Z,50.0,5.0\n"
    trades, rejected = parse_trades(csv)
    assert trades == []
    assert rejected[0].line == 2


def test_parse_stable_order_on_time_ties():
    csv = (HEADER
           + "2024-06-01T12:00:00Z,+,2024-06-01T08:00:00Z,1.0,1.0\n"
           + "2024-06-01T12:00:00Z,-,2024-06-01T08:00:00Z,2.0,1.0\n")
    trades, _ = parse_trades(csv)
    assert [t.seq for t in trades] == [0, 1]
    assert [t.price for t in trades] == [1.0, 2.0]


def test_parse_malformed_row_raises_with_line():
    csv = HEADER + "garbage,+,also-garbage,x,y\n"
    with pytest.raises(TradeParseError) as err:
        parse_trades(csv)
    assert err.value.line == 2


GOOD_ROW = ["2024-06-01T12:00:00Z", "+", "2024-06-01T08:00:00Z", "50.0", "5.0"]


@pytest.mark.parametrize("field, column, value", [
    ("product_start", 0, "2024-13-01T12:00:00Z"),
    ("side", 1, "buy"),
    ("exec_time", 2, "not-a-time"),
    ("price", 3, "fifty"),
    ("volume", 4, "5,0"),
    ("price", 3, "inf"),
    ("volume", 4, "nan"),
])
def test_parse_error_names_line_and_field(field, column, value):
    bad = list(GOOD_ROW)
    bad[column] = value
    csv = HEADER + ",".join(GOOD_ROW) + "\n" + "\n" + '"' + '","'.join(bad) + '"\n'
    with pytest.raises(TradeParseError) as err:
        parse_trades(csv)
    assert err.value.line == 4
    assert err.value.field == field
    assert f"line 4, field '{field}': " in str(err.value)


def test_parse_bad_header_raises():
    with pytest.raises(TradeParseError):
        parse_trades("a,b,c\n1,2,3\n")


def test_parse_empty_input_raises_at_line_1():
    with pytest.raises(TradeParseError) as err:
        parse_trades("")
    assert err.value.line == 1 and err.value.field is None


def test_parse_naive_timestamps_use_tz():
    import zoneinfo
    csv = HEADER + "2024-06-01T12:00:00,+,2024-06-01T08:00:00,50.0,5.0\n"
    trades, _ = parse_trades(csv, zoneinfo.ZoneInfo("Europe/Berlin"))
    assert trades[0].exec_time == dt.datetime(2024, 6, 1, 6, tzinfo=UTC)


def test_trade_csv_round_trip():
    rng = np.random.default_rng(5)
    trades = [mk_trade(float(rng.uniform(0, 600)), float(rng.uniform(-50, 300)),
                       float(rng.uniform(0.01, 20)),
                       side="+" if rng.random() < 0.5 else "-", seq=i)
              for i in range(200)]
    trades.sort(key=lambda t: (t.exec_time, t.seq))
    trades = [Trade(t.product_start, t.side, t.exec_time, t.price, t.volume, i)
              for i, t in enumerate(trades)]
    buf = io.StringIO()
    write_trades_csv(trades, buf)
    reparsed, rejected = parse_trades(buf.getvalue())
    assert rejected == []
    assert reparsed == trades


def test_trade_table_acts_as_trade_sequence():
    data = generate(SynthConfig(seed=2, liquidity=5.0), ProductSpec(market="DE"),
                    dt.datetime(2024, 6, 1, tzinfo=UTC), dt.datetime(2024, 6, 2, tzinfo=UTC))
    table, rows = data.trades, list(data.trades)
    assert len(table) == len(rows) > 10
    assert table[0] == rows[0] and table[-1] == rows[-1]
    assert table[3:9] == rows[3:9] and len(table[3:9]) == 6
    assert table == rows and table == TradeTable.from_trades(rows[::-1])
    assert table != rows[1:] and table[1:] != rows[:-1]
    assert [t.seq for t in rows] == list(range(len(rows)))
    assert table != [1, 2] and table != "trades"
    with pytest.raises(IndexError):
        table[len(rows)]
    with pytest.raises(ValueError):
        table[::-1]


def test_enumerate_60min_day():
    spec = ProductSpec(market="DE", product_type="60min")
    start = dt.datetime(2024, 6, 1, tzinfo=UTC)
    out = enumerate_products(spec, start, start + dt.timedelta(days=1))
    assert len(out) == 24
    assert out[0] == start


def test_enumerate_15min_day():
    spec = ProductSpec(market="DE", product_type="15min")
    start = dt.datetime(2024, 6, 1, tzinfo=UTC)
    assert len(enumerate_products(spec, start, start + dt.timedelta(days=1))) == 96


def test_enumerate_15min_alignment():
    spec = ProductSpec(market="AT", product_type="15min")
    start = dt.datetime(2024, 6, 1, 12, 0, tzinfo=UTC)
    out = enumerate_products(spec, start, start + dt.timedelta(hours=1))
    assert out == [start + dt.timedelta(minutes=m) for m in (0, 15, 30, 45)]


def test_enumerate_unaligned_start_rounds_up():
    spec = ProductSpec(market="DE", product_type="60min")
    start = dt.datetime(2024, 6, 1, 11, 30, tzinfo=UTC)
    out = enumerate_products(spec, start, start + dt.timedelta(hours=2))
    assert out[0] == dt.datetime(2024, 6, 1, 12, 0, tzinfo=UTC)


def test_product_spec_gate_closures():
    assert ProductSpec(market="DE").delta_m == dt.timedelta(minutes=30)
    assert ProductSpec(market="AT").delta_m == dt.timedelta(minutes=0)
    custom = ProductSpec(market="custom", delta_m=dt.timedelta(minutes=5))
    assert custom.delta_m == dt.timedelta(minutes=5)
    with pytest.raises(ValueError):
        ProductSpec(market="XX")


def test_gate_closure_must_precede_the_feature_cutoff():
    # features stop at t_d - LEAD_TIME, where the target window opens
    one_us = dt.timedelta(microseconds=1)
    assert ProductSpec(market="custom", delta_m=LEAD_TIME - one_us).delta_m < LEAD_TIME
    with pytest.raises(ValueError, match="delta_m"):
        ProductSpec(market="custom", delta_m=LEAD_TIME)


def _product_trades(t_d, spread_sides=True):
    trades = [
        mk_trade(10, 50, 1, side="+", seq=0, t_d=t_d),
        mk_trade(5, 51, 2, side="-", seq=1, t_d=t_d),
        mk_window_trade(30, 60, 1, side="+", seq=2, t_d=t_d),
        mk_window_trade(60, 62, 2, side="-", seq=3, t_d=t_d),
    ]
    return trades


def test_build_samples_de_window(t_d):
    spec = ProductSpec(market="DE", product_type="60min")
    start = t_d
    end = t_d + dt.timedelta(hours=1)
    samples, report = build_samples(_product_trades(t_d), spec, start, end)
    assert report.n_products == 1
    assert len(samples) == 1
    s = samples[0]
    assert s.forecast_time == t_d - dt.timedelta(minutes=180)
    # both target-window trades fall inside [t_f, t_d - 30min]
    assert s.matched_trade_count == 2
    assert s.target_id3 == pytest.approx((60 * 1 + 62 * 2) / 3)


def test_build_samples_at_window_includes_late_trade(t_d):
    spec = ProductSpec(market="AT", product_type="60min")
    late = Trade(t_d, "+", t_d - dt.timedelta(minutes=10), 100.0, 1.0, 9)
    trades = _product_trades(t_d) + [late]
    samples, _ = build_samples(trades, spec, t_d, t_d + dt.timedelta(hours=1))
    assert samples[0].matched_trade_count == 3  # DE window would exclude the late one


def test_build_samples_empty_target_window(t_d):
    spec = ProductSpec(market="DE", product_type="60min")
    trades = [mk_trade(10, 50, 1, side="+", seq=0, t_d=t_d),
              mk_trade(5, 51, 2, side="-", seq=1, t_d=t_d)]
    samples, report = build_samples(trades, spec, t_d, t_d + dt.timedelta(hours=1))
    assert len(samples) == 1
    assert samples[0].target_id3 is None
    assert report.n_missing_target == 1
    assert supervised(samples) == []


def test_build_samples_one_sided_history_discarded(t_d):
    spec = ProductSpec(market="DE", product_type="60min")
    trades = [mk_trade(10, 50, 1, side="+", seq=0, t_d=t_d),
              mk_window_trade(30, 60, 1, side="+", seq=1, t_d=t_d)]
    samples, report = build_samples(trades, spec, t_d, t_d + dt.timedelta(hours=1))
    assert samples == []
    assert report.n_discarded_features == 1
    assert report.n_discarded_with_target == 1


def test_build_samples_matches_per_product_extract():
    spec = ProductSpec(market="AT", product_type="15min")
    start = dt.datetime(2024, 6, 1, tzinfo=UTC)
    end = start + dt.timedelta(days=1)
    table = generate(SynthConfig(seed=4, liquidity=3.0, session_hours=6.0),
                     spec, start, end).trades
    samples, report = build_samples(table, spec, start, end)
    built = {s.delivery_time: s for s in samples}
    rows = list(table)
    n_dropped = 0
    for t_d in enumerate_products(spec, start, end):
        product = [t for t in rows if t.product_start == t_d]
        vec = extract_features(product, t_d - LEAD_TIME)
        if vec is None:
            n_dropped += 1
            assert t_d not in built
            continue
        assert built[t_d].features.tobytes() == vec.tobytes()
        id3 = compute_id3(product, t_d, spec.delta_m)
        assert built[t_d].target_id3 == id3.value
        assert built[t_d].matched_trade_count == id3.trades_used
    assert n_dropped == report.n_discarded_features > 0
    assert len(built) == report.n_built > 0


@pytest.mark.parametrize("market, product_type, liquidity", [
    ("AT", "15min", 2.0),
    ("DE", "60min", 40.0),
])
def test_built_samples_carry_the_structural_duplicate_columns(market, product_type,
                                                               liquidity):
    # the last trade lies in every non-empty window and an empty window
    # borrows a longer one's row, so last_* repeats across windows; delta_*
    # is last_* - first_* by construction
    spec = ProductSpec(market=market, product_type=product_type)
    start = dt.datetime(2024, 6, 1, tzinfo=UTC)
    end = start + dt.timedelta(days=2)
    trades = generate(SynthConfig(seed=6, liquidity=liquidity), spec, start, end).trades
    samples, _ = build_samples(trades, spec, start, end)
    assert len(samples) > 20
    X = np.vstack([s.features for s in samples])
    col = {name: X[:, i] for i, name in enumerate(FEATURE_NAMES)}
    n_dup = n_delta = 0
    for quantity in ("price", "volume"):
        for side in ("buy", "sell"):
            for w in WINDOW_LABELS:
                key = f"{side}|{w}"
                if w != "inf":
                    assert np.array_equal(col[f"last_{quantity}|{key}"],
                                          col[f"last_{quantity}|{side}|inf"]), key
                    n_dup += 1
                assert np.array_equal(
                    col[f"delta_{quantity}|{key}"],
                    col[f"last_{quantity}|{key}"] - col[f"first_{quantity}|{key}"]), key
                n_delta += 1
    assert (n_dup, n_delta) == (20, 24)


def test_split_boundaries_and_partition(t_d):
    b = SplitBoundaries(dt.datetime(2024, 1, 1, tzinfo=UTC),
                        dt.datetime(2024, 7, 1, tzinfo=UTC),
                        dt.datetime(2025, 1, 1, tzinfo=UTC))

    def sample_at(when):
        from bookcast.market import Sample
        return Sample(when, when - dt.timedelta(minutes=180), None, 1.0, 1)

    split = split_dataset([
        sample_at(dt.datetime(2023, 6, 1, tzinfo=UTC)),     # train
        sample_at(dt.datetime(2024, 1, 1, tzinfo=UTC)),     # boundary -> val
        sample_at(dt.datetime(2024, 7, 1, tzinfo=UTC)),     # boundary -> test
        sample_at(dt.datetime(2024, 12, 31, tzinfo=UTC)),   # test
    ], b)
    assert len(split.train) == 1
    assert len(split.val) == 1
    assert len(split.test) == 2
    assert split.train[0].delivery_time.year == 2023


def test_split_degenerate_all_train(caplog):
    b = SplitBoundaries(dt.datetime(2024, 1, 1, tzinfo=UTC),
                        dt.datetime(2024, 7, 1, tzinfo=UTC),
                        dt.datetime(2025, 1, 1, tzinfo=UTC))
    from bookcast.market import Sample
    samples = [Sample(dt.datetime(2023, m, 1, tzinfo=UTC), dt.datetime(2023, m, 1, 9, tzinfo=UTC),
                      None, 1.0, 1) for m in range(1, 6)]
    import logging
    with caplog.at_level(logging.WARNING, logger="bookcast.market"):
        split = split_dataset(samples, b)
    assert len(split.train) == 5
    assert split.val == [] and split.test == []
    assert any("empty" in rec.message for rec in caplog.records)


def test_lead_time_invariant_on_built_samples(t_d):
    spec = ProductSpec(market="DE", product_type="60min")
    samples, _ = build_samples(_product_trades(t_d), spec, t_d,
                               t_d + dt.timedelta(hours=1))
    for s in samples:
        assert s.delivery_time - s.forecast_time == dt.timedelta(minutes=180)


def _three_samples():
    spec = ProductSpec(market="DE", product_type="60min")
    t_d0 = dt.datetime(2024, 6, 1, 12, tzinfo=UTC)
    trades = []
    for k in range(3):
        t_d = t_d0 + dt.timedelta(hours=k)
        trades += [mk_trade(10, 50 + k, 1, side="+", seq=3 * k, t_d=t_d),
                   mk_trade(5, 51 + k, 2, side="-", seq=3 * k + 1, t_d=t_d),
                   mk_window_trade(30, 60 + k, 1, side="+", seq=3 * k + 2, t_d=t_d)]
    samples, _ = build_samples(trades, spec, t_d0, t_d0 + dt.timedelta(hours=3))
    return samples


def _samples_csv_lines(extra=None):
    buf = io.StringIO()
    write_samples_csv(_three_samples(), buf, extra=extra)
    return buf.getvalue().split("\r\n")


def test_samples_csv_round_trip():
    samples = _three_samples()
    buf = io.StringIO()
    write_samples_csv(samples, buf)
    buf.seek(0)
    reparsed = read_samples_csv(buf)
    assert len(reparsed) == len(samples)
    for a, b in zip(samples, reparsed):
        assert a.delivery_time == b.delivery_time
        assert a.forecast_time == b.forecast_time
        assert a.target_id3 == b.target_id3
        assert a.matched_trade_count == b.matched_trade_count
        assert np.array_equal(a.features, b.features)


def test_read_samples_csv_rejects_a_row_short_of_features():
    lines = _samples_csv_lines()
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:4 + 300])  # 300 of the 384 features
    with pytest.raises(SampleParseError) as err:
        read_samples_csv(io.StringIO("\r\n".join(lines)))
    assert str(err.value) == "line 3: expected 388 fields, got 304"
    assert err.value.line == 3 and err.value.field is None


def test_read_samples_csv_names_the_line_and_field_of_a_bad_value():
    lines = _samples_csv_lines(extra={"config_hash": "abc"})
    fields = lines[2].split(",")
    fields[4 + FEATURE_NAMES.index("vwap|buy|15")] = "x"
    lines[2] = ",".join(fields)
    # a record spans two lines with its quoted extra value, and a blank
    # record follows: the bad row is the fourth record
    lines[1] = lines[1][:-len("abc")] + '"a\r\nb"'
    lines.insert(2, "")
    with pytest.raises(SampleParseError) as err:
        read_samples_csv(io.StringIO("\r\n".join(lines), newline=""))
    assert str(err.value) == ("line 4, field 'vwap|buy|15': "
                              "could not convert string to float: 'x'")


def test_split_partition_accounting():
    import datetime as dtm
    from bookcast.synth import SynthConfig, generate
    spec = ProductSpec(market="DE", product_type="60min")
    start = dtm.datetime(2024, 3, 1, tzinfo=UTC)
    end = start + dtm.timedelta(days=5)
    data = generate(SynthConfig(seed=3, liquidity=4.0, session_hours=6.0),
                    spec, start, end)
    samples, report = build_samples(data.trades, spec, start, end)
    b = SplitBoundaries(start + dtm.timedelta(days=3),
                        start + dtm.timedelta(days=4), end)
    split = split_dataset(supervised(samples), b)
    n_candidates_with_target = (len(supervised(samples))
                                + report.n_discarded_with_target)
    n_partitioned = (len(split.train) + len(split.val) + len(split.test)
                     + report.n_discarded_with_target)
    assert n_partitioned == n_candidates_with_target
