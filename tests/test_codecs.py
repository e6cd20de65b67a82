"""The columnar trade and sample CSV codecs against the per-row references
in ``oracles``: the same bytes written, the same values, rejected rows and
errors read, on any block size. The samples' ``.npy`` sidecar loads the
values the CSV reader gives."""

import contextlib
import csv
import dataclasses
import datetime as dt
import io
import tracemalloc
import zoneinfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookcast import market
from bookcast.features import FEATURE_NAMES
from bookcast.market import (ProductSpec, Sample, TradeTable, load_samples, parse_trades,
                             read_samples_csv, save_samples, write_samples_csv,
                             write_trades_csv)
from bookcast.synth import SynthConfig, generate
from bookcast.util import (UTC, format_micros, format_timestamp, from_micros,
                           parse_micros, parse_timestamp, to_micros)
from oracles import (reference_parse_trades, reference_read_samples_csv,
                     reference_write_samples_csv, reference_write_trades_csv)

BERLIN = zoneinfo.ZoneInfo("Europe/Berlin")
HEADER = "product_start,side,exec_time,price,volume"
FIRST_PRODUCT = to_micros(dt.datetime(2024, 3, 30, tzinfo=UTC))  # spans a DST change
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1e-7,
               1.0, 50.0, -3.0, 123456789.0, 0.1 + 0.2, 1 / 3, -1.7976931348623157e308]
# before 1970 and at both ends of the datetime range, with and without microseconds
EDGE_MICROS = [to_micros(dt.datetime(*t, tzinfo=UTC)) for t in [
    (1, 1, 1), (1969, 12, 31, 23, 59, 59, 999999), (1970, 1, 1), (2000, 2, 29, 1, 2, 3, 4),
    (2024, 3, 31, 1, 0), (2024, 10, 27, 2, 59, 59, 500000), (9999, 12, 31, 23, 59, 59, 999999)]]


@contextlib.contextmanager
def _block_rows(rows):
    """The codecs' blocks set to ``rows`` trade rows inside the ``with`` body."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "BLOCK_FIELDS", 5 * rows)
        yield


def _outcome(parse, text, newline, tz):
    """(table columns, rejected rows) or (exception type, message, line, field)."""
    source = text if newline is None else io.StringIO(text, newline=newline)
    try:
        table, rejected = parse(source, tz)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)
    return [c.tobytes() for c in table.columns()], rejected


def _stamp(us, naive):
    """A timestamp of ``us``: canonical, or naive Europe/Berlin local time."""
    t = from_micros(us)
    if naive:
        return t.astimezone(BERLIN).replace(tzinfo=None).isoformat()
    return format_timestamp(t)


def _trade_text(rng):
    """A trade file of mostly canonical rows with every kind of irregular one:
    blank lines, CRLF endings, quoted and padded fields, naive local times,
    rejected rows and, now and then, one row that does not parse."""
    lines = [HEADER]
    n = int(rng.integers(0, 40))
    broken = int(rng.integers(0, n)) if n and rng.random() < 0.4 else -1
    naive_ok = rng.random() < 0.5  # naive rows only in files read with tz
    for i in range(n):
        if rng.random() < 0.08:
            lines.append("")
        product = FIRST_PRODUCT + int(rng.integers(0, 72)) * 3_600_000_000
        exec_us = product - int(rng.integers(1, 600)) * 60_000_000
        if rng.random() < 0.5:
            exec_us += int(rng.integers(1, 1_000_000))
        price = repr(float(rng.normal(50, 30)))
        volume = repr(float(rng.choice([rng.lognormal(), 1.0, 2.5])))
        if rng.random() < 0.1:
            volume = rng.choice(["0.0", "-1.5", "-0.0"])
        if rng.random() < 0.1:
            exec_us = product + int(rng.integers(0, 2)) * 60_000_000
        naive = naive_ok and rng.random() < 0.15
        row = [_stamp(product, naive), "+" if rng.random() < 0.5 else "-",
               _stamp(exec_us, naive), price, volume]
        if rng.random() < 0.05:
            j = int(rng.integers(0, 5))
            row[j] = f"  {row[j]} "
        if rng.random() < 0.05:
            j = int(rng.integers(0, 5))
            row[j] = f'"{row[j]}"'
        if rng.random() < 0.03:
            row[3] = f'"{row[3]}\n"'  # one record on two lines; float() strips the \n
        if i == broken:
            kind = int(rng.integers(0, 8))
            if kind == 0:
                row = row[:4]
            elif kind == 1:
                row = row + [row[0]]
            elif kind == 2:
                row[3] = rng.choice(["nan", "inf", "-inf"])
            elif kind == 3:
                row[4] = rng.choice(["nan", "x", "5,0"])
            elif kind == 4:
                row[1] = rng.choice(["buy", "", "x", "++"])
            elif kind == 5:
                row[2] = rng.choice(["2024-13-01T00:00:00Z", "2023-02-29T00:00:00Z",
                                     "2024-03-01T24:00:00Z", "2024-03-01T00:60:00Z",
                                     "2024-03-01T00:00:60Z", "0000-03-01T00:00:00Z",
                                     "２024-03-01T00:00:00Z", "2024-03-01T00:00:00.5Z",
                                     "soon"])
            elif kind == 6:
                row[3] = '"50.\n0"'  # a quoted field that spans two lines
            else:
                row[0] = row[0].replace("T", "\rT", 1)
        lines.append(",".join(row))
    ends = [rng.choice(["\n", "\r\n"]) for _ in lines]
    if rng.random() < 0.5:
        ends = ["\r\n"] * len(lines)
    if rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), naive_ok


def test_timestamp_columns_match_the_scalar_codec():
    us = np.array(EDGE_MICROS + list(np.random.default_rng(3).integers(
        min(EDGE_MICROS), max(EDGE_MICROS), size=500)))
    texts = format_micros(us)
    assert texts == [format_timestamp(from_micros(u)) for u in us.tolist()]
    assert parse_micros(texts).tolist() == us.tolist()


@pytest.mark.parametrize("text, taken", [
    ("2000-02-29T00:00:00Z", True), ("2024-04-30T23:59:59.999999Z", True),
    ("2024-06-01T12:00:00.000000Z", True),
    # invalid dates and times, which parse_timestamp rejects too
    ("2023-02-29T00:00:00Z", False), ("1900-02-29T00:00:00Z", False),
    ("2024-04-31T00:00:00Z", False), ("2024-00-10T00:00:00Z", False),
    ("2024-06-00T00:00:00Z", False), ("2024-06-01T24:00:00Z", False),
    ("2024-06-01T12:60:00Z", False), ("2024-06-01T12:00:60Z", False),
    ("0000-01-01T00:00:00Z", False), ("２024-06-01T12:00:00Z", False),
    ("2024-06-01T12:00:0٠Z", False),
    # other forms parse_timestamp reads, left to the per-row parse
    ("2024-06-01T12:00:00.00000Z", False), ("2024-06-01 12:00:00Z", False),
    ("2024-06-01T12:00:00", False), ("2024-06-01T12:00:00+00:00", False),
    (" 2024-06-01T12:00:00Z", False), ("2024-06-01T12:00:00z", False),
])
def test_parse_micros_reads_a_timestamp_as_parse_timestamp_does_or_not_at_all(text, taken):
    try:
        expected = [to_micros(parse_timestamp(text))]
    except ValueError:
        expected = None
    got = parse_micros([text])
    assert (got is not None) == taken
    assert got is None or got.tolist() == expected


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([1, 2, 3, 7, 4096]),
       newline=st.sampled_from([None, "", "\n"]))
def test_parse_trades_matches_the_per_row_reference(seed, rows, newline):
    text, naive = _trade_text(np.random.default_rng(seed))
    tz = BERLIN if naive else UTC
    with _block_rows(rows):
        got = _outcome(parse_trades, text, newline, tz)
    assert got == _outcome(reference_parse_trades, text, newline, tz)


@pytest.mark.parametrize("rows", [1, 5, 4096])
def test_parse_trades_keeps_line_order_and_seq_across_blocks(rows):
    data = generate(SynthConfig(seed=1, liquidity=3.0),
                    ProductSpec(market="AT", product_type="15min"),
                    dt.datetime(2024, 3, 1, tzinfo=UTC), dt.datetime(2024, 3, 2, tzinfo=UTC))
    buf = io.StringIO()
    write_trades_csv(data.trades, buf)
    lines = buf.getvalue().split("\r\n")
    lines[9] = lines[9].rsplit(",", 1)[0] + ",-2.0"  # rejected in a canonical block
    lines[20] = '"' + lines[20].replace(",", '","') + '"'  # a block read row by row
    lines[21] = ""
    text = "\r\n".join(lines)
    with _block_rows(rows):
        got = _outcome(parse_trades, text, None, UTC)
    expected = _outcome(reference_parse_trades, text, None, UTC)
    assert got == expected and [r.line for r in got[1]] == [10]


@pytest.mark.parametrize("rows", [1, 3, 4096])
def test_write_trades_csv_bytes_match_the_reference(rows):
    rng = np.random.default_rng(19)
    n = 200
    values = np.array(EDGE_FLOATS + [float("nan"), float("inf")])
    product = rng.choice(EDGE_MICROS, size=n)
    offset = rng.integers(0, 10**9, size=n)
    exec_us = np.where(product - offset >= min(EDGE_MICROS), product - offset, product + offset)
    price = np.where(rng.random(n) < 0.5, rng.choice(values, size=n), rng.normal(size=n))
    table = TradeTable(product, exec_us, rng.random(n) < 0.5, price,
                       rng.choice(values, size=n), np.arange(n))._by_time()
    expected = io.StringIO()
    reference_write_trades_csv(table, expected)
    got = io.StringIO()
    with _block_rows(rows):
        write_trades_csv(table, got)
    assert got.getvalue() == expected.getvalue()


def _edge_samples(n, rng):
    t_d = dt.datetime(2024, 3, 1, 12, tzinfo=UTC)
    samples = []
    for i in range(n):
        features = rng.normal(size=len(FEATURE_NAMES)) * 10.0 ** rng.integers(-8, 9)
        features[rng.integers(0, len(FEATURE_NAMES), size=30)] = rng.choice(EDGE_FLOATS, size=30)
        delivery = t_d + dt.timedelta(hours=i, microseconds=int(rng.integers(0, 2)) * 250)
        target = None if i % 4 == 1 else float(rng.choice(EDGE_FLOATS + [55.123456789]))
        samples.append(Sample(delivery, delivery - dt.timedelta(hours=3), features, target,
                              int(rng.integers(0, 1000))))
    return samples


# NaN with the default payload, another payload and the sign bit, and infinities
NON_FINITE = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000123,
                       0x7FF0000000000000, 0xFFF0000000000000], dtype=np.uint64).view(np.float64)


def _non_finite_samples(n, rng):
    samples = _edge_samples(n, rng)
    for i, s in enumerate(samples):
        s.features[rng.integers(0, len(FEATURE_NAMES), size=40)] = rng.choice(NON_FINITE, size=40)
        if i % 4 == 2:
            samples[i] = dataclasses.replace(s, target_id3=float(NON_FINITE[i % 5]))
    return samples


def _check_sample_codecs(samples, extra, rows, tmp_path):
    """Both codecs against the reference, and the sidecar of the written
    file against the CSV reader."""
    expected = io.StringIO()
    reference_write_samples_csv(samples, expected, extra=extra)
    got = io.StringIO()
    with _block_rows(rows):  # 200 rows of trades are 2 rows of samples
        write_samples_csv(samples, got, extra=extra)
        assert got.getvalue() == expected.getvalue()
        for newline in (None, ""):
            read = read_samples_csv(io.StringIO(got.getvalue(), newline=newline))
            reference = reference_read_samples_csv(io.StringIO(got.getvalue(), newline=newline))
            assert len(read) == len(reference) == len(samples)
            _assert_same_samples(read, reference)
    path = tmp_path / "features.csv"
    save_samples(samples, path, extra)
    assert path.read_bytes() == got.getvalue().encode("utf-8")
    _assert_same_samples(load_samples(path), read)


def _assert_same_samples(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.delivery_time, a.forecast_time, a.matched_trade_count) == \
            (b.delivery_time, b.forecast_time, b.matched_trade_count)
        assert repr(a.target_id3) == repr(b.target_id3)
        assert a.features.tobytes() == b.features.tobytes()


@pytest.mark.parametrize("extra", [
    None, {},
    {"config_hash": "0d92db74c005", "tool_version": "0.1.0"},
    {"note": 'a,b "c"\nd', "n": 3},
    {"empty": ""},
    {"cr": "x\ry", "x": 1.5},
])
@pytest.mark.parametrize("rows", [200, 4096])
def test_sample_codecs_match_the_reference(extra, rows, tmp_path):
    _check_sample_codecs(_edge_samples(9, np.random.default_rng(7)), extra, rows, tmp_path)


@pytest.mark.parametrize("rows", [200, 4096])
def test_sample_codecs_match_the_reference_on_non_finite_values(rows, tmp_path):
    samples = _non_finite_samples(9, np.random.default_rng(11))
    assert any(s.target_id3 is not None and np.isnan(s.target_id3) for s in samples)
    _check_sample_codecs(samples, {"config_hash": "0d92db74c005"}, rows, tmp_path)


def test_parse_trades_peak_memory_is_bounded_by_the_block(tmp_path):
    """Text is read a block of lines at a time, so the transient lines,
    fields and strings stay one block's worth and the columns set the peak.
    The per-row parser this replaced peaked at 8.4x the table's bytes on
    this file (a tuple of Python objects per row); splitting the whole file
    into fields at once costs more than that."""
    data = generate(SynthConfig(seed=0, liquidity=20.0), ProductSpec(market="DE"),
                    dt.datetime(2024, 3, 1, tzinfo=UTC), dt.datetime(2024, 3, 10, tzinfo=UTC))
    assert len(data.trades) > 45_000
    path = tmp_path / "trades.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_trades_csv(data.trades, fh)
    with open(path, newline="", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            table, _ = parse_trades(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert table == data.trades
    assert peak < 4 * sum(c.nbytes for c in table.columns())
