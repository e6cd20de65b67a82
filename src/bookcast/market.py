"""Trade ingestion, delivery-product calendars, sample assembly, and splits.

All timestamps are UTC internally. The canonical trade CSV schema is
``product_start,side,exec_time,price,volume`` with side "+" (buy) or "-"
(sell). Products are identified purely by their UTC delivery start; no
DST special-casing.

Trades (``trades.csv``) and samples (``features.csv``) cross the disk as
CSV. Writers emit the bytes ``csv.writer`` would emit for
``format_timestamp`` and ``repr`` fields, a fixed-size block of rows at a
time. The trade reader parses a block of plain canonical lines column by
column and hands any other block (one with a blank line too) to a per-row
parse that reports the first bad line and field; one rule then rejects
rows from both. The sample reader parses one
record at a time. ``save_samples`` is the one writer of ``features.csv``,
the canonical file, the one to edit or ship: it writes the CSV whole or not
at all, then its parsed columns as ``features.<column>.npy`` and, last, its
SHA-256 as ``features.sha256.npy``, which ``load_samples`` reads while that
hash matches the file, parsing the CSV otherwise.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import logging
import math
from collections import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import features as feat
from .target import LEAD_TIME, compute_id3
from .util import (UTC, file_sha256, format_micros, format_timestamp, from_micros,
                   parse_micros, parse_timestamp, replacing, to_micros)

log = logging.getLogger(__name__)

BUY = "+"
SELL = "-"
SIDES = (BUY, SELL)

TRADE_CSV_HEADER = ["product_start", "side", "exec_time", "price", "volume"]

MARKET_GATE_CLOSURE = {
    "DE": dt.timedelta(minutes=30),
    "AT": dt.timedelta(minutes=0),
}
PRODUCT_DURATIONS = {
    "60min": dt.timedelta(minutes=60),
    "15min": dt.timedelta(minutes=15),
}


class CsvParseError(ValueError):
    """Malformed CSV content (carries the 1-based line number and, when one
    field is at fault, its column name). A line is one CSV record: a blank
    line counts, and a quoted field may span physical lines."""

    def __init__(self, line: int, message: str, field: Optional[str] = None):
        where = f"line {line}" if field is None else f"line {line}, field {field!r}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.field = field


class TradeParseError(CsvParseError):
    """Malformed trade CSV content."""


class SampleParseError(CsvParseError):
    """Malformed sample (``features.csv``) content."""


@dataclass(frozen=True)
class Trade:
    product_start: dt.datetime
    side: str
    exec_time: dt.datetime
    price: float
    volume: float
    seq: int

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")
        if not self.volume > 0:
            raise ValueError("volume must be positive")
        if self.exec_time >= self.product_start:
            raise ValueError("exec_time must precede product_start")


@dataclass(frozen=True, eq=False)
class TradeTable(abc.Sequence):
    """Trades as numpy columns, one row per trade, sorted by (exec_us, seq).

    Timestamps are integer microseconds since the epoch (UTC). The table is
    read-only and acts as a sequence of ``Trade`` rows: ``len``, iteration,
    integer indexing, slicing (a slice is a table of column views) and
    ``==`` against another table or a sequence of ``Trade``, row by row.
    """
    product_us: np.ndarray  # int64 delivery start
    exec_us: np.ndarray     # int64 execution time
    is_buy: np.ndarray      # bool, False for the sell side
    price: np.ndarray       # float64
    volume: np.ndarray      # float64
    seq: np.ndarray         # int64 input order, breaks execution-time ties

    def columns(self) -> Tuple[np.ndarray, ...]:
        return (self.product_us, self.exec_us, self.is_buy, self.price,
                self.volume, self.seq)

    @classmethod
    def _of_rows(cls, rows: Sequence[tuple]) -> "TradeTable":
        """The table of (product_us, exec_us, is_buy, price, volume, seq)
        tuples, in the order given."""
        cols = list(zip(*rows)) or [()] * 6
        return cls(*(np.array(c, dtype=d) for c, d in zip(cols, _COLUMN_DTYPES)))

    @classmethod
    def _of_trades(cls, trades: Iterable[Trade]) -> "TradeTable":
        return cls._of_rows([(to_micros(t.product_start), to_micros(t.exec_time),
                              t.side == BUY, t.price, t.volume, t.seq) for t in trades])

    @classmethod
    def from_trades(cls, trades: Iterable[Trade]) -> "TradeTable":
        """The table of ``Trade`` rows, sorted by (exec_time, seq); a table
        is returned unchanged."""
        if isinstance(trades, cls):
            return trades
        return cls._of_trades(trades)._by_time()

    def _by_time(self) -> "TradeTable":
        return self.take(np.lexsort((self.seq, self.exec_us)))

    def take(self, index: np.ndarray) -> "TradeTable":
        """The rows at ``index``, in that order; an increasing index keeps
        the table sorted."""
        return TradeTable(*(c[index] for c in self.columns()))

    def __len__(self) -> int:
        return self.exec_us.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            if (index.step or 1) < 0:
                raise ValueError("a reversed slice would break the (exec_us, seq) order")
            return TradeTable(*(c[index] for c in self.columns()))
        return self._trade(*(c[index].item() for c in self.columns()))

    def __iter__(self) -> Iterator[Trade]:
        return itertools.starmap(self._trade, zip(*(c.tolist() for c in self.columns())))

    @staticmethod
    def _trade(product_us, exec_us, is_buy, price, volume, seq) -> Trade:
        return Trade(from_micros(product_us), BUY if is_buy else SELL,
                     from_micros(exec_us), price, volume, seq)

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            if not all(isinstance(t, Trade) for t in other):
                return False
            other = TradeTable._of_trades(other)
        if not isinstance(other, TradeTable):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


_COLUMN_DTYPES = (np.int64, np.int64, bool, np.float64, np.float64, np.int64)


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str


@dataclass(frozen=True)
class ProductSpec:
    market: str = "DE"
    product_type: str = "60min"
    delta_m: Optional[dt.timedelta] = None

    def __post_init__(self):
        if self.product_type not in PRODUCT_DURATIONS:
            raise ValueError(f"unknown product_type {self.product_type!r}")
        if self.delta_m is None:
            if self.market not in MARKET_GATE_CLOSURE:
                raise ValueError(
                    f"market {self.market!r} has no built-in gate closure; pass delta_m")
            object.__setattr__(self, "delta_m", MARKET_GATE_CLOSURE[self.market])
        if self.delta_m < dt.timedelta(0):
            raise ValueError("delta_m must be non-negative")
        if not self.delta_m < LEAD_TIME:
            # features stop where the target window opens, at t_d - LEAD_TIME
            raise ValueError(f"delta_m must be shorter than LEAD_TIME ({LEAD_TIME})")

    @property
    def duration(self) -> dt.timedelta:
        return PRODUCT_DURATIONS[self.product_type]


@dataclass(frozen=True)
class Sample:
    delivery_time: dt.datetime
    forecast_time: dt.datetime
    features: Optional[np.ndarray]
    target_id3: Optional[float]
    matched_trade_count: int


@dataclass(frozen=True)
class BuildReport:
    n_products: int
    n_built: int
    n_discarded_features: int
    n_discarded_with_target: int
    n_missing_target: int


@dataclass(frozen=True)
class SplitBoundaries:
    """Left-closed, right-open intervals split by the three end timestamps:
    train = (-inf, train_end), val = [train_end, val_end), test = [val_end, test_end)."""
    train_end: dt.datetime
    val_end: dt.datetime
    test_end: dt.datetime

    def __post_init__(self):
        if not self.train_end < self.val_end < self.test_end:
            raise ValueError("boundaries must be strictly increasing")


@dataclass
class DatasetSplit:
    train: List[Sample] = field(default_factory=list)
    val: List[Sample] = field(default_factory=list)
    test: List[Sample] = field(default_factory=list)
    boundaries: Optional[SplitBoundaries] = None


# fields per block of the trade codecs and the sample writer (1,024 trade
# rows, 13 sample rows): a block's text, fields and columns are made and
# dropped together, so memory stays bounded by the block, not the file.
# Larger blocks are no faster and leave more of the heap in use after a parse.
BLOCK_FIELDS = 5 << 10


def _block_rows(n_fields: int) -> int:
    return max(1, BLOCK_FIELDS // n_fields)


def _blocks(items: Iterable, size: int) -> Iterator[list]:
    """Consecutive lists of up to ``size`` items."""
    it = iter(items)
    return iter(lambda: list(itertools.islice(it, size)), [])


def _parse_field(error, lineno: int, name: str, parse, raw: str):
    try:
        return parse(raw)
    except (ValueError, OverflowError) as exc:
        raise error(lineno, str(exc), name) from None


def _parse_blocks(lines: Iterator[str], tz: dt.tzinfo) -> Iterator:
    """Parse the trade records after the header, a block of lines at a time,
    and yield each block's columns through ``_reject``.

    A line is plain when, without its line end, it holds no quote, no
    carriage return and no more than ``csv.field_size_limit()`` characters:
    ``csv.reader`` then splits it at each comma. A block of plain lines with
    exactly four commas each goes to ``_trade_lines``. Any other block (one
    with a blank line too), or one it returns None for, goes to
    ``_trade_records`` as ``csv.reader`` reads it, read on into ``lines``
    while a quoted field spans lines. Line numbers count records from 2,
    blank ones included.
    """
    n_fields = len(TRADE_CSV_HEADER)
    lineno = 2
    for block in _blocks(lines, _block_rows(n_fields)):
        parsed = None
        plain = list(map(str.rstrip, block, itertools.repeat("\r\n")))
        text = "".join(plain)
        if ('"' not in text and "\r" not in text
                and max(map(len, plain)) <= csv.field_size_limit()
                and set(map(str.count, plain, itertools.repeat(","))) == {n_fields - 1}):
            parsed = _trade_lines(plain, lineno)
        n_records = len(block)
        if parsed is None:
            reader = csv.reader(itertools.chain(block, lines))
            records = []
            for row in reader:
                records.append(row)
                if reader.line_num >= len(block):
                    break
            parsed = _trade_records(records, lineno, tz)
            n_records = len(records)
        yield _reject(*parsed)
        lineno += n_records


def _reject(product_us, exec_us, is_buy, price, volume, line):
    """The accepted rows' first five columns and the rejected rows: those
    with a volume <= 0 or executed at or after their delivery start."""
    low_volume = volume <= 0
    bad = low_volume | (exec_us >= product_us)
    rejected = [RejectedRow(n, f"volume {v} <= 0" if low
                            else "exec_time at or after product_start")
                for n, low, v in zip(line[bad].tolist(), low_volume[bad].tolist(),
                                     volume[bad].tolist())]
    return [c[~bad] for c in (product_us, exec_us, is_buy, price, volume)], rejected


def _trade_records(records: List[List[str]], lineno: int, tz: dt.tzinfo):
    """Columns product_us, exec_us, is_buy, price, volume and line of the
    records, parsed one at a time; raises TradeParseError at the first bad row."""

    def micros(raw: str) -> int:
        return to_micros(parse_timestamp(raw, tz))

    rows: List[tuple] = []
    for line, row in enumerate(records, lineno):
        if not row:
            continue
        if len(row) != 5:
            raise TradeParseError(line, f"expected 5 fields, got {len(row)}")
        raw_start, raw_side, raw_exec, raw_price, raw_volume = row
        product_us = _parse_field(TradeParseError, line, "product_start", micros, raw_start)
        side = raw_side.strip()
        if side not in SIDES:
            raise TradeParseError(line, f"side must be '+' or '-', got {raw_side!r}", "side")
        exec_us = _parse_field(TradeParseError, line, "exec_time", micros, raw_exec)
        price = _parse_field(TradeParseError, line, "price", float, raw_price)
        volume = _parse_field(TradeParseError, line, "volume", float, raw_volume)
        for name, value in (("price", price), ("volume", volume)):
            if not math.isfinite(value):
                raise TradeParseError(line, f"non-finite value {value!r}", name)
        rows.append((product_us, exec_us, side == BUY, price, volume, line))
    columns = list(zip(*rows)) or [()] * 6
    return [np.array(c, dtype=d) for c, d in zip(columns, _COLUMN_DTYPES)]


def _trade_lines(lines: List[str], lineno: int):
    """What ``_trade_records`` returns for these five-field lines from line
    ``lineno``, column by column; None unless every row has ``Z`` timestamps
    in the canonical form, side ``+`` or ``-`` and finite numbers."""
    fields = ",".join(lines).split(",")
    sides = fields[1::5]
    if not set(sides) <= set(SIDES):
        return None
    starts = list(dict.fromkeys(fields[0::5]))  # one per product
    start_us = parse_micros(starts)
    exec_us = parse_micros(fields[2::5])
    if start_us is None or exec_us is None:
        return None
    try:  # float() of each string, as the per-row parse applies it
        price = np.array(fields[3::5], dtype=np.float64)
        volume = np.array(fields[4::5], dtype=np.float64)
    except ValueError:
        return None
    if not (np.isfinite(price).all() and np.isfinite(volume).all()):
        return None
    by_start = dict(zip(starts, start_us.tolist()))
    product_us = np.fromiter(map(by_start.__getitem__, fields[0::5]), dtype=np.int64,
                             count=len(lines))
    is_buy = np.fromiter(map(BUY.__eq__, sides), dtype=bool, count=len(lines))
    return [product_us, exec_us, is_buy, price, volume,
            np.arange(lineno, lineno + len(lines), dtype=np.int64)]


def parse_trades(source, tz: dt.tzinfo = UTC) -> Tuple[TradeTable, List[RejectedRow]]:
    """Parse the canonical trade CSV from its text or an open text file.

    Returns the trades as a table sorted by (exec_time, seq) with seq
    assigned in input order, plus the rejected rows (non-positive volume,
    exec_time at or after delivery) in line order. Structurally malformed
    rows raise TradeParseError naming the line and the field.

    The rows are read a block of lines at a time (see ``BLOCK_FIELDS``). A
    block of canonical rows, as ``write_trades_csv`` writes them, is parsed
    column by column. Any other block (quoted or padded fields, naive
    timestamps read in ``tz``, a malformed row) is parsed one row at a time,
    which accepts the same rows with the same values and raises at the
    first bad one.
    """
    lines = iter(io.StringIO(source) if isinstance(source, str) else source)
    try:
        header = next(csv.reader(lines))
    except StopIteration:
        raise TradeParseError(1, "empty input, expected header") from None
    if [h.strip() for h in header] != TRADE_CSV_HEADER:
        raise TradeParseError(1, f"bad header {header!r}, expected {TRADE_CSV_HEADER}")
    parts: List[List[np.ndarray]] = []
    rejected: List[RejectedRow] = []
    for columns, block_rejected in _parse_blocks(lines, tz):
        parts.append(columns)
        rejected += block_rejected
    columns = [np.concatenate(c) for c in zip(*parts)] or [
        np.zeros(0, dtype=d) for d in _COLUMN_DTYPES[:5]]
    table = TradeTable(*columns, np.arange(columns[0].size, dtype=np.int64))
    # a written file is in (exec_time, seq) order already
    return (table if (np.diff(table.exec_us) >= 0).all() else table._by_time()), rejected


def write_trades_csv(trades: Iterable[Trade], fh) -> None:
    """Write trades in the canonical schema, ordered by (exec_time, seq).

    The bytes are those of ``csv.writer`` given ``format_timestamp`` of the
    times and ``repr`` of the numbers (no field of this schema needs
    quoting). Each column of a block of rows is formatted at once.
    """
    table = TradeTable.from_trades(trades)
    fh.write(",".join(TRADE_CSV_HEADER) + "\r\n")
    size = _block_rows(len(TRADE_CSV_HEADER))
    for lo in range(0, len(table), size):
        block = table[lo:lo + size]
        products, index = np.unique(block.product_us, return_inverse=True)
        starts = np.array(format_micros(products), dtype=object)[index].tolist()
        sides = np.where(block.is_buy, BUY, SELL).tolist()
        rows = zip(starts, sides, format_micros(block.exec_us),
                   map(repr, block.price.tolist()), map(repr, block.volume.tolist()))
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def enumerate_products(spec: ProductSpec, start: dt.datetime,
                       end: dt.datetime) -> List[dt.datetime]:
    """Delivery times inside [start, end) at the product cadence, aligned to
    period boundaries on the UTC grid."""
    if not start < end:
        raise ValueError("empty horizon")
    step_us = spec.duration // dt.timedelta(microseconds=1)
    start_us = to_micros(start)
    end_us = to_micros(end)
    first = -(-start_us // step_us) * step_us
    return [from_micros(us) for us in range(first, end_us, step_us)]


def build_samples(trades: Sequence[Trade], spec: ProductSpec, start: dt.datetime,
                  end: dt.datetime) -> Tuple[List[Sample], BuildReport]:
    """Assemble one sample per delivery product in the horizon.

    Feature extraction uses trades up to t_f = t_d - LEAD_TIME; the target
    comes from the window [t_f, t_d - delta_m]. Products where either side
    has no history at all are dropped (counted in the report); products
    with an empty target window keep features but carry no target.
    """
    table = TradeTable.from_trades(trades)
    # a stable sort by product keeps each product's rows in (exec, seq) order
    order = np.argsort(table.product_us, kind="stable")
    keys = table.product_us[order]
    deliveries = enumerate_products(spec, start, end)
    deliveries_us = np.array([to_micros(t) for t in deliveries], dtype=np.int64)
    lo = np.searchsorted(keys, deliveries_us, side="left").tolist()
    hi = np.searchsorted(keys, deliveries_us, side="right").tolist()

    samples: List[Sample] = []
    n_discarded = 0
    n_discarded_with_target = 0
    n_missing_target = 0
    for t_d, i, j in zip(deliveries, lo, hi):
        t_f = t_d - LEAD_TIME
        prod_trades = table.take(order[i:j])
        id3 = compute_id3(prod_trades, t_d, spec.delta_m)
        vec = feat.extract_features(prod_trades, t_f)
        if vec is None:
            n_discarded += 1
            if id3.value is not None:
                n_discarded_with_target += 1
            continue
        if id3.value is None:
            n_missing_target += 1
        samples.append(Sample(
            delivery_time=t_d,
            forecast_time=t_f,
            features=vec,
            target_id3=id3.value,
            matched_trade_count=id3.trades_used,
        ))
    report = BuildReport(
        n_products=len(deliveries),
        n_built=len(samples),
        n_discarded_features=n_discarded,
        n_discarded_with_target=n_discarded_with_target,
        n_missing_target=n_missing_target,
    )
    return samples, report


def split_dataset(samples: Sequence[Sample],
                  boundaries: SplitBoundaries) -> DatasetSplit:
    """Assign samples to train/val/test by delivery time.

    Intervals are left-closed, right-open; a sample exactly on a boundary
    goes to the later split. Samples at or beyond test_end are dropped
    with a warning.
    """
    split = DatasetSplit(boundaries=boundaries)
    n_beyond = 0
    for s in sorted(samples, key=lambda s: to_micros(s.delivery_time)):
        if s.delivery_time < boundaries.train_end:
            split.train.append(s)
        elif s.delivery_time < boundaries.val_end:
            split.val.append(s)
        elif s.delivery_time < boundaries.test_end:
            split.test.append(s)
        else:
            n_beyond += 1
    for name, part in (("train", split.train), ("val", split.val), ("test", split.test)):
        if not part:
            log.warning("split %r is empty", name)
    if n_beyond:
        log.warning("%d samples at or beyond test_end were dropped", n_beyond)
    log.info("split sizes: train=%d val=%d test=%d",
             len(split.train), len(split.val), len(split.test))
    return split


def supervised(samples: Iterable[Sample]) -> List[Sample]:
    """Samples usable for supervised fitting (target present)."""
    return [s for s in samples if s.target_id3 is not None]


SAMPLE_CSV_FIXED = ["t_d", "t_f", "target_id3", "matched_trade_count"]


def write_samples_csv(samples: Sequence[Sample], fh, extra: Optional[dict] = None) -> None:
    """One row per sample: fixed columns then the 384 canonical feature columns.

    ``extra`` appends constant metadata columns (e.g. config hash). The
    bytes are those of ``csv.writer`` given ``format_timestamp`` of the
    times, ``repr`` of the target and of each feature as a float, and
    ``str`` of the count and of each extra value. The features are
    formatted as one column per block of rows, each distinct float of a
    block once.
    """
    extra = extra or {}
    writer = csv.writer(fh)
    writer.writerow(SAMPLE_CSV_FIXED + list(feat.FEATURE_NAMES) + list(extra))
    # the constant columns, quoted as csv.writer quotes them inside a row
    tail = io.StringIO()
    csv.writer(tail).writerow(["-"] + [str(v) for v in extra.values()])
    tail = tail.getvalue()[1:]
    n_features = len(feat.FEATURE_NAMES)
    for block in _blocks(samples, _block_rows(len(SAMPLE_CSV_FIXED) + n_features)):
        for s in block:
            if s.features is None:
                raise ValueError("cannot serialize a sample without features")
            if len(s.features) != n_features:
                raise ValueError(f"sample at {format_timestamp(s.delivery_time)} has "
                                 f"{len(s.features)} features, expected {n_features}")
        bits, index = np.unique(np.array([s.features for s in block], dtype=np.float64)
                                .view(np.uint64), return_inverse=True)
        values = np.array(list(map(repr, bits.view(np.float64).tolist())),
                          dtype=object)[index.ravel()].tolist()
        fh.write("".join(
            f"{format_timestamp(s.delivery_time)},{format_timestamp(s.forecast_time)},"
            f"{'' if s.target_id3 is None else repr(s.target_id3)},"
            f"{s.matched_trade_count},"
            f"{','.join(values[i * n_features:(i + 1) * n_features])}{tail}"
            for i, s in enumerate(block)))


def read_samples_csv(fh) -> List[Sample]:
    """The samples of a file ``write_samples_csv`` wrote, in file order.

    Columns after the canonical ones are ignored, and blank lines are
    skipped. A missing header, a row whose field count differs from the
    header's, or a value that does not parse raises SampleParseError naming
    the line and the field.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise SampleParseError(1, "empty input, expected header") from None
    expected = SAMPLE_CSV_FIXED + list(feat.FEATURE_NAMES)
    if header[: len(expected)] != expected:
        raise SampleParseError(1, "header does not match the canonical sample layout")
    samples = []
    for line, row in enumerate(reader, 2):
        if row:
            if len(row) != len(header):
                raise SampleParseError(line, f"expected {len(header)} fields, got {len(row)}")
            samples.append(_parse_sample(line, row))
    return samples


def _parse_sample(line: int, row: List[str]) -> Sample:
    """A Sample from a record; raises SampleParseError naming the first bad
    field."""

    def parse(name, convert, raw):
        return _parse_field(SampleParseError, line, name, convert, raw)

    t_d = parse("t_d", parse_timestamp, row[0])
    t_f = parse("t_f", parse_timestamp, row[1])
    target = parse("target_id3", float, row[2]) if row[2] else None
    count = parse("matched_trade_count", int, row[3])
    values = row[len(SAMPLE_CSV_FIXED):len(SAMPLE_CSV_FIXED) + len(feat.FEATURE_NAMES)]
    try:  # float() of each string, as the loop below applies it
        features = np.array(values, dtype=np.float64)
    except ValueError:
        features = np.array([parse(name, float, raw)
                             for name, raw in zip(feat.FEATURE_NAMES, values)])
    return Sample(t_d, t_f, features, target, count)


_SIDECAR = ("t_d", "t_f", "features", "target_id3", "has_target", "matched_trade_count")


def save_samples(samples: Sequence[Sample], path: Path, extra: Optional[dict]) -> None:
    """Write ``samples`` as the ``features.csv`` at ``path`` (``extra`` as in
    ``write_samples_csv``), whole or not at all. Then store beside it the
    values ``read_samples_csv`` gives for it (each NaN as the CSV's ``nan``
    parses) and, last, its SHA-256; the old hash goes first, so a cut write
    leaves none."""
    path.with_suffix(".sha256.npy").unlink(missing_ok=True)
    with replacing(path) as fh:
        write_samples_csv(samples, fh, extra)
    columns = ([to_micros(s.delivery_time) for s in samples],
               [to_micros(s.forecast_time) for s in samples],
               np.array([s.features for s in samples], dtype=np.float64),
               [np.nan if s.target_id3 is None else s.target_id3 for s in samples],
               [s.target_id3 is not None for s in samples],
               [s.matched_trade_count for s in samples])
    for name, values in zip(_SIDECAR, map(np.asarray, columns)):
        if values.dtype.kind == "f":
            values = np.where(np.isnan(values), np.nan, values)
        np.save(path.with_suffix(f".{name}.npy"), values, allow_pickle=False)
    np.save(path.with_suffix(".sha256.npy"), np.array(file_sha256(path)), allow_pickle=False)


def load_samples(path: Path) -> List[Sample]:
    """The samples of the ``features.csv`` at ``path``: its sidecar's while
    that holds the file's SHA-256, else ``read_samples_csv``'s."""
    stored = path.with_suffix(".sha256.npy")
    if stored.exists() and np.load(stored).item() == file_sha256(path):
        t_d, t_f, x, y, has, n = (np.load(path.with_suffix(f".{c}.npy")) for c in _SIDECAR)
        return [Sample(from_micros(d), from_micros(f), row, t if h else None, c)
                for d, f, row, t, h, c in zip(t_d.tolist(), t_f.tolist(), x, y.tolist(),
                                              has.tolist(), n.tolist())]
    with open(path, newline="", encoding="utf-8") as fh:
        return read_samples_csv(fh)
