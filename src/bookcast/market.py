"""Trade ingestion, delivery-product calendars, sample assembly, and splits.

All timestamps are UTC internally. The canonical trade CSV schema is
``product_start,side,exec_time,price,volume`` with side "+" (buy) or "-"
(sell). Products are identified purely by their UTC delivery start; no
DST special-casing.
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
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import features as feat
from .target import LEAD_TIME, compute_id3
from .util import UTC, format_timestamp, from_micros, parse_timestamp, to_micros

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


class TradeParseError(ValueError):
    """Malformed trade CSV content (carries the 1-based line number and,
    when one field is at fault, its column name)."""

    def __init__(self, line: int, message: str, field: Optional[str] = None):
        where = f"line {line}" if field is None else f"line {line}, field {field!r}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.field = field


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


def _parse_field(lineno: int, name: str, parse, raw: str):
    try:
        return parse(raw)
    except (ValueError, OverflowError) as exc:
        raise TradeParseError(lineno, str(exc), name) from None


def parse_trades(source, tz: dt.tzinfo = UTC) -> Tuple[TradeTable, List[RejectedRow]]:
    """Parse the canonical trade CSV from its text or an open text file.

    Returns the trades as a table sorted by (exec_time, seq) with seq
    assigned in input order, plus the rejected rows (non-positive volume,
    exec_time at or after delivery). Structurally malformed rows raise
    TradeParseError naming the line and the field.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise TradeParseError(1, "empty input, expected header") from None
    if [h.strip() for h in header] != TRADE_CSV_HEADER:
        raise TradeParseError(1, f"bad header {header!r}, expected {TRADE_CSV_HEADER}")

    def micros(raw: str) -> int:
        return to_micros(parse_timestamp(raw, tz))

    rows: List[tuple] = []
    rejected: List[RejectedRow] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise TradeParseError(lineno, f"expected 5 fields, got {len(row)}")
        raw_start, raw_side, raw_exec, raw_price, raw_volume = row
        product_us = _parse_field(lineno, "product_start", micros, raw_start)
        side = raw_side.strip()
        if side not in SIDES:
            raise TradeParseError(lineno, f"side must be '+' or '-', got {raw_side!r}",
                                  "side")
        exec_us = _parse_field(lineno, "exec_time", micros, raw_exec)
        price = _parse_field(lineno, "price", float, raw_price)
        volume = _parse_field(lineno, "volume", float, raw_volume)
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


def write_trades_csv(trades: Iterable[Trade], fh) -> None:
    """Write trades in the canonical schema, ordered by (exec_time, seq)."""
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

    ``extra`` appends constant metadata columns (e.g. config hash).
    """
    extra = extra or {}
    writer = csv.writer(fh)
    writer.writerow(SAMPLE_CSV_FIXED + list(feat.FEATURE_NAMES) + list(extra))
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


def read_samples_csv(fh) -> List[Sample]:
    reader = csv.reader(fh)
    header = next(reader)
    expected = SAMPLE_CSV_FIXED + list(feat.FEATURE_NAMES)
    if header[: len(expected)] != expected:
        raise ValueError("sample CSV header does not match the canonical layout")
    out: List[Sample] = []
    for row in reader:
        t_d = parse_timestamp(row[0])
        t_f = parse_timestamp(row[1])
        target = float(row[2]) if row[2] else None
        count = int(row[3])
        vec = np.array([float(v) for v in row[4: 4 + len(feat.FEATURE_NAMES)]])
        out.append(Sample(t_d, t_f, vec, target, count))
    return out
