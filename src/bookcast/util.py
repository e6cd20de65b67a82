"""Small shared numeric and serialization helpers."""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import json
import os
from typing import List, Optional, Sequence

import numpy as np

UTC = dt.timezone.utc
EPOCH = dt.datetime(1970, 1, 1, tzinfo=UTC)
_US = dt.timedelta(microseconds=1)


def to_micros(t: dt.datetime) -> int:
    """Timestamp as integer microseconds since epoch (exact arithmetic)."""
    if t.tzinfo is None:
        raise ValueError("naive datetime; attach a timezone first")
    return (t - EPOCH) // _US


def from_micros(us: int) -> dt.datetime:
    return EPOCH + dt.timedelta(microseconds=int(us))


def parse_timestamp(text: str, tz: dt.tzinfo = UTC) -> dt.datetime:
    """Parse ISO-8601; naive values are interpreted in ``tz``, then converted to UTC."""
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    t = dt.datetime.fromisoformat(s)
    if t.tzinfo is None:
        t = t.replace(tzinfo=tz)
    return t.astimezone(UTC)


def format_timestamp(t: dt.datetime) -> str:
    return t.astimezone(UTC).isoformat().replace("+00:00", "Z")


# the canonical timestamp as code points (also the lowest allowed at each
# position), the highest allowed, and the first column of each digit pair
_STAMP = np.array([ord(c) for c in "0000-00-00T00:00:00.000000Z"], dtype=np.uint32)
_STAMP_HI = np.where(_STAMP == ord("0"), ord("9"), _STAMP).astype(np.uint32)
_PAIRS = np.array([0, 2, 5, 8, 11, 14, 17, 20, 22, 24])
_DIGIT_PAIRS = np.array([[ord("0") + i // 10, ord("0") + i % 10] for i in range(100)],
                        dtype=np.uint32)
_WHOLE = 19  # column of the 'Z' that ends a timestamp without a fraction
_US_PER_DAY = 86_400_000_000


def format_micros(us: np.ndarray) -> List[str]:
    """``format_timestamp`` of each int64 microsecond count, as one column:
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``, with the fraction only when it is
    non-zero."""
    us = np.asarray(us, dtype=np.int64)
    days, in_day = np.divmod(us, _US_PER_DAY)
    month = days.astype("M8[D]").astype("M8[M]")
    months = month.astype(np.int64)  # since 1970-01
    year = months // 12 + 1970
    seconds, fraction = np.divmod(in_day, 1_000_000)
    pairs = (year // 100, year % 100, months % 12 + 1,
             days - month.astype("M8[D]").astype(np.int64) + 1,
             seconds // 3600, seconds // 60 % 60, seconds % 60,
             fraction // 10_000, fraction // 100 % 100, fraction % 100)
    codes = np.tile(_STAMP, (us.size, 1))
    for col, value in zip(_PAIRS, pairs):
        codes[:, col:col + 2] = _DIGIT_PAIRS[value]
    whole = fraction == 0
    codes[whole, _WHOLE] = ord("Z")
    codes[whole, _WHOLE + 1:] = 0
    return codes.view(f"U{_STAMP.size}").ravel().tolist()


def parse_micros(texts: Sequence[str]) -> Optional[np.ndarray]:
    """Int64 microseconds of ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z`` timestamps, the
    values ``parse_timestamp`` gives them; None unless every text has exactly
    that form, with ASCII digits and a valid calendar time."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    if not np.isin(lengths, (_WHOLE + 1, _STAMP.size)).all():
        return None
    codes = np.array(texts, dtype=f"U{_STAMP.size}").view(np.uint32).reshape(-1, _STAMP.size)
    whole = lengths == _WHOLE + 1
    if not (codes[whole, _WHOLE] == ord("Z")).all():
        return None
    codes[whole, _WHOLE:] = _STAMP[_WHOLE:]
    if not ((codes >= _STAMP) & (codes <= _STAMP_HI)).all():
        return None
    pairs = codes[:, _PAIRS] * 10 + codes[:, _PAIRS + 1] - 11 * ord("0")
    year_hi, year_lo, month, day, hour, minute, second, f_hi, f_mid, f_lo = (
        pairs.astype(np.int64).T)
    year = year_hi * 100 + year_lo
    months = (year - 1970) * 12 + month - 1
    first = months.astype("M8[M]").astype("M8[D]").astype(np.int64)
    month_days = (months + 1).astype("M8[M]").astype("M8[D]").astype(np.int64) - first
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
            & (hour <= 23) & (minute <= 59) & (second <= 59)).all():
        return None
    seconds = (first + day - 1) * 86_400 + hour * 3600 + minute * 60 + second
    return seconds * 1_000_000 + (f_hi * 10_000 + f_mid * 100 + f_lo)


def soft_threshold(x: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def pinball_quantile(values: np.ndarray, tau: float) -> float:
    """Empirical tau-quantile that minimizes the summed pinball loss.

    Returns the order statistic at rank ceil(tau * n) (1-indexed), the lower
    endpoint of the minimizer interval when tau * n is an integer.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    n = v.size
    k = int(np.ceil(tau * n))
    k = min(max(k, 1), n)
    return float(np.partition(v, k - 1)[k - 1])


def stable_json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def config_hash(obj) -> str:
    """Short stable identifier of a JSON-serializable configuration."""
    return hashlib.sha256(stable_json_dumps(obj).encode("utf-8")).hexdigest()[:12]


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def replacing(path, binary: bool = False):
    """A text file (or a binary one) written as ``<name>.part`` and moved to
    ``path`` when whole; removed if the block raises."""
    part = path.with_name(path.name + ".part")
    try:
        with (open(part, "wb") if binary
              else open(part, "w", newline="", encoding="utf-8")) as fh:
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def rng_for(*keys: int) -> np.random.Generator:
    """Deterministic generator derived from an integer key path."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))
