"""Small shared numeric and serialization helpers."""

from __future__ import annotations

import datetime as dt
import hashlib
import json

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


def weighted_quantile_geq(values: np.ndarray, weights: np.ndarray, tau: float) -> float:
    """Smallest value whose cumulative normalized weight reaches tau."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w) / np.sum(w)
    idx = int(np.searchsorted(cum, tau, side="left"))
    idx = min(idx, v.size - 1)
    return float(v[idx])


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


def rng_for(*keys: int) -> np.random.Generator:
    """Deterministic generator derived from an integer key path."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))
