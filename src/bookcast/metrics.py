"""Probabilistic and pointwise forecast metrics.

AQL averages the pinball loss over samples and quantile levels; AQCR counts
quantile-crossing violations over all ordered quantile pairs. Pointwise
metrics (RMSE, MAE, R2) are computed on the 0.5-quantile head, the
pinball-consistent point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import List, Sequence

import numpy as np


def pinball(y, yhat, tau: float):
    """Pinball (quantile) loss, elementwise.

    tau * (y - yhat) when y >= yhat, else (1 - tau) * (yhat - y).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    diff = y - yhat
    return np.where(diff >= 0, tau * diff, (tau - 1.0) * diff)


def aql(y, yhat: np.ndarray, quantiles: Sequence[float]) -> float:
    """Average quantile loss over samples and quantile levels.

    yhat has shape (N, |Q|), column q holding the quantiles[q] prediction.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.size == 0:
        raise ValueError("aql undefined for zero samples")
    if yhat.ndim != 2 or yhat.shape != (y.size, len(quantiles)):
        raise ValueError(f"yhat shape {yhat.shape} != ({y.size}, {len(quantiles)})")
    total = 0.0
    for j, tau in enumerate(quantiles):
        total += float(np.sum(pinball(y, yhat[:, j], tau)))
    return total / (y.size * len(quantiles))


def aqcr(yhat: np.ndarray, quantiles: Sequence[float]) -> float:
    """Fraction of (sample, quantile-pair) events where a lower quantile's
    prediction exceeds a higher quantile's, over all ordered pairs."""
    q = list(quantiles)
    if len(q) < 2:
        raise ValueError("aqcr needs at least two quantile levels")
    if sorted(q) != q:
        raise ValueError("quantiles must be sorted ascending")
    yhat = np.asarray(yhat, dtype=float)
    n = yhat.shape[0]
    if n == 0:
        raise ValueError("aqcr undefined for zero samples")
    crossings = 0
    pairs = 0
    for a in range(len(q)):
        for b in range(a + 1, len(q)):
            crossings += int(np.sum(yhat[:, a] > yhat[:, b]))
            pairs += 1
    return crossings / (n * pairs)


def rmse(y, yhat_point) -> float:
    y = np.asarray(y, dtype=float)
    yhat_point = np.asarray(yhat_point, dtype=float)
    if y.size == 0:
        raise ValueError("rmse undefined for zero samples")
    return float(np.sqrt(np.mean((y - yhat_point) ** 2)))


def mae(y, yhat_point) -> float:
    y = np.asarray(y, dtype=float)
    yhat_point = np.asarray(yhat_point, dtype=float)
    if y.size == 0:
        raise ValueError("mae undefined for zero samples")
    return float(np.mean(np.abs(y - yhat_point)))


def r2(y, yhat_point) -> float:
    y = np.asarray(y, dtype=float)
    yhat_point = np.asarray(yhat_point, dtype=float)
    if y.size == 0:
        raise ValueError("r2 undefined for zero samples")
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 undefined for constant targets")
    ss_res = float(np.sum((y - yhat_point) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MetricReport:
    aql: float
    aqcr: float
    rmse: float
    mae: float
    r2: float
    n_samples: int
    quantiles: tuple

    def to_dict(self) -> dict:
        d = asdict(self)
        d["quantiles"] = list(self.quantiles)
        return d


def evaluate(y, yhat: np.ndarray, quantiles: Sequence[float]) -> MetricReport:
    """Full metric report from a quantile prediction matrix.

    Requires 0.5 in the quantile set (the pointwise head).
    """
    q = list(quantiles)
    if 0.5 not in q:
        raise ValueError("evaluate requires the 0.5 quantile for pointwise metrics")
    median = np.asarray(yhat, dtype=float)[:, q.index(0.5)]
    return MetricReport(
        aql=aql(y, yhat, q),
        aqcr=aqcr(yhat, q),
        rmse=rmse(y, median),
        mae=mae(y, median),
        r2=r2(y, median),
        n_samples=int(np.asarray(y).size),
        quantiles=tuple(q),
    )


SUMMARY_FIELDS = ("aql", "aqcr", "rmse", "mae", "r2")


def format_mean_std(mean: float, std: float, as_percent: bool = False) -> str:
    """'m±s' cell formatting; AQCR cells are shown as percent."""
    if as_percent:
        return f"{100 * mean:.2f}±{100 * std:.2f}"
    return f"{mean:.2f}±{std:.2f}"


def summary_cells(summary: dict) -> List[str]:
    """'m±s' cells of a ``summarize_runs`` summary, in ``SUMMARY_FIELDS``
    order (the AQL, AQCR, RMSE, MAE, R2 table columns), AQCR in percent."""
    return [format_mean_std(**summary[f], as_percent=f == "aqcr")
            for f in SUMMARY_FIELDS]


def summarize_runs(reports: Sequence[MetricReport]) -> dict:
    """Mean and std (population) of each metric over repeated runs."""
    if not reports:
        raise ValueError("no reports to summarize")
    out = {}
    for field in SUMMARY_FIELDS:
        vals = np.array([getattr(r, field) for r in reports], dtype=float)
        out[field] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out
