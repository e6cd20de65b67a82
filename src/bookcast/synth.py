"""Seeded synthetic continuous-intraday trade generator.

Per product, a latent mid-price follows a Gaussian random walk; trade
arrivals come from an inhomogeneous Poisson process whose intensity grows
toward delivery as (time-to-delivery)^(-ARRIVAL_RAMP); each trade is a buy
or a sell with equal probability, buys print above the latent price and
sells below by a uniform half-spread; volumes are lognormal(VOLUME_LOG_MEAN,
VOLUME_LOG_SD). Each product draws from its own generator derived from
(seed, product index), so generation is order-independent and bit
reproducible. The latent path never leaves the generator.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .market import (BuildReport, ProductSpec, SplitBoundaries, TradeTable,
                     build_samples, enumerate_products, split_dataset)
from .transfer import Domain, domain_from_split
from .util import rng_for, to_micros

HOUR_US = 3_600_000_000
ARRIVAL_RAMP = 0.5     # intensity ~ (time to delivery)^(-ARRIVAL_RAMP)
SIDE_BALANCE = 0.5     # probability a trade is buy-side
VOLUME_LOG_MEAN = 0.0
VOLUME_LOG_SD = 0.5


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    liquidity: float = 40.0        # expected trades per product per hour of trading
    volatility: float = 5.0        # price std per sqrt(hour) of the latent walk
    base_price: float = 60.0
    session_hours: float = 12.0    # trading opens this long before delivery
    half_spread: float = 0.5

    def __post_init__(self):
        if self.liquidity <= 0:
            raise ValueError("liquidity must be positive")
        if self.volatility < 0 or self.half_spread < 0:
            raise ValueError("volatility and half_spread must be >= 0")
        if self.session_hours <= 0:
            raise ValueError("session_hours must be positive")


@dataclass
class SynthDataset:
    trades: TradeTable


def _arrival_offsets(rng: np.random.Generator, n: int, a: float, b: float) -> np.ndarray:
    """Times-to-delivery (hours) in [a, b] with density ~ u^(-ARRIVAL_RAMP),
    by inverting the distribution function."""
    p = 1.0 - ARRIVAL_RAMP
    lo, hi = a ** p, b ** p
    return (lo + rng.random(n) * (hi - lo)) ** (1.0 / p)


def gate_hours(cfg: SynthConfig, spec: ProductSpec) -> float:
    """The product's gate-closure offset in hours; a session that does not
    open before the gate closes is a ValueError."""
    gate_h = spec.delta_m / dt.timedelta(hours=1)
    if cfg.session_hours <= gate_h:
        raise ValueError(f"session_hours {cfg.session_hours} must exceed the "
                         f"{spec.market} gate-closure offset of {gate_h} h")
    return gate_h


def generate(cfg: SynthConfig, spec: ProductSpec, start: dt.datetime,
             end: dt.datetime) -> SynthDataset:
    """Trades for every product in [start, end), fully determined by cfg.seed."""
    gate_h = gate_hours(cfg, spec)
    duration_h = cfg.session_hours - gate_h

    product_starts = enumerate_products(spec, start, end)
    # per-product chunks of (product_us, index within product, exec_us,
    # is_buy, price, volume), each column led by an empty chunk of its dtype
    chunks = [[np.empty(0, dtype=d)] for d in (np.int64, np.int64, np.int64, bool,
                                                np.float64, np.float64)]
    for pi, t_d in enumerate(product_starts):
        rng = rng_for(cfg.seed, pi)
        t_d_us = to_micros(t_d)
        n = int(rng.poisson(cfg.liquidity * duration_h))
        if n == 0:
            continue
        offsets_h = np.sort(_arrival_offsets(rng, n, gate_h, cfg.session_hours))[::-1]
        exec_us = t_d_us - np.round(offsets_h * HOUR_US).astype(np.int64)
        session_start_us = t_d_us - int(cfg.session_hours * HOUR_US)
        session_end_us = t_d_us - int(gate_h * HOUR_US)
        exec_us = np.clip(exec_us, session_start_us + 1, session_end_us - 1)
        exec_us = np.sort(exec_us)

        gaps_h = np.diff(exec_us, prepend=session_start_us) / HOUR_US
        latent = cfg.base_price + np.cumsum(
            rng.standard_normal(n) * cfg.volatility * np.sqrt(gaps_h))
        is_buy = rng.random(n) < SIDE_BALANCE
        spread = rng.uniform(0.0, cfg.half_spread, n) if cfg.half_spread > 0 else np.zeros(n)
        prices = latent + np.where(is_buy, spread, -spread)
        volumes = rng.lognormal(VOLUME_LOG_MEAN, VOLUME_LOG_SD, n)

        for chunk, col in zip(chunks, (np.full(n, t_d_us), np.arange(n), exec_us,
                                       is_buy, prices, volumes)):
            chunk.append(col)

    product_us, within, exec_us, is_buy, prices, volumes = (
        np.concatenate(chunk) for chunk in chunks)
    # product start grows with the product index, so this is the
    # (exec_time, product, within-product) order seq has always followed
    order = np.lexsort((within, product_us, exec_us))
    trades = TradeTable(product_us[order], exec_us[order], is_buy[order], prices[order],
                        volumes[order], np.arange(exec_us.size, dtype=np.int64))
    return SynthDataset(trades=trades)


def build_domain(name: str, cfg: SynthConfig, spec: ProductSpec,
                 start: dt.datetime, end: dt.datetime,
                 boundaries: SplitBoundaries) -> Tuple[Domain, BuildReport]:
    """Generate, assemble samples, and split into a named transfer domain."""
    data = generate(cfg, spec, start, end)
    samples, report = build_samples(data.trades, spec, start, end)
    split = split_dataset(samples, boundaries)
    return domain_from_split(name, split), report


def make_domain_pair(cfg_a: SynthConfig, cfg_b: SynthConfig, spec: ProductSpec,
                     start: dt.datetime, end: dt.datetime,
                     boundaries: SplitBoundaries,
                     names: Tuple[str, str] = ("A", "B")) -> Tuple[Domain, Domain]:
    """Two domains sharing the price process but differing in liquidity.

    Their test-split trade-count ratio approximates the liquidity ratio.
    """
    for field_name in ("volatility", "base_price", "session_hours", "half_spread"):
        if getattr(cfg_a, field_name) != getattr(cfg_b, field_name):
            raise ValueError(f"domain pair must share price-process parameter {field_name}")
    dom_a, _ = build_domain(names[0], cfg_a, spec, start, end, boundaries)
    dom_b, _ = build_domain(names[1], cfg_b, spec, start, end, boundaries)
    return dom_a, dom_b
