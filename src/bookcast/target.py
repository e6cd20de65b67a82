"""Volume-weighted average price target over the final trading window.

The target index is the VWAP of all trades (both sides) executed in the
closed window [t_d - 180min, t_d - delta_m] before delivery t_d. An empty
window leaves the target undefined and the sample is excluded from
supervised sets.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from .util import to_micros

if TYPE_CHECKING:
    from .market import Trade

LEAD_TIME = dt.timedelta(minutes=180)


@dataclass(frozen=True)
class Id3Result:
    value: Optional[float]
    trades_used: int
    volume_sum: float


def compute_id3(trades: Sequence["Trade"], t_d: dt.datetime,
                delta_m: dt.timedelta) -> Id3Result:
    """VWAP of trades with exec_time in [t_d - 180min, t_d - delta_m], both ends closed.

    Takes a ``TradeTable`` or a sequence of ``Trade``. Accumulates with
    compensated summation; windows can hold thousands of trades.
    """
    from .market import TradeTable  # market imports this module

    table = TradeTable.from_trades(trades)
    lo = np.searchsorted(table.exec_us, to_micros(t_d - LEAD_TIME), side="left")
    hi = np.searchsorted(table.exec_us, to_micros(t_d - delta_m), side="right")
    prices = table.price[lo:hi]
    volumes = table.volume[lo:hi]
    if not prices.size:
        return Id3Result(value=None, trades_used=0, volume_sum=0.0)
    vol = math.fsum(volumes.tolist())
    # centered compensated accumulation: exact for constant prices and
    # stable over long windows
    ref = float(prices[0])
    dev = math.fsum(((prices - ref) * volumes).tolist())
    return Id3Result(value=ref + dev / vol, trades_used=int(prices.size),
                     volume_sum=vol)
