import datetime as dt
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from bookcast.market import Trade
from bookcast.util import UTC

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples (derandomize also turns off the example
# database), and no example fails for taking long on a busy host
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

T_D = dt.datetime(2024, 6, 1, 12, 0, tzinfo=UTC)
T_F = T_D - dt.timedelta(minutes=180)


def mk_trade(minutes_before_tf, price, volume, side="+", seq=0, t_d=T_D):
    """Trade executed the given number of minutes before the forecast time."""
    exec_time = (t_d - dt.timedelta(minutes=180)
                 - dt.timedelta(minutes=minutes_before_tf))
    return Trade(product_start=t_d, side=side, exec_time=exec_time,
                 price=float(price), volume=float(volume), seq=seq)


def mk_window_trade(minutes_after_tf, price, volume, side="+", seq=0, t_d=T_D):
    """Trade inside the target window, offset forward from t_f."""
    exec_time = (t_d - dt.timedelta(minutes=180)
                 + dt.timedelta(minutes=minutes_after_tf))
    return Trade(product_start=t_d, side=side, exec_time=exec_time,
                 price=float(price), volume=float(volume), seq=seq)


@pytest.fixture
def t_d():
    return T_D


@pytest.fixture
def t_f():
    return T_F
