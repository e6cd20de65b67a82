"""Orderbook feature extraction, sparse quantile feature selection, a
probabilistic model zoo, and cross-domain transfer experiments for
continuous intraday markets."""

from ._version import __version__
from .features import FEATURE_NAMES, extract_features, feature_name
from .market import (ProductSpec, Sample, SplitBoundaries, Trade, TradeTable,
                     build_samples, enumerate_products, parse_trades,
                     split_dataset)
from .metrics import MetricReport, aql, aqcr, evaluate, mae, pinball, r2, rmse
from .models import make_model
from .selection import (fit_l1_lqr, importance_breakdown, select_features,
                        standardize, top_k, tune_alpha)
from .synth import SynthConfig, generate, make_domain_pair
from .target import compute_id3
from .transfer import (Domain, asymmetry_sweep, run_pair, run_strategy,
                       sweep_point)

__all__ = [
    "Domain",
    "FEATURE_NAMES",
    "MetricReport",
    "ProductSpec",
    "Sample",
    "SplitBoundaries",
    "SynthConfig",
    "Trade",
    "TradeTable",
    "__version__",
    "aql",
    "aqcr",
    "asymmetry_sweep",
    "build_samples",
    "compute_id3",
    "enumerate_products",
    "evaluate",
    "extract_features",
    "feature_name",
    "fit_l1_lqr",
    "generate",
    "importance_breakdown",
    "mae",
    "make_domain_pair",
    "make_model",
    "parse_trades",
    "pinball",
    "r2",
    "rmse",
    "run_pair",
    "run_strategy",
    "select_features",
    "split_dataset",
    "standardize",
    "sweep_point",
    "top_k",
    "tune_alpha",
]
