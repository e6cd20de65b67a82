"""One experiment unit: standardize and search; then score.

``run_experiment`` sees train and validation data only: it z-scores the
named features with training statistics, searches the family's space and
returns the winning trial's model with its preprocessing. ``score`` tests
that model on any samples, standardized with the TRAINING statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import FEATURE_NAMES
from .market import Sample, supervised
from .metrics import MetricReport, evaluate
from .models import QuantileModel
from .search import (Config, SearchData, SearchSpace, Trial, default_space,
                     run_search)
from .selection import standardize

NAIVE_FEATURE_SETS = {
    "naive1": ("vwap|buy|15", "vwap|sell|15"),
    "naive2": ("last_price|buy|inf", "last_price|sell|inf"),
}


def column_indices(names: Sequence[str],
                   universe: Sequence[str] = FEATURE_NAMES) -> np.ndarray:
    pos = {n: i for i, n in enumerate(universe)}
    missing = [n for n in names if n not in pos]
    if missing:
        raise KeyError(f"features absent from the universe: {missing}")
    return np.array([pos[n] for n in names], dtype=np.intp)


def design_matrix(samples: Sequence[Sample],
                  names: Optional[Sequence[str]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Feature matrix and target vector over the supervised samples."""
    rows = supervised(samples)
    if not rows:
        return np.empty((0, len(names or FEATURE_NAMES))), np.empty(0)
    X = np.vstack([s.features for s in rows])
    y = np.array([s.target_id3 for s in rows])
    if names is not None:
        X = X[:, column_indices(names)]
    return X, y


@dataclass
class ExperimentResult:
    best_trial: Trial
    trials: List[Trial]
    model: QuantileModel
    prep: Dict[str, object]  # feature_names, mean, scale


def run_experiment(feature_names: Sequence[str],
                   train: Tuple[np.ndarray, np.ndarray],
                   val: Tuple[np.ndarray, np.ndarray],
                   family: str, budget: int, seed: int, quantiles,
                   space: Optional[SearchSpace] = None,
                   base_config: Optional[Config] = None) -> ExperimentResult:
    X_tr, y_tr = train
    X_val, y_val = val
    X_tr_s, (X_val_s,), mean, scale, _ = standardize(X_tr, X_val)
    space = space or default_space(family)
    data = SearchData(X_tr_s, y_tr, X_val_s, y_val)
    best, trials = run_search(family, space, budget, data, quantiles,
                              seed=seed, base_config=base_config)
    prep = {"feature_names": list(feature_names), "mean": mean, "scale": scale}
    return ExperimentResult(best_trial=best, trials=trials, model=best.model,
                            prep=prep)


def apply_prep(X: np.ndarray, prep: Dict[str, object]) -> np.ndarray:
    return (X - prep["mean"]) / prep["scale"]


def score(model: QuantileModel, prep: Dict[str, object],
          samples: Sequence[Sample], quantiles) -> MetricReport:
    """The model's metrics on the supervised ``samples``, preprocessed as it
    was trained."""
    X, y = design_matrix(samples, prep["feature_names"])
    return evaluate(y, model.predict(apply_prep(X, prep)), quantiles)
