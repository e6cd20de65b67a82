"""Budget-limited hyperparameter search selecting by validation AQL.

The baseline sampler draws seeded uniform random configurations
(log-uniform for learning rates and the L1 weight); any callable with the
same signature can replace it. Trials are independent given their derived
seeds, so parallel execution cannot change which trial wins: the best is
the lowest validation AQL with ties going to the earlier trial id. The
search interface only ever sees train and validation data.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import aql
from .models import QuantileModel, make_model

Config = Dict[str, object]


class SearchError(RuntimeError):
    """Raised when every trial in a search failed."""

    def __init__(self, failures: Sequence["Trial"]):
        lines = [f"trial {t.trial_id}: {t.error}" for t in failures]
        super().__init__("all trials failed:\n" + "\n".join(lines))
        self.failures = list(failures)


@dataclass(frozen=True)
class ParamSpec:
    kind: str  # "float" | "int" | "cat"
    low: Optional[float] = None
    high: Optional[float] = None
    log: bool = False
    choices: Optional[Tuple] = None

    def sample(self, rng: np.random.Generator):
        if self.kind == "cat":
            return self.choices[int(rng.integers(len(self.choices)))]
        if self.kind == "int":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        if self.kind == "float":
            if self.log:
                return float(10 ** rng.uniform(np.log10(self.low), np.log10(self.high)))
            return float(rng.uniform(self.low, self.high))
        raise ValueError(f"unknown parameter kind {self.kind!r}")

    def contains(self, value) -> bool:
        if self.kind == "cat":
            return value in self.choices
        return self.low <= value <= self.high


@dataclass(frozen=True)
class SearchSpace:
    params: Dict[str, ParamSpec]

    def sample(self, rng: np.random.Generator) -> Config:
        return {name: spec.sample(rng) for name, spec in self.params.items()}

    def contains(self, config: Config) -> bool:
        return all(name in config and spec.contains(config[name])
                   for name, spec in self.params.items())


def default_space(family: str) -> SearchSpace:
    if family == "lqr":
        return SearchSpace({"l1_weight": ParamSpec("float", 1e-8, 1.0, log=True)})
    if family == "qknn":
        return SearchSpace({
            "n_neighbors": ParamSpec("int", 5, 100),
            "metric": ParamSpec("cat", choices=("euclidean", "manhattan")),
            "weights": ParamSpec("cat", choices=("uniform", "distance")),
        })
    if family == "qgbt":
        return SearchSpace({
            "n_estimators": ParamSpec("int", 50, 500),
            "max_depth": ParamSpec("int", 3, 12),
            "learning_rate": ParamSpec("float", 1e-3, 1e-1, log=True),
            "subsample": ParamSpec("float", 0.5, 1.0),
            "colsample_by_tree": ParamSpec("float", 0.5, 1.0),
            "reg_alpha": ParamSpec("float", 0.0, 5.0),
            "reg_lambda": ParamSpec("float", 0.0, 10.0),
        })
    if family == "qmlp":
        return SearchSpace({
            "hidden_size": ParamSpec("int", 32, 1024),
            "n_layers": ParamSpec("int", 2, 6),
            "dropout_rate": ParamSpec("float", 0.0, 0.5),
            "learning_rate": ParamSpec("float", 1e-5, 1e-1, log=True),
            "batch_size": ParamSpec("int", 64, 1024),
        })
    raise ValueError(f"no default search space for family {family!r}")


def random_sampler(space: SearchSpace, trial_id: int, seed: int,
                   history: Sequence["Trial"]) -> Config:
    """Seeded random draw; ignores history, so trials are order-independent."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial_id]))
    return space.sample(rng)


Sampler = Callable[[SearchSpace, int, int, Sequence["Trial"]], Config]


@dataclass
class Trial:
    trial_id: int
    config: Config
    seed: int
    val_aql: Optional[float] = None
    status: str = "ok"
    error: Optional[str] = None
    duration: float = 0.0
    # the fitted model, kept on the best trial only
    model: Optional[QuantileModel] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SearchData:
    """Train and validation handles only; the test split never enters a search."""
    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray


def trial_seed(seed: int, trial_id: int) -> int:
    return int(np.random.SeedSequence([seed, trial_id]).generate_state(1)[0])


def run_search(family: str, space: SearchSpace, budget: int, data: SearchData,
               quantiles, seed: int = 0, sampler: Optional[Sampler] = None,
               base_config: Optional[Config] = None) -> Tuple[Trial, List[Trial]]:
    """Evaluate ``budget`` sampled configurations, returning (best, all trials).

    The best trial keeps its fitted model in ``Trial.model``; every family
    is deterministic given (config, seed, data), so it equals a refit.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    sampler = sampler or random_sampler
    base_config = base_config or {}
    trials: List[Trial] = []
    best: Optional[Trial] = None
    for trial_id in range(budget):
        config = sampler(space, trial_id, seed, trials)
        t = Trial(trial_id=trial_id, config=config, seed=trial_seed(seed, trial_id))
        t0 = time.perf_counter()
        try:
            model = make_model(family, quantiles, seed=t.seed,
                               **{**base_config, **config})
            model.fit(data.X_train, data.y_train, data.X_val, data.y_val)
            t.val_aql = aql(data.y_val, model.predict(data.X_val), quantiles)
            if not np.isfinite(t.val_aql):
                raise RuntimeError(f"non-finite validation AQL {t.val_aql}")
        except Exception as exc:  # noqa: BLE001 -- failures are recorded per trial
            t.status = "failed"
            t.error = f"{type(exc).__name__}: {exc}"
            t.val_aql = None
        t.duration = time.perf_counter() - t0
        trials.append(t)
        if t.status == "ok" and (best is None or t.val_aql < best.val_aql):
            if best is not None:
                best.model = None
            t.model = model
            best = t
    if best is None:
        raise SearchError(trials)
    return best, trials


def write_trials_jsonl(trials: Sequence[Trial], fh) -> None:
    for t in trials:
        fh.write(json.dumps({
            "id": t.trial_id,
            "config": t.config,
            "val_aql": t.val_aql,
            "duration": t.duration,
            "status": t.status,
            "error": t.error,
        }, sort_keys=True) + "\n")
