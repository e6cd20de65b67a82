"""Cross-domain generalization experiments.

Three strategies move feature sets and models between a source domain B and
a target domain A:

* ``A->A``   select on A, train and tune on A, test on A (the baseline);
* ``B->A``   select on B, train and tune on B with B's standardization,
  test on A's test split projected onto B's selected features;
* ``A+B->A`` union of both selected sets, train on the concatenated
  training data, test on A.

The loss ratio divides a strategy's test AQL by the A->A baseline (means
over repeated seeds); the trade-count ratio divides the source's average
matched-trade count by the target's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .experiment import design_matrix, run_experiment
from .features import FEATURE_NAMES
from .market import DatasetSplit, supervised
from .metrics import MetricReport, summarize_runs
from .search import Config, SearchSpace
from .selection import (SelectionResult, SolverConfig, select_features,
                        standardize, top_k, tune_alpha)

STRATEGIES = ("A->A", "B->A", "A+B->A")
FEATURE_MODES = ("union", "top5")


@dataclass
class Domain:
    name: str
    split: DatasetSplit
    avg_matched_trades: float
    selection: Optional[SelectionResult] = None


def domain_from_split(name: str, split: DatasetSplit) -> Domain:
    """Wrap a split as a transfer domain; liquidity is the mean matched-trade
    count over the supervised test samples."""
    test = supervised(split.test)
    avg = float(np.mean([s.matched_trade_count for s in test])) if test else 0.0
    return Domain(name=name, split=split, avg_matched_trades=avg)


def trade_count_ratio(target: Domain, source: Domain) -> float:
    """Source liquidity over target liquidity; > 1 means transferring from
    a more liquid domain."""
    if target.avg_matched_trades <= 0:
        raise ValueError(f"domain {target.name} has no matched trades")
    if source.avg_matched_trades <= 0:
        raise ValueError(f"domain {source.name} has no matched trades")
    return source.avg_matched_trades / target.avg_matched_trades


def ensure_selection(domain: Domain, quantiles,
                     alpha_grid: Optional[Sequence[float]] = None,
                     solver_cfg: Optional[SolverConfig] = None) -> SelectionResult:
    """Fit the domain's sparse feature selection once (train/val only)."""
    if domain.selection is not None:
        return domain.selection
    X_tr, y_tr = design_matrix(domain.split.train)
    X_val, y_val = design_matrix(domain.split.val)
    X_tr_s, (X_val_s,), _, _, _ = standardize(X_tr, X_val)
    fits = {}
    for tau in quantiles:
        best_alpha, tau_fits = tune_alpha((X_tr_s, y_tr), (X_val_s, y_val), tau,
                                          alpha_grid, solver_cfg)
        fits[tau] = tau_fits[best_alpha]
    domain.selection = select_features(fits, FEATURE_NAMES)
    return domain.selection


def domain_feature_set(domain: Domain, feature_mode: str = "union") -> List[str]:
    """The domain's optimal feature set: the full selected union, or the
    union of the per-quantile top-5 features (the downstream default, which
    also sheds liquidity-scaled columns that do not transfer)."""
    if feature_mode not in FEATURE_MODES:
        raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")
    sel = domain.selection
    if sel is None:
        raise RuntimeError(f"domain {domain.name} has no selection yet")
    if feature_mode == "union":
        return list(sel.union)
    chosen = set()
    for tau in sel.quantiles:
        names, _ = top_k(sel, tau, 5)
        chosen.update(names)
    return [n for n in FEATURE_NAMES if n in chosen]


@dataclass
class TransferReport:
    strategy: str
    target: str
    source: str
    seed: int
    metrics: MetricReport
    loss_ratio: Optional[float]
    trade_count_ratio: float

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "target": self.target,
            "source": self.source,
            "seed": self.seed,
            "metrics": self.metrics.to_dict(),
            "loss_ratio": self.loss_ratio,
            "trade_count_ratio": self.trade_count_ratio,
        }


def run_strategy(strategy: str, A: Domain, B: Domain, family: str,
                 budget: int, seed: int, quantiles,
                 space: Optional[SearchSpace] = None,
                 base_config: Optional[Config] = None,
                 alpha_grid: Optional[Sequence[float]] = None,
                 solver_cfg: Optional[SolverConfig] = None,
                 baseline_aql: Optional[float] = None,
                 feature_mode: str = "union") -> TransferReport:
    """One (strategy, seed) experiment testing on A's test split.

    The strategy names its source domains: {A}, {B} or {A, B}. The features
    are the union of the sources' feature sets, and the model trains and
    tunes on the sources' stacked train and validation rows.

    ``baseline_aql`` supplies AQL(A->A) for the loss ratio; when omitted for
    a non-baseline strategy, the ratio is left unset. The A->A strategy has
    loss ratio 1 by construction.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    sources = {"A->A": (A,), "B->A": (B,), "A+B->A": (A, B)}[strategy]
    chosen = set()
    for dom in sources:
        ensure_selection(dom, quantiles, alpha_grid, solver_cfg)
        chosen.update(domain_feature_set(dom, feature_mode))
    names = [n for n in FEATURE_NAMES if n in chosen]

    def stacked(part: str):
        parts = [design_matrix(getattr(dom.split, part), names) for dom in sources]
        return (np.vstack([X for X, _ in parts]),
                np.concatenate([y for _, y in parts]))

    result = run_experiment(names, stacked("train"), stacked("val"),
                            design_matrix(A.split.test, names),
                            family, budget, seed, quantiles, space, base_config)
    if strategy == "A->A":
        ratio = 1.0
    else:
        ratio = (result.report.aql / baseline_aql) if baseline_aql else None
    return TransferReport(strategy=strategy, target=A.name,
                          source="+".join(dom.name for dom in sources),
                          seed=seed, metrics=result.report, loss_ratio=ratio,
                          trade_count_ratio=trade_count_ratio(A, B))


def check_strategies(strategies: Sequence[str]) -> List[str]:
    """The named strategies in ``STRATEGIES`` order; raises ValueError
    naming the first unknown entry."""
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategy {unknown[0]!r}, expected one of {STRATEGIES}")
    return [s for s in STRATEGIES if s in strategies]


@dataclass
class PairResult:
    target: str
    source: str
    trade_count_ratio: float
    reports: Dict[str, List[TransferReport]] = field(default_factory=dict)
    summary: Dict[str, dict] = field(default_factory=dict)
    loss_ratio: Dict[str, float] = field(default_factory=dict)


def run_pair(A: Domain, B: Domain, family: str, budget: int,
             seeds: Sequence[int], quantiles,
             strategies: Sequence[str] = STRATEGIES,
             space: Optional[SearchSpace] = None,
             base_config: Optional[Config] = None,
             alpha_grid: Optional[Sequence[float]] = None,
             solver_cfg: Optional[SolverConfig] = None,
             feature_mode: str = "union") -> PairResult:
    """All strategies over repeated seeds for one (target, source) pair.

    Loss ratios divide mean AQL over seeds by the A->A mean. An unknown
    strategy name raises ValueError.
    """
    ordered = check_strategies(strategies)
    result = PairResult(target=A.name, source=B.name,
                        trade_count_ratio=trade_count_ratio(A, B))
    if "A->A" not in ordered:
        ordered = ["A->A"] + ordered  # the baseline anchors every ratio
    for strategy in ordered:
        result.reports[strategy] = [
            run_strategy(strategy, A, B, family, budget, seed, quantiles,
                         space, base_config, alpha_grid, solver_cfg,
                         feature_mode=feature_mode)
            for seed in seeds
        ]
        result.summary[strategy] = summarize_runs(
            [r.metrics for r in result.reports[strategy]])
    base_mean = result.summary["A->A"]["aql"]["mean"]
    for strategy in ordered:
        mean_aql = result.summary[strategy]["aql"]["mean"]
        result.loss_ratio[strategy] = (1.0 if strategy == "A->A"
                                       else mean_aql / base_mean)
    return result


def sweep_point(pair: PairResult) -> dict:
    """The (C, L) point of a pair's B->A strategy, for plotting."""
    return {
        "target": pair.target,
        "source": pair.source,
        "trade_count_ratio": pair.trade_count_ratio,
        "loss_ratio": pair.loss_ratio["B->A"],
    }


def asymmetry_sweep(pairs: Sequence[Tuple[Domain, Domain]], family: str,
                    budget: int, seeds: Sequence[int], quantiles,
                    space: Optional[SearchSpace] = None,
                    base_config: Optional[Config] = None,
                    alpha_grid: Optional[Sequence[float]] = None,
                    solver_cfg: Optional[SolverConfig] = None,
                    feature_mode: str = "union") -> List[dict]:
    """(C, L) points for each ordered (target, source) pair, for plotting.

    Each pair is one B->A ``run_pair`` with its own A->A baseline, so pairs
    that share a target each run that baseline.
    """
    if len(pairs) < 2:
        raise ValueError("asymmetry sweep needs at least two ordered pairs")
    return [sweep_point(run_pair(A, B, family, budget, seeds, quantiles,
                                 strategies=("B->A",), space=space,
                                 base_config=base_config, alpha_grid=alpha_grid,
                                 solver_cfg=solver_cfg, feature_mode=feature_mode))
            for A, B in pairs]
