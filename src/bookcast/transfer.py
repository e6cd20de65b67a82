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

A model depends only on its sources, never on the target: the (B, seed) fit
behind A's B->A is also B's baseline in the reverse direction. So within
``run_pair`` each single-source fit is scored on the test splits of both
domains of its pair, and those reports, kept for one call, give both
directions' B->A (C, L) points from the fits of the forward direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .experiment import design_matrix, run_experiment, score
from .features import FEATURE_NAMES
from .market import DatasetSplit, supervised
from .metrics import MetricReport, summarize_runs
from .search import Config, SearchSpace
from .selection import (AlphaGrid, SelectionResult, SolverConfig, select_features,
                        standardize, top_k_union, tune_alpha)

STRATEGIES = ("A->A", "B->A", "A+B->A")
FEATURE_MODES = ("union", "top5")


@dataclass(eq=False)
class Domain:
    """A named dataset split; a domain is equal only to itself, so a
    ``run_pair`` keys the reports it shares by the domain objects."""
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
                     alpha_grid: AlphaGrid = None,
                     solver_cfg: Optional[SolverConfig] = None) -> SelectionResult:
    """Fit the domain's sparse feature selection once (train/val only); a
    selection already made for other quantiles raises ValueError."""
    if domain.selection is not None:
        wanted = tuple(sorted({float(t) for t in quantiles}))
        if wanted != tuple(domain.selection.quantiles):
            raise ValueError(f"domain {domain.name} was selected for quantiles "
                             f"{list(domain.selection.quantiles)}, not {list(wanted)}")
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
    return list(sel.union) if feature_mode == "union" else top_k_union(sel, 5)


@dataclass
class TransferReport:
    strategy: str
    target: str
    source: str
    seed: int
    metrics: MetricReport
    loss_ratio: Optional[float]
    trade_count_ratio: float


def run_strategy(strategy: str, A: Domain, B: Domain, family: str,
                 budget: int, seed: int, quantiles,
                 space: Optional[SearchSpace] = None,
                 base_config: Optional[Config] = None,
                 alpha_grid: AlphaGrid = None,
                 solver_cfg: Optional[SolverConfig] = None,
                 baseline_aql: Optional[float] = None,
                 feature_mode: str = "union",
                 memo: Optional[dict] = None) -> TransferReport:
    """One (strategy, seed) experiment testing on A's test split.

    The strategy names its source domains: {A}, {B} or {A, B}. The features
    are the union of the sources' feature sets, and the model trains and
    tunes on the sources' stacked train and validation rows.

    ``baseline_aql`` supplies AQL(A->A) for the loss ratio; when omitted for
    a non-baseline strategy, the ratio is left unset. The A->A strategy has
    loss ratio 1 by construction.

    ``memo`` maps (target, sources, seed) to a test report, for calls that
    share every other argument (see ``run_pair``); a miss fits the sources
    and scores the fit on A's test split, and also on B's when the fit has
    a single source, whose score a reverse direction reads.
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

    targets = (A, B) if memo is not None and len(sources) == 1 else (A,)
    memo = {} if memo is None else memo
    if (A, sources, seed) not in memo:
        result = run_experiment(names, stacked("train"), stacked("val"),
                                family, budget, seed, quantiles, space, base_config)
        for target in targets:
            memo[target, sources, seed] = score(result.model, result.prep,
                                                target.split.test, quantiles)
    report = memo[A, sources, seed]
    if strategy == "A->A":
        ratio = 1.0
    else:
        ratio = (report.aql / baseline_aql) if baseline_aql else None
    return TransferReport(strategy=strategy, target=A.name,
                          source="+".join(dom.name for dom in sources),
                          seed=seed, metrics=report, loss_ratio=ratio,
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
    # the B->A (C, L) point testing on the target, then on the source
    points: List[dict] = field(default_factory=list)


def run_pair(A: Domain, B: Domain, family: str, budget: int,
             seeds: Sequence[int], quantiles,
             strategies: Sequence[str] = STRATEGIES,
             space: Optional[SearchSpace] = None,
             base_config: Optional[Config] = None,
             alpha_grid: AlphaGrid = None,
             solver_cfg: Optional[SolverConfig] = None,
             feature_mode: str = "union") -> PairResult:
    """The strategies over repeated seeds for one (target, source) pair, and
    the B->A (C, L) point of both directions.

    A run's loss ratio divides its AQL by the same seed's A->A AQL, and a
    strategy's its mean AQL over seeds by the A->A mean. A->A and B->A
    always run, but B->A is listed only when asked for. The reverse
    direction reuses the forward fits. An unknown strategy name raises
    ValueError.
    """
    ordered = check_strategies(strategies)
    result = PairResult(target=A.name, source=B.name,
                        trade_count_ratio=trade_count_ratio(A, B))
    memo = {}

    def direction(target, source, names):
        reports = {}
        for strategy in names:
            base = reports.get("A->A", [None] * len(seeds))
            reports[strategy] = [
                run_strategy(strategy, target, source, family, budget, seed,
                             quantiles, space, base_config, alpha_grid, solver_cfg,
                             baseline_aql=None if b is None else b.metrics.aql,
                             feature_mode=feature_mode, memo=memo)
                for seed, b in zip(seeds, base)]
        summary = {s: summarize_runs([r.metrics for r in runs])
                   for s, runs in reports.items()}
        base_mean = summary["A->A"]["aql"]["mean"]
        ratio = {s: 1.0 if s == "A->A" else summary[s]["aql"]["mean"] / base_mean
                 for s in summary}
        return reports, summary, ratio

    reports, summary, ratio = direction(A, B, ["A->A", "B->A"] + [
        s for s in ordered if s == "A+B->A"])
    for s in reports:
        if s in ordered or s == "A->A":
            result.reports[s], result.summary[s] = reports[s], summary[s]
            result.loss_ratio[s] = ratio[s]
    reverse = direction(B, A, ("A->A", "B->A"))[2]
    result.points = [{"target": t.name, "source": src.name,
                      "trade_count_ratio": trade_count_ratio(t, src),
                      "loss_ratio": r["B->A"]}
                     for t, src, r in ((A, B, ratio), (B, A, reverse))]
    return result
