import dataclasses
import json
import re

import pytest

from bookcast import transfer
from bookcast.features import FEATURE_NAMES
from bookcast.search import ParamSpec, SearchSpace
from bookcast.selection import SelectionResult
from bookcast.transfer import (FEATURE_MODES, Domain, domain_feature_set,
                               ensure_selection, run_pair, run_strategy,
                               trade_count_ratio)
from helpers import FAST_SOLVER, SMALL_GRID, tiny_domain

Q3 = (0.1, 0.5, 0.9)
FAST = dict(family="qknn", budget=2, seed=0, quantiles=Q3,
            alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)


@pytest.fixture(scope="module")
def dom_a():
    return tiny_domain("A", seed=1, liquidity=15.0)


@pytest.fixture(scope="module")
def dom_b():
    return tiny_domain("B", seed=2, liquidity=30.0)


def test_self_strategy_unit_loss_ratio(dom_a, dom_b):
    report = run_strategy("A->A", dom_a, dom_b, **FAST)
    assert report.loss_ratio == 1.0
    assert report.strategy == "A->A"
    assert report.target == "A" and report.source == "A"


def test_trade_count_ratio_identities(dom_a, dom_b):
    assert trade_count_ratio(dom_a, dom_a) == 1.0
    c_ab = trade_count_ratio(dom_a, dom_b)
    c_ba = trade_count_ratio(dom_b, dom_a)
    assert c_ab * c_ba == pytest.approx(1.0, rel=1e-12)
    assert c_ab > 1.0  # B is more liquid


def test_trade_count_ratio_zero_denominator():
    live = tiny_domain("L")
    empty = Domain("E", live.split, 0.0)
    with pytest.raises(ValueError):
        trade_count_ratio(empty, live)
    with pytest.raises(ValueError):
        trade_count_ratio(live, empty)


def test_degenerate_self_transfer_bit_identical():
    # same data, same seeds: B->A with B = A reproduces A->A exactly
    A = tiny_domain("A", seed=5, liquidity=18.0)
    B = tiny_domain("B", seed=5, liquidity=18.0)
    base = run_strategy("A->A", A, B, **FAST)
    mirrored = run_strategy("B->A", A, B, baseline_aql=base.metrics.aql, **FAST)
    assert mirrored.metrics == base.metrics
    assert mirrored.loss_ratio == 1.0


def test_unknown_strategy_rejected(dom_a, dom_b):
    with pytest.raises(ValueError):
        run_strategy("A->B", dom_a, dom_b, **FAST)


def test_run_pair_rejects_unknown_strategy(dom_a, dom_b):
    with pytest.raises(ValueError, match="'A->B'"):
        run_pair(dom_a, dom_b, "qknn", 2, [0], Q3, strategies=("A->A", "A->B"),
                 alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)


def test_union_strategy_superset(dom_a, dom_b):
    sel_a = ensure_selection(dom_a, Q3, SMALL_GRID, FAST_SOLVER)
    sel_b = ensure_selection(dom_b, Q3, SMALL_GRID, FAST_SOLVER)
    run_pair_result = run_pair(dom_a, dom_b, "qknn", 2, [0], Q3,
                               strategies=("A->A", "A+B->A"),
                               alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    assert set(sel_a.union) and set(sel_b.union)
    # reconstruct the union set used by the joint strategy
    joint = set(sel_a.union) | set(sel_b.union)
    assert set(sel_a.union) <= joint
    assert set(sel_b.union) <= joint
    assert "A+B->A" in run_pair_result.reports
    assert run_pair_result.reports["A+B->A"][0].source == "A+B"


def test_run_pair_loss_ratios(dom_a, dom_b):
    result = run_pair(dom_a, dom_b, "qknn", 2, [0, 1], Q3,
                      alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    assert result.loss_ratio["A->A"] == 1.0
    assert result.loss_ratio["B->A"] > 0
    assert set(result.reports) == {"A->A", "B->A", "A+B->A"}
    assert len(result.reports["B->A"]) == 2
    base = result.summary["A->A"]["aql"]["mean"]
    transferred = result.summary["B->A"]["aql"]["mean"]
    assert result.loss_ratio["B->A"] == pytest.approx(transferred / base)
    # each run's ratio is over the same seed's baseline
    seed_base = {r.seed: r.metrics.aql for r in result.reports["A->A"]}
    for strategy, runs in result.reports.items():
        for r in runs:
            assert r.loss_ratio == (1.0 if strategy == "A->A"
                                    else r.metrics.aql / seed_base[r.seed]), (strategy, r.seed)


def test_run_pair_points_both_directions(dom_a, dom_b):
    kw = dict(alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    pair = run_pair(dom_a, dom_b, "qknn", 2, [0, 1], Q3, strategies=("A->A",), **kw)
    assert list(pair.loss_ratio) == ["A->A"]  # B->A runs for the points only
    assert [(p["target"], p["source"]) for p in pair.points] == [("A", "B"), ("B", "A")]
    c_ab, c_ba = (p["trade_count_ratio"] for p in pair.points)
    assert c_ab * c_ba == pytest.approx(1.0, rel=1e-12)
    assert c_ab == pair.trade_count_ratio
    assert all(p["loss_ratio"] > 0 for p in pair.points)
    # the reverse point is the B->A of a pair run testing on B
    backward = run_pair(dom_b, dom_a, "qknn", 2, [0, 1], Q3, strategies=("B->A",), **kw)
    assert pair.points[1] == {"target": "B", "source": "A",
                              "trade_count_ratio": backward.trade_count_ratio,
                              "loss_ratio": backward.loss_ratio["B->A"]}


def test_run_pair_fits_each_source_once_per_seed(dom_a, dom_b, monkeypatch):
    # the forward A->A and B->A fit sources {A} and {B}; the reverse
    # direction's A->A and B->A reuse both fits
    calls = []
    run_experiment = transfer.run_experiment

    def counting(*args, **kwargs):
        calls.append(args[5])  # the seed
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(transfer, "run_experiment", counting)
    run_pair(dom_a, dom_b, "qknn", 2, [0, 1], Q3, strategies=("B->A",),
             alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    assert sorted(calls) == [0, 0, 1, 1]


def test_fits_are_scored_only_where_a_score_is_read(dom_a, dom_b, monkeypatch):
    # run_pair scores the fits of {A} and {B} on both test splits, for the
    # reverse direction, and the {A, B} fit on A's alone; a standalone
    # run_strategy has no reverse direction and scores on A only
    calls = []
    score = transfer.score

    def counting(model, prep, samples, quantiles):
        calls.append(samples)
        return score(model, prep, samples, quantiles)

    monkeypatch.setattr(transfer, "score", counting)
    run_pair(dom_a, dom_b, "qknn", 2, [0], Q3, alpha_grid=SMALL_GRID,
             solver_cfg=FAST_SOLVER)
    assert len(calls) == 5
    calls.clear()
    run_strategy("B->A", dom_a, dom_b, **FAST)
    assert len(calls) == 1 and calls[0] is dom_a.split.test


def test_run_pair_shares_no_fits_between_calls(dom_a, dom_b):
    # the space leaves n_neighbors to the base config, so the two configs
    # fit different models on the same domain objects; the fresh copies
    # share only their selections
    kw = dict(space=SearchSpace({"metric": ParamSpec("cat", choices=("euclidean",))}),
              alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    first = run_pair(dom_a, dom_b, "qknn", 1, [0], Q3, base_config={"n_neighbors": 3}, **kw)
    again = run_pair(dom_a, dom_b, "qknn", 1, [0], Q3, base_config={"n_neighbors": 12}, **kw)
    fresh = run_pair(dataclasses.replace(dom_a), dataclasses.replace(dom_b),
                     "qknn", 1, [0], Q3, base_config={"n_neighbors": 12}, **kw)
    assert again.summary != first.summary
    assert again.summary == fresh.summary
    assert again.loss_ratio == fresh.loss_ratio
    assert again.points == fresh.points


def test_ensure_selection_refuses_other_quantiles(dom_a):
    sel = ensure_selection(dom_a, Q3, SMALL_GRID, FAST_SOLVER)
    assert ensure_selection(dom_a, (0.9, 0.5, 0.1)) is sel
    with pytest.raises(ValueError, match=re.escape("[0.1, 0.5, 0.9], not [0.25, 0.5, 0.75]")):
        ensure_selection(dom_a, (0.25, 0.5, 0.75))


def _poison_test_targets(domain: Domain, offset: float) -> Domain:
    from bookcast.market import DatasetSplit
    poisoned = [dataclasses.replace(s, target_id3=(s.target_id3 + offset
                                                   if s.target_id3 is not None else None))
                for s in domain.split.test]
    new_split = DatasetSplit(train=list(domain.split.train),
                             val=list(domain.split.val),
                             test=poisoned,
                             boundaries=domain.split.boundaries)
    return Domain(domain.name, new_split, domain.avg_matched_trades)


def test_no_test_leakage_sentinel():
    # shifting every test target changes metrics but neither the selected
    # features nor the tuned configuration
    A1 = tiny_domain("A", seed=7, liquidity=16.0)
    A2 = _poison_test_targets(tiny_domain("A", seed=7, liquidity=16.0), 500.0)
    B = tiny_domain("B", seed=8, liquidity=16.0)

    sel_1 = ensure_selection(A1, Q3, SMALL_GRID, FAST_SOLVER)
    sel_2 = ensure_selection(A2, Q3, SMALL_GRID, FAST_SOLVER)
    assert sel_1.union == sel_2.union
    assert sel_1.alpha_per_tau == sel_2.alpha_per_tau

    r1 = run_strategy("A->A", A1, B, **FAST)
    r2 = run_strategy("A->A", A2, B, **FAST)
    assert r1.metrics.aql != r2.metrics.aql


def test_selection_round_trips_through_its_dict(dom_a):
    sel = ensure_selection(dom_a, Q3, SMALL_GRID, FAST_SOLVER)
    assert sel.union
    payload = json.loads(json.dumps(sel.to_dict(), sort_keys=True))
    back = SelectionResult.from_dict(payload, FEATURE_NAMES)
    assert back.quantiles == sel.quantiles
    assert back.union == sel.union
    assert back.per_tau_selected == sel.per_tau_selected
    assert back.alpha_per_tau == sel.alpha_per_tau
    assert list(back.importance.items()) == list(sel.importance.items())
    for tau, names in sel.per_tau_selected.items():
        assert back.per_tau_coef[tau] == {n: sel.per_tau_coef[tau][n] for n in names}
    restored = dataclasses.replace(dom_a, selection=back)
    for mode in FEATURE_MODES:
        assert domain_feature_set(restored, mode) == domain_feature_set(dom_a, mode)
    assert back.to_dict() == sel.to_dict()
