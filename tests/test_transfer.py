import dataclasses

import pytest

from bookcast.transfer import (Domain, asymmetry_sweep, ensure_selection,
                               run_pair, run_strategy, sweep_point,
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


def test_asymmetry_sweep_points(dom_a, dom_b):
    points = asymmetry_sweep([(dom_a, dom_b), (dom_b, dom_a)], "qknn", 2, [0],
                             Q3, alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    assert len(points) == 2
    c_ab = points[0]["trade_count_ratio"]
    c_ba = points[1]["trade_count_ratio"]
    assert c_ab * c_ba == pytest.approx(1.0, rel=1e-12)
    assert all(p["loss_ratio"] > 0 for p in points)
    with pytest.raises(ValueError):
        asymmetry_sweep([(dom_a, dom_b)], "qknn", 2, [0], Q3)


def test_sweep_point_reproduces_asymmetry_sweep(dom_a, dom_b):
    kw = dict(alpha_grid=SMALL_GRID, solver_cfg=FAST_SOLVER)
    points = asymmetry_sweep([(dom_a, dom_b), (dom_b, dom_a)], "qknn", 2,
                             [0, 1], Q3, **kw)
    forward = run_pair(dom_a, dom_b, "qknn", 2, [0, 1], Q3, **kw)
    backward = run_pair(dom_b, dom_a, "qknn", 2, [0, 1], Q3,
                        strategies=("B->A",), **kw)
    assert [sweep_point(forward), sweep_point(backward)] == points


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
