"""Command-line orchestration of the full pipeline.

A single declarative YAML/JSON config drives every command; selected flags
override individual fields. Outputs land under
``workspace/{synth,features,selection,models,metrics,transfer}/<key>/``,
where an area's key hashes only the config fields its outputs depend on
(``STAGE_FIELDS``): changing a model setting reuses the synth, features and
selection directories, and reruns with the same fields overwrite identical
content. ``workspace`` and ``jobs`` key nothing. A command that needs a
missing upstream output makes it first; transfer domains keep their
selections in the selection area under their own keys. Exit codes: 0
success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import logging
import sys
import zoneinfo
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import yaml

from ._version import __version__
from . import market, synth
from .experiment import (NAIVE_FEATURE_SETS, apply_prep, design_matrix,
                         run_experiment)
from .features import FEATURE_NAMES
from .market import ProductSpec, SplitBoundaries, split_dataset
from .metrics import MetricReport, evaluate, summarize_runs, summary_cells
from .models import load_checkpoint, save_checkpoint
from .search import write_trials_jsonl
from .selection import (SelectionResult, SolverConfig, default_alpha_grid,
                        importance_breakdown, top_k, top_k_union)
from .transfer import (STRATEGIES, check_strategies, domain_from_split,
                       ensure_selection, run_pair, sweep_point)
from .util import UTC, config_hash, file_sha256, parse_timestamp

log = logging.getLogger("bookcast")


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG: Dict[str, object] = {
    "workspace": "workspace",
    "seed": 0,
    "seeds": [0, 1, 2, 3, 4],
    "quantiles": [0.1, 0.5, 0.9],
    "market": "DE",
    "product_type": "60min",
    "tz": "UTC",
    "horizon_start": "2024-01-01T00:00:00",
    "horizon_end": "2024-03-01T00:00:00",
    "train_end": "2024-02-01T00:00:00",
    "val_end": "2024-02-15T00:00:00",
    "test_end": "2024-03-01T00:00:00",
    "trades_csv": None,
    "jobs": 1,
    "synth": {
        "liquidity": 40.0,
        "volatility": 5.0,
        "base_price": 60.0,
        "session_hours": 12.0,
        "volume_log_mean": 0.0,
        "volume_log_sd": 0.5,
        "side_balance": 0.5,
        "arrival_ramp": 0.5,
        "half_spread": 0.5,
    },
    "selector": {
        "alpha_grid_size": 50,
        "kappa": 1e-4,
        "stages": 3,
        "max_iter": 10000,
        "rel_tol": 1e-8,
        "top_k": 5,
    },
    "model": {
        "family": "lqr",
        "search_budget": 100,
        "feature_set": "full",
        "config": {},
    },
    "transfer": {
        "model_family": "qmlp",
        "model_config": {},
        "budget": 10,
        "seeds": [0, 1, 2],
        "strategies": list(STRATEGIES),
        "feature_mode": "union",
        "domain_a": {"name": "A", "synth": {}},
        "domain_b": {"name": "B", "synth": {}},
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict) and base[key]:
            out[key] = _merge(base[key], value, where)
        else:
            # empty-dict defaults mark free-form sections (model configs,
            # per-domain overrides); their keys are validated downstream
            out[key] = value
    return out


def load_config(path: Optional[str], overrides: Dict[str, object]) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        text = p.read_text()
        try:
            loaded = yaml.safe_load(text) if p.suffix in (".yaml", ".yml") \
                else json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}, line {exc.lineno}: {exc.msg}") from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f", line {mark.line + 1}" if mark is not None else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}{where}: {problem}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        cfg = _merge(cfg, loaded)
    cfg = _merge(cfg, {k: v for k, v in overrides.items() if v is not None})
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    try:
        tzinfo = _tz(cfg["tz"])
    except zoneinfo.ZoneInfoNotFoundError:
        raise ConfigError(f"unknown timezone in field 'tz': {cfg['tz']!r}") from None
    for fld in ("horizon_start", "horizon_end", "train_end", "val_end", "test_end"):
        try:
            parse_timestamp(str(cfg[fld]), tzinfo)
        except ValueError:
            raise ConfigError(f"field {fld!r} is not a valid timestamp: {cfg[fld]!r}") from None
    if cfg["trades_csv"] is not None and not Path(cfg["trades_csv"]).exists():
        raise ConfigError(f"field 'trades_csv' points to a missing file: {cfg['trades_csv']}")
    if cfg["model"]["feature_set"] not in ("top5", "full", "naive1", "naive2"):
        raise ConfigError("field 'model.feature_set' must be top5|full|naive1|naive2")
    if not cfg["seeds"]:
        raise ConfigError("field 'seeds' must list at least one seed")
    if int(cfg["jobs"]) < 1:
        raise ConfigError("field 'jobs' must be at least 1")
    try:
        ProductSpec(market=cfg["market"], product_type=cfg["product_type"])
    except ValueError as exc:
        raise ConfigError(f"fields 'market'/'product_type': {exc}") from None
    try:
        check_strategies(cfg["transfer"]["strategies"])
    except ValueError as exc:
        raise ConfigError(f"field 'transfer.strategies': {exc}") from None


# The config fields each workspace area's outputs depend on; each area keeps
# its upstream area's fields, so a key moves whenever any input upstream does.
_SYNTH_FIELDS = ("seed", "synth", "market", "product_type", "tz",
                 "horizon_start", "horizon_end")
_FEATURE_FIELDS = _SYNTH_FIELDS + ("trades_csv",)
_SELECTION_FIELDS = _FEATURE_FIELDS + ("train_end", "val_end", "test_end",
                                       "quantiles", "selector")
_MODEL_FIELDS = _SELECTION_FIELDS + ("model", "seeds")
STAGE_FIELDS: Dict[str, tuple] = {
    "synth": _SYNTH_FIELDS,
    "features": _FEATURE_FIELDS,
    "selection": _SELECTION_FIELDS,
    "models": _MODEL_FIELDS,
    "metrics": _MODEL_FIELDS,
    "transfer": _SELECTION_FIELDS + ("transfer",),
}


def _tz(name: str) -> dt.tzinfo:
    return UTC if name.upper() == "UTC" else zoneinfo.ZoneInfo(name)


class Run:
    """Resolved configuration plus derived paths and parsed fields."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        keyed = dict(cfg)
        if cfg["trades_csv"] is not None:
            # a file replaced at the same path must not reuse stale features
            keyed["trades_csv"] = {"path": cfg["trades_csv"],
                                   "sha256": file_sha256(cfg["trades_csv"])}
        self.keys = {area: config_hash({f: keyed[f] for f in fields})
                     for area, fields in STAGE_FIELDS.items()}
        self.tz = _tz(cfg["tz"])
        self.workspace = Path(cfg["workspace"])
        self.spec = ProductSpec(market=cfg["market"], product_type=cfg["product_type"])
        self.start = parse_timestamp(str(cfg["horizon_start"]), self.tz)
        self.end = parse_timestamp(str(cfg["horizon_end"]), self.tz)
        self.boundaries = SplitBoundaries(
            parse_timestamp(str(cfg["train_end"]), self.tz),
            parse_timestamp(str(cfg["val_end"]), self.tz),
            parse_timestamp(str(cfg["test_end"]), self.tz))
        self.quantiles = tuple(float(q) for q in cfg["quantiles"])
        sel = cfg["selector"]
        self.solver_cfg = SolverConfig(kappa=float(sel["kappa"]),
                                       stages=int(sel["stages"]),
                                       max_iter=int(sel["max_iter"]),
                                       rel_tol=float(sel["rel_tol"]))
        self.alpha_grid = default_alpha_grid(int(sel["alpha_grid_size"]))

    def dir(self, area: str) -> Path:
        d = self.workspace / area / self.keys[area]
        d.mkdir(parents=True, exist_ok=True)
        return d

    def meta(self, area: str) -> dict:
        return {"config_hash": self.keys[area], "tool_version": __version__}

    def write_json(self, area: str, name: str, payload: dict) -> Path:
        path = self.dir(area) / name
        payload = {**payload, **self.meta(area)}
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        return path

    def write_csv(self, area: str, name: str, header: Sequence[str],
                  rows: Sequence[Sequence]) -> None:
        with open(self.dir(area) / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(header) + ["config_hash", "tool_version"])
            for row in rows:
                writer.writerow(list(row) + [self.keys[area], __version__])


def _output(run: Run, area: str, name: str, make) -> Path:
    """Path of ``name`` in ``area``; ``make(run)`` writes it first if missing."""
    path = run.dir(area) / name
    if not path.exists():
        make(run)
    return path


def _synth_config(run: Run, overrides: Optional[dict] = None) -> synth.SynthConfig:
    raw = {**run.cfg["synth"], **(overrides or {})}
    try:
        return synth.SynthConfig(seed=int(run.cfg["seed"]), **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'synth': {exc}") from None


def cmd_synth(run: Run) -> Path:
    out = run.dir("synth") / "trades.csv"
    data = synth.generate(_synth_config(run), run.spec, run.start, run.end)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        market.write_trades_csv(data.trades, fh)
    # the canonical trade format has a fixed header, so provenance lives beside it
    run.write_json("synth", "meta.json", {"n_trades": len(data.trades)})
    log.info("wrote %d trades to %s", len(data.trades), out)
    return out


def _load_trades(run: Run) -> market.TradeTable:
    src = run.cfg["trades_csv"]
    path = _output(run, "synth", "trades.csv", cmd_synth) if src is None else Path(src)
    with open(path, newline="", encoding="utf-8") as fh:
        trades, rejected = market.parse_trades(fh, run.tz)
    for r in rejected:
        log.warning("rejected trade row %d: %s", r.line, r.reason)
    return trades


def cmd_extract(run: Run) -> Path:
    trades = _load_trades(run)
    samples, report = market.build_samples(trades, run.spec, run.start, run.end)
    out = run.dir("features") / "features.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        market.write_samples_csv(samples, fh, extra=run.meta("features"))
    run.write_json("features", "drop_report.json", {
        "n_products": report.n_products,
        "n_built": report.n_built,
        "n_discarded_features": report.n_discarded_features,
        "n_discarded_with_target": report.n_discarded_with_target,
        "n_missing_target": report.n_missing_target,
    })
    log.info("extracted %d samples (%d discarded) to %s",
             report.n_built, report.n_discarded_features, out)
    return out


def _load_samples(run: Run) -> List[market.Sample]:
    path = _output(run, "features", "features.csv", cmd_extract)
    with open(path, newline="", encoding="utf-8") as fh:
        return market.read_samples_csv(fh)


def _split(run: Run) -> market.DatasetSplit:
    return split_dataset(_load_samples(run), run.boundaries)


def _write_selection(run: Run, sel: SelectionResult) -> Path:
    """Write ``selection.json`` and ``top_features.csv`` under run's selection key."""
    payload = sel.to_dict()
    payload["breakdown"] = importance_breakdown(sel).to_dict()
    out = run.write_json("selection", "selection.json", payload)
    k = int(run.cfg["selector"]["top_k"])
    rows = []
    for tau in run.quantiles:
        names, _short = top_k(sel, tau, k)
        for rank, name in enumerate(names, start=1):
            rows.append([run.cfg["market"], run.cfg["product_type"], tau, rank,
                         name, repr(sel.per_tau_coef[tau][name])])
    run.write_csv("selection", "top_features.csv",
                  ["market", "product_type", "quantile", "rank", "feature",
                   "coefficient"], rows)
    log.info("selected %d features (union) to %s", len(sel.union), out.parent)
    return out


def _domain(run: Run, name: str, dom_cfg: dict):
    """A synthetic transfer domain keyed as the main config with the domain's
    synth overrides. Its samples come from that key's ``features.csv`` when
    ``extract`` wrote one, and are built in memory (not written) otherwise;
    its selection goes through the selection area under the same key."""
    overrides = dom_cfg.get("synth") or {}
    dom_run = Run({**run.cfg, "synth": {**run.cfg["synth"], **overrides},
                   "trades_csv": None})
    features = dom_run.workspace / "features" / dom_run.keys["features"] / "features.csv"
    if features.exists():
        dom = domain_from_split(name, _split(dom_run))
    else:
        dom, _ = synth.build_domain(name, _synth_config(dom_run), run.spec,
                                    run.start, run.end, run.boundaries)
    cached = dom_run.workspace / "selection" / dom_run.keys["selection"] / "selection.json"
    if cached.exists():
        dom.selection = SelectionResult.from_dict(json.loads(cached.read_text()),
                                                  FEATURE_NAMES)
    else:
        sel = ensure_selection(dom, dom_run.quantiles, dom_run.alpha_grid,
                               dom_run.solver_cfg)
        if sel.union:  # an empty selection is select's exit-1 case, never cached
            _write_selection(dom_run, sel)
    return dom


def cmd_select(run: Run) -> Path:
    domain = domain_from_split("main", _split(run))
    sel = ensure_selection(domain, run.quantiles, run.alpha_grid, run.solver_cfg)
    if not sel.union:
        print("selection is empty: every coefficient fell below the zero "
              "threshold at the tuned penalty", file=sys.stderr)
        raise SystemExit(1)
    return _write_selection(run, sel)


def _feature_set(run: Run) -> List[str]:
    choice = run.cfg["model"]["feature_set"]
    if choice in NAIVE_FEATURE_SETS:
        return list(NAIVE_FEATURE_SETS[choice])
    path = _output(run, "selection", "selection.json", cmd_select)
    sel = SelectionResult.from_dict(json.loads(path.read_text()), FEATURE_NAMES)
    if choice == "full":
        return list(sel.union)
    return top_k_union(sel, int(run.cfg["selector"]["top_k"]))


def _train_one(args) -> tuple:
    run, names, split_parts, seed = args
    (X_tr, y_tr), (X_val, y_val), (X_te, y_te) = split_parts
    model_cfg = run.cfg["model"]
    result = run_experiment(names, (X_tr, y_tr), (X_val, y_val), (X_te, y_te),
                            model_cfg["family"], int(model_cfg["search_budget"]),
                            seed, run.quantiles,
                            base_config=model_cfg["config"] or {})
    return seed, result


def _prepare_matrices(run: Run, names: Sequence[str]):
    split = _split(run)
    return (design_matrix(split.train, names),
            design_matrix(split.val, names),
            design_matrix(split.test, names))


def cmd_train(run: Run) -> Path:
    names = _feature_set(run)
    parts = _prepare_matrices(run, names)
    out_dir = run.dir("models")
    jobs = int(run.cfg["jobs"])
    tasks = [(run, names, parts, seed) for seed in run.cfg["seeds"]]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(_train_one, tasks))
    else:
        results = dict(map(_train_one, tasks))
    family = run.cfg["model"]["family"]
    for seed in sorted(results):
        result = results[seed]
        save_checkpoint(out_dir / f"{family}_seed{seed}.npz", result.model,
                        prep=result.prep,
                        extra_meta={"config_hash": run.keys["models"],
                                    "best_trial": result.best_trial.trial_id})
        with open(out_dir / f"trials_seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            write_trials_jsonl(result.trials, fh)
    log.info("trained %d seeds for family %s into %s", len(results), family, out_dir)
    return out_dir


def cmd_evaluate(run: Run) -> Path:
    family = run.cfg["model"]["family"]
    model_dir = run.workspace / "models" / run.keys["models"]
    paths = [(seed, model_dir / f"{family}_seed{seed}.npz") for seed in run.cfg["seeds"]]
    for _, path in paths:
        if not path.exists():
            raise ConfigError(f"missing checkpoint {path}; run `train` first")
    split = _split(run)
    reports: List[MetricReport] = []
    per_seed = {}
    for seed, path in paths:
        model, prep = load_checkpoint(path)
        X_te, y_te = design_matrix(split.test, prep["feature_names"])
        report = evaluate(y_te, model.predict(apply_prep(X_te, prep)), run.quantiles)
        reports.append(report)
        per_seed[str(seed)] = report.to_dict()
    summary = summarize_runs(reports)
    out = run.write_json("metrics", "metrics.json",
                         {"family": family, "per_seed": per_seed, "summary": summary})
    run.write_csv("metrics", "metrics.csv",
                  ["family", "AQL", "AQCR", "RMSE", "MAE", "R2"],
                  [[family, *summary_cells(summary)]])
    log.info("metrics for %s written to %s", family, out.parent)
    return out


def cmd_transfer(run: Run) -> Path:
    tcfg = run.cfg["transfer"]
    dom_a = _domain(run, tcfg["domain_a"].get("name", "A"), tcfg["domain_a"])
    dom_b = _domain(run, tcfg["domain_b"].get("name", "B"), tcfg["domain_b"])

    def pair_run(A, B, strategies):
        return run_pair(A, B, tcfg["model_family"], int(tcfg["budget"]),
                        [int(s) for s in tcfg["seeds"]], run.quantiles,
                        strategies=strategies,
                        base_config=tcfg["model_config"] or {},
                        alpha_grid=run.alpha_grid, solver_cfg=run.solver_cfg,
                        feature_mode=tcfg.get("feature_mode", "union"))

    # the (C, L) scatter reads each direction's B->A point from a pair run,
    # reusing the configured run when it already holds the forward one
    pair = pair_run(dom_a, dom_b, tuple(tcfg["strategies"]))
    forward = pair if "B->A" in pair.loss_ratio else pair_run(dom_a, dom_b, ("B->A",))
    points = [sweep_point(forward), sweep_point(pair_run(dom_b, dom_a, ("B->A",)))]

    out = run.write_json("transfer", "reports.json", {
        "target": pair.target,
        "source": pair.source,
        "trade_count_ratio": pair.trade_count_ratio,
        "loss_ratio": pair.loss_ratio,
        "summary": pair.summary,
        "runs": {s: [r.to_dict() for r in rs] for s, rs in pair.reports.items()},
    })
    run.write_csv("transfer", "table.csv",
                  ["strategy", "AQL", "AQCR", "RMSE", "MAE", "R2", "loss_ratio"],
                  [[s, *summary_cells(pair.summary[s]), repr(pair.loss_ratio[s])]
                   for s in pair.summary])
    run.write_csv("transfer", "scatter.csv",
                  ["target", "source", "trade_count_ratio", "loss_ratio"],
                  [[p["target"], p["source"], repr(p["trade_count_ratio"]),
                    repr(p["loss_ratio"])] for p in points])
    log.info("transfer reports written to %s", out.parent)
    return out


COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "transfer": cmd_transfer,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookcast",
        description="orderbook quantile forecasting pipeline")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="YAML or JSON config file")
    parser.add_argument("--workspace", help="output root directory")
    parser.add_argument("--market", help="DE, AT, or a custom market tag")
    parser.add_argument("--product-type", dest="product_type",
                        choices=["60min", "15min"])
    parser.add_argument("--tz", help="timezone for naive input timestamps")
    parser.add_argument("--train-end", dest="train_end")
    parser.add_argument("--val-end", dest="val_end")
    parser.add_argument("--test-end", dest="test_end")
    parser.add_argument("--jobs", type=int, help="parallel experiment workers")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    overrides = {k: getattr(args, k) for k in
                 ("workspace", "market", "product_type", "tz",
                  "train_end", "val_end", "test_end", "jobs", "seed")}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    run = Run(cfg)
    try:
        out = COMMANDS[args.command](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
