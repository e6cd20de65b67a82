"""Command-line orchestration of the full pipeline.

A single declarative YAML/JSON config drives every command; selected flags
override individual fields. ``load_config`` merges the file and the flags
onto ``DEFAULT_CONFIG``, and ``Run`` parses every value once: a value that
does not parse, or that the type consuming it rejects, is a config error
naming its dotted field, raised before any command does work. Outputs land
under ``workspace/{synth,features,selection,models,metrics,transfer}/<key>/``,
where an area's key hashes only the config fields its outputs depend on
(``STAGE_FIELDS``): changing a model setting reuses the synth, features and
selection directories, and reruns with the same fields overwrite identical
content. ``workspace`` and ``jobs`` key nothing. A command that needs a
missing upstream output makes it first. Every selection, the main split's
or a transfer domain's under its own key, is fitted by ``_fit_selection``
(which names an uncertified fit and exits 1 on an empty union) and read
back from its ``selection.json``. Samples cross commands through
``market.save_samples`` and ``market.load_samples``. Every text output and
checkpoint is written whole or not at all (``util.replacing``).
Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import json
import logging
import sys
import zoneinfo
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from . import market, synth
from .experiment import (NAIVE_FEATURE_SETS, apply_prep, design_matrix,
                         run_experiment)
from .features import FEATURE_NAMES
from .market import ProductSpec, SplitBoundaries, split_dataset
from .metrics import MetricReport, evaluate, summarize_runs, summary_cells
from .models import FAMILIES, load_checkpoint, save_checkpoint
from .search import write_trials_jsonl
from .selection import (SOLVER_FIELDS, SelectionResult, SolverConfig,
                        importance_breakdown, solver_config, top_k, top_k_union)
from .target import LEAD_TIME
from .transfer import (FEATURE_MODES, STRATEGIES, Domain, check_strategies,
                       domain_from_split, ensure_selection, run_pair)
from .util import UTC, config_hash, file_sha256, parse_timestamp, replacing

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
    # the synth and solver dataclasses' own defaults; the seed is top-level
    "synth": {k: v for k, v in dataclasses.asdict(synth.SynthConfig()).items()
              if k != "seed"},
    "selector": {
        "alpha_grid_size": 50,
        **dataclasses.asdict(SolverConfig()),
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
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"field {where!r} must be a mapping")
            out[key] = _merge(base[key], value, where)
        else:
            # empty-dict defaults mark free-form sections (model configs,
            # per-domain overrides); Run checks what they hold
            out[key] = value
    return out


def load_config(path: Optional[str], overrides: Dict[str, object]) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        text = p.read_text()
        if p.suffix in (".yaml", ".yml"):
            import yaml  # only YAML configs pay for the import
            try:
                loaded = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                where = f", line {mark.line + 1}" if mark is not None else ""
                problem = getattr(exc, "problem", None) or exc
                raise ConfigError(f"{path}{where}: {problem}") from None
        else:
            try:
                loaded = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}, line {exc.lineno}: {exc.msg}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        cfg = _merge(cfg, loaded)
    return _merge(cfg, {k: v for k, v in overrides.items() if v is not None})


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


def _tz(name) -> dt.tzinfo:
    return UTC if str(name).upper() == "UTC" else zoneinfo.ZoneInfo(str(name))


def _read(field: str, parse, *args):
    """``parse(*args)``; a value it rejects is a ConfigError naming ``field``."""
    try:
        return parse(*args)
    except (TypeError, ValueError, OverflowError, KeyError) as exc:
        raise ConfigError(f"field {field!r}: {exc}") from None


def _must(ok: bool, value, need: str):
    if not ok:
        raise ValueError(f"must be {need}, got {value!r}")
    return value


def _count(value) -> int:
    return _must(int(value) >= 1, int(value), "at least 1")


def _one_of(options):
    return lambda value: _must(value in options, value, "one of " + " | ".join(options))


def _seeds(value) -> List[int]:
    return [int(s) for s in _must(isinstance(value, list) and len(value) > 0,
                                  value, "a non-empty list of seeds")]


def _model_config(family: str):
    """Parser of a model-config mapping for ``family``: its keys must be
    the family's ``config_keys``. Values are left to the model, since the
    search overrides the keys it samples."""
    known = sorted(FAMILIES[family].config_keys())

    def parse(value) -> dict:
        value = dict(value or {})
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise ValueError(f"unknown {family} model keys {unknown}; known: {known}")
        return value
    return parse


def _levels(value) -> Tuple[float, ...]:
    q = tuple(float(v) for v in value)
    # evaluate reads the 0.5 head, and the coverage ratio needs two levels
    return _must(len(q) > 1 and 0.5 in q and all(0 < a < b < 1 for a, b in zip(q, q[1:])),
                 q, "at least two levels, strictly ascending in (0, 1), including 0.5")


def _opens_before_features(cfg: synth.SynthConfig):
    """A synthetic session must open before the feature cutoff, LEAD_TIME
    before delivery, or it yields no samples."""
    lead_h = LEAD_TIME.total_seconds() / 3600.0
    return _must(cfg.session_hours > lead_h, cfg.session_hours,
                 f"above the {lead_h:g} h lead time of the feature cutoff")


_TIMESTAMPS = ("horizon_start", "horizon_end", "train_end", "val_end", "test_end")


class Run:
    """A merged config, parsed: ``__init__`` is the one reader of its values,
    and a value its parser or the type consuming it rejects is a ConfigError
    naming the field. Also the areas' keys and paths."""

    def __init__(self, cfg: dict):
        # YAML reads an unquoted timestamp as a datetime; its ISO text keys
        # the same areas as the quoted spelling
        self.cfg = cfg = {**cfg, **{f: cfg[f].isoformat() for f in _TIMESTAMPS
                                    if isinstance(cfg[f], dt.date)}}
        sel, model, tcfg = cfg["selector"], cfg["model"], cfg["transfer"]
        self.workspace = _read("workspace", Path, cfg["workspace"])
        self.trades_csv = None if cfg["trades_csv"] is None else _read(
            "trades_csv", lambda p: _must(Path(p).is_file(), p, "an existing file"),
            cfg["trades_csv"])
        self.jobs = _read("jobs", _count, cfg["jobs"])
        self.seeds = _read("seeds", _seeds, cfg["seeds"])
        self.quantiles = _read("quantiles", _levels, cfg["quantiles"])
        self.tz = _read("tz", _tz, cfg["tz"])
        self.spec = _read("market/product_type", ProductSpec,
                          cfg["market"], cfg["product_type"])
        when = [_read(f, parse_timestamp, str(cfg[f]), self.tz) for f in _TIMESTAMPS]
        self.start, self.end = when[:2]
        self.boundaries = _read("train_end/val_end/test_end", SplitBoundaries, *when[2:])
        seed = _read("seed", int, cfg["seed"])
        self.synth_cfg = _read("synth", lambda raw: synth.SynthConfig(seed=seed, **raw),
                               cfg["synth"])
        _read("synth.session_hours", synth.gate_hours, self.synth_cfg, self.spec)
        if self.trades_csv is None:
            _read("synth.session_hours", _opens_before_features, self.synth_cfg)
        self.solver_cfg = SolverConfig(**{f: _read(f"selector.{f}", cast, sel[f])
                                          for f, cast in SOLVER_FIELDS.items()})
        # a count: tune_alpha anchors that many points at each tau's alpha_max
        self.alpha_grid = _read("selector.alpha_grid_size", _count, sel["alpha_grid_size"])
        self.top_k = _read("selector.top_k", _count, sel["top_k"])
        self.family = _read("model.family", _one_of(FAMILIES), model["family"])
        self.search_budget = _read("model.search_budget", _count, model["search_budget"])
        self.feature_set = _read("model.feature_set",
                                 _one_of(("top5", "full", *NAIVE_FEATURE_SETS)),
                                 model["feature_set"])
        self.model_config = _read("model.config", _model_config(self.family),
                                  model["config"])
        self.transfer_family = _read("transfer.model_family", _one_of(FAMILIES),
                                     tcfg["model_family"])
        self.transfer_config = _read("transfer.model_config",
                                     _model_config(self.transfer_family),
                                     tcfg["model_config"])
        for field, conf in (("model.config", self.model_config),
                            ("transfer.model_config", self.transfer_config)):
            _read(f"{field}.solver", solver_config, conf.get("solver"))
        self.transfer_budget = _read("transfer.budget", _count, tcfg["budget"])
        self.transfer_seeds = _read("transfer.seeds", _seeds, tcfg["seeds"])
        self.strategies = _read("transfer.strategies", check_strategies,
                                tcfg["strategies"])
        self.feature_mode = _read("transfer.feature_mode", _one_of(FEATURE_MODES),
                                  tcfg["feature_mode"])

        def domain_synth(overrides):
            section = {**cfg["synth"], **(overrides or {})}
            # rejects a bad value, or a session that closes before it opens
            # or opens after the feature cutoff
            dom_cfg = synth.SynthConfig(seed=seed, **section)
            synth.gate_hours(dom_cfg, self.spec)
            _opens_before_features(dom_cfg)
            return section
        # (name, merged synth section) per transfer domain
        self.domains = [(str(tcfg[d]["name"]),
                         _read(f"transfer.{d}.synth", domain_synth, tcfg[d]["synth"]))
                        for d in ("domain_a", "domain_b")]

        keyed = dict(cfg)
        if self.trades_csv is not None:
            # a file replaced at the same path must not reuse stale features
            keyed["trades_csv"] = {"path": cfg["trades_csv"],
                                   "sha256": file_sha256(self.trades_csv)}
        self.keys = {area: config_hash({f: keyed[f] for f in fields})
                     for area, fields in STAGE_FIELDS.items()}

    def path(self, area: str, name: str = "") -> Path:
        """``workspace/<area>/<key>/<name>``, without creating anything."""
        return self.workspace / area / self.keys[area] / name

    def dir(self, area: str) -> Path:
        d = self.path(area)
        d.mkdir(parents=True, exist_ok=True)
        return d

    def meta(self, area: str) -> dict:
        return {"config_hash": self.keys[area], "tool_version": __version__}

    def write_json(self, area: str, name: str, payload: dict) -> Path:
        path = self.dir(area) / name
        with replacing(path) as fh:
            json.dump({**payload, **self.meta(area)}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path

    def write_csv(self, area: str, name: str, header: Sequence[str],
                  rows: Sequence[Sequence]) -> None:
        with replacing(self.dir(area) / name) as fh:
            writer = csv.writer(fh)
            writer.writerow(list(header) + ["config_hash", "tool_version"])
            for row in rows:
                writer.writerow(list(row) + [self.keys[area], __version__])


def _output(run: Run, area: str, name: str, make) -> Path:
    """Path of ``name`` in ``area``; ``make(run)`` writes it first if missing."""
    path = run.path(area, name)
    if not path.exists():
        make(run)
    return path


def cmd_synth(run: Run) -> Path:
    out = run.dir("synth") / "trades.csv"
    data = synth.generate(run.synth_cfg, run.spec, run.start, run.end)
    with replacing(out) as fh:
        market.write_trades_csv(data.trades, fh)
    # the canonical trade format has a fixed header, so provenance lives beside it
    run.write_json("synth", "meta.json", {"n_trades": len(data.trades)})
    log.info("wrote %d trades to %s", len(data.trades), out)
    return out


def _load_trades(run: Run) -> market.TradeTable:
    path = run.trades_csv or _output(run, "synth", "trades.csv", cmd_synth)
    with open(path, newline="", encoding="utf-8") as fh:
        trades, rejected = market.parse_trades(fh, run.tz)
    for r in rejected:
        log.warning("rejected trade row %d: %s", r.line, r.reason)
    return trades


def cmd_extract(run: Run) -> Path:
    trades = _load_trades(run)
    samples, report = market.build_samples(trades, run.spec, run.start, run.end)
    out = run.dir("features") / "features.csv"
    market.save_samples(samples, out, run.meta("features"))
    run.write_json("features", "drop_report.json", dataclasses.asdict(report))
    log.info("extracted %d samples (%d discarded) to %s",
             report.n_built, report.n_discarded_features, out)
    return out


def _split(run: Run) -> market.DatasetSplit:
    path = _output(run, "features", "features.csv", cmd_extract)
    return split_dataset(market.load_samples(path), run.boundaries)


def _fit_selection(run: Run, domain: Domain) -> Path:
    """Fit ``domain``'s selection and write ``selection.json`` and
    ``top_features.csv`` under run's selection key. An uncertified tau is
    named on stderr; an empty union exits 1 before anything is written."""
    sel = ensure_selection(domain, run.quantiles, run.alpha_grid, run.solver_cfg)
    uncertified = [f"{t} (gap {r['gap']:.2g})" for t, r in sel.solver.items()
                   if not r["converged"]]
    if uncertified:
        print(f"L1-QR fit of domain {domain.name} not certified optimal at tau "
              + ", ".join(uncertified), file=sys.stderr)
    if not sel.union:
        print(f"selection is empty for domain {domain.name}: every coefficient "
              "fell below the zero threshold at the tuned penalty", file=sys.stderr)
        raise SystemExit(1)
    out = run.write_json("selection", "selection.json", {
        **sel.to_dict(), "breakdown": dataclasses.asdict(importance_breakdown(sel))})
    rows = []
    for tau in run.quantiles:
        names, _short = top_k(sel, tau, run.top_k)
        for rank, name in enumerate(names, start=1):
            rows.append([run.spec.market, run.spec.product_type, tau, rank,
                         name, repr(sel.per_tau_coef[tau][name])])
    run.write_csv("selection", "top_features.csv",
                  ["market", "product_type", "quantile", "rank", "feature",
                   "coefficient"], rows)
    log.info("selected %d features (union) to %s", len(sel.union), out.parent)
    return out


def cmd_select(run: Run) -> Path:
    return _fit_selection(run, domain_from_split("main", _split(run)))


def _selection(run: Run, make) -> SelectionResult:
    """The selection under run's key; ``make(run)`` fits it first if missing."""
    path = _output(run, "selection", "selection.json", make)
    return SelectionResult.from_dict(json.loads(path.read_text()), FEATURE_NAMES)


def _domain(run: Run, name: str, synth_section: dict) -> Domain:
    """A synthetic transfer domain keyed as the main config with the domain's
    merged synth section. Its samples come from that key's ``features.csv``
    when ``extract`` wrote one, and are built in memory (not written)
    otherwise; its selection is that key's, fitted as ``select`` fits one."""
    dom_run = Run({**run.cfg, "synth": synth_section, "trades_csv": None})
    if dom_run.path("features", "features.csv").exists():
        dom = domain_from_split(name, _split(dom_run))
    else:
        dom, _ = synth.build_domain(name, dom_run.synth_cfg, run.spec,
                                    run.start, run.end, run.boundaries)
    dom.selection = _selection(dom_run, lambda r: _fit_selection(r, dom))
    return dom


def _feature_set(run: Run) -> List[str]:
    if run.feature_set in NAIVE_FEATURE_SETS:
        return list(NAIVE_FEATURE_SETS[run.feature_set])
    sel = _selection(run, cmd_select)
    if run.feature_set == "full":
        return list(sel.union)
    return top_k_union(sel, run.top_k)


def _train_one(args) -> tuple:
    run, names, parts, seed = args
    result = run_experiment(names, *parts, run.family, run.search_budget, seed,
                            run.quantiles, base_config=run.model_config)
    return seed, result


def cmd_train(run: Run) -> Path:
    names = _feature_set(run)
    split = _split(run)
    parts = tuple(design_matrix(rows, names) for rows in (split.train, split.val))
    out_dir = run.dir("models")
    tasks = [(run, names, parts, seed) for seed in run.seeds]
    if run.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=run.jobs) as pool:
            results = dict(pool.map(_train_one, tasks))
    else:
        results = dict(map(_train_one, tasks))
    for seed, result in sorted(results.items()):
        save_checkpoint(out_dir / f"{run.family}_seed{seed}.npz", result.model,
                        prep=result.prep,
                        extra_meta={"config_hash": run.keys["models"],
                                    "best_trial": result.best_trial.trial_id})
        with replacing(out_dir / f"trials_seed{seed}.jsonl") as fh:
            write_trials_jsonl(result.trials, fh)
    log.info("trained %d seeds for family %s into %s", len(results), run.family, out_dir)
    return out_dir


def cmd_evaluate(run: Run) -> Path:
    paths = [(seed, run.path("models", f"{run.family}_seed{seed}.npz")) for seed in run.seeds]
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
                         {"family": run.family, "per_seed": per_seed, "summary": summary})
    run.write_csv("metrics", "metrics.csv",
                  ["family", "AQL", "AQCR", "RMSE", "MAE", "R2"],
                  [[run.family, *summary_cells(summary)]])
    log.info("metrics for %s written to %s", run.family, out.parent)
    return out


def cmd_transfer(run: Run) -> Path:
    dom_a, dom_b = (_domain(run, *dom) for dom in run.domains)
    pair = run_pair(dom_a, dom_b, run.transfer_family, run.transfer_budget,
                    run.transfer_seeds, run.quantiles, strategies=run.strategies,
                    base_config=run.transfer_config,
                    alpha_grid=run.alpha_grid, solver_cfg=run.solver_cfg,
                    feature_mode=run.feature_mode)
    out = run.write_json("transfer", "reports.json", {
        "target": pair.target,
        "source": pair.source,
        "trade_count_ratio": pair.trade_count_ratio,
        "loss_ratio": pair.loss_ratio,
        "summary": pair.summary,
        "runs": {s: [dataclasses.asdict(r) for r in rs] for s, rs in pair.reports.items()},
    })
    run.write_csv("transfer", "table.csv",
                  ["strategy", "AQL", "AQCR", "RMSE", "MAE", "R2", "loss_ratio"],
                  [[s, *summary_cells(pair.summary[s]), repr(pair.loss_ratio[s])]
                   for s in pair.summary])
    run.write_csv("transfer", "scatter.csv",
                  ["target", "source", "trade_count_ratio", "loss_ratio"],
                  [[p["target"], p["source"], repr(p["trade_count_ratio"]),
                    repr(p["loss_ratio"])] for p in pair.points])
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
    parser.add_argument("--market", help="DE or AT")
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
        out = COMMANDS[args.command](Run(load_config(args.config, overrides)))
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
