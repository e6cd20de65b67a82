"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (untimed, reported as
``setup_s``), does one round of fixed work in ``run`` (the timed region),
and verifies that round's outputs in ``check`` (untimed). A round is
``ops`` operations of the kind named in ``op``; ``work`` counts the round's
units of ``unit`` for ``work_per_s``.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import bookcast.cli as cli
import bookcast.market as market
import bookcast.metrics as metrics
import bookcast.models as models
import bookcast.selection as selection
import bookcast.synth as synth
from bookcast.experiment import design_matrix
from bookcast.features import FEATURE_NAMES

import checks

START = dt.datetime(2024, 3, 1, tzinfo=dt.timezone.utc)
Q3 = (0.1, 0.5, 0.9)


def _day(days):
    return START + dt.timedelta(days=days)


def de_matrices(seed, liquidity=20.0, days=7, train_days=5, val_days=1):
    """Standardized train/val/test matrices of a DE 60-minute market."""
    spec = market.ProductSpec(market="DE", product_type="60min")
    data = synth.generate(synth.SynthConfig(seed=seed, liquidity=liquidity),
                          spec, START, _day(days))
    samples, _ = market.build_samples(data.trades, spec, START, _day(days))
    split = market.split_dataset(samples, market.SplitBoundaries(
        _day(train_days), _day(train_days + val_days), _day(days)))
    X_tr, y_tr = design_matrix(split.train)
    X_val, y_val = design_matrix(split.val)
    X_te, y_te = design_matrix(split.test)
    X_tr, (X_val, X_te), _, _, _ = selection.standardize(X_tr, X_val, X_te)
    return X_tr, y_tr, X_val, y_val, X_te, y_te


class Workload:
    name = ""
    op = ""
    unit = ""
    ops = 1

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def work(self, inp, out):
        raise NotImplementedError

    def check(self, inp, out):
        """(failed operations, problems) for one round's outputs."""
        raise NotImplementedError

    def finish(self, inp, out):
        """Release what a round left behind once it has been checked."""


class Ingest(Workload):
    """synth.generate -> write_trades_csv -> parse_trades -> build_samples on
    a liquid DE 60-minute market."""
    name = "ingest"
    op = "one generate->write->parse->build pass over the horizon"
    unit = "trades"
    DAYS = 3
    LIQUIDITY = 40.0
    STRIDE = 9  # check every ninth product against the plain-loop oracle

    def setup(self, seed):
        return {"cfg": synth.SynthConfig(seed=seed, liquidity=self.LIQUIDITY),
                "spec": market.ProductSpec(market="DE", product_type="60min"),
                "path": self.scratch / "trades.csv"}

    def run(self, inp):
        spec, end = inp["spec"], _day(self.DAYS)
        data = synth.generate(inp["cfg"], spec, START, end)
        with open(inp["path"], "w", newline="", encoding="utf-8") as fh:
            market.write_trades_csv(data.trades, fh)
        with open(inp["path"], newline="", encoding="utf-8") as fh:
            parsed, rejected = market.parse_trades(fh)
        samples, report = market.build_samples(parsed, spec, START, end)
        return {"written": data.trades, "parsed": parsed, "rejected": rejected,
                "samples": samples, "report": report}

    def work(self, inp, out):
        return len(out["parsed"])

    def check(self, inp, out):
        problems = checks.check_round_trip(out["written"], out["parsed"], out["rejected"])
        problems += checks.check_build_report(out["report"], self.DAYS * 24)
        by_product = {}
        for t in out["written"]:
            by_product.setdefault(t.product_start, []).append(t)
        delta_us = inp["spec"].delta_m // dt.timedelta(microseconds=1)
        for sample in out["samples"][::self.STRIDE]:
            problems += checks.check_sample(sample, by_product.get(sample.delivery_time, []),
                                            delta_us, FEATURE_NAMES)
        return 0, problems


class Select(Workload):
    """tune_alpha for three quantiles over a small grid, on a fixed matrix."""
    name = "select"
    op = "one L1 quantile-regression fit"
    unit = "fits"
    GRID = (0.05, 0.1, 0.3, 1.0)
    ops = len(Q3) * len(GRID)
    MATRIX_SEED = 0   # fixed: the off-optimum fits must repeat exactly
    GAP_TOL = 1e-6    # a fit fails above this relative gap to the LP optimum

    def __init__(self, scratch):
        super().__init__(scratch)
        self.optimum = {}  # (tau, grid alpha) -> LP optimum, solved once per run

    def setup(self, seed):
        X_tr, y_tr, X_val, y_val, _, _ = de_matrices(self.MATRIX_SEED)
        return {"train": (X_tr, y_tr), "val": (X_val, y_val)}

    def run(self, inp):
        return {tau: selection.tune_alpha(inp["train"], inp["val"], tau, self.GRID)
                for tau in Q3}

    def work(self, inp, out):
        return self.ops

    def check(self, inp, out):
        X, y = inp["train"]
        failed, problems = 0, []
        for tau, (best, fits) in out.items():
            if sorted(fits) != sorted(self.GRID):
                problems.append(f"tau={tau}: fits cover {sorted(fits)}, not the grid")
                continue
            for a, fit in fits.items():
                alpha = a * len(y)
                if (tau, a) not in self.optimum:
                    self.optimum[(tau, a)] = checks.highs_l1qr(X, y, tau, alpha)[0]
                gap, bad = checks.fit_gap(fit, X, y, tau, alpha, self.optimum[(tau, a)])
                problems += bad
                failed += gap > self.GAP_TOL
            want = checks.expected_alpha(fits, *inp["val"], tau)
            if best != want:
                problems.append(f"tau={tau}: tuned alpha {best}, validation argmin is {want}")
        return failed, problems


class Models(Workload):
    """Fit, predict, checkpoint and reload each model family once."""
    name = "models"
    op = "one family's fit, predict, evaluate, save, load and predict"
    unit = "model fits"
    CONFIGS = {
        "lqr": {"l1_weight": 1e-3,
                "solver": selection.SolverConfig(max_iter=500, stages=2)},
        "qknn": {"n_neighbors": 10, "metric": "manhattan", "weights": "distance"},
        "qgbt": {"n_estimators": 10, "max_depth": 2, "learning_rate": 0.1},
        "qmlp": {"hidden_size": 128, "n_layers": 3, "max_epochs": 40,
                 "patience": 40, "batch_size": 32},
    }
    ops = len(CONFIGS)
    KNN_ROWS = 8  # test rows checked against the sort-and-quantile oracle

    def setup(self, seed):
        X_tr, y_tr, X_val, y_val, X_te, y_te = de_matrices(seed)
        return {"train": (X_tr, y_tr), "val": (X_val, y_val), "test": (X_te, y_te)}

    def run(self, inp):
        (X_tr, y_tr), (X_val, y_val), (X_te, y_te) = inp["train"], inp["val"], inp["test"]
        out = {}
        for family, config in self.CONFIGS.items():
            model = models.make_model(family, Q3, seed=0, **config)
            report = model.fit(X_tr, y_tr, X_val, y_val)
            pred = model.predict(X_te)
            scores = metrics.evaluate(y_te, pred, Q3)
            path = self.scratch / f"{family}.npz"
            models.save_checkpoint(path, model)
            loaded, _ = models.load_checkpoint(path)
            out[family] = (model, report, pred, scores, loaded.predict(X_te))
        return out

    def work(self, inp, out):
        return self.ops

    def check(self, inp, out):
        (X_tr, y_tr), (X_val, y_val), (X_te, y_te) = inp["train"], inp["val"], inp["test"]
        problems = []
        for family, (model, report, pred, scores, reloaded) in out.items():
            if not checks.close(scores.aql, checks.own_aql(y_te, pred, Q3)):
                problems.append(f"{family}: reported AQL {scores.aql} != recomputed "
                                f"{checks.own_aql(y_te, pred, Q3)}")
            if not np.array_equal(pred, reloaded):
                problems.append(f"{family}: checkpoint round trip changed predictions")
        _, _, pred, _, _ = out["qknn"]
        cfg = self.CONFIGS["qknn"]
        want = checks.knn_oracle(X_tr, y_tr, X_te[:self.KNN_ROWS], cfg["n_neighbors"],
                                 Q3, cfg["weights"])
        if not np.allclose(pred[:self.KNN_ROWS], want, rtol=1e-12, atol=0.0):
            problems.append("qknn: predictions differ from the sort-and-quantile oracle")
        if not checks.non_increasing(out["qgbt"][1].loss_trace):
            problems.append("qgbt: training loss increased with subsample 1")
        model, report, _, _, _ = out["qmlp"]
        restored = checks.own_aql(y_val, model.predict(X_val), Q3)
        if not checks.close(restored, min(report.val_aql_trace)):
            problems.append(f"qmlp: restored weights give validation AQL {restored}, "
                            f"best epoch had {min(report.val_aql_trace)}")
        _, arrays = out["lqr"][0].state()
        problems += checks.check_lqr(X_tr, y_tr, Q3, self.CONFIGS["lqr"]["l1_weight"] * len(y_tr),
                                     arrays["beta"], arrays["intercept"])
        return 0, problems


class Pipeline(Workload):
    """synth -> extract -> select -> train -> evaluate -> transfer through the
    CLI on a thin AT 15-minute book, in a fresh workspace each round."""
    name = "pipeline"
    op = "one CLI command"
    unit = "trades"
    COMMANDS = ("synth", "extract", "select", "train", "evaluate", "transfer")
    ops = len(COMMANDS)
    DAYS = 2
    THIN, LIQUID = 2.0, 8.0

    def __init__(self, scratch):
        super().__init__(scratch)
        self.points = []

    def setup(self, seed):
        iso = lambda days: _day(days).replace(tzinfo=None).isoformat()
        cfg = {
            "seed": seed, "seeds": [0], "quantiles": list(Q3),
            "market": "AT", "product_type": "15min",
            "horizon_start": iso(0), "horizon_end": iso(self.DAYS),
            "train_end": iso(self.DAYS * 0.6), "val_end": iso(self.DAYS * 0.8),
            "test_end": iso(self.DAYS),
            "synth": {"liquidity": self.THIN},
            "selector": {"alpha_grid_size": 3, "max_iter": 200, "stages": 2},
            "model": {"family": "qmlp", "search_budget": 2, "feature_set": "full",
                      "config": {"max_epochs": 3, "patience": 3}},
            "transfer": {
                "model_family": "qknn", "model_config": {}, "budget": 2, "seeds": [0],
                "strategies": ["A->A", "B->A", "A+B->A"],
                "domain_a": {"name": "thin", "synth": {"liquidity": self.THIN}},
                "domain_b": {"name": "liquid", "synth": {"liquidity": self.LIQUID}},
            },
        }
        path = self.scratch / "pipeline.json"
        path.write_text(json.dumps(cfg))
        # the trades the chain will carry: the main domain and the thin
        # transfer domain share one generator config, the liquid one differs
        spec = market.ProductSpec(market="AT", product_type="15min")
        thin, liquid = (len(synth.generate(synth.SynthConfig(seed=seed, liquidity=liq),
                                           spec, START, _day(self.DAYS)).trades)
                        for liq in (self.THIN, self.LIQUID))
        return {"cfg": cfg, "path": str(path), "main_trades": thin,
                "carried": 2 * thin + liquid}

    def run(self, inp):
        ws = tempfile.mkdtemp(prefix="ws-", dir=self.scratch)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in self.COMMANDS:
                codes.append(cli.main([command, "--config", inp["path"], "--workspace", ws]))
        return {"ws": ws, "codes": codes}

    def work(self, inp, out):
        return inp["carried"]

    def check(self, inp, out):
        failed = sum(code != 0 for code in out["codes"])
        if failed:
            return failed, [f"commands exited {out['codes']}"]
        problems, self.points = checks.check_pipeline(
            out["ws"], {**cli.DEFAULT_CONFIG, **inp["cfg"]}, self.DAYS * 96,
            models.load_checkpoint)
        meta = json.loads(next(Path(out["ws"]).glob("synth/*/meta.json")).read_text())
        if meta["n_trades"] != inp["main_trades"]:
            problems.append(f"synth wrote {meta['n_trades']} trades, the generator "
                            f"gives {inp['main_trades']} for this config")
        return 0, problems

    def finish(self, inp, out):
        shutil.rmtree(out["ws"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ingest, Select, Models, Pipeline)}
