"""Span tracing of bookcast from outside the package.

``Tracer.install`` replaces the package's public functions with timing
wrappers at every place the package itself looks them up (module globals,
imported names, class methods and the CLI command table), and
``uninstall`` puts the originals back. Spans (name, start, end, parent) and
counters stay in memory until the benchmark writes them out at its end.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import bookcast.cli as cli
import bookcast.experiment as experiment
import bookcast.features as features
import bookcast.market as market
import bookcast.metrics as metrics
import bookcast.models as models
import bookcast.models.io as models_io
import bookcast.models.lqr as models_lqr
import bookcast.search as search
import bookcast.selection as selection
import bookcast.synth as synth
import bookcast.transfer as transfer

LAYERS = ("synth", "market", "features", "target", "selection", "models",
          "search", "experiment", "metrics", "transfer", "cli")
FAMILIES = ("lqr", "qknn", "qgbt", "qmlp")

# span name -> every (namespace, attribute) the package calls it through
SITES = {
    "synth.generate": [(synth, "generate")],
    "market.write_trades_csv": [(market, "write_trades_csv")],
    "market.parse_trades": [(market, "parse_trades")],
    "market.build_samples": [(market, "build_samples"), (synth, "build_samples")],
    "market.read_samples_csv": [(market, "read_samples_csv")],
    "features.extract_features": [(features, "extract_features")],
    "target.compute_id3": [(market, "compute_id3")],
    "selection.tune_alpha": [(selection, "tune_alpha"), (transfer, "tune_alpha")],
    "selection.fit_l1_lqr": [(selection, "fit_l1_lqr"), (models_lqr, "fit_l1_lqr")],
    "experiment.design_matrix": [(experiment, "design_matrix"),
                                 (transfer, "design_matrix"), (cli, "design_matrix")],
    "experiment.run_experiment": [(experiment, "run_experiment"),
                                  (transfer, "run_experiment"), (cli, "run_experiment")],
    "search.run_search": [(search, "run_search"), (experiment, "run_search")],
    "metrics.evaluate": [(metrics, "evaluate"), (experiment, "evaluate"), (cli, "evaluate")],
    "models.io.save": [(models_io, "save_checkpoint"), (models, "save_checkpoint"),
                       (cli, "save_checkpoint")],
    "models.io.load": [(models_io, "load_checkpoint"), (models, "load_checkpoint"),
                       (cli, "load_checkpoint")],
    "transfer.run_strategy": [(transfer, "run_strategy")],
    "transfer.ensure_selection": [(transfer, "ensure_selection"),
                                  (cli, "ensure_selection")],
    "cli.main": [(cli, "main")],
}
for _family in FAMILIES:
    for _method in ("fit", "predict"):
        SITES[f"models.{_family}.{_method}"] = [(models_io.FAMILIES[_family], _method)]
for _command in cli.COMMANDS:
    SITES[f"cli.{_command}"] = [(cli.COMMANDS, _command), (cli, f"cmd_{_command}")]

SPAN_NAMES = tuple(SITES)
COUNTERS = ("market.trades", "market.rejected_rows", "market.samples_built",
            "market.samples_dropped", "market.trades_csv_mb",
            "market.read_samples_csv_calls", "selection.fits",
            "selection.solver_iters", "selection.support_size",
            "models.qgbt.tree_nodes", "models.qmlp.epochs", "search.trials",
            "search.trials_failed", "transfer.run_strategy_calls")


def _get(ns, attr):
    return ns[attr] if isinstance(ns, dict) else getattr(ns, attr)


def _set(ns, attr, value):
    if isinstance(ns, dict):
        ns[attr] = value
    else:
        setattr(ns, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self.fits = []        # (X, y, tau, alpha, fit) of every L1-QR fit
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans, self.counts, self.fits = [], defaultdict(float), []

    def _wrap(self, name, fn):
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if post is not None:
                post(result, *args, **kwargs)
            return result
        return wrapper

    def install(self):
        for name, sites in SITES.items():
            for ns, attr in sites:
                original = _get(ns, attr)
                fn = original
                if name == "market.write_trades_csv":
                    fn = self._sized_write(original)
                _set(ns, attr, self._wrap(name, fn))
                self._undo.append((ns, attr, original))

    def uninstall(self):
        while self._undo:
            ns, attr, original = self._undo.pop()
            _set(ns, attr, original)

    # -- counters, recorded after the span closes

    def _sized_write(self, fn):
        def write(trades, fh):
            before = fh.tell()
            fn(trades, fh)
            self.counts["market.trades_csv_mb"] += (fh.tell() - before) / 1e6
        return write

    def _post_market_parse_trades(self, result, *args, **kwargs):
        self.counts["market.rejected_rows"] += len(result[1])

    def _post_market_build_samples(self, result, trades, *args, **kwargs):
        report = result[1]
        self.counts["market.trades"] += len(trades)
        self.counts["market.samples_built"] += report.n_built
        self.counts["market.samples_dropped"] += report.n_discarded_features

    def _post_market_read_samples_csv(self, result, *args, **kwargs):
        self.counts["market.read_samples_csv_calls"] += 1

    def _post_selection_fit_l1_lqr(self, fit, X, y, tau, alpha, *args, **kwargs):
        self.counts["selection.fits"] += 1
        self.counts["selection.solver_iters"] += fit.n_iter
        self.counts["selection.support_size"] += int(
            np.sum(np.abs(fit.beta) > selection.ZERO_THRESHOLD))
        self.fits.append((X, y, tau, alpha, fit))

    def _post_search_run_search(self, result, *args, **kwargs):
        trials = result[1]
        self.counts["search.trials"] += len(trials)
        self.counts["search.trials_failed"] += sum(t.status != "ok" for t in trials)

    def _post_transfer_run_strategy(self, result, *args, **kwargs):
        self.counts["transfer.run_strategy_calls"] += 1

    def _post_models_qgbt_fit(self, report, model, *args, **kwargs):
        self.counts["models.qgbt.tree_nodes"] += model.state()[1]["feature"].size

    def _post_models_qmlp_fit(self, report, *args, **kwargs):
        self.counts["models.qmlp.epochs"] += len(report.loss_trace)

    # -- analysis

    def breakdown(self):
        """Inclusive time per span name, self time per layer, and the summed
        duration of top-level spans, over the spans recorded since the last
        reset. A layer's self time is its spans' durations minus the part
        their child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            by_name[name] += end - start
            by_layer[name.split(".")[0]] += (end - start) - child[i]
            if parent is None:
                top += end - start
        return by_name, by_layer, top

    def dump(self):
        """Spans (perf_counter seconds) and counters, for the trace file."""
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}
