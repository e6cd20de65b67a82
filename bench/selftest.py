"""Self-tests of the benchmark's checks: each must pass a good output and
reject a deliberately corrupted one.

    python3 bench/selftest.py

Run from the repository root; takes about half a minute. Exits 1 when a
check fails to tell good output from bad.
"""

import copy
import dataclasses
import datetime as dt
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bookcast.market as market  # noqa: E402
import bookcast.metrics as metrics  # noqa: E402
import bookcast.models as models  # noqa: E402
import bookcast.selection as selection  # noqa: E402
import bookcast.synth as synth  # noqa: E402
from bookcast.features import FEATURE_NAMES  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []
Q3 = workloads.Q3


def expect(passed, what):
    print(("ok   " if passed else "FAIL ") + what)
    if not passed:
        FAILURES.append(what)


def test_ingest():
    spec = market.ProductSpec(market="DE", product_type="60min")
    start, end = workloads.START, workloads._day(1)
    written = synth.generate(synth.SynthConfig(seed=3, liquidity=10.0), spec, start, end).trades
    path = Path(tempfile.mkdtemp(dir=run.OUT)) / "trades.csv"
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            market.write_trades_csv(written, fh)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed, rejected = market.parse_trades(fh)
    finally:
        shutil.rmtree(path.parent)
    samples, report = market.build_samples(parsed, spec, start, end)
    expect(not checks.check_round_trip(written, parsed, rejected), "round trip passes")
    bad = list(parsed)
    bad[5] = dataclasses.replace(bad[5], price=bad[5].price + 1e-9)
    expect(checks.check_round_trip(written, bad, rejected), "round trip rejects a changed price")
    expect(not checks.check_build_report(report, 24), "build report passes")
    expect(checks.check_build_report(report, 25), "build report rejects a wrong product count")

    delta_us = spec.delta_m // dt.timedelta(microseconds=1)
    sample = samples[10]
    trades = [t for t in written if t.product_start == sample.delivery_time]
    expect(not checks.check_sample(sample, trades, delta_us, FEATURE_NAMES), "sample passes")
    shifted = dataclasses.replace(sample, target_id3=sample.target_id3 + 0.01)
    expect(checks.check_sample(shifted, trades, delta_us, FEATURE_NAMES),
           "sample check rejects a shifted target")
    features = sample.features.copy()
    features[FEATURE_NAMES.index("vwap|sell|15")] += 0.01
    moved = dataclasses.replace(sample, features=features)
    expect(checks.check_sample(moved, trades, delta_us, FEATURE_NAMES),
           "sample check rejects a moved window statistic")


def test_select():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 8))
    y = X[:, 0] * 2.0 + rng.standard_normal(40)
    tau, alpha = 0.5, 4.0
    optimum, beta = checks.highs_l1qr(X, y, tau, alpha)
    b = checks.pinball_optimal_constant(y - X @ beta, tau)
    at_opt = SimpleNamespace(beta=beta, intercept=b, converged=True,
                             objective_trace=[checks.l1qr_objective(X, y, tau, alpha, beta, b)])
    gap, problems = checks.fit_gap(at_opt, X, y, tau, alpha, optimum)
    expect(gap <= workloads.Select.GAP_TOL and not problems, "optimal fit passes")
    off = copy.deepcopy(at_opt)
    off.beta[0] += 0.1
    off.objective_trace = [checks.l1qr_objective(X, y, tau, alpha, off.beta, b)]
    gap, _ = checks.fit_gap(off, X, y, tau, alpha, optimum)
    expect(gap > workloads.Select.GAP_TOL, "beta moved off the LP optimum fails")
    liar = copy.deepcopy(off)
    liar.objective_trace = [optimum]
    expect(checks.fit_gap(liar, X, y, tau, alpha, optimum)[1],
           "a fit misreporting its objective is rejected")

    X_val, y_val = X[:20], y[:20]
    fits = {a: selection.fit_l1_lqr(X, y, tau, a * 40) for a in (0.01, 0.3, 1.0)}
    best, _ = selection.tune_alpha((X, y), (X_val, y_val), tau, (0.01, 0.3, 1.0))
    expect(checks.expected_alpha(fits, X_val, y_val, tau) == best, "tuned alpha passes")
    zero = SimpleNamespace(beta=np.zeros(8), intercept=0.0)
    tie = {0.3: zero, 1.0: zero}
    expect(checks.expected_alpha(tie, X_val, y_val, tau) == 1.0, "ties go to the larger alpha")


def test_models():
    rng = np.random.default_rng(1)
    X, y = rng.standard_normal((60, 5)), rng.standard_normal(60)
    X_test = rng.standard_normal((6, 5))
    knn = models.make_model("qknn", Q3, n_neighbors=7, metric="manhattan", weights="distance")
    knn.fit(X, y)
    pred = knn.predict(X_test)
    want = checks.knn_oracle(X, y, X_test, 7, Q3, "distance")
    expect(np.allclose(pred, want, rtol=1e-12, atol=0.0), "qknn matches the oracle")
    expect(not np.allclose(pred[:, ::-1], want, rtol=1e-12, atol=0.0),
           "qknn check rejects swapped quantile columns")
    uniform = models.make_model("qknn", Q3, n_neighbors=7, metric="manhattan")
    uniform.fit(X, y)
    expect(np.allclose(uniform.predict(X_test), checks.knn_oracle(X, y, X_test, 7, Q3, "uniform"),
                       rtol=1e-12, atol=0.0), "uniform qknn matches the oracle")

    report_aql = metrics.evaluate(y[:6], pred, Q3).aql
    expect(checks.close(report_aql, checks.own_aql(y[:6], pred, Q3)), "AQL recomputation passes")
    expect(not checks.close(report_aql, checks.own_aql(y[:6], pred[:, ::-1], Q3)),
           "AQL recomputation rejects swapped quantile columns")

    expect(checks.non_increasing([3.0, 2.0, 2.0, 1.5]), "non-increasing trace passes")
    expect(not checks.non_increasing([3.0, 2.0, 2.1]), "increasing trace is rejected")

    alpha = 1e-3 * len(y)
    lqr = models.make_model("lqr", Q3, l1_weight=1e-3)
    lqr.fit(X, y)
    _, arrays = lqr.state()
    expect(not checks.check_lqr(X, y, Q3, alpha, arrays["beta"], arrays["intercept"]),
           "lqr objective check passes")
    expect(checks.check_lqr(X, y, Q3, alpha, arrays["beta"] + 5.0, arrays["intercept"]),
           "lqr check rejects coefficients worse than the start")


def test_pipeline():
    scratch = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        wl = workloads.Pipeline(scratch)
        inp = wl.setup(0)
        out = wl.run(inp)
        expect(out["codes"] == [0] * 6, "every pipeline command exits 0")
        cfg = {**workloads.cli.DEFAULT_CONFIG, **inp["cfg"]}
        n_products = wl.DAYS * 96
        ws = Path(out["ws"])

        def problems():
            return checks.check_pipeline(ws, cfg, n_products, models.load_checkpoint)[0]

        expect(not problems(), "pipeline outputs pass")
        table = next(ws.glob("transfer/*/table.csv"))
        good = table.read_text()
        lines = good.splitlines()
        cells = lines[2].split(",")
        cells[6] = repr(float(cells[6]) * 1.01)
        table.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        expect(problems(), "pipeline check rejects a broken loss-ratio identity")
        table.write_text(good)

        reports = next(ws.glob("transfer/*/reports.json"))
        good = reports.read_text()
        data = json.loads(good)
        data["loss_ratio"]["A->A"] = 0.999
        reports.write_text(json.dumps(data))
        expect(problems(), "pipeline check rejects an A->A loss ratio other than 1")
        reports.write_text(good)

        scatter = next(ws.glob("transfer/*/scatter.csv"))
        good = scatter.read_text()
        lines = good.splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) * 1.001)
        scatter.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        expect(problems(), "pipeline check rejects non-reciprocal trade-count ratios")
        scatter.write_text(good)

        metrics_json = next(ws.glob("metrics/*/metrics.json"))
        good = metrics_json.read_text()
        data = json.loads(good)
        data["per_seed"]["0"]["aql"] *= 1.001
        metrics_json.write_text(json.dumps(data))
        expect(problems(), "pipeline check rejects a metrics.json AQL the checkpoint does not give")
        metrics_json.write_text(good)

        expect(checks.check_pipeline(ws, cfg, n_products + 1, models.load_checkpoint)[0],
               "pipeline check rejects a drop report that misses products")
        expect(not problems(), "restored pipeline outputs pass again")
    finally:
        shutil.rmtree(scratch)


def test_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(listed == run.per_layer_names(), "per-layer metrics match BENCHMARK.json")
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES),
           "every workload in BENCHMARK.json is runnable")
    expect(sorted(m["name"] for m in spec["end_to_end"])
           == ["peak_rss_mb", "setup_s", "wall_s", "work_per_s"],
           "end-to-end metrics match BENCHMARK.json")


def main():
    run.OUT.mkdir(exist_ok=True)
    for test in (test_ingest, test_select, test_models, test_pipeline, test_benchmark_json):
        test()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
