"""The benchmark harness keeps working against the package: its self-test
passes, and its tracer still finds every function it wraps and sees the
calls the CLI makes through them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")  # the harness checks the selector against HiGHS

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_every_site_and_restores_it():
    tracer = _load_tracer()
    # a site the package no longer has fails here, by name
    sites = [(name, ns, attr, tracer._get(ns, attr))
             for name, where in tracer.SITES.items() for ns, attr in where]
    t = tracer.Tracer()
    t.install()
    try:
        for name, ns, attr, original in sites:
            assert tracer._get(ns, attr) is not original, (name, attr)
    finally:
        t.uninstall()
    for name, ns, attr, original in sites:
        assert tracer._get(ns, attr) is original, (name, attr)


def test_tracer_sees_every_transfer_fit(tmp_path):
    tracer = _load_tracer()
    cfg = {
        "workspace": str(tmp_path / "ws"),
        "market": "DE", "product_type": "60min",
        "horizon_start": "2024-03-01T00:00:00", "horizon_end": "2024-03-08T00:00:00",
        "train_end": "2024-03-05T00:00:00", "val_end": "2024-03-06T00:00:00",
        "test_end": "2024-03-08T00:00:00",
        "synth": {"liquidity": 15.0, "session_hours": 8.0},
        "selector": {"alpha_grid_size": 4, "max_iter": 200, "stages": 2},
        "transfer": {"model_family": "qknn", "budget": 2, "seeds": [0],
                     "strategies": ["A->A", "B->A", "A+B->A"],
                     "domain_a": {"name": "A", "synth": {"liquidity": 10.0}},
                     "domain_b": {"name": "B", "synth": {"liquidity": 25.0}}},
    }
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(cfg))
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.cli.main(["transfer", "--config", str(path)]) == 0
    finally:
        t.uninstall()
    names = [span[0] for span in t.spans]
    # three strategies on A, then the reverse direction's two on B; the
    # reverse pair reuses the forward fits of the sources {A} and {B}
    assert names.count("transfer.run_strategy") == 5
    assert t.counts["transfer.run_strategy_calls"] == 5
    assert names.count("experiment.run_experiment") == 3
