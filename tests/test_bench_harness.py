"""The benchmark harness keeps working against the package: its self-test
passes, and its tracer still finds every function it wraps."""

import importlib.util
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


def test_tracer_wraps_every_site_and_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
