"""Every demo runs end to end. The first two slice and filter a synthetic
trade table through its sequence interface; the fourth is the only script
outside the tests that drives all four model families."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_synthetic_market.py", "02_feature_extraction.py",
                                  "03_feature_selection.py", "04_model_comparison.py",
                                  "05_transfer_asymmetry.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
