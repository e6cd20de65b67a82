"""Append one row per scale to BENCH_<scale>.json at the repository root.

    python3 scripts/trajectory.py [--src DIR] [desk] [paper]

Times ``synth`` and ``extract`` (``bookcast.cli.main``) of a 60-min DE book at
liquidity 40, 7 (desk) or 60 (paper) days, then one read, write and (where the
package has it) ``load_samples`` of its ``features.csv``. Rows are ``{git_rev,
scale, <stage>: seconds, peak_rss_mb}``; ``--src DIR`` times another checkout.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# config overrides; the default config is 60 days of 60-min DE at liquidity 40
SCALES = {"desk": {"horizon_end": "2024-01-08T00:00:00", "train_end": "2024-01-05T00:00:00",
                   "val_end": "2024-01-06T00:00:00", "test_end": "2024-01-08T00:00:00"},
          "paper": {}}


def measure(scale: str, src: Path) -> dict:
    from bookcast import cli, market
    git = ["git", "-C", str(src), "describe", "--always", "--dirty"]
    row = {"git_rev": subprocess.run(git, capture_output=True, text=True).stdout.strip(),
           "scale": scale}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"workspace": str(Path(tmp) / "ws"), **SCALES[scale]}))

        def timed(stage, call, *args):
            t = time.perf_counter()
            out, row[stage] = call(*args), round(time.perf_counter() - t, 4)
            return out

        for command in ("synth", "extract"):
            if timed(command, cli.main, [command, "--config", str(cfg)]) != 0:
                raise SystemExit(f"{command} failed at scale {scale}")
        path = next((Path(tmp) / "ws" / "features").glob("*/features.csv"))
        with open(path, newline="", encoding="utf-8") as fh:
            samples = timed("read_samples_csv", market.read_samples_csv, fh)
        with open(Path(tmp) / "rewrite.csv", "w", newline="", encoding="utf-8") as fh:
            timed("write_samples_csv", market.write_samples_csv, samples, fh)
        if hasattr(market, "load_samples"):
            timed("load_samples", market.load_samples, path)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scales", nargs="*", help="desk and/or paper (default: both)")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    if set(args.scales) - set(SCALES):
        parser.error(f"scales are {list(SCALES)}")
    sys.path.insert(0, str(args.src.resolve()))
    for scale in args.scales or SCALES:
        row = measure(scale, args.src)
        out = ROOT / f"BENCH_{scale}.json"
        rows = json.loads(out.read_text()) if out.exists() else []
        out.write_text(json.dumps(rows + [row], indent=1) + "\n")
        print(json.dumps(row))


if __name__ == "__main__":
    main()
