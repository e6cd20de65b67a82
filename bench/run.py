"""Benchmark entry point.

    python3 bench/run.py --workload {ingest,select,models,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. The
workload's inputs are built from ``--seed`` (three times; ``setup_s`` is the
import time plus the median build), one untimed warm-up round follows, and
then whole rounds run until the next one would pass ``--seconds``. Every
round's outputs are checked outside the timed region. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of rounds run under the tracer, alternated with untraced
rounds so the tracing overhead can be reported).
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
WORKLOAD_NAMES = ("ingest", "select", "models", "pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    import tracer
    names = [(f"{span}_s", "s") for span in tracer.SPAN_NAMES]
    names += [(f"layer.{layer}_s", "s") for layer in tracer.LAYERS]
    names += [(c, "MB" if c.endswith("_mb") else "count") for c in tracer.COUNTERS]
    names += [("selection.fits_optimal", "count"), ("selection.fits_false_converged", "count"),
              ("oracle.support_size", "count"), ("oracle.highs_s", "s"),
              ("trace.spans", "count"), ("trace.unattributed_s", "s"),
              ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_pct", "%")]
    return names


def oracle_stats(fits, gap_tol):
    """Solve every recorded L1-QR fit exactly and compare."""
    import numpy as np
    import checks
    from bookcast.selection import ZERO_THRESHOLD
    stats = {"selection.fits_optimal": 0, "selection.fits_false_converged": 0,
             "oracle.support_size": 0, "oracle.highs_s": 0.0}
    for X, y, tau, alpha, fit in fits:
        t = time.perf_counter()
        optimum, beta = checks.highs_l1qr(X, y, tau, alpha)
        stats["oracle.highs_s"] += time.perf_counter() - t
        gap, _ = checks.fit_gap(fit, X, y, tau, alpha, optimum)
        stats["oracle.support_size"] += int(np.sum(np.abs(beta) > ZERO_THRESHOLD))
        if gap <= gap_tol:
            stats["selection.fits_optimal"] += 1
        elif fit.converged:
            stats["selection.fits_false_converged"] += 1
    return stats


def layer_metrics(tr, setup_view, round_views, traced_walls, walls):
    """Per-layer metrics over one traced set-up plus one traced round: the
    inclusive time of each traced function and the self time of each layer
    (median over traced rounds), counters of the last traced round."""
    import tracer
    import workloads
    (s_name, s_layer, _), s_counts, s_fits = setup_view
    (_, _, _), r_counts, r_fits = round_views[-1]
    med = lambda values: statistics.median(values)  # noqa: E731
    m = {}
    for span in tracer.SPAN_NAMES:
        m[f"{span}_s"] = s_name.get(span, 0.0) + med([v[0][0].get(span, 0.0) for v in round_views])
    for layer in tracer.LAYERS:
        m[f"layer.{layer}_s"] = s_layer.get(layer, 0.0) + med(
            [v[0][1].get(layer, 0.0) for v in round_views])
    for c in tracer.COUNTERS:
        m[c] = s_counts.get(c, 0) + r_counts.get(c, 0)
    m.update(oracle_stats(s_fits + r_fits, workloads.Select.GAP_TOL))
    m["trace.spans"] = len(tr.spans)
    m["trace.unattributed_s"] = med([w - v[0][2] for w, v in zip(traced_walls, round_views)])
    m["trace.wall_s"] = med(traced_walls)
    m["trace.untraced_wall_s"] = med(walls)
    m["trace.overhead_pct"] = 100.0 * (m["trace.wall_s"] / m["trace.untraced_wall_s"] - 1.0)
    return m


def measure(args, import_s, scratch):
    import workloads
    wl = workloads.WORKLOADS[args.workload](scratch)
    tr = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()

    setup_times = []
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        if tr is not None and last:
            tr.reset()
            tr.install()
        t = time.perf_counter()
        try:
            inp = wl.setup(args.seed)
        finally:
            if tr is not None and last:
                tr.uninstall()
        setup_times.append(time.perf_counter() - t)
    setup_view = None
    if tr is not None:
        setup_view = (tr.breakdown(), dict(tr.counts), list(tr.fits))
        setup_dump = tr.dump()

    problems = []
    out = wl.run(inp)  # warm-up: untimed and uncounted, but still checked
    problems += wl.check(inp, out)[1]
    wl.finish(inp, out)
    del out

    walls, traced_walls, round_views = [], [], []
    attempted = failed = 0
    work = None
    start = time.perf_counter()
    while True:
        traced = tr is not None and len(walls) > len(traced_walls)
        gc.collect()  # every round starts from the same heap state
        if traced:
            tr.reset()
            tr.install()
        t = time.perf_counter()
        try:
            out = wl.run(inp)
        finally:
            wall = time.perf_counter() - t
            if traced:
                tr.uninstall()
        if traced:
            traced_walls.append(wall)
            round_views.append((tr.breakdown(), dict(tr.counts), list(tr.fits)))
        else:
            walls.append(wall)
        work = wl.work(inp, out)
        f, p = wl.check(inp, out)
        wl.finish(inp, out)
        del out
        attempted += wl.ops
        failed += f
        problems += p
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls)
        enough = walls and (tr is None or traced_walls)
        if enough and elapsed + typical > args.seconds:
            break

    rounds = len(walls) + len(traced_walls)
    print(f"{wl.name}: {rounds} rounds of {wl.ops} x {wl.op}; "
          f"{work} {wl.unit} per round; {failed}/{attempted} operations failed")
    print("round wall s: " + " ".join(f"{w:.3f}" for w in walls)
          + (" | traced: " + " ".join(f"{w:.3f}" for w in traced_walls) if tr else ""))
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if tr is None:
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "work_per_s": (work / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values = layer_metrics(tr, setup_view, round_views, traced_walls, walls)
        metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
        trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed,
            "setup": setup_dump, "last_traced_round": tr.dump(),
            "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave no caches behind in src/
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t = time.perf_counter()
    try:
        import workloads  # noqa: F401  (numpy, bookcast and the checks)
    except ImportError as exc:
        print(f"cannot import the bookcast package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t
    import bookcast
    if Path(bookcast.__file__).resolve().parent != ROOT / "src" / "bookcast":
        print(f"bookcast was imported from {bookcast.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
