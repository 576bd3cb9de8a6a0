"""mercuryflow benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the process times its own set-up (imports plus a
cold build of every table, with the on-disk table cache switched off), then
runs whole rounds of the workload for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload's fixed number of
traced rounds twice, untraced and then traced, requires byte-identical
allocations, and reports the per-layer metrics.  A report goes to standard
output first; the last line is the JSON result.  The exit code is 1 when a
run-level check fails.
"""

import time

_T0 = time.perf_counter()   # set-up starts before numpy, scipy and mercuryflow load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("sweep", "ensemble", "ensemble-fresh")
P90_MIN_SAMPLES = 100


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program():
    """Import mercuryflow from this checkout's src/ only, with no table cache."""
    os.environ.pop("MERCURYFLOW_TABLE_CACHE", None)
    sys.path.insert(0, str(SRC))
    import mercuryflow

    where = Path(mercuryflow.__file__).resolve().parent
    if where != SRC / "mercuryflow":
        raise SystemExit(f"mercuryflow imported from {where}, not from {SRC}")
    return mercuryflow


def end_to_end(run, setup_s: float) -> dict:
    lat_ms = [1e3 * t for t in run.latencies_s]
    return {
        "setup_s": (setup_s, "s"),
        "alloc_per_s": (run.attempted / run.elapsed_s, "1/s"),
        "alloc_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_report(run) -> dict:
    lat_ms = [1e3 * t for t in run.latencies_s]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= P90_MIN_SAMPLES else None
    return {
        "rounds": run.rounds,
        "elapsed_s": run.elapsed_s,
        "alloc_samples": len(lat_ms),
        "alloc_p90_ms": p90,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "check_failures": run.check_failures,
        "counts": dict(run.counts),
        "max_nda_fsa_diff": run.max_nda_fsa_diff,
        "allocations_sha256": run.digest.hexdigest(),
    }


def machine() -> dict:
    import numpy
    import scipy

    return {"arch": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workloads.build_tables()
    setup_s = time.perf_counter() - _T0
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine()}

    if tracer is None:
        run = workloads.run_workload(args.workload, args.seed, seconds=args.seconds)
        metrics = end_to_end(run, setup_s)
        report.update(run_report(run))
        report["metrics"] = {k: v for k, (v, _) in metrics.items()}
        check_failures = list(run.check_failures)
    else:
        # build spans stay first in tracer.spans; the untraced replay adds none
        tracer.uninstall()
        rounds = workloads.TRACE_ROUNDS[args.workload]
        plain = workloads.run_workload(args.workload, args.seed, rounds=rounds)
        tracer.install()
        run = workloads.run_workload(args.workload, args.seed, rounds=rounds, tracer=tracer)
        tracer.check_rebound()
        tracer.uninstall()
        check_failures = plain.check_failures + run.check_failures
        if run.digest.hexdigest() != plain.digest.hexdigest():
            check_failures.append("traced allocations differ from the untraced ones")
        layer = spans.layer_metrics(tracer.spans)
        layer.update(run.counts)
        untraced_rate = plain.attempted / plain.elapsed_s
        traced_rate = run.attempted / run.elapsed_s
        layer["trace.untraced_alloc_per_s"] = untraced_rate
        layer["trace.traced_alloc_per_s"] = traced_rate
        layer["trace.overhead_ratio"] = traced_rate / untraced_rate
        layer["trace.allocations"] = run.attempted
        units = spans.metric_units()
        metrics = {k: (layer[k], u) for k, u in units.items()}
        report.update(run_report(run))
        report["untraced"] = run_report(plain)
        report["bindings"] = tracer.bindings
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    correct = not check_failures
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
