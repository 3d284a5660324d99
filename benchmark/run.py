"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload small_panel --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; aspanel is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  ``--toy`` shrinks
every input so a run takes seconds (used by test_benchmark.py).
"""

import argparse
import json
import os
import resource
import shutil
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("event_pipeline", "full_scale", "small_panel")
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the test")
    return ap.parse_args(argv)


def import_aspanel():
    """Import aspanel from the checkout's src/ and time it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aspanel", "__init__.py")):
        raise SystemExit(f"benchmark: no aspanel package under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import aspanel
    import aspanel.cli  # noqa: F401  (not imported by the package itself)
    return aspanel, time.perf_counter() - t0


def environment() -> str:
    """CPU count, library versions and the BLAS thread count, for the log."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas['name']} {blas['version']} "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


def end_to_end(wl, rounds, setup_s, rss_mb):
    def stage_rate(stage):
        idx = [i for i, op in enumerate(wl.ops) if op.stage == stage]
        units = sum(wl.ops[i].units for i in idx)
        return statistics.median(units / sum(t[i] for i in idx) for t in rounds)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(t) for t in rounds), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ingest_events_per_s": (stage_rate("ingest"), "1/s"),
        "attribute_cells_per_s": (stage_rate("attribute"), "1/s"),
        "study_subsets_per_s": (stage_rate("study"), "1/s"),
        "coalition_marginals_per_s": (stage_rate("coalition"), "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    aspanel, import_s = import_aspanel()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ctx = workloads.Context(aspanel, work, args.seed, args.toy)
        setup_times = []
        for _ in range(1 if args.toy else SETUP_REPEATS):
            t0 = time.perf_counter()
            made = workloads.setup(args.workload, ctx)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        wl = workloads.build(args.workload, ctx, made)

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install(aspanel)
        try:
            rounds, outputs, failures, mismatched = workloads.measure(wl, args.seconds)
        finally:
            if tracer:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = [f"outputs of {label} differ between rounds" for label in sorted(mismatched)]
        for check in wl.checks:
            try:
                errors += check(outputs)
            except KeyError:  # an output is missing: its operation failed
                if not failures:
                    raise
        for msg in failures + errors:
            print(f"benchmark: {msg}", file=sys.stderr)

        if tracer:
            tracer.write(os.path.join(HERE, ".work", f"spans-{args.workload}.json"))
            metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                       for k, v in tracer.layer_metrics(len(rounds)).items()}
            metrics["trace.wall_s"] = {"value": statistics.median(sum(t) for t in rounds), "unit": "s"}
        else:
            metrics = end_to_end(wl, rounds, setup_s, rss_mb)
        result = {
            "correct": not errors,
            "attempted": len(rounds) * len(wl.ops),
            "failed": len(failures),
            "metrics": metrics,
        }
        stage_s = {st: statistics.median(sum(t[i] for i, op in enumerate(wl.ops) if op.stage == st)
                                         for t in rounds) for st in workloads.STAGES}
        print(f"benchmark: {environment()}", file=sys.stderr)
        print(f"benchmark: {args.workload} seed={args.seed} rounds={len(rounds)} "
              f"import={import_s:.3f}s setup={setup_s:.3f}s (repeats {' '.join(f'{t:.3f}' for t in setup_times)}) "
              f"stage medians: {' '.join(f'{k}={v:.3f}s' for k, v in stage_s.items())}", file=sys.stderr)
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
