"""Tracing overhead: traced and untraced rounds of one workload, alternating
in one process.

    python3 benchmark/overhead.py --workload small_panel --seed 1 --pairs 3

Two separate runs (one with ``--trace 0``, one with ``--trace 1``) differ by
whatever the machine did between them, which on a shared machine can exceed
the overhead itself.  Here the rounds alternate in the order untraced,
traced, traced, untraced, ... so that a slow drift of the machine falls on
both sides alike.  Prints one line per round and, last, one JSON object with
the median untraced and traced round time and the overhead between them.

Where rounds vary by more than the overhead, the difference of medians
cannot resolve it.  The JSON object therefore also gives the cost of one
span, timed on a wrapped no-op against the bare no-op, and that cost times
the spans of one round.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import run


def span_cost_s(tracing, calls: int = 200_000) -> float:
    """Extra seconds one traced call costs: a wrapped no-op against the bare one."""
    def noop(x):
        return x

    wrapped = tracing.Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1)
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped(1)
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--toy", action="store_true", help="tiny inputs")
    args = ap.parse_args(argv)
    aspanel, _ = run.import_aspanel()
    import tracing
    import workloads

    work = os.path.join(run.HERE, ".work", f"overhead-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ctx = workloads.Context(aspanel, work, args.seed, args.toy)
        wl = workloads.build(args.workload, ctx, workloads.setup(args.workload, ctx))
        walls, spans = {0: [], 1: []}, 0
        for k in range(2 * args.pairs):
            traced = k % 4 in (1, 2)
            tracer = tracing.Tracer()
            if traced:
                tracer.install(aspanel)
            try:
                times, _, _, failures = workloads.run_round(wl, keep_outputs=False)
            finally:
                tracer.uninstall()
            if failures:
                raise SystemExit(f"overhead: {failures[0]}")
            walls[int(traced)].append(sum(times))
            spans = max(spans, len(tracer.spans))
            print(f"round {k} traced={int(traced)} wall={sum(times):.3f}s spans={len(tracer.spans)}", file=sys.stderr)
        untraced, traced = statistics.median(walls[0]), statistics.median(walls[1])
        cost = span_cost_s(tracing)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "untraced_s": untraced, "traced_s": traced,
                          "overhead_s": traced - untraced, "overhead_share": (traced - untraced) / untraced,
                          "spans_per_round": spans, "span_cost_s": cost, "span_overhead_s": spans * cost}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
