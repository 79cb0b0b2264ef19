"""One benchmark process: import charvar, check it is cold, set up, run rounds.

run.py starts this script in a fresh interpreter and passes the
CLOCK_MONOTONIC time at which it started it, so set-up time covers
interpreter start, the import and the workload's warm-up.  The last line
of standard output is this process's report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import charvar
    if not os.path.abspath(charvar.__file__).startswith(src + os.sep):
        print(f"charvar imported from {charvar.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import spans
    import workloads

    problems = workloads.cold_state_problems()
    if problems:
        print("process is not cold: " + "; ".join(problems), file=sys.stderr)
        return 3
    tracer = None
    if args.trace_file:
        tracer = spans.Tracer()
        spans.install(tracer)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, expected)
    workload.setup()
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    log = workloads.OpLog()
    rounds: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.round(log)
        rounds.append(time.perf_counter() - t0)
        if workload.one_round:
            break
        if len(rounds) >= workload.min_rounds and time.perf_counter() - t_start >= args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "round_s": rounds,
        "timed_s": time.perf_counter() - t_start,
        "one_round": workload.one_round,
        "op_ms": log.ms,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, len(rounds), log.counters,
                                            statistics.median(rounds))
        with open(args.trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": len(rounds), "layers": out["layers"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
