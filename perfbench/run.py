"""charvar benchmark: one run of one workload.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

Run from the root of a charvar checkout; the program is imported from its
`src/`.  Each run starts fresh interpreters (worker.py), so every run pays
the import and the table and fiber-distribution builds a `charvar`
invocation pays.  With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of one traced worker instead, and the spans are written under
perfbench/out/.  --smoke shrinks every workload to a few seconds for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-all", "count-queries", "oracle", "exact")

RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 7         # set-up is measured up to this many times per run ...
SETUP_BUDGET_S = 3.0      # ... while the set-ups so far took less than this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms", "op_p95_ms": "ms"}


def machine(numpy_version: str | None) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, seconds: float, setup_only: bool = False,
          trace_file: str | None = None) -> dict:
    """Run worker.py to completion in a fresh interpreter; its JSON report."""
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--started", repr(started)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_median(workload: str) -> float | None:
    try:
        with open(os.path.join(HERE, "baseline.json")) as fh:
            return json.load(fh)["workloads"][workload]["wall_s"]["median"]
    except (OSError, KeyError, ValueError):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "charvar", "__init__.py")):
        print(f"no charvar sources under {ROOT}/src: run from a charvar checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    spans_file = os.path.join(OUT, f"{tag}-spans.json") if args.trace else None
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        # verify-all rounds must each start cold, so they take a process each
        workers = [spawn(args, deadline, args.seconds, trace_file=spans_file)]
        timed = workers[0]["timed_s"]
        while not args.trace and workers[-1]["one_round"] and timed < args.seconds:
            workers.append(spawn(args, deadline, args.seconds - timed))
            timed += workers[-1]["timed_s"]
        setups = [w["setup_s"] for w in workers]
        while (not args.trace and len(setups) < SETUP_SAMPLES
               and sum(setups) < SETUP_BUDGET_S):
            setups.append(spawn(args, deadline, 0.0, setup_only=True)["setup_s"])
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    rounds = [r for w in workers for r in w["round_s"]]
    ops = [ms for w in workers for ms in w["op_ms"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for err in w["errors"]:
            print(f"{args.workload}: FAILED {err}", file=sys.stderr)
    if args.trace:
        layers = workers[0]["layers"]
        metrics = {l.name: {"value": layers[l.name], "unit": l.unit} for l in LAYERS}
    else:
        values = {"wall_s": statistics.median(rounds),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
                  "op_p50_ms": statistics.median(ops),
                  "op_p95_ms": quantile(ops, 95)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "machine": machine(workers[0]["numpy"]),
              "workers": len(workers), "rounds": len(rounds), "round_s": rounds,
              "setup_samples": setups, "op_ms": ops,
              "fail_ratio": failed / attempted, "metrics": metrics}
    if args.trace:
        record["spans_file"] = os.path.relpath(spans_file, ROOT)
        record["wall_s_traced"] = statistics.median(rounds)
        record["wall_s_untraced_median"] = untraced_median(args.workload)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": record["machine"], "rounds": len(rounds),
                      "ops": len(ops), "setup_samples": len(setups),
                      "fail_ratio": record["fail_ratio"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
