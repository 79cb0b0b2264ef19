"""Run every workload over several seeds and print each end-to-end metric.

    python3 perfbench/sweep.py --runs 10 [--seconds N] [--workloads exact,oracle]
                               [--first-seed 1] [--traced] [--write-baseline]

--seconds defaults to run_seconds from BENCHMARK.json.

For each workload and metric it prints the median, the quartiles and the
spread (quartile distance over the median, as statistics.quantiles(n=4)
gives them) beside the metric's bound from BENCHMARK.json, plus the
fail_ratio (failed over attempted operations) summed over the runs.
--traced adds one traced run per workload and prints its wall_s beside
the untraced median.  --write-baseline stores the table, with the
machine, in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    table: dict[str, dict] = {}
    machine = None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            info, result = run_once(workload, seed, args.seconds, 0)
            machine = info["machine"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "runs": len(vs)}
        rows["fail_ratio"] = {"unit": "ratio", "median": failed / attempted,
                              "attempted": attempted, "failed": failed}
        if args.traced:
            _, traced = run_once(workload, args.first_seed, args.seconds, 1)
            rows["traced_wall_s"] = {"unit": "s",
                                     "median": traced["metrics"]["trace.wall_s"]["value"]}
        table[workload] = rows
        print(f"{workload}:")
        for name, r in rows.items():
            if "spread" in r:
                bound = bounds.get(name)
                print(f"  {name:<12} {r['median']:>12.5g} {r['unit']:<5} "
                      f"q1 {r['q1']:.5g}  q3 {r['q3']:.5g}  spread {r['spread']:.3f}"
                      f"  (bound {bound}, a third is {bound / 3:.3f})")
            else:
                print(f"  {name:<12} {r['median']:>12.5g} {r['unit']}")
        print(flush=True)

    if args.write_baseline:
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump({"machine": machine, "seconds": args.seconds, "runs": args.runs,
                       "first_seed": args.first_seed, "workloads": table}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
