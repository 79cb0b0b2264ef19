"""Write perfbench/expected.json: the outputs the benchmark checks against.

    python3 perfbench/make_expected.py

Run it only at a commit whose outputs are trusted (the file in the
repository was made at the seed commit, whose tier-1 suite passes).  The
benchmark never recomputes these values in the run it checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from charvar import cli, counting, hodge, strata  # noqa: E402

import workloads  # noqa: E402


def report_sha(scope: str) -> str:
    report = cli.run_verification(scope, cli.RunConfig())
    if report["summary"]["exit_code"] != 0:
        raise SystemExit(f"verify {scope} exits {report['summary']['exit_code']}")
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def main() -> None:
    counts = {}
    for p in workloads.COUNT_PRIMES:
        for shape in workloads.catalogue(p):
            for key in shape:
                counts[f"{p}|{key}"] = counting.fast_count(p, workloads.spec_of(key, p))
    instance = hodge.default_instance()
    e_coeffs, poincare, dim = instance
    betti = hodge.compact_betti_from_poincare(poincare, dim)
    tables = hodge.enumerate_tables(e_coeffs, betti)
    nowb = hodge.enumerate_tables(e_coeffs, betti, weight_bound=False)
    forced = hodge.forced_entries(tables)
    # the entries the paper states as forced: row 7 empty, h[8][4]=1, h[6][3]=2
    stated = [(7, p) for p in range(dim + 1)] + [(8, 4), (6, 3)]
    expected = {
        "verify": {"all_sha256": report_sha("all"), "smoke_sha256": report_sha("zbar")},
        "count_queries": counts,
        "exact": {
            "cases": {c: list(strata.derive_case(c).e_moduli.coeffs)
                      for c in strata.CASE_IDS},
            "instance": [list(e_coeffs), list(poincare), dim],
            "n_tables": len(tables),
            "n_tables_nowb": len(nowb),
            "forced": [[k, p, forced[(k, p)]] for k, p in stated],
        },
    }
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
