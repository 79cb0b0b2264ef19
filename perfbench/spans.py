"""Span recorder for the traced benchmark run, and the per-layer metrics.

The traced run wraps the public entry points of each charvar module in
place.  Every module that imported a wrapped name gets the wrapper too, so
calls made through `from .sl2 import group_table` are recorded as well.
Spans nest by call order: the code under test runs in one thread, so a
plain stack gives each span its parent.

A layer's self time is its span's duration minus the duration of its
direct children, so a count that triggers a cold table build is not
charged for the build.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import NamedTuple

# Module -> public functions that mark a layer boundary.  Small arithmetic
# helpers (inverse_mod, is_square_mod, ...) are left out: they run inside
# tight loops, and wrapping them would measure the wrapper.
TRACED = {
    "charvar.sl2": ("group_table",),
    "charvar.counting": (
        "commutator_fiber_distribution", "fast_count", "count_commutator_fiber",
        "count_zbar", "count_z_full", "count_x_stratum",
        "count_diagonal_commutator_fiber", "brute_force_count",
        "brute_commutator_tally", "monodromy_probe"),
    "charvar.interpolate": ("lagrange_fit", "consistency_check"),
    "charvar.strata": ("derive_case",),
    "charvar.hodge": ("enumerate_tables", "brute_force_tables"),
    "charvar.cli": ("run_verification",),
}

PAIR_KINDS = ("CommutatorFiber", "XStratum", "DiagonalCommutatorFiber")
TUPLE_KINDS = ("ZbarCase", "ZFull")
# brute calls that enumerate all |G|^2 pairs (dcfiber loops over P instead)
PAIR_ENUMERATIONS = ("CommutatorFiber", "XStratum", "tally")

PRIMES = (31, 53, 89)


class Tracer:
    """Spans kept in memory: name, start, end, parent index, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter() - self.t0, "end": None,
                    "attrs": attrs}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.t0
                self._stack.pop()
            if after:
                attrs.update(after(result, attrs))
            return result
        return traced

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _first_arg_p(p, *args, **kwargs) -> dict:
    return {"p": p}


def _hooks() -> dict:
    """Per-function attribute hooks: (before(*args), after(result, attrs))."""
    sl2 = importlib.import_module("charvar.sl2")
    counting = importlib.import_module("charvar.counting")
    table_cache = getattr(sl2.group_table, "cache_info", None)
    memo = getattr(counting, "_dist_memo", None)

    def table_before(p, *args, **kwargs):
        return {"p": p, "misses": table_cache().misses if table_cache else None}

    def table_after(table, attrs):
        built = (table_cache().misses > attrs["misses"]) if table_cache else True
        nbytes = sum(v.nbytes for v in vars(table).values() if hasattr(v, "nbytes"))
        return {"built": built, "mb": nbytes / 1e6 if built else 0.0}

    def dist_before(p, *args, **kwargs):
        return {"p": p, "computed": memo is None or p not in memo}

    def dist_after(dist, attrs):
        fibers = getattr(dist, "fibers", {})
        return {"classes": len(fibers) if attrs["computed"] else 0}

    def brute_before(p, spec, *args, **kwargs):
        return {"p": p, "kind": type(spec).__name__}

    def enum_before(e_coeffs, betti, weight_bound=True, *args, **kwargs):
        return {"weight_bound": weight_bound}

    def enum_after(tables, attrs):
        return {"tables": len(tables)}

    hooks = {name: (_first_arg_p, None) for name in (
        "fast_count", "count_commutator_fiber", "count_zbar", "count_z_full",
        "count_x_stratum", "count_diagonal_commutator_fiber",
        "brute_commutator_tally", "monodromy_probe")}
    return hooks | {
        "group_table": (table_before, table_after),
        "commutator_fiber_distribution": (dist_before, dist_after),
        "brute_force_count": (brute_before, None),
        "enumerate_tables": (enum_before, enum_after),
    }


def install(tracer: Tracer) -> None:
    """Replace each traced name in every charvar module that holds it."""
    hooks = _hooks()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "charvar" or name.startswith("charvar."))]
    for modname, names in TRACED.items():
        home = importlib.import_module(modname)
        layer = modname.split(".")[-1]
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                continue
            before, after = hooks.get(name, (None, None))
            wrapped = tracer.wrap(f"{layer}.{name}", original, before, after)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics


class Layer(NamedTuple):
    """One per-layer metric and the end-to-end metrics it should move."""
    name: str
    unit: str
    better: str
    moves: str          # "metric@workload" pairs it should move
    steady: str = ""    # pairs it should leave unchanged


def _layers() -> list[Layer]:
    table_moves = ("wall_s@verify-all, setup_s@count-queries, "
                   "peak_rss_mb@verify-all, peak_rss_mb@count-queries")
    dist_moves = "wall_s@verify-all, setup_s@count-queries"
    query_moves = "op_p50_ms@count-queries, op_p95_ms@count-queries, wall_s@count-queries"
    brute_moves = "wall_s@oracle, wall_s@verify-all (slightly)"
    exact_moves = "wall_s@exact"
    out = [Layer("sl2.group_table_s", "s", "lower", table_moves, "all@oracle")]
    out += [Layer(f"sl2.group_table_s.p{p}", "s", "lower", table_moves, "all@oracle")
            for p in PRIMES]
    out += [Layer("sl2.tables_built", "count", "lower", table_moves, "all@oracle"),
            Layer("sl2.table_mb", "MB", "lower", table_moves, "all@oracle"),
            Layer("counting.distribution_s", "s", "lower", dist_moves,
                  "op_p50_ms@count-queries")]
    out += [Layer(f"counting.distribution_s.p{p}", "s", "lower", dist_moves,
                  "op_p50_ms@count-queries") for p in PRIMES]
    out += [Layer("counting.classes_computed", "count", "lower", dist_moves,
                  "op_p50_ms@count-queries")]
    out += [Layer(f"counting.{kind}_ms.p{p}", "ms", "lower", query_moves)
            for kind in ("zbar", "zfull") for p in PRIMES]
    out += [Layer("counting.dcfiber_ms.p89", "ms", "lower", query_moves),
            Layer("counting.lookup_ms", "ms", "lower", query_moves),
            Layer("counting.fast_calls", "count", "lower", query_moves),
            Layer("counting.brute_pair_s", "s", "lower", brute_moves),
            Layer("counting.brute_tuple_s", "s", "lower", brute_moves),
            Layer("counting.brute_tally_s", "s", "lower", brute_moves),
            Layer("counting.brute_mpairs_per_s", "Mpairs/s", "higher", brute_moves),
            Layer("counting.oracle_calls", "count", "lower", brute_moves),
            Layer("counting.oracle_agree_ratio", "ratio", "higher", brute_moves),
            Layer("interpolate.fit_ms", "ms", "lower", exact_moves),
            Layer("interpolate.check_ms", "ms", "lower", exact_moves),
            Layer("interpolate.fits", "count", "lower", exact_moves),
            Layer("strata.derive_ms", "ms", "lower", exact_moves),
            Layer("hodge.enumerate_ms", "ms", "lower", exact_moves),
            Layer("hodge.enumerate_nowb_ms", "ms", "lower", exact_moves),
            Layer("hodge.brute_ms", "ms", "lower", exact_moves),
            Layer("hodge.tables", "count", "lower", exact_moves),
            Layer("cli.verify_self_s", "s", "lower", "wall_s@verify-all"),
            Layer("cli.extension_counts", "count", "lower", "wall_s@verify-all"),
            Layer("cli.oracle_confirmations", "count", "lower", "wall_s@verify-all"),
            Layer("cli.count_records", "count", "lower", "wall_s@verify-all"),
            Layer("trace.wall_s", "s", "lower",
                  "none: wall_s of the traced run, beside the untraced median")]
    return out


LAYERS = _layers()


def layer_metrics(tracer: Tracer, rounds: int, counters: dict,
                  traced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run.

    Build layers (tables, distributions) are totals for the run, because a
    process builds each prime once whatever the number of rounds.  Call
    counts and brute-force times are per round; *_ms values are the median
    self time of one call.  A layer the workload never reaches reads 0.
    """
    own = tracer.self_times()
    rows = [(s["name"], s["attrs"], t) for s, t in zip(tracer.spans, own)]

    def select(name, **where):
        return [(a, t) for n, a, t in rows
                if n == name and all(a.get(k) == v for k, v in where.items())]

    def total(name, **where):
        return sum(t for _, t in select(name, **where))

    def median_ms(names, **where):
        ts = [t for n in names for _, t in select(n, **where)]
        return statistics.median(ts) * 1000.0 if ts else 0.0

    per_round = 1.0 / max(rounds, 1)
    m: dict[str, float] = {}
    m["sl2.group_table_s"] = total("sl2.group_table")
    for p in PRIMES:
        m[f"sl2.group_table_s.p{p}"] = total("sl2.group_table", p=p)
    built = [a for a, _ in select("sl2.group_table", built=True)]
    m["sl2.tables_built"] = len(built)
    m["sl2.table_mb"] = sum(a["mb"] for a in built)
    m["counting.distribution_s"] = total("counting.commutator_fiber_distribution")
    for p in PRIMES:
        m[f"counting.distribution_s.p{p}"] = total(
            "counting.commutator_fiber_distribution", p=p)
    m["counting.classes_computed"] = sum(
        a.get("classes", 0) for a, _ in select("counting.commutator_fiber_distribution"))
    for p in PRIMES:
        m[f"counting.zbar_ms.p{p}"] = median_ms(["counting.count_zbar"], p=p)
        m[f"counting.zfull_ms.p{p}"] = median_ms(["counting.count_z_full"], p=p)
    m["counting.dcfiber_ms.p89"] = median_ms(
        ["counting.count_diagonal_commutator_fiber"], p=89)
    m["counting.lookup_ms"] = median_ms(
        ["counting.count_commutator_fiber", "counting.count_x_stratum"])
    m["counting.fast_calls"] = len(select("counting.fast_count")) * per_round

    brute = select("counting.brute_force_count")
    tally = select("counting.brute_commutator_tally")
    m["counting.brute_pair_s"] = sum(t for a, t in brute if a["kind"] in PAIR_KINDS) * per_round
    m["counting.brute_tuple_s"] = sum(t for a, t in brute if a["kind"] in TUPLE_KINDS) * per_round
    m["counting.brute_tally_s"] = sum(t for _, t in tally) * per_round
    enum = [(a["p"], t) for a, t in brute if a["kind"] in PAIR_ENUMERATIONS]
    enum += [(a["p"], t) for a, t in tally]
    enum_s = sum(t for _, t in enum)
    pairs = sum((p ** 3 - p) ** 2 for p, _ in enum)
    m["counting.brute_mpairs_per_s"] = pairs / enum_s / 1e6 if enum_s else 0.0
    m["counting.oracle_calls"] = (len(brute) + len(tally)) * per_round
    checks = counters.get("oracle.checks", 0)
    m["counting.oracle_agree_ratio"] = counters.get("oracle.agree", 0) / checks if checks else 0.0

    m["interpolate.fit_ms"] = median_ms(["interpolate.lagrange_fit"])
    m["interpolate.check_ms"] = median_ms(["interpolate.consistency_check"])
    m["interpolate.fits"] = len(select("interpolate.lagrange_fit")) * per_round
    m["strata.derive_ms"] = median_ms(["strata.derive_case"])
    m["hodge.enumerate_ms"] = median_ms(["hodge.enumerate_tables"], weight_bound=True)
    m["hodge.enumerate_nowb_ms"] = median_ms(["hodge.enumerate_tables"], weight_bound=False)
    m["hodge.brute_ms"] = median_ms(["hodge.brute_force_tables"])
    m["hodge.tables"] = sum(a.get("tables", 0)
                            for a, _ in select("hodge.enumerate_tables")) * per_round

    m["cli.verify_self_s"] = total("cli.run_verification") * per_round
    for key in ("extension_counts", "oracle_confirmations", "count_records"):
        m[f"cli.{key}"] = counters.get(f"cli.{key}", 0) * per_round
    m["trace.wall_s"] = traced_wall_s
    return m
