"""Batch front end: counts, fits, derivations, Hodge tables, verification.

Exit codes: 0 all must-match verdicts match, 1 at least one must-match
failure, 2 configuration or usage error.  Reports are byte-deterministic
for a fixed configuration; wall-times are emitted as null unless
--timings is passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from .counting import (ZBAR_ARITY, CommutatorFiber, DiagonalCommutatorFiber,
                       OracleRangeError, TargetSpec, XStratum, ZFull, ZbarCase,
                       brute_force_count, fast_count, monodromy_probe,
                       trace_histogram)
from .epoly import EPolynomial
from .hodge import (compact_betti_from_poincare, default_instance,
                    enumerate_tables, forced_entries)
from .interpolate import (EXACT, QUASI, FitError, compare, consistency_check,
                          lagrange_fit)
from .sl2 import (GeometricClass, SL2Element, W0, W1, W2, W3, W4ANY,
                  check_prime, is_square_mod, w4)
from .strata import (CASE_IDS, block_identities, building_blocks, derive_case,
                     stated_results, stated_zbar_totals)

DEFAULT_PANEL = (5, 7, 11, 13, 17, 19, 23, 29, 31)
# extra primes pulled in, in order, when a fit or a quasi-polynomial branch
# fit needs more points than the panel supplies (every accepted fit carries
# at least one redundant point)
QUASI_EXTENSION = (37, 41, 43, 47, 53, 59, 61, 67, 73, 79, 89)
IDENTITY_PRIMES = (5, 7)

REPORT_SCHEMA = "charvar-verification-report/1"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    primes: tuple[int, ...] = DEFAULT_PANEL
    timings: bool = False

    def __post_init__(self):
        for i, p in enumerate(self.primes):
            try:
                check_prime(p)
            except ValueError as e:
                raise ConfigError(str(e)) from None
            if p in self.primes[:i]:
                raise ConfigError(f"duplicate prime {p}")
        self.primes = tuple(sorted(self.primes))


# ---------------------------------------------------------------------------
# lambda fills

# The placeholders a plan template or an identity row may carry, each with
# its skip reason at a prime where it has no fill.  {lam} runs over the
# admissible lambdas and {square} / {nonsquare} over one square class;
# {same}, {cross} and {special} run over the pairs "l1,l2" of one zbar44
# regime, a generic pair split by whether the square classes match.
PLACEHOLDERS = {
    "lam": "no admissible lambda",
    "square": "no admissible lambda in this square class",
    "nonsquare": "no admissible lambda in this square class",
    "same": "no generic pair in this class pattern",
    "cross": "no generic pair in this class pattern",
    "special": "lam2 = -lam1 is not a special pair here",
}


@dataclass
class Skip:
    reason: str


def _placeholder(text: str) -> str | None:
    return next((key for key in PLACEHOLDERS if "{" + key + "}" in text), None)


def lambda_fills(text: str, p: int) -> Iterator[dict]:
    """The format mappings of text's placeholder at p, in ascending order;
    one empty mapping if text has none."""
    key = _placeholder(text)
    lams = range(2, p - 1)
    if key is None:
        yield {}
    elif key in ("lam", "square", "nonsquare"):
        for lam in lams:
            if key == "lam" or is_square_mod(lam, p) == (key == "square"):
                yield {key: lam}
    else:
        for l1 in lams:
            for l2 in (p - l1,) if key == "special" else lams:
                regime = ZbarCase("zbar44", l1, l2).regime(p)
                if regime == "generic":
                    same = is_square_mod(l1, p) == is_square_mod(l2, p)
                    regime = "same" if same else "cross"
                if regime == key:
                    yield {key: f"{l1},{l2}"}


def fill(text: str, p: int) -> "str | Skip":
    """text with its placeholder given the first fill at p, or the
    placeholder's skip reason where p has none."""
    for mapping in lambda_fills(text, p):
        return text.format(**mapping)
    return Skip(PLACEHOLDERS[_placeholder(text)])


# ---------------------------------------------------------------------------
# verification plan


@dataclass(frozen=True)
class TargetPlan:
    """One verification target: a `charvar count` target template, or a
    class (w2, w4={lam}) whose size is counted, given its first fill per
    prime.  The fit degree is the reference's."""
    id: str
    reference: EPolynomial
    template: str
    must_match: bool = False
    brute_prime: int | None = None    # oracle prime for a non-match verdict
    params: dict = field(default_factory=dict)

    def spec(self, p: int) -> "TargetSpec | GeometricClass | Skip":
        text = fill(self.template, p)
        if isinstance(text, Skip):
            return text
        if self.template.startswith("w"):
            return parse_class(text)
        return parse_target(text, p)

    def count(self, p: int) -> "int | Skip":
        spec = self.spec(p)
        if isinstance(spec, Skip):
            return spec
        if isinstance(spec, GeometricClass):
            return sum(trace_histogram(p, spec, SL2Element.identity(p)))
        return fast_count(p, spec)


def verification_plan(scope: str) -> list[TargetPlan]:
    """The targets of one scope (blocks, zbar, zfull or all), in report order."""
    if scope not in ("blocks", "zbar", "zfull", "all"):
        raise ConfigError(f"unknown scope {scope!r}")
    b, zb = building_blocks(), stated_zbar_totals()
    T = TargetPlan
    sq, nsq = {"lambda": "smallest square"}, {"lambda": "smallest nonsquare"}
    table = {
        "blocks": [
            T("W2-size", b["W2"], "w2", must_match=True),
            T("W4lam-size", b["W4lam"], "w4={lam}", must_match=True,
              params={"lambda": "smallest admissible"}),
            T("X0", b["X0"], "xstratum:X0", must_match=True, brute_prime=5),
            T("X1", b["X1"], "xstratum:X1", must_match=True, brute_prime=5),
            T("Xbar2", b["Xbar2"], "commfiber:j+", must_match=True, brute_prime=5),
            T("Xbar3", b["Xbar3"], "commfiber:j-", brute_prime=7),
            T("Xbar4lam[qr]", b["Xbar4lam"], "commfiber:xi={square}",
              brute_prime=7, params=sq),
            T("Xbar4lam[qnr]", b["Xbar4lam"], "commfiber:xi={nonsquare}",
              brute_prime=5, params=nsq),
            T("X2", b["X2"], "xstratum:X2", must_match=True, brute_prime=5),
            T("X3", b["X3"], "xstratum:X3", brute_prime=7),
            T("X4", b["X4"], "xstratum:X4", brute_prime=7),
        ],
        "zbar": [
            T("Zbar22", zb["J+J+"], "zbar22", brute_prime=5),
            T("Zbar23", zb["J+J-"], "zbar23", brute_prime=5),
            T("Zbar24[qr]", zb["J+xi"], "zbar24={square}", brute_prime=7,
              params=sq),
            T("Zbar24[qnr]", zb["J+xi"], "zbar24={nonsquare}", brute_prime=5,
              params=nsq),
            T("Zbar34[qr]", zb["J+xi"], "zbar34={square}", brute_prime=7,
              params=sq),
            T("Zbar34[qnr]", zb["J+xi"], "zbar34={nonsquare}", brute_prime=5,
              params=nsq),
            T("Zbar44[equal]", zb["xixi-equal"], "zbar44={lam},{lam}",
              brute_prime=5, params={"lambda": "smallest admissible, equal pair"}),
            T("Zbar44[generic-same]", zb["xixi-generic"], "zbar44={same}",
              params={"pair": "first generic pair, matching square classes"}),
            T("Zbar44[generic-cross]", zb["xixi-generic"], "zbar44={cross}",
              brute_prime=7,
              params={"pair": "first generic pair, crossed square classes"}),
            T("Zbar44[special]", zb["xixi-generic"], "zbar44={special}",
              brute_prime=7, params={"pair": "(2, -2)"}),
        ],
        # one-puncture reduction: with C1 = ±Id central, [A,B] = ±C2^{-1},
        # so Z(W0, K) is the stratum X of K and Z(W1, K) that of -K (-Id
        # swaps W0 and W1, W2 and W3, W4(lam) and W4(-lam))
        "zfull": [
            T("Z00", b["X0"], "zfull:w0,w0", must_match=True),
            T("Z01", b["X1"], "zfull:w0,w1", must_match=True),
            T("Z11", b["X0"], "zfull:w1,w1", must_match=True),
            T("Z02", b["X2"], "zfull:w0,w2", must_match=True),
            T("Z03", b["X3"], "zfull:w0,w3", brute_prime=7),
            T("Z12", b["X3"], "zfull:w1,w2", brute_prime=7),
            T("Z13", b["X2"], "zfull:w1,w3", must_match=True),
            T("Z04lam[qr]", b["X4lam"], "zfull:w0,w4={square}",
              brute_prime=7, params=sq),
            T("Z04lam[qnr]", b["X4lam"], "zfull:w0,w4={nonsquare}",
              brute_prime=5, params=nsq),
            T("Z14lam[qr]", b["X4lam"], "zfull:w1,w4={square}",
              brute_prime=7, params=sq),
            T("Z14lam[qnr]", b["X4lam"], "zfull:w1,w4={nonsquare}",
              brute_prime=5, params=nsq),
            T("Z23", b["W2"] * zb["J+J-"], "zfull:w2,w3", brute_prime=5),
            T("Z24lam[qr]", b["W4lam"] * zb["J+xi"], "zfull:w2,w4={square}",
              brute_prime=7, params=sq),
            T("Z24lam[qnr]", b["W4lam"] * zb["J+xi"], "zfull:w2,w4={nonsquare}",
              brute_prime=5, params=nsq),
            T("Z34lam[qr]", b["W4lam"] * zb["J+xi"], "zfull:w3,w4={square}",
              brute_prime=7, params=sq),
            T("Z34lam[qnr]", b["W4lam"] * zb["J+xi"], "zfull:w3,w4={nonsquare}",
              brute_prime=5, params=nsq),
            T("Z44[equal]", b["W4lam"] * zb["xixi-equal"], "zfull:w4={lam},w4={lam}",
              brute_prime=5, params={"pair": "equal smallest admissible"}),
        ],
    }
    return [plan for name, rows in table.items()
            if scope in (name, "all") for plan in rows]


def _symbolic_identities() -> list[dict]:
    """Derivation-vs-transcription checks; exact, prime-independent."""
    rows = []
    stated, stated_zb = stated_results(), stated_zbar_totals()
    derived = {case: derive_case(case) for case in CASE_IDS}
    for case, res in derived.items():
        rows.append({"name": f"derivation {case}: e(R) matches stated result",
                     "p": None, "lhs": str(res.e_moduli),
                     "rhs": str(stated[case]),
                     "pass": res.e_moduli == stated[case]})
        rows.append({"name": f"derivation {case}: barred total matches stated",
                     "p": None, "lhs": str(res.zbar), "rhs": str(stated_zb[case]),
                     "pass": res.zbar == stated_zb[case]})
    gen, spe = derived["xixi-generic"], derived["xixi-special"]
    rows.append({"name": "generic and special stratum lists share one total",
                 "p": None, "lhs": str(gen.zbar), "rhs": str(spe.zbar),
                 "pass": gen.zbar == spe.zbar})
    for name, ok in block_identities(building_blocks()).items():
        rows.append({"name": f"building blocks: {name}", "p": None,
                     "lhs": "", "rhs": "", "pass": bool(ok)})
    return rows


# The count identities, one section per scope: (scope, primes, rows), run
# prime by prime over primes, or over the run's panel when None.  A row is
# (name, lhs, rhs[, its only primes]).  A side sums "A + B" terms: a FACTORS
# entry, a `charvar count` target, or a factor times a target, as in
# "(p²+p)·zbar24=2".  A row carrying a placeholder runs over its fills, one
# row each; a "#" side counts the distinct values it takes there, and the
# row is dropped if there are none.
FACTORS = {"1": lambda p: 1, "(p²-1)": lambda p: p * p - 1,
           "(p²+p)": lambda p: p * p + p, "|G|²": lambda p: (p ** 3 - p) ** 2}
_CLASSES = [("w0", "w0"), ("w1", "w1"), ("w2", "w2"), ("w3", "w3"),
            ("w4(2)", "w4=2"), ("w4any", "w4any")]    # (name, count syntax)
IDENTITY_ROWS = (
    ("blocks", None, [
        ("X strata sum to |SL2|^2", " + ".join(f"xstratum:X{k}" for k in range(5)),
         "|G|²")]),
    ("blocks", IDENTITY_PRIMES, [
        ("xi-fibers constant on square lambdas", "#commfiber:xi={square}", "1"),
        ("xi-fibers constant on nonsquare lambdas", "#commfiber:xi={nonsquare}",
         "1")]),
    ("zbar", IDENTITY_PRIMES, [
        ("negation: Zbar34(lam={lam}) = Zbar24(-lam)", "zbar34={lam}",
         "zbar24=-{lam}"),
        ("Zbar44 special pair equals generic of same class pattern", "zbar44=2,5",
         "zbar44=2,3", (7,))]),
    ("zfull", IDENTITY_PRIMES, [
        *((f"symmetry: Z({n1},{n2}) = Z({n2},{n1})", f"zfull:{c1},{c2}",
           f"zfull:{c2},{c1}")
          for i, (n1, c1) in enumerate(_CLASSES) for n2, c2 in _CLASSES[i + 1:]),
        ("negation: Z(W3,W3) = Z(W2,W2)", "zfull:w3,w3", "zfull:w2,w2"),
        ("negation: Z(W3,W4(lam)) = Z(W2,W4(-lam))", "zfull:w3,w4=2",
         "zfull:w2,w4=-2"),
        ("fibration: Z23 = (p^2-1) Zbar23", "zfull:w2,w3", "(p²-1)·zbar23"),
        ("fibration: Z24 = (p^2+p) Zbar24", "zfull:w2,w4=2", "(p²+p)·zbar24=2"),
        ("fibration: Z44(2, 2) = (p^2+p) Zbar44(2, 2)", "zfull:w4=2,w4=2",
         "(p²+p)·zbar44=2,2", (5,)),
        ("fibration: Z44(2, 3) = (p^2+p) Zbar44(2, 3)", "zfull:w4=2,w4=3",
         "(p²+p)·zbar44=2,3", (7,))]),
)


def _side(p: int, text: str) -> int:
    """The value at p of one side of a count identity."""
    total = 0
    for term in text.split(" + "):
        factor, _, target = term.rpartition("·")
        value = (FACTORS[target](p) if target in FACTORS
                 else fast_count(p, parse_target(target, p)))
        total += FACTORS[factor or "1"](p) * value
    return total


def _count_identities(scope: str, config: RunConfig) -> list[dict]:
    sides = []
    for where, primes, rows in IDENTITY_ROWS:
        if scope not in (where, "all"):
            continue
        for p in primes or config.primes:
            for name, lhs, rhs, *only in rows:
                fills = list(lambda_fills(lhs + rhs, p))
                if only and p not in only[0] or not fills:
                    continue
                if lhs.startswith("#"):
                    distinct = {_side(p, lhs[1:].format(**f)) for f in fills}
                    sides.append((name, p, len(distinct), _side(p, rhs)))
                else:
                    sides += [(name.format(**f), p, _side(p, lhs.format(**f)),
                               _side(p, rhs.format(**f))) for f in fills]
    return [{"name": name, "p": p, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}
            for name, p, lhs, rhs in sides]


def _evaluate_target(plan: TargetPlan, config: RunConfig) -> dict:
    """Count across the panel, fit, hold-out check, compare, classify."""
    degree = plan.reference.degree()
    records = []
    usable: list[tuple[int, int]] = []
    for p in config.primes:
        t0 = time.perf_counter()
        result = plan.count(p)
        ms = (time.perf_counter() - t0) * 1000.0
        if isinstance(result, Skip):
            records.append({"p": p, "count": None, "method": None, "ms": None,
                            "skipped": result.reason})
        else:
            records.append({"p": p, "count": result, "method": "fast",
                            "ms": ms if config.timings else None})
            usable.append((p, result))

    entry = {
        "id": plan.id,
        "params": plan.params,
        "records": records,
        "fit": None,
        "reference": _poly_json(plan.reference),
        "verdict": None,
        "must_match": plan.must_match,
        "brute_confirmed": None,
    }

    if len(usable) < degree + 1:
        entry["verdict"] = "skipped"
        entry["skip_reason"] = (f"only {len(usable)} usable primes for "
                                f"degree {degree}")
        return entry

    extended = list(usable)
    extension_records: list[dict] = []
    remaining = [p for p in QUASI_EXTENSION if p not in config.primes]

    def extend_with(p: int) -> None:
        result = plan.count(p)
        if not isinstance(result, Skip):
            extended.append((p, result))
            extension_records.append({"p": p, "count": result})

    # every fit gets at least one redundant point
    while len(extended) < degree + 2 and remaining:
        extend_with(remaining.pop(0))

    fit_points = extended[:degree + 1]
    try:
        fitted = lagrange_fit(fit_points, degree)
    except FitError:
        fitted = None

    if fitted is not None:
        report = consistency_check(fitted, extended, degree)
        if report.status == EXACT:
            entry["fit"] = _poly_json(fitted)
            if extension_records:
                entry["extension_records"] = extension_records
            if fitted == plan.reference:
                entry["verdict"] = "match"
            else:
                entry["verdict"] = "mismatch"
                entry["diff"] = [{"degree": k, "fit": x, "reference": y}
                                 for k, x, y in compare(fitted, plan.reference).diffs]
            return _maybe_brute_confirm(entry, plan, usable)

    # not a single polynomial: top up each mod-4 residue class until a
    # branch fit there would be falsifiable, then classify
    def short_classes() -> set[int]:
        return {r for r in (1, 3)
                if sum(1 for p, _ in extended if p % 4 == r) < degree + 2}

    for p in remaining:
        shorts = short_classes()
        if not shorts:
            break
        if p % 4 in shorts:
            extend_with(p)
    if extension_records:
        entry["extension_records"] = extension_records
    probe_poly = fitted if fitted is not None else plan.reference
    report = consistency_check(probe_poly, extended, degree)
    if report.status == QUASI:
        entry["fit"] = {
            "status": "quasi-polynomial",
            "modulus": report.modulus,
            "branches": {str(r): _poly_json(b)
                         for r, b in sorted(report.branches.items())},
        }
        entry["verdict"] = "quasi-polynomial"
    else:
        entry["verdict"] = "inconsistent"
        entry["residuals"] = [
            {"p": p, "count": c, "predicted": pr}
            for p, c, pr in report.residuals if c != pr]
    return _maybe_brute_confirm(entry, plan, usable)


def _maybe_brute_confirm(entry: dict, plan: TargetPlan,
                         usable: list[tuple[int, int]]) -> dict:
    """Non-matching verdicts require the oracle to confirm the counts; it
    counts the same spec as the fast path."""
    p = plan.brute_prime
    if entry["verdict"] in ("match", "skipped") or p not in dict(usable):
        return entry
    try:
        brute = brute_force_count(p, plan.spec(p))
    except OracleRangeError:
        return entry
    fast = dict(usable)[p]
    entry["brute_confirmed"] = bool(brute == fast)
    entry["brute_value"] = {"p": p, "brute": brute, "fast": fast}
    if brute != fast:
        entry["verdict"] = "inconsistent"
    return entry


def _poly_json(poly: EPolynomial | None) -> dict | None:
    if poly is None:
        return None
    return {"coeffs": list(poly.coeffs), "text": str(poly)}


def run_verification(scope: str, config: RunConfig) -> dict:
    """The full pipeline for one scope; returns the report dict."""
    plans = verification_plan(scope)

    max_degree = max((pl.reference.degree() for pl in plans), default=0)
    if len(config.primes) < max_degree + 1:
        raise ConfigError(
            f"panel of {len(config.primes)} primes cannot pin degree "
            f"{max_degree}; need at least {max_degree + 1}")

    targets = [_evaluate_target(pl, config) for pl in plans]
    identities = _symbolic_identities() + _count_identities(scope, config)

    probes = ([monodromy_probe(p) for p in IDENTITY_PRIMES]
              if scope in ("zbar", "all") else [])

    must_failures = [t["id"] for t in targets
                     if t["must_match"] and t["verdict"] != "match"]
    identity_failures = [row["name"] for row in identities if not row["pass"]]
    warnings = [t["id"] for t in targets
                if not t["must_match"] and t["verdict"] not in ("match", "skipped")]
    unconfirmed = [t["id"] for t in targets
                   if t["verdict"] in ("mismatch", "quasi-polynomial", "inconsistent")
                   and t.get("brute_confirmed") is False]
    exit_code = 1 if (must_failures or identity_failures or unconfirmed) else 0

    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "scope": scope,
            "primes": list(config.primes),
            # fixed by schema /1; the knobs they recorded are gone
            "threads": 1,
            "cache_dir": None,
            "quasi_extension_primes": list(QUASI_EXTENSION),
        },
        "targets": targets,
        "identities": identities,
        "probe": probes,
        "summary": {
            "targets": len(targets),
            "must_match_failures": must_failures,
            "identity_failures": identity_failures,
            "warnings": warnings,
            "exit_code": exit_code,
        },
    }


# ---------------------------------------------------------------------------
# count-target parsing


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{text!r} is not an integer") from None


def parse_class(text: str) -> GeometricClass:
    text = text.strip().lower()
    fixed = {"w0": W0, "w1": W1, "w2": W2, "w3": W3, "w4any": W4ANY}
    if text in fixed:
        return fixed[text]
    if text.startswith("w4="):
        return w4(_int(text[3:]))
    raise ConfigError(f"unknown class {text!r} (use w0|w1|w2|w3|w4any|w4=LAM)")


def parse_target(text: str, p: int) -> "TargetSpec | Skip":
    """The set a `charvar count` target names at p, or why p has none."""
    text = text.strip()
    low = text.lower()
    if low.startswith("commfiber:"):
        what = low.split(":", 1)[1]
        fixed = {"id": SL2Element.identity, "-id": SL2Element.minus_identity,
                 "j+": SL2Element.jplus, "j-": SL2Element.jminus}
        if what in fixed:
            return CommutatorFiber(fixed[what](p))
        if what == "xi":
            what = fill("xi={lam}", p)
            if isinstance(what, Skip):
                return what
        if not what.startswith("xi="):
            raise ConfigError(f"unknown commutator-fiber target {what!r}")
        lam = _int(what[3:]) % p
        if lam in (0, 1, p - 1):
            return Skip(f"lambda {what[3:]} is 0 or ±1 mod {p}")
        return CommutatorFiber(SL2Element.diagonal(lam, p))
    if low.startswith("zbar"):
        head, _, args = low.partition("=")
        if head not in ZBAR_ARITY:
            raise ConfigError(f"unknown barred case {head!r}")
        want = ZBAR_ARITY[head]
        lams = [_int(x) for x in args.split(",")] if args else []
        if lams and len(lams) != want:
            raise ConfigError(f"{head} takes {want} parameter(s)")
        if p < 5:
            return Skip("barred-set counts need p >= 5")
        if not lams and want:      # p >= 5 always has a first {lam}
            lams = [int(fill("{lam}", p))] * want
        case = ZbarCase(head, *lams)
        try:
            case.target_matrix(p)
        except ValueError as e:
            return Skip(str(e))
        return case
    if low.startswith("zfull:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ConfigError("zfull takes exactly two classes: zfull:CLS,CLS")
        s1, s2 = parse_class(parts[0]), parse_class(parts[1])
        for s in (s1, s2):
            if s.kind == "W4":
                try:
                    s.lam_mod(p)
                except ValueError as e:
                    return Skip(str(e))
        return ZFull(s1, s2)
    if low.startswith("xstratum:"):
        try:
            return XStratum(text.split(":", 1)[1].upper())
        except ValueError as e:
            raise ConfigError(str(e)) from None
    if low.startswith("dcfiber="):
        args = [_int(x) for x in low.split("=", 1)[1].split(",")]
        if len(args) not in (3, 4):
            raise ConfigError("dcfiber=LAM,MU,T2[,T1]")
        lam, mu, t2 = args[0] % p, args[1] % p, args[2] % p
        if lam in (0, 1, p - 1) or mu in (0, 1, p - 1):
            return Skip("lam and mu must avoid {0, ±1} mod p")
        t1 = args[3] % p if len(args) == 4 else None
        return DiagonalCommutatorFiber(lam, mu, t2, t1)
    raise ConfigError(f"cannot parse target {text!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_blocks(args) -> int:
    blocks = building_blocks()
    checks = block_identities(blocks)
    payload = {"blocks": {k: _poly_json(v) for k, v in blocks.items()},
               "identities": [{"name": k, "pass": v} for k, v in checks.items()]}
    lines = ["building blocks (E-polynomials in q):"]
    width = max(map(len, blocks))
    for name, poly in blocks.items():
        lines.append(f"  {name:<{width}}  {poly}")
    lines.append("identity checks:")
    for name, ok in checks.items():
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
    return _emit(args, payload, "\n".join(lines), 0 if all(checks.values()) else 1)


def cmd_derive(args) -> int:
    result = derive_case(args.case)      # argparse has checked the case
    ok = result.e_moduli == stated_results()[args.case]
    payload = {
        "case": result.case,
        "strata": [{"name": n, "value": _poly_json(v)} for n, v in result.strata],
        "zbar": _poly_json(result.zbar),
        "reducible_locus": _poly_json(result.reducible_locus),
        "zbar_star": _poly_json(result.zbar_star),
        "divisor": _poly_json(result.quotient_divisor),
        "correction": _poly_json(result.quotient_correction),
        "e_moduli": _poly_json(result.e_moduli),
        "has_reducibles": result.reducible_locus is not None,
        "matches_stated_result": ok,
    }
    lines = [f"case {result.case}:"]
    for name, value in result.strata:
        lines.append(f"  {name:<40} {value}")
    lines.append(f"  {'total e(Zbar)':<40} {result.zbar}")
    if result.reducible_locus is not None:
        lines.append(f"  {'reducible locus':<40} {result.reducible_locus}")
        lines.append(f"  {'e(Zbar*)':<40} {result.zbar_star}")
    lines.append(f"  {'divide by':<40} {result.quotient_divisor}")
    if not result.quotient_correction.is_zero():
        lines.append(f"  {'quotient correction':<40} {result.quotient_correction}")
    lines.append(f"  {'e(R)':<40} {result.e_moduli}")
    lines.append(f"  stated result check: {'pass' if ok else 'FAIL'}")
    return _emit(args, payload, "\n".join(lines), 0 if ok else 1)


def cmd_count(args) -> int:
    config = _config_from(args)
    rows = []
    for p in config.primes:
        spec = parse_target(args.target, p)
        if isinstance(spec, Skip):
            rows.append({"p": p, "target": args.target, "skipped": spec.reason})
            continue
        t0 = time.perf_counter()
        try:
            if args.method == "brute":
                count = brute_force_count(p, spec)
            else:
                count = fast_count(p, spec)
        except OracleRangeError as e:
            rows.append({"p": p, "target": args.target, "skipped": str(e)})
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append({"p": p, "target": args.target, "count": count,
                     "method": args.method,
                     "ms": ms if config.timings else None,
                     "params": spec.describe()})
    lines = []
    for r in rows:
        if "skipped" in r:
            lines.append(f"p={r['p']:<3} skipped: {r['skipped']}")
        else:
            lines.append(f"p={r['p']:<3} count={r['count']} ({r['method']})")
    return _emit(args, {"records": rows}, "\n".join(lines), to_csv=_records_csv)


def cmd_verify(args) -> int:
    report = run_verification(args.scope, _config_from(args))
    return _emit(args, report, _report_text(report),
                 report["summary"]["exit_code"], _report_csv)


def cmd_hodge(args) -> int:
    try:
        e_coeffs = tuple(int(x) for x in args.epoly.split(","))
        poincare = tuple(int(x) for x in args.poincare.split(","))
        betti = compact_betti_from_poincare(poincare, args.dim)
        tables = enumerate_tables(e_coeffs, betti,
                                  weight_bound=not args.no_weight_bound)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    forced = forced_entries(tables) if tables else {}
    payload = {
        "e_coeffs": list(e_coeffs),
        "compact_betti": list(betti.values),
        "dimension": args.dim,
        "weight_bound": not args.no_weight_bound,
        "n_tables": len(tables),
        "forced_entries": [{"k": k, "p": p, "value": v}
                           for (k, p), v in sorted(forced.items())],
    }
    if args.dump_tables:
        payload["tables"] = [[list(row) for row in t.h] for t in tables]
    lines = [f"solutions: {len(tables)} table(s) "
             f"(weight bound {'off' if args.no_weight_bound else 'on'})"]
    if args.no_weight_bound:
        lines.append("warning: without the weight bound the table count is "
                     "not the constrained solution count")
    lines.append("forced nonzero entries:")
    for (k, p), v in sorted(forced.items()):
        if v:
            lines.append(f"  h[{k}][{p}] = {v}")
    zeros = sum(1 for v in forced.values() if not v)
    lines.append(f"  ... plus {zeros} forced zero entries")
    if args.dump_tables:
        for i, t in enumerate(tables):
            lines.append(f"table {i}:")
            for k, row in enumerate(t.h):
                lines.append(f"  k={k}: {list(row)}")
    return _emit(args, payload, "\n".join(lines))


def cmd_probe(args) -> int:
    try:
        config = _config_from(args)
        reports = [monodromy_probe(p) for p in config.primes]
    except ValueError as e:     # ConfigError, or a prime below 5
        print(f"error: {e}", file=sys.stderr)
        return 2
    lines = []
    for r in reports:
        lines.append(f"p={r['p']}: union of diagonal fibers = {r['union_count']}; "
                     f"reference values {r['xbar4_reference_value']} (union family) "
                     f"and {r['xbar4_quotient_reference_value']} (quotient family)")
        lines.append(f"  per-lambda fibers: {r['per_lambda']}")
        lines.append(f"  lambda square classes: {r['lambda_classes']}")
    return _emit(args, {"probe": reports}, "\n".join(lines))


# ---------------------------------------------------------------------------
# rendering


def _records_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "params", "p", "count", "method", "ms", "skipped"])
    for r in payload["records"]:
        writer.writerow([r.get("target", ""), json.dumps(r.get("params", {})),
                         r["p"], r.get("count", ""), r.get("method", ""),
                         "" if r.get("ms") is None else r["ms"],
                         r.get("skipped", "")])
    return buf.getvalue()


def _report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "params", "p", "count", "method", "ms", "verdict"])
    for t in report["targets"]:
        for rec in t["records"]:
            writer.writerow([t["id"], json.dumps(t["params"]), rec["p"],
                             "" if rec.get("count") is None else rec["count"],
                             rec.get("method") or "",
                             "" if rec.get("ms") is None else rec["ms"],
                             t["verdict"]])
    return buf.getvalue()


def _report_text(report: dict) -> str:
    lines = [f"verification report (scope={report['config']['scope']}, "
             f"primes={report['config']['primes']})"]
    lines.append("targets:")
    for t in report["targets"]:
        mark = "must" if t["must_match"] else "warn"
        lines.append(f"  [{t['verdict']:<16}] ({mark}) {t['id']}: "
                     f"reference {t['reference']['text']}")
        if t["verdict"] == "quasi-polynomial":
            for r, b in t["fit"]["branches"].items():
                lines.append(f"      branch p%{t['fit']['modulus']}=={r}: {b['text']}")
        elif t["verdict"] == "mismatch" and t["fit"]:
            lines.append(f"      fitted: {t['fit']['text']}")
        if t.get("brute_confirmed") is not None:
            bv = t["brute_value"]
            lines.append(f"      oracle at p={bv['p']}: brute={bv['brute']} "
                         f"fast={bv['fast']} "
                         f"({'confirmed' if t['brute_confirmed'] else 'DISAGREES'})")
    lines.append("identities:")
    for row in report["identities"]:
        where = f" @p={row['p']}" if row["p"] is not None else ""
        lines.append(f"  [{'pass' if row['pass'] else 'FAIL'}] {row['name']}{where}")
    if report["probe"]:
        lines.append("monodromy probe:")
        for r in report["probe"]:
            lines.append(f"  p={r['p']}: union {r['union_count']} vs "
                         f"{r['xbar4_reference_value']} / "
                         f"{r['xbar4_quotient_reference_value']}; "
                         f"per-lambda {r['per_lambda']}")
    s = report["summary"]
    lines.append(f"summary: {s['targets']} targets; "
                 f"must-match failures: {s['must_match_failures'] or 'none'}; "
                 f"warnings: {s['warnings'] or 'none'}; "
                 f"exit code {s['exit_code']}")
    return "\n".join(lines)


def _emit(args, payload: dict, text: str, code: int = 0, to_csv=None) -> int:
    """Write a subcommand's output in args.format (the payload as json, its
    to_csv rendering, or the text) to args.output or stdout; return code."""
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = to_csv(payload)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as e:
            raise ConfigError(f"cannot write {args.output}: {e.strerror}") from None
    else:
        print(text)
    return code


def _config_from(args) -> RunConfig:
    primes = DEFAULT_PANEL
    if getattr(args, "primes", None):
        primes = tuple(_int(x) for x in args.primes.split(","))
    return RunConfig(primes=primes, timings=getattr(args, "timings", False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Point counts and E-polynomial verification for SL(2) "
                    "character varieties of a twice-marked genus-1 curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, primes=True, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write to file instead of stdout")
        if primes:
            p.add_argument("--primes", help="comma-separated odd primes "
                           f"(default {','.join(map(str, DEFAULT_PANEL))})")
            p.add_argument("--timings", action="store_true",
                           help="emit real wall times (breaks byte determinism)")

    p = sub.add_parser("blocks", help="print the building-block table")
    common(p, primes=False)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("derive", help="replay one case derivation")
    p.add_argument("case", choices=CASE_IDS)
    common(p, primes=False)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("count", help="count one target across primes")
    p.add_argument("target",
                   help="commfiber:{id,-id,j+,j-,xi=LAM} | zbar22 | zbar23 | "
                        "zbar24[=LAM] | zbar34[=LAM] | zbar44[=L1,L2] | "
                        "zfull:CLS,CLS (CLS: w0|w1|w2|w3|w4any|w4=LAM) | "
                        "xstratum:{X0..X4} | dcfiber=LAM,MU,T2[,T1]")
    p.add_argument("--method", choices=("fast", "brute"), default="fast")
    common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run the verification pipeline")
    p.add_argument("scope", choices=("blocks", "zbar", "zfull", "all"))
    common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hodge", help="enumerate Hodge-number tables")
    di = default_instance()
    p.add_argument("--epoly", default=",".join(map(str, di[0])),
                   help="E-polynomial coefficients, ascending")
    p.add_argument("--poincare", default=",".join(map(str, di[1])),
                   help="ordinary Poincare coefficients, ascending in t")
    p.add_argument("--dim", type=int, default=di[2])
    p.add_argument("--no-weight-bound", action="store_true",
                   help="drop the smoothness weight bound 2p <= k")
    p.add_argument("--dump-tables", action="store_true")
    common(p, primes=False)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("probe", help="diagonal-fiber union vs reference values")
    common(p)
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
