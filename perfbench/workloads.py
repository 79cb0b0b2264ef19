"""The four benchmark workloads: seeded inputs, set-up, one round, checks.

Each workload is one closed-loop client in one process at the default
thread count.  A round has a fixed composition, so quantiles stay
comparable across seeds; the seed picks parameters and order inside it.
Program calls go through module attributes (`counting.fast_count`, not a
bound name) so the traced run sees them after the spans are installed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from charvar import cli, counting, epoly, hodge, interpolate, sl2, strata

COUNT_PRIMES = (31, 53, 89)
W4ANY_FIRST_MAX_PRIME = 53      # w4any as first class: 0.6 s at 53, 5.4 s at 89
DCFIBER_PRIMES = (89,)
FIT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
FIT_MAX_DEGREE = 7
CLASS_KEYS = ("w0", "w1", "w2", "w3", "w4", "w4any")


# ---------------------------------------------------------------------------
# target catalogue, written in the `charvar count` target syntax


def _is_square(a: int, p: int) -> bool:
    return pow(a, (p - 1) // 2, p) == 1


def _spread(xs: list, k: int = 4) -> list:
    """Up to k items spread evenly over xs, always the same ones."""
    return [xs[i * len(xs) // k] for i in range(min(k, len(xs)))]


def _lambdas(p: int) -> tuple[list[int], list[int]]:
    adm = list(range(2, p - 1))
    return ([x for x in adm if _is_square(x, p)],
            [x for x in adm if not _is_square(x, p)])


def _zbar44_pools(p: int) -> dict[str, list[str]]:
    sq, nsq = _lambdas(p)
    adm = sorted(sq + nsq)
    same, cross, special = [], [], []
    for l1 in adm:
        for l2 in adm:
            if l2 in (l1, pow(l1, -1, p)):
                continue
            if l2 == p - l1:
                special.append((l1, l2))
            elif _is_square(l1, p) == _is_square(l2, p):
                same.append((l1, l2))
            else:
                cross.append((l1, l2))
    return {
        "equal-sq": [f"zbar44={x},{x}" for x in _spread(sq)],
        "equal-nsq": [f"zbar44={x},{x}" for x in _spread(nsq)],
        "generic-same": [f"zbar44={a},{b}" for a, b in _spread(same)],
        "generic-cross": [f"zbar44={a},{b}" for a, b in _spread(cross)],
        "special": [f"zbar44={a},{b}" for a, b in _spread(special)],
    }


def _class_options(p: int, key: str) -> list[str]:
    if key != "w4":
        return [key]
    sq, nsq = _lambdas(p)
    return [f"w4={x}" for x in _spread(sq, 2) + _spread(nsq, 2)]


def catalogue(p: int) -> list[list[str]]:
    """Target shapes at p; each shape lists the concrete targets it draws from."""
    sq, nsq = _lambdas(p)
    shapes = [["commfiber:id"], ["commfiber:-id"], ["commfiber:j+"], ["commfiber:j-"],
              [f"commfiber:xi={x}" for x in _spread(sq)],
              [f"commfiber:xi={x}" for x in _spread(nsq)],
              ["zbar22"], ["zbar23"]]
    for case in ("zbar24", "zbar34"):
        shapes += [[f"{case}={x}" for x in _spread(sq)],
                   [f"{case}={x}" for x in _spread(nsq)]]
    shapes += list(_zbar44_pools(p).values())
    for first in CLASS_KEYS[:5]:
        for second in CLASS_KEYS:
            shapes.append([f"zfull:{a},{b}" for a in _class_options(p, first)
                           for b in _class_options(p, second)])
    if p <= W4ANY_FIRST_MAX_PRIME:
        # one shape, not six: each call costs as much as 40 others at p=53
        shapes.append([f"zfull:w4any,{b}" for c in CLASS_KEYS
                       for b in _class_options(p, c)])
    shapes += [[f"xstratum:X{i}"] for i in range(5)]
    if p in DCFIBER_PRIMES:
        shapes.append(["dcfiber=2,3,5", "dcfiber=5,7,11", "dcfiber=10,20,30",
                       "dcfiber=17,29,44"])
    return [shape for shape in shapes if shape]


def _geometric(text: str, p: int):
    fixed = {"w0": sl2.W0, "w1": sl2.W1, "w2": sl2.W2, "w3": sl2.W3, "w4any": sl2.W4ANY}
    return fixed[text] if text in fixed else sl2.w4(int(text[3:]))


def spec_of(key: str, p: int):
    """Target key -> counting target spec at p."""
    if key.startswith("zfull:"):
        a, b = key.split(":", 1)[1].split(",")
        return counting.ZFull(_geometric(a, p), _geometric(b, p))
    head, _, args = key.partition("=")
    nums = [int(x) for x in args.split(",")] if args else []
    if head.startswith("commfiber:"):
        what = head.split(":", 1)[1]
        makers = {"id": sl2.SL2Element.identity, "-id": sl2.SL2Element.minus_identity,
                  "j+": sl2.SL2Element.jplus, "j-": sl2.SL2Element.jminus}
        if what == "xi":
            return counting.CommutatorFiber(sl2.SL2Element.diagonal(nums[0], p))
        return counting.CommutatorFiber(makers[what](p))
    if head.startswith("zbar"):
        return counting.ZbarCase(head, *nums)
    if head.startswith("xstratum:"):
        return counting.XStratum(head.split(":", 1)[1])
    if head == "dcfiber":
        return counting.DiagonalCommutatorFiber(*nums)
    raise ValueError(f"unknown target key {key!r}")


# ---------------------------------------------------------------------------
# operation log


class OpLog:
    """Latency of every operation, failures against attempts, and counters."""

    def __init__(self):
        self.ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counters: dict[str, float] = {}

    def call(self, label: str, fn, check):
        """Time fn(); check(result) returns None when the result is right."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is a failed one
            self.ms.append((time.perf_counter() - t0) * 1000.0)
            self._fail(label, f"raised {exc!r}")
            return None
        self.ms.append((time.perf_counter() - t0) * 1000.0)
        problem = check(result)
        if problem:
            self._fail(label, problem)
        return result

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {problem}")


def _equal(want):
    return lambda got: None if got == want else f"got {got}, expected {want}"


# ---------------------------------------------------------------------------
# workloads


class VerifyAll:
    """`verify all` on the default panel, cold, once per process."""

    one_round = True
    min_rounds = 1

    def __init__(self, seed: int, smoke: bool, expected: dict):
        # no generated input: the seed is ignored
        self.scope = "zbar" if smoke else "all"
        self.sha = expected["verify"]["smoke_sha256" if smoke else "all_sha256"]

    def setup(self) -> None:
        pass

    def round(self, log: OpLog) -> None:
        log.call(f"verify {self.scope}",
                 lambda: cli.run_verification(self.scope, cli.RunConfig()),
                 lambda report: self._check(report, log))

    def _check(self, report: dict, log: OpLog) -> str | None:
        targets = report["targets"]
        log.count("cli.extension_counts",
                  sum(len(t.get("extension_records", [])) for t in targets))
        confirmed = [t for t in targets if t.get("brute_confirmed") is not None]
        log.count("cli.oracle_confirmations", len(confirmed))
        log.count("cli.count_records", sum(len(t["records"]) for t in targets))
        log.count("oracle.checks", len(confirmed))
        log.count("oracle.agree", sum(1 for t in confirmed if t["brute_confirmed"]))
        code = report["summary"]["exit_code"]
        if code != 0:
            return f"exit code {code}"
        sha = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
        return None if sha == self.sha else f"report sha {sha}, expected {self.sha}"


class CountQueries:
    """Warm fast_count queries over a fixed catalogue of target shapes."""

    one_round = False
    min_rounds = 2      # >= 2 passes put more than 10 samples beyond p95
    # p=89 shapes are queried twice per pass.  It is the prime whose table
    # does not fit in cache, and the weight puts the median inside the p=53
    # queries and p95 inside the p=89 ones rather than on a jump between
    # primes, where the quantiles would swing from run to run.
    WEIGHTS = {31: 1, 53: 1, 89: 2}

    def __init__(self, seed: int, smoke: bool, expected: dict):
        self.rng = random.Random(seed)
        self.primes = COUNT_PRIMES[:1] if smoke else COUNT_PRIMES
        self.shapes = [(p, shape) for p in self.primes for shape in catalogue(p)
                       for _ in range(self.WEIGHTS[p])]
        self.expected = expected["count_queries"]

    def setup(self) -> None:
        for p in self.primes:
            sl2.group_table(p)
            counting.commutator_fiber_distribution(p)

    def round(self, log: OpLog) -> None:
        picks = [(p, self.rng.choice(shape)) for p, shape in self.shapes]
        self.rng.shuffle(picks)
        for p, key in picks:
            spec = spec_of(key, p)
            log.call(f"p={p} {key}", lambda: counting.fast_count(p, spec),
                     _equal(self.expected[f"{p}|{key}"]))


class Oracle:
    """Brute-force oracle calls, each checked against the fast path."""

    one_round = False
    min_rounds = 1

    # Every slot's target kinds are fixed, because the brute cost depends on
    # them (zfull costs |first class| x |G| products per row, and W0/W1
    # masks compare whole matrices); the seed picks targets, lambdas and
    # order.  A round has 5 calls under 60 ms, 9 of 0.3-0.7 s and 3 near
    # 1 s, so the median and p95 fall inside a group, not on a jump.
    CHEAP_ZFULL = (("w0", "w4"),)                          # at p = 5
    ZFULL_SLOTS = (("w2", "w3"), ("w3", "w4any"), ("w4", "w2"), ("w3", "w2"),
                   ("w2", "w4"), ("w4", "w4any"), ("w3", "w4"))   # at p = 7

    def __init__(self, seed: int, smoke: bool, expected: dict):
        self.rng = random.Random(seed)
        self.pair_primes = (5, 7) if smoke else (11, 13)
        self.tuple_primes = (5, 5) if smoke else (5, 7)
        self.tally_prime = 7 if smoke else 13
        keys = {p: [k for shape in catalogue(p) for k in shape]
                for p in self.pair_primes + self.tuple_primes}
        self.commfibers = {p: [k for k in ks if k.startswith("commfiber")]
                           for p, ks in keys.items()}
        self.zbars = {p: [k for k in ks if k.startswith("zbar")] for p, ks in keys.items()}

    def setup(self) -> None:
        pass

    def _targets(self) -> list[tuple[int, str]]:
        """(p, target key) for every brute-force call of one round."""
        rng = self.rng
        out = []
        for p in self.pair_primes:
            adm = range(2, p - 1)
            out += [(p, rng.choice(self.commfibers[p])),
                    (p, f"xstratum:X{rng.randrange(5)}"),
                    (p, f"dcfiber={rng.choice(adm)},{rng.choice(adm)},{rng.randrange(p)}")]
        small, large = self.tuple_primes
        for p, slots in ((small, self.CHEAP_ZFULL), (large, self.ZFULL_SLOTS)):
            out.append((p, rng.choice(self.zbars[p])))
            for first, second in slots:
                a = rng.choice(_class_options(p, first))
                b = rng.choice(_class_options(p, second))
                out.append((p, f"zfull:{a},{b}"))
        rng.shuffle(out)
        return out

    def round(self, log: OpLog) -> None:
        for p, key in self._targets():
            spec = spec_of(key, p)
            log.call(f"brute p={p} {key}",
                     lambda: counting.brute_force_count(p, spec),
                     lambda got: self._agree(log, got, counting.fast_count(p, spec)))
        p = self.tally_prime
        log.call(f"brute tally p={p}", lambda: counting.brute_commutator_tally(p),
                 lambda tally: self._check_tally(log, p, tally))

    def _agree(self, log: OpLog, brute: int, fast: int) -> str | None:
        log.count("oracle.checks")
        if brute != fast:
            return f"brute {brute} != fast {fast}"
        log.count("oracle.agree")
        return None

    def _check_tally(self, log: OpLog, p: int, tally: dict) -> str | None:
        n = p ** 3 - p
        if sum(tally.values()) != n * n:
            return f"tally sums to {sum(tally.values())}, not |G|^2 = {n * n}"
        for g, pairs in tally.items():
            fast = counting.fast_count(p, counting.CommutatorFiber(sl2.SL2Element(*g, p)))
            if self._agree(log, pairs, fast):
                return f"tally at {g}: brute {pairs} != fast {fast}"
        return None


class Exact:
    """Case derivations, Hodge enumeration, and exact fit round-trips."""

    one_round = False
    min_rounds = 1

    def __init__(self, seed: int, smoke: bool, expected: dict):
        self.rng = random.Random(seed)
        ex = expected["exact"]
        self.cases = ex["cases"]
        e_coeffs, poincare, dim = ex["instance"]
        self.instance = (tuple(e_coeffs), tuple(poincare), dim)
        self.n_tables = ex["n_tables"]
        self.n_tables_nowb = ex["n_tables_nowb"]
        self.forced = {(k, p): v for k, p, v in ex["forced"]}

    def setup(self) -> None:
        pass

    # Ten operations a round: each of the six derivations, the two
    # enumerations, the brute-force tables, and all fit round-trips as one
    # batch.  That puts the median inside the many derivation calls and p95
    # in the middle of the brute-force calls, the top tenth, rather than on
    # a jump between two kinds of call.  Single fits take 0.05-3 ms on a
    # smooth continuum whose quantiles move with the seed, hence one batch.

    def round(self, log: OpLog) -> None:
        for case, want in self.cases.items():
            log.call(f"derive {case}", lambda: strata.derive_case(case),
                     lambda res: None if list(res.e_moduli.coeffs) == want
                     else f"derived e(R) is {res.e_moduli}")
        e_coeffs, poincare, dim = self.instance
        betti = hodge.compact_betti_from_poincare(poincare, dim)
        tables = log.call("enumerate", lambda: hodge.enumerate_tables(e_coeffs, betti),
                          self._check_tables)
        log.call("enumerate without weight bound",
                 lambda: hodge.enumerate_tables(e_coeffs, betti, weight_bound=False),
                 lambda ts: _equal(self.n_tables_nowb)(len(ts)))
        log.call("brute-force tables", lambda: hodge.brute_force_tables(e_coeffs, betti),
                 lambda ts: None if tables is not None and set(ts) == set(tables)
                 else "brute-force tables differ from the enumeration")
        trips = [self._fit_input(degree) for degree in range(FIT_MAX_DEGREE + 1)]
        log.call("fit round-trips", lambda: [self._fit_round_trip(*t) for t in trips],
                 lambda problems: "; ".join(p for p in problems if p) or None)

    def _check_tables(self, tables: list) -> str | None:
        if len(tables) != self.n_tables:
            return f"{len(tables)} tables, expected {self.n_tables}"
        forced = hodge.forced_entries(tables)
        wrong = {kp: forced.get(kp) for kp, v in self.forced.items() if forced.get(kp) != v}
        return f"forced entries differ: {wrong}" if wrong else None

    def _fit_input(self, degree: int):
        """A random integer polynomial, its values, and one corrupted point."""
        rng = self.rng
        coeffs = [rng.randint(0, 40) for _ in range(degree)] + [rng.randint(1, 40)]
        truth = epoly.EPolynomial(coeffs)
        points = [(p, truth.evaluate(p)) for p in FIT_PRIMES]
        bad = rng.randrange(degree + 1, len(points))
        corrupted = list(points)
        corrupted[bad] = (points[bad][0], points[bad][1] + rng.randint(1, 9))
        return degree, coeffs, truth, points, corrupted, points[bad][0]

    @staticmethod
    def _fit_round_trip(degree, coeffs, truth, points, corrupted, bad_p) -> str | None:
        """Fit through degree+1 points, check the rest, detect the corruption."""
        fit = interpolate.lagrange_fit(points[:degree + 1], degree)
        if list(fit.coeffs) != coeffs:
            return f"degree {degree}: fitted {fit}, expected {truth}"
        clean = interpolate.consistency_check(truth, points, degree)
        if clean.status != interpolate.EXACT:
            return f"degree {degree}: clean points judged {clean.status}"
        bad = interpolate.consistency_check(truth, corrupted, degree)
        if bad.status == interpolate.EXACT or bad.offending_primes() != (bad_p,):
            return f"degree {degree}: corruption at p={bad_p} not detected ({bad.status})"
        return None


WORKLOADS = {"verify-all": VerifyAll, "count-queries": CountQueries,
             "oracle": Oracle, "exact": Exact}


def cold_state_problems() -> list[str]:
    """Why this process is not cold; empty when no table or fiber data is held."""
    problems = []
    info = getattr(sl2.group_table, "cache_info", None)
    if info is not None and info().currsize:
        problems.append(f"group_table cache holds {info().currsize} tables")
    memo = getattr(counting, "_dist_memo", None)
    if memo:
        problems.append(f"fiber distributions memoised for {sorted(memo)}")
    if getattr(cli.RunConfig(), "cache_dir", None) is not None:
        problems.append("the default run configuration persists distributions")
    return problems
