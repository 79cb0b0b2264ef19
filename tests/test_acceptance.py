"""Acceptance suite: one test per criterion, one printed line per criterion.

Expected values follow the oracle-first rule: every count asserted here was
computed by the direct-enumeration oracle before being frozen.  Two spot
values in the original acceptance list were polynomial evaluations that the
oracle refutes (the split-diagonal fiber at p=5 is 64, not 184, because no
admissible lambda is a square mod 5; the crossed-class generic barred count
at p=7 is 16848, not 20376); the tests assert the oracle-confirmed numbers
and the verification pipeline reports the refuted references as classified,
brute-confirmed deviations.
"""

from contextlib import contextmanager
import random
import time

from charvar.cli import RunConfig, run_verification
from charvar.counting import (CommutatorFiber, ZFull, ZbarCase,
                              brute_commutator_tally, brute_force_count,
                              count_commutator_fiber, count_z_full,
                              count_zbar)
from charvar.epoly import EPolynomial, Q
from charvar.hodge import (brute_force_tables, compact_betti_from_poincare,
                           default_instance, enumerate_tables, forced_entries)
from charvar.interpolate import (EXACT, INCONSISTENT, consistency_check,
                                 lagrange_fit)
from charvar.sl2 import (SL2Element, W0, W1, W2, W3, W4ANY,
                         enumerate_sl2, w4)
from charvar.strata import CASE_IDS, derive_case, stated_results, \
    stated_zbar_totals

PANEL = (5, 7, 11, 13, 17, 19, 23, 29, 31)

q = Q


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def test_criterion_1_symbolic_reproduction():
    with criterion(1, "symbolic reproduction"):
        t0 = time.perf_counter()
        results = {case: derive_case(case) for case in CASE_IDS}
        stated = stated_results()
        zbar_stated = stated_zbar_totals()
        assert results["J+J+"].e_moduli == q**4 + q**3 - q + 7
        assert results["J+J-"].e_moduli == q**4 - 3*q**2 - 6*q
        assert results["J+xi"].e_moduli == q**4 + q**3 + 2*q**2 + q + 1
        assert results["xixi-generic"].e_moduli == \
            q**4 + 2*q**3 + 6*q**2 + 2*q + 1
        assert results["xixi-equal"].e_moduli == q**4 + q**3 + 8*q**2 + q + 1
        for case in CASE_IDS:
            assert results[case].e_moduli == stated[case]
            assert results[case].zbar == zbar_stated[case]
        # the two distinct diagonal-holonomy stratifications agree
        gen, spe = results["xixi-generic"], results["xixi-special"]
        assert gen.zbar == spe.zbar
        assert [n for n, _ in gen.strata] != [n for n, _ in spe.strata]
        # intermediate reducible bookkeeping
        assert results["J+J+"].zbar_star == q**5 + q**4 - q**2 + 3*q
        assert results["xixi-equal"].zbar_star == \
            q**5 + 6*q**3 - 4*q**2 - 3*q
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"symbolic replay took {elapsed:.3f}s"


def test_criterion_2_building_block_verification():
    with criterion(2, "building-block count verification"):
        t0 = time.perf_counter()
        report = run_verification("blocks", RunConfig(primes=PANEL))
        verdicts = {t["id"]: t for t in report["targets"]}

        # counts that match their references at every panel prime, as stated
        for tid in ("W2-size", "W4lam-size", "X0", "X1", "Xbar2", "X2"):
            assert verdicts[tid]["verdict"] == "match", tid

        # the square-class lambda series matches the reference exactly
        # (admissible square lambdas exist for p >= 7)
        assert verdicts["Xbar4lam[qr]"]["verdict"] == "match"

        # oracle-confirmed deviations, classified rather than asserted away:
        xb3 = verdicts["Xbar3"]
        assert xb3["verdict"] == "quasi-polynomial"
        assert xb3["fit"]["modulus"] == 4
        assert xb3["fit"]["branches"]["1"]["coeffs"] == [0, 0, 3, 1]
        assert xb3["fit"]["branches"]["3"]["coeffs"] == [0, 0, -3, 1]
        assert xb3["brute_confirmed"] is True

        xb4n = verdicts["Xbar4lam[qnr]"]
        assert xb4n["verdict"] == "mismatch"
        assert xb4n["fit"]["coeffs"] == [-1, 3, -3, 1]   # (q-1)^3
        assert xb4n["brute_confirmed"] is True

        x3 = verdicts["X3"]
        assert x3["verdict"] == "quasi-polynomial"
        assert x3["fit"]["branches"]["1"]["coeffs"] == [0, 0, -3, -1, 3, 1]
        assert x3["brute_confirmed"] is True

        x4 = verdicts["X4"]
        assert x4["verdict"] == "quasi-polynomial"
        assert x4["fit"]["branches"]["1"]["coeffs"] == [0, 2, 3, 0, -4, -2, 1]
        assert x4["brute_confirmed"] is True

        # stratum totals are exact at every panel prime
        totals = [row for row in report["identities"]
                  if row["name"].startswith("X strata sum")]
        assert len(totals) == len(PANEL)
        assert all(row["pass"] for row in totals)

        # lambda-independence holds within each square class
        indep = [row for row in report["identities"]
                 if "constant on" in row["name"]]
        assert indep and all(row["pass"] for row in indep)

        assert report["summary"]["must_match_failures"] == []
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"block verification took {elapsed:.1f}s"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "oracle equivalence"):
        # commutator fibers: every element at p = 3, 5, 7
        for p in (3, 5, 7):
            tally = brute_commutator_tally(p)
            for m in enumerate_sl2(p):
                assert count_commutator_fiber(p, m) == \
                    tally.get(m.entries(), 0), (p, m)

        # spot values, each confirmed by the oracle
        spots = [
            (5, CommutatorFiber(SL2Element.jplus(5)), 60),
            (5, CommutatorFiber(SL2Element.jminus(5)), 200),
            # the split-diagonal fiber: 64 = (q-1)^3, the oracle-confirmed
            # value (the reference polynomial evaluates to 184 there)
            (5, CommutatorFiber(SL2Element.diagonal(2, 5)), 64),
            (5, ZbarCase("zbar22"), 3840),
            (5, ZbarCase("zbar23"), 2600),
            (5, ZbarCase("zbar24", 2), 2560),
            (5, ZbarCase("zbar34", 2), 2560),
            (5, ZbarCase("zbar44", 2, 2), 4544),
            # crossed-class generic pair at p=7: oracle gives 16848 (the
            # reference polynomial evaluates to 20376 there)
            (7, ZbarCase("zbar44", 2, 3), 16848),
            (5, ZFull(W2, W3), 62400),
        ]
        from charvar.counting import fast_count
        for p, spec, frozen in spots:
            fast = fast_count(p, spec)
            brute = brute_force_count(p, spec)
            assert fast == brute == frozen, (p, spec, fast, brute, frozen)


def test_criterion_4_count_identities():
    with criterion(4, "count identities"):
        specs = [W0, W1, W2, W3, w4(2), W4ANY]
        for p in (5, 7):
            # symmetry for all ordered spec pairs
            for s1 in specs:
                for s2 in specs:
                    assert count_z_full(p, s1, s2) == count_z_full(p, s2, s1)
            # negation identities
            assert count_z_full(p, W3, W3) == count_z_full(p, W2, W2)
            for lam in range(2, p - 1):
                assert count_zbar(p, ZbarCase("zbar34", lam)) == \
                    count_zbar(p, ZbarCase("zbar24", (-lam) % p))
            assert count_z_full(p, W3, w4(2)) == \
                count_z_full(p, W2, w4((-2) % p))
            # fibration multiplicativity
            assert count_z_full(p, W2, W3) == \
                (p*p - 1) * count_zbar(p, ZbarCase("zbar23"))
            assert count_z_full(p, W2, w4(2)) == \
                (p*p + p) * count_zbar(p, ZbarCase("zbar24", 2))
            pair = (2, 2) if p == 5 else (2, 3)
            assert count_z_full(p, w4(pair[0]), w4(pair[1])) == \
                (p*p + p) * count_zbar(p, ZbarCase("zbar44", *pair))


def test_criterion_5_zbar_fit_reports_and_probe():
    with criterion(5, "barred-set fit reports and monodromy probe"):
        report = run_verification("zbar", RunConfig(primes=PANEL))
        verdicts = {t["id"]: t for t in report["targets"]}

        # a verdict for every barred case
        expected = {
            "Zbar22": "match",
            "Zbar23": "quasi-polynomial",
            "Zbar24[qr]": "mismatch",
            "Zbar24[qnr]": "mismatch",
            "Zbar34[qr]": "quasi-polynomial",
            "Zbar34[qnr]": "quasi-polynomial",
            "Zbar44[equal]": "match",
            "Zbar44[generic-same]": "match",
            "Zbar44[generic-cross]": "mismatch",
            "Zbar44[special]": "quasi-polynomial",
        }
        for tid, want in expected.items():
            assert verdicts[tid]["verdict"] == want, \
                (tid, verdicts[tid]["verdict"])

        # every non-match within oracle range is brute-confirmed
        for tid, t in verdicts.items():
            if t["verdict"] in ("mismatch", "quasi-polynomial", "inconsistent") \
                    and t["brute_confirmed"] is not None:
                assert t["brute_confirmed"] is True, tid
        confirmed = [tid for tid, t in verdicts.items()
                     if t["brute_confirmed"] is True]
        assert set(confirmed) >= {"Zbar23", "Zbar24[qr]", "Zbar24[qnr]",
                                  "Zbar44[generic-cross]", "Zbar44[special]"}

        # classified branch structure of the mod-4 case
        zb23 = verdicts["Zbar23"]["fit"]
        assert zb23["modulus"] == 4
        assert zb23["branches"]["1"]["coeffs"] == [0, 0, -6, -3, 0, 1]
        assert zb23["branches"]["3"]["coeffs"] == [0, 0, 6, -3, 0, 1]

        # the monodromy probe ran and reports the three-way comparison;
        # the union (2 x 64 = 128 at p=5, oracle-confirmed) coincides with
        # the union-family reference value and documents the divergence
        # from the quotient-family value 316
        probes = {r["p"]: r for r in report["probe"]}
        assert probes[5]["per_lambda"] == {"2": 64, "3": 64}
        assert probes[5]["union_count"] == 128
        assert probes[5]["xbar4_reference_value"] == 128
        assert probes[5]["xbar4_quotient_reference_value"] == 316
        assert probes[7]["union_count"] == 1368

        assert report["summary"]["must_match_failures"] == []
        assert report["summary"]["exit_code"] == 0


def test_criterion_6_hodge_solver():
    with criterion(6, "Hodge table solver"):
        e_coeffs, poincare, dim = default_instance()
        betti = compact_betti_from_poincare(poincare, dim)
        assert betti.values == (0, 0, 0, 0, 10, 2, 3, 0, 1)
        t0 = time.perf_counter()
        tables = enumerate_tables(e_coeffs, betti)
        elapsed = time.perf_counter() - t0
        assert len(tables) == 18
        assert elapsed < 1.0, f"solver took {elapsed:.3f}s"
        forced = forced_entries(tables)
        for p in range(5):
            assert forced[(7, p)] == 0
        for p in range(4):
            assert forced[(8, p)] == 0
        assert forced[(8, 4)] == 1
        assert forced[(6, 3)] == 2
        for k in (4, 5, 7, 8):
            assert forced[(k, 3)] == 0
        # oracle equivalence on the flagship instance
        assert set(tables) == set(brute_force_tables(e_coeffs, betti))
        # and on 20 random small instances
        rng = random.Random(987654)
        for _ in range(20):
            d = rng.randint(1, 2)
            h = [[rng.randint(0, 2) if 2 * p <= k else 0
                  for p in range(d + 1)] for k in range(2 * d + 1)]
            from charvar.hodge import BettiVector
            b = BettiVector(tuple(sum(row) for row in h), d)
            e = [sum((-1) ** k * h[k][p] for k in range(2 * d + 1))
                 for p in range(d + 1)]
            assert set(enumerate_tables(e, b)) == \
                set(brute_force_tables(e, b))


def test_criterion_7_interpolation_properties():
    with criterion(7, "interpolation properties"):
        rng = random.Random(424242)
        for _ in range(30):
            degree = rng.randint(0, 8)
            coeffs = [rng.randint(0, 40) for _ in range(degree + 1)]
            coeffs[-1] = rng.randint(1, 40)
            poly = EPolynomial(coeffs)
            records = [(p, poly.evaluate(p)) for p in PANEL]
            assert lagrange_fit(records, 8) == poly
        # corrupted-count detection names the offender
        poly = q ** 3 - 2 * q ** 2 - 3 * q
        records = [(p, poly.evaluate(p)) for p in PANEL]
        records[5] = (19, records[5][1] + 7)
        report = consistency_check(poly, records)
        assert report.status == INCONSISTENT
        assert report.offending_primes() == (19,)
        clean = consistency_check(poly, [(p, poly.evaluate(p)) for p in PANEL])
        assert clean.status == EXACT
