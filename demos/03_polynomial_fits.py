"""Counts across primes, exact interpolation, and what actually matches.

The punchline of this demo: some solution sets are polynomial in p and
reproduce their E-polynomials on the nose, others depend on quadratic
residues.  The mod-4 and square-class structure below is genuine
arithmetic, confirmed by the brute-force oracle at small primes.
"""

from charvar import (SL2Element, ZbarCase, compare, consistency_check,
                     count_commutator_fiber, count_zbar, building_blocks,
                     lagrange_fit, is_square_mod, stated_zbar_totals)

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
blocks = building_blocks()

# A clean case: the fiber over J+ is the E-polynomial at every prime.
records = [(p, count_commutator_fiber(p, SL2Element.jplus(p))) for p in PRIMES]
fit = lagrange_fit(records[:4], 3)
report = consistency_check(fit, records)
print(f"fiber over J+: fit {fit} ({report.status}), "
      f"reference comparison: {compare(fit, blocks['Xbar2'])}")

# A mod-4 case: the fiber over J- depends on whether -1 is a square.
records = [(p, count_commutator_fiber(p, SL2Element.jminus(p))) for p in PRIMES]
extended = records + [(p, count_commutator_fiber(p, SL2Element.jminus(p)))
                      for p in (37, 41, 43, 47)]
report = consistency_check(blocks["Xbar3"], extended)
print(f"\nfiber over J-: {report.status} modulo {report.modulus}")
for residue, branch in sorted(report.branches.items()):
    print(f"  p % 4 == {residue}: {branch}")

# A square-class case: the fiber over diag(lam, 1/lam) has one value for
# square lam and another for nonsquare lam.
p = 13
by_class = {True: set(), False: set()}
for lam in range(2, p - 1):
    by_class[is_square_mod(lam, p)].add(
        count_commutator_fiber(p, SL2Element.diagonal(lam, p)))
print(f"\ndiag fibers at p={p}: square lambdas -> {sorted(by_class[True])}, "
      f"nonsquare -> {sorted(by_class[False])}")
print(f"reference e(Xbar4lam)(13) = {blocks['Xbar4lam'].evaluate(13)}, "
      f"(q-1)^3 = {(13 - 1) ** 3}")

# The barred sets inherit the same arithmetic.  Zbar22 is exactly
# polynomial; Zbar24 never equals its E-polynomial, in either class.
records = [(p, count_zbar(p, ZbarCase("zbar22"))) for p in PRIMES]
fit = lagrange_fit(records[:6], 5)
print(f"\nZbar22 fit: {fit} "
      f"(reference match: {compare(fit, stated_zbar_totals()['J+J+']).equal})")

sq = [(p, count_zbar(p, ZbarCase("zbar24", 4))) for p in PRIMES if p >= 7]
fit = lagrange_fit(sq[:6], 5)
print(f"Zbar24 with square lambda=4: fit {fit}")
print("  (the reference q^5 + q^3 - q^2 - 1 is not attained; "
      "the verify pipeline reports this as a brute-confirmed mismatch)")
