"""The symbolic side: building blocks and the five case derivations.

Everything here is exact integer-polynomial arithmetic; no counting.
"""

from charvar import CASE_IDS, block_identities, building_blocks, derive_case

# The E-polynomials every derivation draws from.  These are transcribed
# constants; the identity checks below are what pins them.
blocks = building_blocks()
print("building blocks:")
for name, poly in blocks.items():
    print(f"  e({name}) = {poly}")

print("\ninternal identities:")
for name, ok in block_identities(blocks).items():
    print(f"  {name}: {'ok' if ok else 'BROKEN'}")

# Each two-puncture case is a stratum sum, an optional reducible-locus
# subtraction, and an exact division by the stabiliser polynomial.
print("\ncase derivations:")
for case in CASE_IDS:
    result = derive_case(case)
    print(f"\n  {case}:")
    for label, value in result.strata:
        print(f"    {label:<40} {value}")
    print(f"    {'e(Zbar)':<40} {result.zbar}")
    if result.reducible_locus is not None:
        print(f"    {'reducible locus':<40} {result.reducible_locus}")
        print(f"    {'e(Zbar*)':<40} {result.zbar_star}")
    print(f"    e(R) = e(Zbar*)/{result.quotient_divisor}"
          f"{' + ' + str(result.quotient_correction) if not result.quotient_correction.is_zero() else ''}"
          f" = {result.e_moduli}")
