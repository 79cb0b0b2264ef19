"""Exact count identities: symmetry, negation, fibration multiplicativity.

These hold on the nose for every prime, independent of the E-polynomial
question, because they come from explicit bijections on tuples.
"""

from charvar import (ZbarCase, count_z_full, count_zbar, monodromy_probe,
                     W0, W1, W2, W3, W4ANY, w4)

for p in (5, 7):
    print(f"p = {p}")

    # swapping the two marked points is a bijection
    specs = {"W0": W0, "W1": W1, "W2": W2, "W3": W3, "W4(2)": w4(2),
             "W4any": W4ANY}
    asym = [(n1, n2) for n1 in specs for n2 in specs
            if count_z_full(p, specs[n1], specs[n2])
            != count_z_full(p, specs[n2], specs[n1])]
    print(f"  symmetry violations over all pairs: {asym or 'none'}")

    # negating both Jordan holonomies is a bijection
    print(f"  Z(W3,W3) = {count_z_full(p, W3, W3)} "
          f"= Z(W2,W2) = {count_z_full(p, W2, W2)}")
    lam = 2
    print(f"  Zbar34(2) = {count_zbar(p, ZbarCase('zbar34', lam))} "
          f"= Zbar24(-2) = {count_zbar(p, ZbarCase('zbar24', (-lam) % p))}")

    # fixing the second holonomy to a representative fibers Z over its class
    z23 = count_z_full(p, W2, W3)
    zb23 = count_zbar(p, ZbarCase("zbar23"))
    print(f"  Z23 = {z23} = (p^2-1) * Zbar23 = {(p * p - 1) * zb23}")
    pair = (2, 2) if p == 5 else (2, 3)
    z44 = count_z_full(p, w4(pair[0]), w4(pair[1]))
    zb44 = count_zbar(p, ZbarCase("zbar44", *pair))
    print(f"  Z44{pair} = {z44} = (p^2+p) * Zbar44 = {(p * p + p) * zb44}")
    print()

# The probe: the union of all diagonal-regular fibers, next to the two
# degree-4 reference evaluations it could conceivably equal.  At p=5 it
# equals the union-family value 128 and not the quotient-family 316.
for p in (5, 7):
    r = monodromy_probe(p)
    print(f"probe p={p}: per-lambda {r['per_lambda']} -> union "
          f"{r['union_count']}; references {r['xbar4_reference_value']} / "
          f"{r['xbar4_quotient_reference_value']}")
