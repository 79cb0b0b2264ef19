"""The counting side: SL(2,F_p), conjugacy classes, commutator fibers.

Two ways to count everything: a class-function fast path and a direct
pair-enumeration oracle.  They must agree; the oracle is the referee.
"""

from charvar import (CommutatorFiber, SL2Element, ZbarCase,
                     brute_force_count, commutator,
                     commutator_fiber_distribution, count_commutator_fiber,
                     count_zbar, enumerate_sl2)

p = 5

# SL(2,F_5) has 5^3 - 5 = 120 elements.
group = list(enumerate_sl2(p))
print(f"|SL(2,F_{p})| = {len(group)}")

# A commutator, the atom of everything here.
a = SL2Element(1, 1, 0, 1, p)
b = SL2Element(1, 0, 1, 1, p)
print(f"[{a.entries()}, {b.entries()}] = {commutator(a, b).entries()}")

# Rational conjugacy classes: p + 4 of them, ±Id and the rest told apart
# by trace, except that the trace-±2 elements split into two classes each
# by a quadratic-residue invariant.  Those two classes share one commutator
# fiber, so the counting engine reads ±Id and the trace only.
jplus, other = SL2Element.jplus(p), SL2Element(1, 2, 0, 1, p)
conjugates = {(g * jplus * g.inverse()).entries() for g in group}
print(f"{other.entries()} conjugate to J+: {other.entries() in conjugates}; "
      f"fibers {count_commutator_fiber(p, jplus)} and "
      f"{count_commutator_fiber(p, other)}")

# The commutator-fiber distribution: #{(A,B): [A,B] = g} for g = ±Id and
# for a non-central g of each trace, with the number of such g.
dist = commutator_fiber_distribution(p)
print(f"\nfibers at p={p}: Id {dist.central[0]}, -Id {dist.central[1]}")
for t in range(p):
    print(f"  trace {t:<3} fiber={dist.fibers[t]:<6} size={dist.sizes[t]}")
pairs = sum(dist.central) + sum(f * s for f, s in zip(dist.fibers, dist.sizes))
print(f"total pairs = {pairs} = {len(group)}^2")

# Fast path vs oracle on a fiber and on a barred set.
target = SL2Element.diagonal(2, p)
fast = count_commutator_fiber(p, target)
brute = brute_force_count(p, CommutatorFiber(target))
print(f"\nfiber over diag(2,3): fast={fast}, brute={brute}")

case = ZbarCase("zbar22")
print(f"Zbar22 at p=5: fast={count_zbar(p, case)}, "
      f"brute={brute_force_count(p, case)}")
