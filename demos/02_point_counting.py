"""The counting side: SL(2,F_p), conjugacy classes, commutator fibers.

Two ways to count everything: a class-function fast path and a direct
pair-enumeration oracle.  They must agree; the oracle is the referee.
"""

from charvar import (CommutatorFiber, SL2Element, ZbarCase,
                     brute_force_count, class_code, class_size, commutator,
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

# Rational conjugacy classes: p + 4 of them, each named by an integer
# code: 0 Id, 1 -Id, 2/3 trace 2, 4/5 trace -2, 6+t split and 6+p+t
# nonsplit of trace t.  The trace-2 elements split into two classes told
# apart by a quadratic-residue invariant.
for m in (SL2Element.jplus(p), SL2Element(1, 2, 0, 1, p),
          SL2Element.diagonal(2, p)):
    code = class_code(m)
    print(f"{m.entries()}: class code {code}, size {class_size(p, code)}")

# The commutator-fiber distribution: #{(A,B): [A,B] = g} per class.
dist = commutator_fiber_distribution(p)
print(f"\nfiber counts per class at p={p}:")
for code in dist.sizes.nonzero()[0].tolist():
    print(f"  code {code:<3} fiber={dist.fibers[code]:<6} "
          f"size={dist.sizes[code]}")
print(f"total pairs = {dist.fibers @ dist.sizes} = {len(group)}^2")

# Off ±Id the fiber depends only on the trace: codes 2/3 (and 4/5) share
# one fiber, so the fast path reads by_trace, one fiber per trace.
print(f"fiber of a non-central element per trace (by_trace) at p={p}:")
for t in range(p):
    print(f"  trace {t:<3} fiber={dist.by_trace[t]}")

# Fast path vs oracle on a fiber and on a barred set.
target = SL2Element.diagonal(2, p)
fast = count_commutator_fiber(p, target)
brute = brute_force_count(p, CommutatorFiber(target))
print(f"\nfiber over diag(2,3): fast={fast}, brute={brute}")

case = ZbarCase("zbar22")
print(f"Zbar22 at p=5: fast={count_zbar(p, case)}, "
      f"brute={brute_force_count(p, case)}")
