"""Counting engine: fast class-function path against the brute oracle.

Every frozen number here was produced by the direct pair-enumeration
oracle (brute_force_count / brute_commutator_tally) before being written
down; fast-path agreement is the contract under test.  The fast path
reads fibers by trace off ±Id; that fold is checked against the oracle at
every element up to the pair guard and, above it, against the vectorised
class-function identity (vector_fiber) on every rational class of the
tests' label_codes.  The closed-form sizes per trace are checked against
the group table, and the trace-histogram kernel against the member sum it
replaces (table rows masked by the oracle's class predicate, multiplied by
T, each product's fiber read on its own: element_fibers) and against the
per-a histogram its closed form replaced (reference_trace_histogram).  The
fast path runs in Python ints with numpy stubbed out.
"""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import charvar.counting as counting
import charvar.sl2 as sl2
from charvar.cli import (IDENTITY_ROWS, _side, lambda_fills, parse_target,
                         verification_plan)
from charvar.counting import (CommutatorFiber, DiagonalCommutatorFiber,
                              ClassDistribution, OracleRangeError, XStratum,
                              ZFull, ZbarCase, brute_commutator_tally,
                              brute_force_count, commutator_fiber_distribution,
                              count_commutator_fiber,
                              count_diagonal_commutator_fiber, count_x_stratum,
                              count_z_full, count_zbar, fast_count,
                              membership_mask, monodromy_probe,
                              trace_histogram)
from charvar.sl2 import (GroupTable, SL2Element, W0, W1, W2, W3, W4ANY,
                         commutator, enumerate_sl2, group_table, inverse_mod,
                         is_odd_prime, is_square_mod, w4)
from class_labels import label_codes, mat_inv, mat_mul


def vector_fiber(table, g) -> int:
    """#{(A,B): [A,B] = g} as the sum of |C(A)| over A with A^{-1}g ~ A^{-1}.

    [A,B] = g means B A^{-1} B^{-1} = A^{-1} g, so for each A with A^{-1} g
    conjugate to A^{-1} the B's form one coset of C(A^{-1}) = C(A).  No
    character theory is used: a second route to the closed forms.
    """
    p = table.p
    inverses = mat_inv(p, table.elements)
    M = mat_mul(p, inverses, np.array(g, dtype=np.int64))
    hit = label_codes(p, M) == label_codes(p, inverses)
    codes = label_codes(p, table.elements)
    code_sizes = np.bincount(codes)
    return int((table.n // code_sizes[codes[hit]]).sum())


def class_rows(table):
    """(code, entries) of the first table row of each realised class."""
    codes, rows = np.unique(label_codes(table.p, table.elements),
                            return_index=True)
    return [(code, tuple(table.elements[row].tolist()))
            for code, row in zip(codes.tolist(), rows.tolist())]


def element_fibers(p, M):
    """fiber of every matrix of M (shape (..., 4)), each read on its own:
    the central fiber at ±Id, the fiber of its trace elsewhere."""
    dist = commutator_fiber_distribution(p)
    scalar = (M[..., 1] == 0) & (M[..., 2] == 0)
    fibers = np.where(scalar & (M[..., 0] == 1), dist.central[0],
                      np.asarray(dist.fibers)[(M[..., 0] + M[..., 3]) % p])
    return np.where(scalar & (M[..., 0] == p - 1), dist.central[1], fibers)


def non_central_sizes(p):
    """#{g != ±Id: tr g = t} per t, counted from the determinant: p - 1
    pairs (b, c) solve bc = a(t - a) - 1 for each a, 2p - 1 at a root."""
    r = np.arange(p, dtype=np.int64)
    sizes = np.array([p * p - p + p * int(((r * (t - r) - 1) % p == 0).sum())
                      for t in range(p)], dtype=np.int64)
    sizes[[2, p - 2]] -= 1
    return sizes


# ---------------------------------------------------------------------------
# distribution structure


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_distribution_consistency(p):
    dist = commutator_fiber_distribution(p)
    n = p ** 3 - p
    assert sum(dist.sizes) + 2 == n
    assert sum(dist.central) + sum(f * s for f, s in
                                   zip(dist.fibers, dist.sizes)) == n * n


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_closed_form_fibers_match_vector_identity(p):
    # one element of each of the p + 4 rational classes, so both unipotent
    # classes of each trace ±2 are checked against their shared fiber
    table = group_table(p)
    rows = class_rows(table)
    assert len(rows) == p + 4
    for code, g in rows:
        assert count_commutator_fiber(p, SL2Element(*g, p)) == \
            vector_fiber(table, g), code


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_closed_form_class_sizes_match_counted_sizes(p):
    table = group_table(p)
    M = table.elements
    central = membership_mask(table, M, W0) | membership_mask(table, M, W1)
    counted = np.bincount((M[~central, 0] + M[~central, 3]) % p, minlength=p)
    assert list(commutator_fiber_distribution(p).sizes) == counted.tolist()
    assert non_central_sizes(p).tolist() == counted.tolist()


def test_check_consistency_refuses_an_off_by_one_fiber_or_size():
    dist = commutator_fiber_distribution(7)
    for field in ("fibers", "sizes"):
        values = list(getattr(dist, field))
        values[3] += 1
        with pytest.raises(ArithmeticError, match="expected"):
            dataclasses.replace(dist, **{field: values}).check_consistency()


def test_check_consistency_sums_exactly_above_int64():
    # at p = 1451 the pairs total |G|^2 > 2^63, so an int64 dot product of
    # fibers and sizes wraps; the check sums in Python ints
    p = 1451
    n = p ** 3 - p
    fibers = tuple(counting._closed_form_fiber(p, t) for t in range(p))
    sizes = tuple(non_central_sizes(p).tolist())
    dist = ClassDistribution(p, (n * (p + 4), n), fibers, sizes)
    dist.check_consistency()
    wrapped = np.array(fibers, dtype=np.int64) @ np.array(sizes, dtype=np.int64)
    assert sum(dist.central) + int(wrapped) != n * n


def test_distribution_frozen_values_at_5():
    dist = commutator_fiber_distribution(5)
    assert dist.central == (1080, 120)                  # Id, -Id
    # trace 0 split, 1 and 4 nonsplit, 2 and 3 = -2 unipotent
    assert dist.fibers == (64, 216, 60, 200, 36)
    assert dist.sizes == (30, 20, 24, 24, 20)


# ---------------------------------------------------------------------------
# commutator fibers: fast path vs oracle


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_fiber_oracle_equivalence_all_classes(p):
    # every element, so both unipotent classes of each trace ±2 meet the
    # oracle through the one fiber the fast path reads for their trace
    tally = brute_commutator_tally(p)
    for m in enumerate_sl2(p):
        assert count_commutator_fiber(p, m) == tally.get(m.entries(), 0), m


def test_fiber_oracle_equivalence_at_11():
    p = 11
    for target in (SL2Element.identity(p), SL2Element.jplus(p),
                   SL2Element.jminus(p), SL2Element.diagonal(2, p),
                   SL2Element.diagonal(3, p)):
        assert count_commutator_fiber(p, target) == \
            brute_force_count(p, CommutatorFiber(target))


def test_fiber_oracle_equivalence_at_guard_boundary():
    # p = 13 is the last prime the pair oracle accepts
    p = 13
    target = SL2Element.jminus(p)
    assert count_commutator_fiber(p, target) == \
        brute_force_count(p, CommutatorFiber(target)) == 2704


def test_fiber_frozen_values_at_5():
    p = 5
    assert count_commutator_fiber(p, SL2Element.identity(p)) == 1080
    assert count_commutator_fiber(p, SL2Element.minus_identity(p)) == 120
    assert count_commutator_fiber(p, SL2Element.jplus(p)) == 60
    assert count_commutator_fiber(p, SL2Element.jminus(p)) == 200
    # the split fiber: both admissible lambdas are nonsquares mod 5 and the
    # count is (q-1)^3, not the q^3+3q^2-3q-1 that square lambdas realize
    assert count_commutator_fiber(p, SL2Element.diagonal(2, p)) == 64
    assert count_commutator_fiber(p, SL2Element.diagonal(3, p)) == 64


def test_fiber_frozen_values_at_7():
    p = 7
    assert count_commutator_fiber(p, SL2Element.identity(p)) == 3696
    assert count_commutator_fiber(p, SL2Element.jplus(p)) == 224
    assert count_commutator_fiber(p, SL2Element.jminus(p)) == 196
    assert count_commutator_fiber(p, SL2Element.diagonal(2, p)) == 468  # 2 square
    assert count_commutator_fiber(p, SL2Element.diagonal(3, p)) == 216  # 3 nonsquare


def test_fiber_at_3():
    p = 3
    assert count_commutator_fiber(p, SL2Element.identity(p)) == 168
    assert brute_force_count(p, CommutatorFiber(SL2Element.identity(p))) == 168
    assert count_commutator_fiber(p, SL2Element.jplus(p)) == 0
    assert brute_force_count(p, CommutatorFiber(SL2Element.jplus(p))) == 0


def test_fiber_is_class_function():
    p = 7
    g = SL2Element(3, 1, 2, 1, p)   # trace 4, nonsplit at 7
    assert label_codes(p, np.array(g.entries())) == 6 + p + 4   # nonsplit
    h = SL2Element(1, 2, 3, 0, p)
    conj = h * g * h.inverse()
    assert count_commutator_fiber(p, g) == count_commutator_fiber(p, conj)


def test_fiber_total_is_all_pairs():
    p = 5
    tally = brute_commutator_tally(p)
    assert sum(tally.values()) == (p ** 3 - p) ** 2


# ---------------------------------------------------------------------------
# barred sets


def test_zbar_frozen_values_and_oracle_at_5():
    p = 5
    cases = [
        (ZbarCase("zbar22"), 3840),
        (ZbarCase("zbar23"), 2600),
        (ZbarCase("zbar24", 2), 2560),
        (ZbarCase("zbar34", 2), 2560),
        (ZbarCase("zbar44", 2, 2), 4544),
    ]
    for case, frozen in cases:
        fast = count_zbar(p, case)
        assert fast == frozen, case
        assert brute_force_count(p, case) == fast, case


def test_zbar44_generic_at_7_oracle():
    case = ZbarCase("zbar44", 2, 3)
    fast = count_zbar(7, case)
    assert fast == 16848
    assert brute_force_count(7, case) == 16848


def test_zbar44_regimes_at_7():
    assert ZbarCase("zbar44", 2, 2).regime(7) == "equal"
    assert ZbarCase("zbar44", 2, 4).regime(7) == "equal"      # 4 = 2^{-1}
    assert ZbarCase("zbar44", 2, 5).regime(7) == "special"    # 5 = -2
    assert ZbarCase("zbar44", 2, 3).regime(7) == "generic"


def test_zbar44_equal_normalization_is_harmless():
    # lam2 = lam1 and lam2 = lam1^{-1} describe conjugate targets
    assert count_zbar(5, ZbarCase("zbar44", 2, 2)) == \
        count_zbar(5, ZbarCase("zbar44", 2, 3))


def test_zbar24_constant_on_square_classes_at_7():
    p = 7
    sq = {count_zbar(p, ZbarCase("zbar24", lam)) for lam in (2, 4)}
    ns = {count_zbar(p, ZbarCase("zbar24", lam)) for lam in (3, 5)}
    assert sq == {16632}
    assert ns == {15120}


def test_zbar_validation():
    with pytest.raises(ValueError):
        ZbarCase("zbar25")
    with pytest.raises(ValueError):
        ZbarCase("zbar22", 2)          # no parameters taken
    with pytest.raises(ValueError):
        ZbarCase("zbar24")             # parameter required
    with pytest.raises(ValueError):
        ZbarCase("zbar44", 2)          # two parameters required
    with pytest.raises(ValueError):
        count_zbar(5, ZbarCase("zbar24", 4))   # 4 = -1 mod 5
    with pytest.raises(ValueError):
        count_zbar(3, ZbarCase("zbar22"))      # p >= 5


# ---------------------------------------------------------------------------
# the trace-histogram kernel against the member sum


def kernel_targets(p):
    """±Id, ±J+, J-, every diag(mu) and, where p > 3 leaves room, one
    upper-triangular T that is neither diagonal nor unipotent."""
    targets = [SL2Element.identity(p), SL2Element.minus_identity(p),
               SL2Element.jplus(p), -SL2Element.jplus(p), SL2Element.jminus(p),
               *(SL2Element.diagonal(mu, p) for mu in range(2, p - 1))]
    if p > 3:
        targets.append(SL2Element(2, 1, 0, inverse_mod(2, p), p))
    return targets


def table_members(table, spec):
    return table.elements[membership_mask(table, table.elements, spec)]


def member_sum(members, T):
    """sum of fiber(T C) over the member rows C, each product read alone."""
    p = T.p
    TC = mat_mul(p, np.array(T.entries(), dtype=np.int64), members)
    return int(element_fibers(p, TC).sum())


ODD_PRIMES = [p for p in range(3, 90, 2) if is_odd_prime(p)]


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p <= 31])
def test_fiber_sum_matches_the_member_sum(p):
    table = group_table(p)
    for spec in [W0, W1, W2, W3] + [w4(lam) for lam in range(2, p - 1)]:
        members = table_members(table, spec)
        for T in kernel_targets(p):
            assert counting._fiber_sum(p, spec, T) == member_sum(members, T), \
                (spec, T)


def plan_pairs(p, monkeypatch):
    """The distinct (S, T) that the verify plan and the count identity
    rows hand the kernel at p."""
    pairs = {}
    kernel = counting._fiber_sum
    monkeypatch.setattr(counting, "_fiber_sum", lambda q, spec, T:
                        pairs.setdefault((spec, T), kernel(q, spec, T)))
    for plan in verification_plan("all"):
        plan.count(p)
    for _, _, rows in IDENTITY_ROWS:
        for _, lhs, rhs, *_ in rows:
            for f in lambda_fills(lhs + rhs, p):
                _side(p, lhs.lstrip("#").format(**f))
                _side(p, rhs.format(**f))
    monkeypatch.undo()
    return pairs


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p >= 37])
def test_fiber_sum_matches_the_member_sum_on_the_plan_pairs(p, monkeypatch):
    pairs = plan_pairs(p, monkeypatch)
    kinds = {spec.kind for spec, _ in pairs}
    assert kinds == {"W0", "W1", "W2", "W3", "W4"}, kinds
    table = GroupTable(p)      # not kept: the cache would hold p^3 rows
    members = {}
    for (spec, T), value in pairs.items():
        if spec not in members:
            members[spec] = table_members(table, spec)
        assert value == member_sum(members[spec], T), (spec, T)


@pytest.mark.parametrize("p", [5, 7, 31])
def test_trace_histogram_matches_the_table_mask(p):
    table = group_table(p)
    for spec in [W2, W3] + [w4(lam) for lam in range(2, p - 1)]:
        members = table_members(table, spec)
        for T in kernel_targets(p):
            TC = mat_mul(p, np.array(T.entries(), dtype=np.int64), members)
            traces = (TC[:, 0] + TC[:, 3]) % p
            assert trace_histogram(p, spec, T) == \
                np.bincount(traces, minlength=p).tolist(), (spec, T)


def reference_trace_histogram(p, spec, T):
    """The O(p) per-a histogram that trace_histogram's closed form replaced:
    each a carries p - 1 pairs (b, c), 2p - 1 at a root of a(t-a) = 1, to
    the trace (x - 1/x) a + t/x when y = 0 or x != ±1; otherwise p pairs
    (a, b) per c != 0 land on x t + y c and p per root on x t."""
    x, y, _, _ = T.entries()
    t, r = spec.trace_mod(p), np.arange(p, dtype=np.int64)
    roots = (r * (t - r) - 1) % p == 0
    h = np.zeros(p, dtype=np.int64)
    if y == 0 or x not in (1, p - 1):
        xi = inverse_mod(x, p)
        np.add.at(h, ((x - xi) * r + t * xi) % p, np.where(roots, 2 * p - 1, p - 1))
    else:
        h[(x * t + y * r[1:]) % p] = p
        h[x * t % p] += p * int(roots.sum())
    if spec.kind != "W4":
        h[(1 if spec.kind == "W2" else -1) * T.trace() % p] -= 1
    return h.tolist()


@pytest.mark.parametrize("p", [p for p in range(3, 102, 2) if is_odd_prime(p)])
def test_trace_histogram_matches_the_per_a_reference(p):
    # W4 at the smallest square and the smallest nonsquare lambda where p
    # has them (no square mod 5 avoids 0 and ±1)
    lams = range(2, p - 1)
    firsts = {is_square_mod(lam, p): lam for lam in reversed(lams)}
    for spec in [W2, W3] + [w4(lam) for lam in sorted(firsts.values())]:
        for T in kernel_targets(p):
            assert trace_histogram(p, spec, T) == \
                reference_trace_histogram(p, spec, T), (spec, T)


@pytest.mark.parametrize("p", [3, 5, 7, 31, 89, 101])
def test_trace_histogram_at_the_identity_sums_to_the_class_size(p):
    for spec in [W2, W3] + [w4(lam) for lam in range(2, p - 1)]:
        h = trace_histogram(p, spec, SL2Element.identity(p))
        assert sum(h) == spec.size(p), spec


def test_trace_histogram_refusals():
    p = 7
    for T in (SL2Element(1, 0, 1, 1, p), SL2Element(2, 0, 3, 4, p),
              SL2Element.identity(5)):
        with pytest.raises(ValueError, match="not an upper-triangular matrix mod 7"):
            trace_histogram(p, W2, T)
    for spec in (W0, W1, W4ANY):
        with pytest.raises(ValueError, match="no trace histogram"):
            trace_histogram(p, spec, SL2Element.identity(p))


# ---------------------------------------------------------------------------
# full tuple sets


def test_fast_path_builds_no_group_table():
    p = 89
    specs = [CommutatorFiber(SL2Element.jminus(p)), ZbarCase("zbar22"),
             ZbarCase("zbar34", 3), ZbarCase("zbar44", 2, 3),
             ZFull(W2, w4(3)), ZFull(W4ANY, W3), XStratum("X4"),
             DiagonalCommutatorFiber(2, 3, 0)]
    sizes = [t for t in verification_plan("blocks") if t.id.endswith("-size")]
    assert len(sizes) == 2
    group_table.cache_clear()
    for spec in specs:
        fast_count(p, spec)
    assert [t.count(p) for t in sizes] == [p * p - 1, p * p + p]
    assert group_table.cache_info().currsize == 0


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the fast path used numpy.{name}")


FAST_TARGETS = [
    "commfiber:id", "commfiber:-id", "commfiber:j+", "commfiber:j-",
    "commfiber:xi=3", "zbar22", "zbar23", "zbar24=2", "zbar34=2",
    "zbar44=2,2", "zbar44=2,3", "zbar44=2,-2", "zfull:w0,w1", "zfull:w2,w3",
    "zfull:w3,w4=2", "zfull:w4=2,w4=3", "zfull:w1,w4any", "zfull:w4any,w2",
    "zfull:w4any,w4any", *(f"xstratum:X{k}" for k in range(5)),
    "dcfiber=2,3,0", "dcfiber=2,3,5,1"]


@pytest.mark.parametrize("p", [89, 101])
def test_fast_path_runs_without_numpy_in_python_ints(p, monkeypatch):
    monkeypatch.setattr(counting, "np", _NoNumpy())
    monkeypatch.setattr(sl2, "np", _NoNumpy())
    monkeypatch.setattr(counting, "_dist_memo", {})
    counts = [fast_count(p, parse_target(text, p)) for text in FAST_TARGETS]
    counts += [t.count(p) for t in verification_plan("blocks")
               if t.id.endswith("-size")]
    assert len(counts) == len(FAST_TARGETS) + 2
    dist = counting._dist_memo[p]
    assert type(dist.fibers) is type(dist.sizes) is tuple
    values = [*counts, *dist.central, *dist.fibers, *dist.sizes]
    assert all(type(v) is int for v in values), \
        {type(v).__name__ for v in values}


def test_fast_path_keeps_the_prime_checks():
    for p in (9, 103):
        with pytest.raises(ValueError):
            commutator_fiber_distribution(p)
        with pytest.raises(ValueError, match="odd prime|enumeration bound"):
            trace_histogram(p, W2, SL2Element.identity(7))
        with pytest.raises(ValueError):
            count_diagonal_commutator_fiber(p, 2, 3, 0)


def _contains(spec, m):
    """Scalar geometric-class membership from the trace and ±Id tests."""
    t, p = m.trace(), m.p
    if spec.kind == "W0":
        return m.is_identity()
    if spec.kind == "W1":
        return m.is_minus_identity()
    if spec.kind == "W2":
        return t == 2 and not m.is_identity()
    if spec.kind == "W3":
        return t == p - 2 and not m.is_minus_identity()
    if spec.kind == "W4":
        return t == spec.trace_mod(p)
    return t not in (2, p - 2)


@pytest.mark.parametrize("p", [5, 7])
def test_membership_mask_matches_scalar_contains(p):
    # the oracle's vectorised class predicate
    table = group_table(p)
    for spec in (W0, W1, W2, W3, w4(2), w4(3), W4ANY):
        mask = membership_mask(table, table.elements, spec)
        assert mask.tolist() == [_contains(spec, m) for m in enumerate_sl2(p)], spec


def test_zfull_w2w3_frozen_and_oracle_at_5():
    fast = count_z_full(5, W2, W3)
    assert fast == 62400
    assert brute_force_count(5, ZFull(W2, W3)) == 62400
    assert fast == (5 * 5 - 1) * count_zbar(5, ZbarCase("zbar23"))


@pytest.mark.parametrize("p", [5, 7])
def test_zfull_w4any_against_oracle(p):
    # W4any is counted as G minus W0..W3, whichever slot it is given in
    for s in (W0, W1, W2, W3, w4(2), W4ANY):
        assert count_z_full(p, s, W4ANY) == count_z_full(p, W4ANY, s) == \
            brute_force_count(p, ZFull(s, W4ANY)), s


@pytest.mark.parametrize("p", [11, 13])
def test_zfull_w4any_against_a_direct_double_sum(p):
    # fiber(C1 C2) summed over every table member of W4any, no complement
    table = group_table(p)
    regular = table_members(table, W4ANY)
    for s in (W0, W1, W2, W3, w4(2), W4ANY):
        direct = sum(int(element_fibers(p, mat_mul(p, regular, c2)).sum())
                     for c2 in table_members(table, s))
        assert count_z_full(p, W4ANY, s) == direct, s


def test_fast_path_never_generates_w4any(monkeypatch):
    histogram = counting.trace_histogram

    def refuse_w4any(p, spec, T):
        if spec == W4ANY:
            raise AssertionError("the fast path asked for W4any's histogram")
        return histogram(p, spec, T)

    monkeypatch.setattr(counting, "trace_histogram", refuse_w4any)
    specs = [W0, W1, W2, W3, w4(2), W4ANY]
    counts = {(a, b): count_z_full(89, a, b) for a in specs for b in specs}
    for a, b in counts:
        assert counts[a, b] == counts[b, a], (a, b)


@pytest.mark.parametrize("p", [5, 7])
def test_zfull_symmetry(p):
    specs = [W0, W1, W2, W3, w4(2), W4ANY]
    for i, s1 in enumerate(specs):
        for s2 in specs[i + 1:]:
            assert count_z_full(p, s1, s2) == count_z_full(p, s2, s1), (s1, s2)


@pytest.mark.parametrize("p", [5, 7])
def test_zfull_negation_identities(p):
    assert count_z_full(p, W3, W3) == count_z_full(p, W2, W2)
    lam = 2
    assert count_z_full(p, W3, w4(lam)) == count_z_full(p, W2, w4((-lam) % p))
    for mu in range(2, p - 1):
        assert count_zbar(p, ZbarCase("zbar34", mu)) == \
            count_zbar(p, ZbarCase("zbar24", (-mu) % p))


@pytest.mark.parametrize("p", [5, 7])
def test_zfull_fibration_multiplicativity(p):
    assert count_z_full(p, W2, W3) == \
        (p * p - 1) * count_zbar(p, ZbarCase("zbar23"))
    assert count_z_full(p, W2, w4(2)) == \
        (p * p + p) * count_zbar(p, ZbarCase("zbar24", 2))
    pair = (2, 2) if p == 5 else (2, 3)
    assert count_z_full(p, w4(pair[0]), w4(pair[1])) == \
        (p * p + p) * count_zbar(p, ZbarCase("zbar44", *pair))


def test_zfull_reduces_to_strata_for_central_first_class():
    p = 5
    assert count_z_full(p, W0, W0) == 1080
    assert count_z_full(p, W0, W2) == count_x_stratum(p, "X2")
    assert count_z_full(p, W1, W2) == count_x_stratum(p, "X3")
    # first holonomy -Id negates the second constraint: W4(lam) -> W4(-lam)
    assert count_z_full(p, W1, w4(2)) == \
        (p * p + p) * count_commutator_fiber(p, SL2Element.diagonal(3, p))


# ---------------------------------------------------------------------------
# X strata


@pytest.mark.parametrize("p", [5, 7])
def test_x_strata_against_oracle(p):
    for tag in ("X0", "X1", "X2", "X3", "X4"):
        assert count_x_stratum(p, tag) == brute_force_count(p, XStratum(tag))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_x_strata_partition_all_pairs(p):
    n = p ** 3 - p
    total = sum(count_x_stratum(p, t) for t in ("X0", "X1", "X2", "X3", "X4"))
    assert total == n * n


def test_x_stratum_validation():
    with pytest.raises(ValueError):
        count_x_stratum(5, "X9")
    with pytest.raises(ValueError):
        XStratum("X7")


# ---------------------------------------------------------------------------
# diagonal commutator fibers


def test_diagonal_commutator_fiber_trichotomy_at_7():
    p, lam, mu = 7, 2, 3
    special = (lam ** 2 + pow(lam, -2, p)) % p   # lam^2 + lam^{-2} = 6
    assert count_diagonal_commutator_fiber(p, lam, mu, 2) == 2 * p - 1
    assert count_diagonal_commutator_fiber(p, lam, mu, special) == 2 * p - 1
    for t2 in range(p):
        if t2 in (2, special):
            continue
        assert count_diagonal_commutator_fiber(p, lam, mu, t2) == p - 1


def test_diagonal_commutator_fiber_oracle_at_7():
    p, lam, mu = 7, 2, 3
    for t2 in (0, 2, 6):
        spec = DiagonalCommutatorFiber(lam, mu, t2)
        assert fast_count(p, spec) == brute_force_count(p, spec)


def test_diagonal_commutator_fiber_square_root_of_minus_one():
    # lam = 5 has lam^2 = -1 mod 13; the two trace constraints coincide and
    # the usual p-1 / 2p-1 pattern persists
    p, lam = 13, 5
    assert (lam * lam) % p == p - 1
    special = (lam ** 2 + inverse_mod(lam * lam, p)) % p
    assert count_diagonal_commutator_fiber(p, lam, 2, 2) == 2 * p - 1
    assert count_diagonal_commutator_fiber(p, lam, 2, special) == 2 * p - 1
    assert count_diagonal_commutator_fiber(p, lam, 2, 0) == p - 1


def test_diagonal_commutator_fiber_inconsistent_traces_empty():
    p, lam, mu = 7, 2, 3
    # t1 forced by the trace relation; shifting it kills all solutions
    spec = DiagonalCommutatorFiber(lam, mu, 0)
    forced = count_diagonal_commutator_fiber(p, lam, mu, 0)
    assert forced == p - 1
    # recover the forced t1, then perturb
    for t1 in range(p):
        c = count_diagonal_commutator_fiber(p, lam, mu, 0, t1=t1)
        assert c in (0, p - 1)
    counts = [count_diagonal_commutator_fiber(p, lam, mu, 0, t1=t1)
              for t1 in range(p)]
    assert counts.count(p - 1) == 1 and counts.count(0) == p - 1
    del spec


@pytest.mark.parametrize("p, lams", [(5, range(2, 4)), (7, range(2, 6)),
                                     (13, (5, 8))])
def test_diagonal_commutator_fiber_closed_form_matches_scalar_loops(p, lams):
    # at p = 13, lam = 5 and 8 have lam^2 = -1, so l2 - 1/l2 = 0
    for lam in lams:
        for mu in range(2, p - 1):
            for t2 in range(p):
                for t1 in (None, 0, 1):
                    spec = DiagonalCommutatorFiber(lam, mu, t2, t1)
                    assert fast_count(p, spec) == \
                        counting._brute_diagonal_commutator_fiber(p, spec), spec


def test_diagonal_commutator_fiber_parameter_validation():
    with pytest.raises(ValueError):
        count_diagonal_commutator_fiber(7, 1, 3, 0)
    with pytest.raises(ValueError):
        count_diagonal_commutator_fiber(7, 2, 6, 0)   # mu = -1 rejected
    with pytest.raises(ValueError):
        count_diagonal_commutator_fiber(7, 2, 0, 0)


# ---------------------------------------------------------------------------
# monodromy probe


def test_monodromy_probe_at_5():
    report = monodromy_probe(5)
    assert report["per_lambda"] == {"2": 64, "3": 64}
    assert report["union_count"] == 128
    assert report["xbar4_reference_value"] == 128
    assert report["xbar4_quotient_reference_value"] == 316
    assert report["lambda_classes"] == {"square": [], "nonsquare": [2, 3]}


def test_monodromy_probe_always_reports():
    for p in (5, 7, 11):
        report = monodromy_probe(p)
        assert report["union_count"] == sum(report["per_lambda"].values())
        assert len(report["per_lambda"]) == p - 3
        assert list(report) == ["p", "per_lambda", "union_count",
                                "xbar4_reference_value",
                                "xbar4_quotient_reference_value",
                                "lambda_classes"]


# ---------------------------------------------------------------------------
# oracle guards


def test_oracle_range_guards():
    # every spec kind and the tally, each at the first prime above its bound
    pair, tuple_ = counting.BRUTE_MAX_PAIR_PRIME, counting.BRUTE_MAX_TUPLE_PRIME
    refusals = [
        (17, pair, "commutator fibers",
         lambda: brute_force_count(17, CommutatorFiber(SL2Element.identity(17)))),
        (11, tuple_, "barred sets",
         lambda: brute_force_count(11, ZbarCase("zbar22"))),
        (11, tuple_, "full tuple sets",
         lambda: brute_force_count(11, ZFull(W2, W3))),
        (17, pair, "strata", lambda: brute_force_count(17, XStratum("X0"))),
        (17, pair, "diagonal commutator fibers",
         lambda: brute_force_count(17, DiagonalCommutatorFiber(2, 3, 0))),
        (17, pair, "commutator tallies", lambda: brute_commutator_tally(17)),
    ]
    for p, bound, noun, call in refusals:
        message = f"oracle out of range: {noun} are guarded to p <= {bound}, got {p}"
        with pytest.raises(OracleRangeError, match=re.escape(message)):
            call()


# ---------------------------------------------------------------------------
# the oracle's multiplication table


def _check_cayley_pairs(p, pairs):
    table = group_table(p)
    mul, inv = counting._cayley(p)

    def element(row):
        return SL2Element(*table.elements[int(row)].tolist(), p)

    for i, j in pairs:
        assert element(mul[i, j]) == element(i) * element(j), (i, j)
    for i in range(table.n):
        assert element(inv[i]) == element(i).inverse(), i


def test_cayley_table_matches_sl2_arithmetic_at_5():
    n = group_table(5).n
    _check_cayley_pairs(5, [(i, j) for i in range(n) for j in range(n)])


def test_cayley_table_matches_sl2_arithmetic_on_a_sample_at_13():
    n = group_table(13).n
    rng = np.random.default_rng(13)
    _check_cayley_pairs(13, rng.integers(0, n, size=(2000, 2)).tolist())


def test_cayley_table_is_refused_above_the_pair_guard():
    with pytest.raises(OracleRangeError, match="oracle out of range"):
        counting._cayley(17)


# sha256 of the (mul, inv) bytes, recorded from the mat_mul-and-stack
# build that the column build replaced
CAYLEY_SHA256 = {
    7: ("ddeb9e4b0526673e042f3e69d9df309b8a69393635d8ca40cfb73ead6dc317e7",
        "2290bda0cd9c6851b8270c3c1389eef496a05966931cc7361419d1eeb30d6a0b"),
    11: ("6c2f6b19fc77b67bcd292f4687ef8b53ecc22ebb936d3f87dbad23f9113925d5",
         "54e7fb57ced05055832c6819ae21c7eaaa47670e14405a9dccbd453130c16ea0"),
    13: ("65a9f3410d3e84053e05b5b35a042fc9ff917663df22eaef789918cd4877281f",
         "9e80c0e322dee2dd36bb744197efd9be71fede1fc5cfa789d7df7904ad5e0c4d"),
}


@pytest.mark.parametrize("p", sorted(CAYLEY_SHA256))
def test_cayley_table_bytes_are_pinned(p):
    mul, inv = counting._cayley(p)
    assert mul.dtype == inv.dtype == np.int32
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (mul, inv)) == CAYLEY_SHA256[p]


def test_cayley_build_holds_few_transients(monkeypatch):
    p = 13
    group_table(p)      # the memo's input, not one of its transients
    monkeypatch.setattr(counting, "_cayley_memo", {})
    tracemalloc.start()
    try:
        counting._cayley(p)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 10_000_000, (peak, retained)


def test_cayley_refuses_a_table_that_misses_a_product(monkeypatch):
    p = 5
    table = GroupTable(p)
    table.elements[1] = table.elements[0]   # row 1's element is lost
    monkeypatch.setattr(counting, "group_table", lambda q: table)
    monkeypatch.setattr(counting, "_cayley_memo", {})
    with pytest.raises(ArithmeticError,
                       match="a product missed the group table at p=5"):
        counting._cayley(p)


@pytest.mark.parametrize("p", [3, 5])
def test_tally_matches_pure_python_enumeration(p):
    expected = {}
    for a in enumerate_sl2(p):
        for b in enumerate_sl2(p):
            g = commutator(a, b).entries()
            expected[g] = expected.get(g, 0) + 1
    tally = brute_commutator_tally(p)
    assert tally == expected
    assert list(tally) == sorted(tally)   # lexicographic key order


def gathered_oracle(p, spec):
    """The oracle without the histogram: one gather per (A, B), and one
    per (C1, A, B) for full tuples, with [A, B] = (AB)(BA)^{-1} read from
    the Cayley table."""
    table = group_table(p)
    mul, inv = counting._cayley(p)
    comm = mul[mul, inv[mul.T]]

    def row(m):
        return int(np.flatnonzero((table.elements == m.entries()).all(axis=1))[0])

    def mask(spec):
        return membership_mask(table, table.elements, spec)

    if isinstance(spec, CommutatorFiber):
        return int((comm == row(spec.target)).sum())
    if isinstance(spec, XStratum):
        return int(mask(spec.geometric_union())[comm].sum())
    if isinstance(spec, ZbarCase):
        # C = [A,B]^{-1} T
        t = row(spec.target_matrix(p))
        return int(mask(spec.predicate_class(p))[mul[inv[comm], t]].sum())
    # C2 = C1^{-1} [A,B]^{-1}
    mask2 = mask(spec.spec2)
    return sum(int(mask2[mul[c1_inv, inv[comm]]].sum())
               for c1_inv in inv[mask(spec.spec1)].tolist())


REGROUPED_SPECS = {
    5: [CommutatorFiber(SL2Element.jminus(5)), CommutatorFiber(SL2Element.diagonal(2, 5)),
        *(XStratum(tag) for tag in ("X0", "X1", "X2", "X3", "X4")),
        ZbarCase("zbar22"), ZbarCase("zbar23"), ZbarCase("zbar24", 2),
        ZbarCase("zbar34", 3), ZbarCase("zbar44", 2, 2), ZbarCase("zbar44", 3, 2),
        ZFull(W2, W3), ZFull(W3, W3), ZFull(w4(2), W1), ZFull(W0, W4ANY),
        ZFull(W4ANY, W2), ZFull(W4ANY, W4ANY)],
    7: [ZFull(W3, W4ANY)],
}


@pytest.mark.parametrize("p, spec", [
    pytest.param(p, spec, id=f"p{p}-{i}-{type(spec).__name__}")
    for p, specs in REGROUPED_SPECS.items() for i, spec in enumerate(specs)])
def test_histogram_oracle_equals_the_gather_over_all_tuples(p, spec):
    assert brute_force_count(p, spec) == gathered_oracle(p, spec)


def test_oracle_uses_no_class_theory(monkeypatch):
    p = 5
    specs = [CommutatorFiber(SL2Element.jminus(p)), ZbarCase("zbar44", 2, 2),
             ZFull(W2, w4(2)), XStratum("X3"), DiagonalCommutatorFiber(2, 3, 0)]
    expected = [fast_count(p, spec) for spec in specs]
    tally_expected = {m.entries(): count_commutator_fiber(p, m)
                      for m in enumerate_sl2(p)}
    # the table the oracle reads holds entries only, no class data
    assert set(vars(group_table(p))) == {"p", "elements", "n"}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the class distribution")

    for name in ("commutator_fiber_distribution", "_closed_form_fiber",
                 "trace_histogram"):
        monkeypatch.setattr(counting, name, refuse)
    counting._commutator_counts(p)   # a histogram is held before the reset
    monkeypatch.setattr(counting, "_cayley_memo", {})
    passes = []
    blocks = counting._commutator_blocks
    monkeypatch.setattr(counting, "_commutator_blocks",
                        lambda q: passes.append(q) or blocks(q))
    assert [brute_force_count(p, spec) for spec in specs] == expected
    tally = brute_commutator_tally(p)
    for g, fib in tally_expected.items():
        assert tally.get(g, 0) == fib, g
    # the reset dropped the held histogram: one pass rebuilt it, under refusal
    assert passes == [p]
    assert counting._cayley_memo[p][2] is not None
