import hashlib
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from charvar.counting import membership_mask
from charvar.sl2 import (GeometricClass, GroupTable, SL2Element, commutator,
                         enumerate_sl2, group_table, inverse_mod, w4, W0, W1,
                         W2, W3, W4ANY)
from class_labels import label_codes


def all_elements(p):
    return list(enumerate_sl2(p))


def code_of(m):
    """label_codes of one element."""
    return int(label_codes(m.p, np.array(m.entries(), dtype=np.int64)))


def code_sizes(p):
    """Number of group-table rows per label code."""
    return np.bincount(label_codes(p, group_table(p).elements))


def det_filter_oracle(p):
    """Independent enumeration: filter all p^4 matrices by determinant."""
    out = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            out.append((a, b, c, d))
    return out


# ---------------------------------------------------------------------------
# field arithmetic


def test_inverse_mod_zero_has_no_inverse():
    assert inverse_mod(3, 7) * 3 % 7 == 1
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 7)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("p", [3, 5, 7])
def test_enumeration_matches_det_filter_oracle(p):
    ours = [m.entries() for m in enumerate_sl2(p)]
    oracle = det_filter_oracle(p)
    assert len(ours) == p ** 3 - p
    assert sorted(ours) == sorted(oracle)
    assert len(set(ours)) == len(ours)


def test_enumeration_sizes():
    assert len(all_elements(3)) == 24
    assert len(all_elements(5)) == 120


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_enumeration_contains_identity(p):
    assert any(m.is_identity() for m in enumerate_sl2(p))


def test_enumeration_rejects_bad_input():
    for bad in (2, 4, 1, 9, 15):
        with pytest.raises(ValueError):
            list(enumerate_sl2(bad))
    with pytest.raises(ValueError):
        list(enumerate_sl2(103))   # above MAX_ENUM_PRIME = 101


def test_enumeration_deterministic_order():
    assert [m.entries() for m in enumerate_sl2(5)] == \
        [m.entries() for m in enumerate_sl2(5)]


def test_sl2_element_validates_determinant():
    with pytest.raises(ValueError):
        SL2Element(1, 1, 1, 1, 5)


# ---------------------------------------------------------------------------
# commutator


def test_commutator_with_identity_and_self():
    p = 7
    for b in list(enumerate_sl2(p))[:40]:
        assert commutator(SL2Element.identity(p), b).is_identity()
        assert commutator(b, b).is_identity()


def test_commutator_against_direct_product_oracle():
    p = 5
    a = SL2Element(1, 1, 0, 1, p)
    b = SL2Element(1, 0, 1, 1, p)

    def mat_mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
                (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p)

    ainv = (1, -1 % p, 0, 1)
    binv = (1, 0, -1 % p, 1)
    expected = mat_mul(mat_mul(a.entries(), b.entries()), mat_mul(ainv, binv))
    assert commutator(a, b).entries() == expected


def test_commutator_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        commutator(SL2Element.identity(5), SL2Element.identity(7))


# ---------------------------------------------------------------------------
# rational classes


def test_central_labels():
    assert code_of(SL2Element.minus_identity(5)) == 1
    assert code_of(SL2Element.identity(5)) == 0


def test_jplus_label_at_5():
    assert code_of(SL2Element.jplus(5)) == 2     # trace 2, square


def test_offdiagonal_two_is_other_unipotent_class_at_5():
    m = SL2Element(1, 2, 0, 1, 5)
    assert code_of(m) == 3                       # trace 2, nonsquare
    # exhaustive conjugacy search: not conjugate to J+
    jplus = SL2Element.jplus(5)
    conjugates = {(g * jplus * g.inverse()).entries() for g in enumerate_sl2(5)}
    assert m.entries() not in conjugates
    assert len(conjugates) == code_sizes(5)[code_of(jplus)] == 12


@pytest.mark.parametrize("p", [5, 7, 11])
def test_number_of_realized_labels_is_p_plus_4(p):
    assert np.count_nonzero(code_sizes(p)) == p + 4


@pytest.mark.parametrize("p", [5, 7, 11])
def test_label_is_conjugation_invariant(p):
    rng = random.Random(p)
    elements = all_elements(p)
    for _ in range(1000):
        m = rng.choice(elements)
        g = rng.choice(elements)
        assert code_of(g * m * g.inverse()) == code_of(m)


@pytest.mark.parametrize("p", [5, 7])
def test_codes_induce_the_conjugacy_partition(p):
    """Orbits by brute-force conjugation are exactly the code classes, p + 4
    of them."""
    group = all_elements(p)
    orbits, seen = [], set()
    for m in group:
        if m.entries() in seen:
            continue
        orbit = {(g * m * g.inverse()).entries() for g in group}
        seen |= orbit
        orbits.append(orbit)
    by_code = {}
    for m in group:
        by_code.setdefault(code_of(m), set()).add(m.entries())
    assert {frozenset(o) for o in orbits} == \
        {frozenset(v) for v in by_code.values()}
    assert len(by_code) == p + 4


@pytest.mark.parametrize("p", [5, 7])
def test_unipotent_details_match_exhaustive_conjugacy_oracle(p):
    """The square-class flag separates trace ±2 non-central elements exactly
    as SL2-conjugacy does."""
    group = all_elements(p)
    for trace_sign in (2, p - 2):
        members = [m for m in group
                   if m.trace() == trace_sign
                   and not (m.is_identity() or m.is_minus_identity())]
        by_code = {}
        for m in members:
            by_code.setdefault(code_of(m), set()).add(m.entries())
        assert len(by_code) == 2
        # brute orbits
        seed = members[0]
        orbit1 = {(g * seed * g.inverse()).entries() for g in group}
        rest = {m.entries() for m in members} - orbit1
        assert {frozenset(v) for v in by_code.values()} == \
            {frozenset(orbit1), frozenset(rest)}


# ---------------------------------------------------------------------------
# centralizers


def centralizer_order(group, m):
    return sum(1 for g in group if g * m == m * g)


def test_centralizer_examples():
    p = 5
    group = all_elements(p)
    assert centralizer_order(group, SL2Element.identity(p)) == 120
    assert centralizer_order(group, SL2Element.jplus(p)) == 10
    assert centralizer_order(group, SL2Element.diagonal(2, p)) == 4


@pytest.mark.parametrize("p", [5, 7])
def test_centralizer_matches_brute_count_per_class(p):
    """Orbit-stabiliser: each code class has |G| / |C(m)| elements."""
    group = all_elements(p)
    sizes = code_sizes(p)
    seen = set()
    for m in group:
        code = code_of(m)
        if code in seen:
            continue
        seen.add(code)
        brute = centralizer_order(group, m)
        assert sizes[code] * brute == len(group), (code, brute)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_orbit_partition(p):
    n = p ** 3 - p
    sizes = code_sizes(p)
    assert all(n % size == 0 for size in sizes[sizes > 0].tolist())


# ---------------------------------------------------------------------------
# geometric classes


def geometric_members(p, spec):
    """The group-table rows in a class by the oracle's predicate, as
    elements in lexicographic order."""
    table = group_table(p)
    rows = table.elements[membership_mask(table, table.elements, spec)]
    return [SL2Element(*m, p) for m in rows.tolist()]


def test_w0_members():
    for p in (5, 7):
        members = geometric_members(p, W0)
        assert members == [SL2Element.identity(p)]


def test_w2_members_at_5():
    members = geometric_members(5, W2)
    assert len(members) == 24
    assert all(m.trace() == 2 and not m.is_identity() for m in members)


def test_w4_members_at_5():
    members = geometric_members(5, w4(2))
    assert len(members) == 30
    assert all(m.trace() == 0 for m in members)  # 2 + 2^{-1} = 0 mod 5


@pytest.mark.parametrize("p", [5, 7, 11])
def test_geometric_cardinalities(p):
    assert len(geometric_members(p, W1)) == 1
    assert len(geometric_members(p, W2)) == p * p - 1
    assert len(geometric_members(p, W3)) == p * p - 1
    assert len(geometric_members(p, w4(2))) == p * p + p
    assert len(geometric_members(p, W4ANY)) == p ** 3 - 2 * p ** 2 - p
    # size() weights the full-set counts, so it must match the enumeration
    for spec in (W0, W1, W2, W3, w4(2), W4ANY):
        assert spec.size(p) == len(geometric_members(p, spec)), spec


def test_w4_rejects_degenerate_lambda():
    for lam in (0, 1, -1, 4):   # 4 = -1 mod 5
        with pytest.raises(ValueError):
            geometric_members(5, w4(lam))
    with pytest.raises(ValueError):
        geometric_members(3, w4(2))   # 2 = -1 mod 3


def test_w4_lambda_inverse_same_point_set():
    a = [m.entries() for m in geometric_members(7, w4(2))]
    b = [m.entries() for m in geometric_members(7, w4(4))]   # 4 = 2^{-1} mod 7
    assert a == b


def test_geometric_class_validation():
    with pytest.raises(ValueError):
        GeometricClass("W5")
    with pytest.raises(ValueError):
        GeometricClass("W4")          # missing parameter
    with pytest.raises(ValueError):
        GeometricClass("W2", lam=2)   # spurious parameter


@pytest.mark.parametrize("p", [5, 7])
def test_w2_splits_into_two_unipotent_labels(p):
    codes = {code_of(m) for m in geometric_members(p, W2)}
    assert codes == {2, 3}


@pytest.mark.parametrize("p", [5, 7])
def test_w4_members_form_one_split_label(p):
    lam = 2
    codes = {code_of(m) for m in geometric_members(p, w4(lam))}
    t = (lam + inverse_mod(lam, p)) % p
    assert codes == {6 + t}


# ---------------------------------------------------------------------------
# the group table


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_group_table_rows_follow_enumeration_order(p):
    rows = [m.entries() for m in enumerate_sl2(p)]
    assert group_table(p).elements.tolist() == [list(r) for r in rows]


# sha256 of GroupTable(p).elements.tobytes(), recorded from the
# meshgrid-and-concatenate build that the in-place one replaced
TABLE_SHA256 = {
    89: "d673c367734650857a37992a920a055e98e86de410382d7075b49dcd89a39430",
    101: "30aa52565815a0f5d625e93c502b8eaa6e8f5c661b8602fbb16039bc88876975",
}


@pytest.mark.parametrize("p", sorted(TABLE_SHA256))
def test_group_table_bytes_are_pinned(p):
    elements = GroupTable(p).elements      # not cached: p^3 rows
    assert elements.dtype == np.int64 and elements.flags.c_contiguous
    assert hashlib.sha256(elements.tobytes()).hexdigest() == TABLE_SHA256[p]


def test_group_table_build_allocates_little_beyond_the_table():
    tracemalloc.start()
    try:
        table = GroupTable(101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * table.elements.nbytes, peak / table.elements.nbytes


def test_nonsplit_labels_exist():
    # trace 1 and 4 at p=5 have irreducible characteristic polynomial
    sizes = code_sizes(5)
    assert sizes[6 + 5 + 1] and sizes[6 + 5 + 4]
