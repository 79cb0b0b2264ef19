import random
import time

import pytest

from charvar.hodge import (BettiVector, brute_force_tables,
                           compact_betti_from_poincare, default_instance,
                           enumerate_tables, forced_entries)


def paper_inputs():
    e, poincare, dim = default_instance()
    return e, compact_betti_from_poincare(poincare, dim)


# ---------------------------------------------------------------------------
# Betti vectors


def test_compact_betti_from_poincare_flagship():
    _, betti = paper_inputs()
    assert betti.values[4:] == (10, 2, 3, 0, 1)
    assert betti.values[:4] == (0, 0, 0, 0)


def test_compact_betti_point():
    betti = compact_betti_from_poincare([1], 0)
    assert betti.values == (1,)


def test_compact_betti_duality_swap():
    betti = compact_betti_from_poincare([0, 0, 1], 1)   # P = t^2, d = 1
    assert betti.values == (1, 0, 0)


def test_compact_betti_rejects_bad_input():
    with pytest.raises(ValueError):
        compact_betti_from_poincare([1, 0, 0, 1], 1)    # degree 3 > 2d
    with pytest.raises(ValueError):
        compact_betti_from_poincare([1, -2], 1)
    with pytest.raises(ValueError):
        BettiVector((1, 2), 1)                          # wrong length


def test_euler_characteristic_consistency():
    e, betti = paper_inputs()
    assert sum((-1) ** k * b for k, b in enumerate(betti.values)) == sum(e)


# ---------------------------------------------------------------------------
# the flagship instance


def test_flagship_instance_has_18_tables_fast():
    e, betti = paper_inputs()
    t0 = time.perf_counter()
    tables = enumerate_tables(e, betti)
    elapsed = time.perf_counter() - t0
    assert len(tables) == 18
    assert elapsed < 1.0
    # duplicate-free
    assert len(set(tables)) == 18


def test_flagship_tables_satisfy_both_constraint_families():
    e, betti = paper_inputs()
    for table in enumerate_tables(e, betti):
        d = table.dimension
        assert tuple(sum(row) for row in table.h) == betti.values
        assert tuple(sum((-1) ** k * table[k, p] for k in range(2 * d + 1))
                     for p in range(d + 1)) == tuple(e)
        for k in range(9):
            for p in range(5):
                if 2 * p > k:
                    assert table[k, p] == 0


def test_flagship_forced_entries():
    e, betti = paper_inputs()
    tables = enumerate_tables(e, betti)
    forced = forced_entries(tables)
    assert all(forced[(6, 3)] == 2 for _ in [0])
    assert forced[(6, 3)] == 2
    assert forced[(8, 4)] == 1
    for p in range(5):
        assert forced[(7, p)] == 0
    for p in range(4):
        assert forced[(8, p)] == 0
    for k in (4, 5, 7, 8):
        assert forced[(k, 3)] == 0


def test_flagship_solution_structure():
    # 3 choices of the distinguished k=6 row times 6 compositions of 2
    e, betti = paper_inputs()
    tables = enumerate_tables(e, betti)
    sixes = [tuple(t[6, p] for p in range(3)) for t in tables]
    assert set(sixes) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert all(sixes.count(pattern) == 6 for pattern in set(sixes))
    k5 = {tuple(t[5, p] for p in range(3)) for t in tables}
    assert k5 == {(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)}


def test_flagship_matches_brute_oracle():
    # same list, not only the same set: both come in ascending order of h
    e, betti = paper_inputs()
    tables = enumerate_tables(e, betti)
    assert tables == sorted(tables, key=lambda t: t.h)
    assert tables == brute_force_tables(e, betti)


def test_weight_bound_switch_enlarges_solution_set():
    e, betti = paper_inputs()
    with_bound = enumerate_tables(e, betti)
    without = enumerate_tables(e, betti, weight_bound=False)
    assert len(without) == 1675 and len(with_bound) == 18
    assert set(with_bound) <= set(without)
    assert without == sorted(without, key=lambda t: t.h)


# ---------------------------------------------------------------------------
# small and random instances


def test_point_instance():
    betti = BettiVector((1,), 0)
    tables = enumerate_tables([1], betti)
    assert len(tables) == 1
    assert tables[0].h == ((1,),)


def test_empty_is_a_valid_outcome():
    betti = BettiVector((1, 0, 0), 1)
    assert enumerate_tables([0, 5], betti) == []


def _random_instance(rng, top=2, weight_bound=True):
    """Build a random valid table with cells in 0..top, then return its
    (e, betti) data."""
    d = rng.randint(1, 2)
    h = [[0] * (d + 1) for _ in range(2 * d + 1)]
    for k in range(2 * d + 1):
        for p in range(d + 1):
            if 2 * p <= k or not weight_bound:
                h[k][p] = rng.randint(0, top)
    betti = BettiVector(tuple(sum(row) for row in h), d)
    e = [sum((-1) ** k * h[k][p] for k in range(2 * d + 1))
         for p in range(d + 1)]
    return e, betti


def test_random_instances_match_brute_oracle():
    rng = random.Random(12345)
    for trial in range(20):
        e, betti = _random_instance(rng)
        fast = set(enumerate_tables(e, betti))
        brute = set(brute_force_tables(e, betti))
        assert fast == brute, (trial, e, betti)
        assert fast   # instances are built from a witness table


def test_random_unbounded_instances_match_brute_oracle():
    # cells up to 1: at 2 the unbounded brute product reaches ~230k combinations
    rng = random.Random(2468)
    for trial in range(20):
        e, betti = _random_instance(rng, top=1, weight_bound=False)
        fast = enumerate_tables(e, betti, weight_bound=False)
        assert fast == brute_force_tables(e, betti, weight_bound=False), \
            (trial, e, betti)
        assert fast   # instances are built from a witness table


# ---------------------------------------------------------------------------
# curious Poincare duality, h[k][i] = h[k - 2i + d][d - i], as a filter; it
# is a hypothesis for this space (arXiv:0810.2076), so only the tests apply it


def curious_pd(table, shift):
    """The filter with `shift` in place of d; a cell whose partner falls
    outside the table must be 0."""
    d = table.dimension
    for k in range(2 * d + 1):
        for i in range(d + 1):
            k2, i2 = k - 2 * i + shift, shift - i
            inside = 0 <= k2 <= 2 * d and 0 <= i2 <= d
            if table[k, i] != (table[k2, i2] if inside else 0):
                return False
    return True


@pytest.mark.parametrize("weight_bound, n_tables", [(True, 18), (False, 1675)])
def test_curious_pd_leaves_one_flagship_table(weight_bound, n_tables):
    e, betti = paper_inputs()
    tables = enumerate_tables(e, betti, weight_bound=weight_bound)
    assert len(tables) == n_tables
    survivors = [t for t in tables if curious_pd(t, 4)]
    assert len(survivors) == 1
    zero = (0,) * 5
    assert survivors[0].h == (zero, zero, zero, zero, (1, 2, 7, 0, 0),
                              (0, 0, 2, 0, 0), (0, 0, 1, 2, 0), zero,
                              (0, 0, 0, 0, 1))
    assert [t for t in tables if curious_pd(t, 3)] == []     # d - 1 for d


def test_forced_entries_edge_cases():
    e, betti = paper_inputs()
    tables = enumerate_tables(e, betti)
    single = forced_entries([tables[0]])
    assert len(single) == 9 * 5           # every entry forced for one table
    t0, t1 = tables[0], tables[1]
    cell = next((k, p) for k in range(9) for p in range(5)
                if t0[k, p] != t1[k, p])
    assert cell not in forced_entries([t0, t1])
    with pytest.raises(ValueError):
        forced_entries([])
