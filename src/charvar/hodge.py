"""Enumerating compactly-supported Hodge-number tables.

Inputs are an E-polynomial (row data: alternating sums across cohomological
degree must reproduce each coefficient) and a compactly-supported Betti
vector (column data: each column must sum to b_c^k).  For a smooth variety
H^k_c carries weights <= k, forcing h^{k,p,p}_c = 0 whenever 2p > k; the
bound is applied by default and exposed as a switch because without it the
solution set is strictly larger.

The solver is a meet-in-the-middle join.  Each column k's candidates are
the compositions of b_c^k over its admissible rows.  The columns split at
the point that minimises the larger of the two halves' candidate products;
every tail sequence is keyed by its alternating row sums, and each head
sequence, in product order, is joined with the tails keyed by e minus its
own sums.  Memory is O(max half product) and the output comes in ascending
lexicographic order of the table.  A deliberately dumb product-filter
oracle (cells bounded by their column's Betti number, no pruning) backs it
in tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator, Sequence


@dataclass(frozen=True)
class BettiVector:
    """Compactly supported Betti numbers b[0..2d] of a dimension-d variety."""
    values: tuple[int, ...]
    dimension: int

    def __post_init__(self):
        if len(self.values) != 2 * self.dimension + 1:
            raise ValueError("need exactly 2d+1 Betti numbers")
        if any(v < 0 for v in self.values):
            raise ValueError("Betti numbers must be nonnegative")

    def __getitem__(self, k: int) -> int:
        return self.values[k]


def compact_betti_from_poincare(poincare: Sequence[int], dimension: int) -> BettiVector:
    """b_c[k] = coefficient of t^(2d-k): Poincare duality for a smooth variety.

    poincare lists ordinary Poincare-polynomial coefficients ascending in t.
    """
    coeffs = [int(c) for c in poincare]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 > 2 * dimension:
        raise ValueError(
            f"Poincare degree {len(coeffs) - 1} exceeds 2*dim = {2 * dimension}")
    if any(c < 0 for c in coeffs):
        raise ValueError("Poincare coefficients must be nonnegative")
    values = tuple(coeffs[2 * dimension - k] if 0 <= 2 * dimension - k < len(coeffs)
                   else 0 for k in range(2 * dimension + 1))
    return BettiVector(values, dimension)


@dataclass(frozen=True)
class HodgeTable:
    """h[k][p] for k = 0..2d, p = 0..d."""
    h: tuple[tuple[int, ...], ...]
    dimension: int

    def __getitem__(self, kp: tuple[int, int]) -> int:
        k, p = kp
        return self.h[k][p]


def _pad_e(e_coeffs: Sequence[int], dimension: int) -> list[int]:
    e = [int(c) for c in e_coeffs]
    if len(e) > dimension + 1:
        raise ValueError(f"E-polynomial degree {len(e) - 1} exceeds dim {dimension}")
    return e + [0] * (dimension + 1 - len(e))


def _admissible_row_count(k: int, dimension: int, weight_bound: bool) -> int:
    """Rows column k may fill: always the first ones, p <= k/2 under the bound."""
    return min(dimension, k // 2) + 1 if weight_bound else dimension + 1


def _compositions(total: int, cells: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer cell values summing to total, ascending lex order."""
    if cells == 0:
        if total == 0:
            yield ()
        return
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, cells - 1):
            yield (first,) + rest


def enumerate_tables(e_coeffs: Sequence[int], betti: BettiVector,
                     weight_bound: bool = True) -> list[HodgeTable]:
    """All tables with column sums betti, alternating row sums e_coeffs.

    Complete and duplicate-free; in ascending lexicographic order of h,
    which is the order of filling columns k = 0..2d depth first with
    compositions in ascending lexicographic order.
    """
    d = betti.dimension
    e = _pad_e(e_coeffs, d)
    n_cols = 2 * d + 1
    candidates = []
    for k in range(n_cols):
        n = _admissible_row_count(k, d, weight_bound)
        candidates.append([comp + (0,) * (d + 1 - n)
                           for comp in _compositions(betti[k], n)])
    sizes = [len(c) for c in candidates]
    m = min(range(n_cols + 1),
            key=lambda m: max(prod(sizes[:m]), prod(sizes[m:])))
    # each candidate with its column's sign (-1)^k, walked in lockstep with it
    signed = [[tuple((-1) ** k * v for v in col) for col in column]
              for k, column in enumerate(candidates)]
    zero = (0,) * (d + 1)

    def row_sums(vecs: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        return tuple(map(sum, zip(zero, *vecs)))

    tails = defaultdict(list)
    for tail, vecs in zip(product(*candidates[m:]), product(*signed[m:])):
        tails[row_sums(vecs)].append(tail)
    results = []
    for head, vecs in zip(product(*candidates[:m]), product(*signed[:m])):
        need = tuple(x - s for x, s in zip(e, row_sums(vecs)))
        results.extend(HodgeTable(head + tail, d) for tail in tails.get(need, ()))
    return results


def brute_force_tables(e_coeffs: Sequence[int], betti: BettiVector,
                       weight_bound: bool = True) -> list[HodgeTable]:
    """Oracle: filter the full product of per-column cell assignments.

    Cells of column k range over 0..b[k], the most a nonnegative column
    summing to b[k] can hold; columns are filtered by sum and weight bound,
    then the cross product is filtered by the row alternating sums.  No
    pruning, no cleverness.
    """
    d = betti.dimension
    e = _pad_e(e_coeffs, d)
    n_cols = 2 * d + 1
    per_column: list[list[tuple[int, ...]]] = []
    for k in range(n_cols):
        allowed = []
        for cells in product(range(betti[k] + 1), repeat=d + 1):
            if sum(cells) != betti[k]:
                continue
            if weight_bound and any(v and 2 * p > k for p, v in enumerate(cells)):
                continue
            allowed.append(cells)
        per_column.append(allowed)
    results = []
    for combo in product(*per_column):
        ok = all(
            sum((-1) ** k * combo[k][p] for k in range(n_cols)) == e[p]
            for p in range(d + 1))
        if ok:
            results.append(HodgeTable(tuple(combo), d))
    return results


def forced_entries(tables: Sequence[HodgeTable]) -> dict[tuple[int, int], int]:
    """Entries (k, p) -> value shared by every table; error on empty input."""
    if not tables:
        raise ValueError("no tables to intersect")
    d = tables[0].dimension
    out = {}
    for k in range(2 * d + 1):
        for p in range(d + 1):
            v = tables[0][k, p]
            if all(t[k, p] == v for t in tables[1:]):
                out[(k, p)] = v
    return out


def default_instance() -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The moduli space with two distinct diagonal holonomy classes:
    E-polynomial q^4+2q^3+6q^2+2q+1, ordinary Poincare polynomial
    10t^4+2t^3+3t^2+1, complex dimension 4."""
    return (1, 2, 6, 2, 1), (1, 0, 3, 2, 10), 4
