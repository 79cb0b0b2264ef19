"""Enumerating compactly-supported Hodge-number tables.

Inputs are an E-polynomial (row data: alternating sums across cohomological
degree must reproduce each coefficient) and a compactly-supported Betti
vector (column data: each column must sum to b_c^k).  For a smooth variety
H^k_c carries weights <= k, forcing h^{k,p,p}_c = 0 whenever 2p > k; the
bound is applied by default and exposed as a switch because without it the
solution set is strictly larger.

The solver walks columns k = 0..2d in order, choosing a composition of
b_c^k over the admissible rows, and prunes on running alternating row sums
against what the remaining columns could still contribute.  A deliberately
dumb product-filter oracle (bounded cells, no pruning) backs it in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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


def _admissible_rows(k: int, dimension: int, weight_bound: bool) -> list[int]:
    rows = range(dimension + 1)
    if weight_bound:
        return [p for p in rows if 2 * p <= k]
    return list(rows)


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

    Complete and duplicate-free; deterministic order (columns filled in
    ascending k, compositions in ascending lexicographic order).
    """
    d = betti.dimension
    e = _pad_e(e_coeffs, d)
    n_cols = 2 * d + 1
    rows_for = [_admissible_rows(k, d, weight_bound) for k in range(n_cols)]

    # what columns > k can still add to row p, split by column parity
    suffix_hi = [[0] * (d + 1) for _ in range(n_cols + 1)]
    suffix_lo = [[0] * (d + 1) for _ in range(n_cols + 1)]
    for k in range(n_cols - 1, -1, -1):
        for p in range(d + 1):
            hi = suffix_hi[k + 1][p]
            lo = suffix_lo[k + 1][p]
            if p in rows_for[k]:
                if k % 2 == 0:
                    hi += betti[k]
                else:
                    lo -= betti[k]
            suffix_hi[k][p] = hi
            suffix_lo[k][p] = lo

    results: list[HodgeTable] = []
    columns: list[tuple[int, ...]] = []
    running = [0] * (d + 1)

    def feasible(k: int) -> bool:
        for p in range(d + 1):
            need = e[p] - running[p]
            if not (suffix_lo[k][p] <= need <= suffix_hi[k][p]):
                return False
        return True

    def walk(k: int) -> None:
        if k == n_cols:
            if all(running[p] == e[p] for p in range(d + 1)):
                results.append(HodgeTable(tuple(columns), d))
            return
        sign = (-1) ** k
        rows = rows_for[k]
        for comp in _compositions(betti[k], len(rows)):
            col = [0] * (d + 1)
            for p, v in zip(rows, comp):
                col[p] = v
                running[p] += sign * v
            columns.append(tuple(col))
            if feasible(k + 1):
                walk(k + 1)
            columns.pop()
            for p, v in zip(rows, comp):
                running[p] -= sign * v
        return

    walk(0)
    return results


def brute_force_tables(e_coeffs: Sequence[int], betti: BettiVector,
                       weight_bound: bool = True) -> list[HodgeTable]:
    """Oracle: filter the full product of per-column cell assignments.

    Cells range over 0..max Betti number; columns are filtered by sum and
    weight bound, then the cross product is filtered by the row alternating
    sums.  No pruning, no cleverness.
    """
    d = betti.dimension
    e = _pad_e(e_coeffs, d)
    n_cols = 2 * d + 1
    bound = max(betti.values)
    per_column: list[list[tuple[int, ...]]] = []
    for k in range(n_cols):
        allowed = []
        for cells in product(range(bound + 1), repeat=d + 1):
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
