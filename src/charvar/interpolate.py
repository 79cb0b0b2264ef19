"""Exact polynomial reconstruction from per-prime counts.

Everything here is exact: interpolation sums in int over one common
denominator and returns Fractions; a fit only becomes an EPolynomial if
its coefficients are integers, and a failed integrality check is the
"not polynomial-count at this degree" signal.  The quasi-polynomial
fallback partitions records by residue class (modulus 4 first, then 3:
the arithmetic dependencies seen in this family are square-class driven)
and accepts a branch only when it is falsifiable, i.e. fitted through at
least one more point than its degree forces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .epoly import EPolynomial

QUASI_MODULI = (4, 3)


class FitError(ValueError):
    pass


class InsufficientPointsError(FitError):
    pass


class NonIntegralFitError(FitError):
    """Counts do not interpolate to an integer polynomial of the given degree."""


def _lagrange(points: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique interpolant through the points.

    Each Lagrange basis term is num_i / den_i with integer num_i and den_i,
    so the sum runs in int over the common denominator L = lcm(den_i), and
    only the final coefficients become Fractions."""
    terms = []
    for xi, yi in points:
        num = [1]
        den = 1
        for xj, _ in points:
            if xj == xi:
                continue
            num = [0] + num
            for k in range(len(num) - 1):
                num[k] -= num[k + 1] * xj
            den *= xi - xj
        terms.append((yi, num, den))
    lcm = math.lcm(*(den for _, _, den in terms))
    totals = [0] * len(points)
    for yi, num, den in terms:
        w = yi * (lcm // den)
        for k, c in enumerate(num):
            totals[k] += c * w
    while len(totals) > 1 and totals[-1] == 0:
        totals.pop()
    return [Fraction(t, lcm) for t in totals]


def _validate_records(records: list[tuple[int, int]]) -> list[tuple[int, int]]:
    seen = set()
    out = []
    for p, count in records:
        if p in seen:
            raise FitError(f"duplicate prime {p} in records")
        if count < 0:
            raise FitError(f"negative count {count} at p={p}")
        seen.add(p)
        out.append((int(p), int(count)))
    return out


def lagrange_fit(records: list[tuple[int, int]], degree_bound: int) -> EPolynomial:
    """The unique integer polynomial of degree <= degree_bound through all records.

    Raises InsufficientPointsError with fewer than degree_bound + 1 points,
    NonIntegralFitError when the exact interpolant has fractional
    coefficients or exceeds the bound.
    """
    records = _validate_records(records)
    if len(records) < degree_bound + 1:
        raise InsufficientPointsError(
            f"need at least {degree_bound + 1} points for degree {degree_bound}, "
            f"got {len(records)}")
    coeffs = _lagrange(records)
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegralFitError(
            f"not polynomial-count at degree <= {degree_bound}: "
            f"interpolant has non-integer coefficients {[str(c) for c in coeffs]}")
    if len(coeffs) - 1 > degree_bound and any(coeffs[degree_bound + 1:]):
        raise NonIntegralFitError(
            f"interpolant has degree {len(coeffs) - 1} > bound {degree_bound}")
    return EPolynomial(int(c) for c in coeffs)


EXACT = "exact-polynomial"
QUASI = "quasi-polynomial"
INCONSISTENT = "inconsistent"


@dataclass
class FitReport:
    status: str
    residuals: tuple[tuple[int, int, int], ...]   # (p, count, predicted)
    modulus: int | None = None
    branches: dict[int, EPolynomial] = field(default_factory=dict)

    def offending_primes(self) -> tuple[int, ...]:
        return tuple(p for p, count, pred in self.residuals if count != pred)


def _falsifiable_branch_fit(points: list[tuple[int, int]],
                            degree_bound: int) -> EPolynomial | None:
    """Integer fit with at least one redundant point, else None.

    A branch interpolated through exactly degree+1 points is no evidence
    of quasi-polynomiality, so it is rejected here.
    """
    if len(points) < 2:
        return None
    coeffs = _lagrange(points)
    if any(c.denominator != 1 for c in coeffs):
        return None
    degree = len(coeffs) - 1
    if degree > degree_bound or len(points) < degree + 2:
        return None
    return EPolynomial(int(c) for c in coeffs)


def consistency_check(poly: EPolynomial, holdout: list[tuple[int, int]],
                      degree_bound: int | None = None) -> FitReport:
    """Verdict for poly against held-out counts.

    exact-polynomial requires zero residual at every supplied prime;
    otherwise residue-class branch fits are attempted modulo 4 then 3,
    and failing those the report is inconsistent with the offending
    primes identifiable from the residual list.
    """
    if not holdout:
        raise FitError("empty holdout")
    holdout = _validate_records(holdout)
    if degree_bound is None:
        degree_bound = poly.degree()
    residuals = tuple((p, count, poly.evaluate(p)) for p, count in holdout)
    if all(count == pred for _, count, pred in residuals):
        return FitReport(EXACT, residuals)
    for m in QUASI_MODULI:
        classes: dict[int, list[tuple[int, int]]] = {}
        for p, count in holdout:
            classes.setdefault(p % m, []).append((p, count))
        branches = {}
        for r, pts in sorted(classes.items()):
            fit = _falsifiable_branch_fit(pts, degree_bound)
            if fit is None:
                branches = None
                break
            branches[r] = fit
        if branches:
            return FitReport(QUASI, residuals, modulus=m, branches=branches)
    return FitReport(INCONSISTENT, residuals)


@dataclass(frozen=True)
class Comparison:
    equal: bool
    diffs: tuple[tuple[int, int, int], ...]   # (degree, left coeff, right coeff)

    def __str__(self):
        if self.equal:
            return "equal"
        terms = ", ".join(f"q^{k}: {a} vs {b}" for k, a, b in self.diffs)
        return f"differ at {terms}"


def compare(poly: EPolynomial, reference: EPolynomial) -> Comparison:
    """Exact coefficient-wise comparison."""
    n = max(len(poly.coeffs), len(reference.coeffs))
    diffs = tuple((k, poly[k], reference[k]) for k in range(n)
                  if poly[k] != reference[k])
    return Comparison(not diffs, diffs)
