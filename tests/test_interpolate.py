import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.counting import ZbarCase, count_zbar
from charvar.epoly import EPolynomial, Q
from charvar.interpolate import (EXACT, INCONSISTENT, QUASI, FitError,
                                 InsufficientPointsError, NonIntegralFitError,
                                 _lagrange, compare, consistency_check,
                                 lagrange_fit)
from charvar.counting import membership_mask
from charvar.sl2 import W2, group_table

PANEL = (5, 7, 11, 13, 17, 19, 23, 29, 31)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def test_fit_w2_sizes():
    tables = [group_table(p) for p in (5, 7, 11)]
    records = [(t.p, int(membership_mask(t, t.elements, W2).sum()))
               for t in tables]
    assert records == [(5, 24), (7, 48), (11, 120)]
    assert lagrange_fit(records, 2) == Q ** 2 - 1


def test_fit_constant():
    assert lagrange_fit([(5, 4), (7, 4), (11, 4)], 2) == EPolynomial.constant(4)


def test_fit_zbar22_counts():
    records = [(p, count_zbar(p, ZbarCase("zbar22")))
               for p in (5, 7, 11, 13, 17, 19)]
    assert lagrange_fit(records, 5) == \
        Q ** 5 + Q ** 4 + 3 * Q ** 2 + 3 * Q


def test_fit_insufficient_points():
    with pytest.raises(InsufficientPointsError):
        lagrange_fit([(5, 24), (7, 48)], 2)


def test_fit_rejects_bad_records():
    with pytest.raises(FitError):
        lagrange_fit([(5, 1), (5, 2), (7, 3)], 2)
    with pytest.raises(FitError):
        lagrange_fit([(5, -1), (7, 2), (11, 3)], 2)


def test_fit_non_integral_signals():
    # slope 1/2 between the two points
    with pytest.raises(NonIntegralFitError, match="not polynomial-count"):
        lagrange_fit([(5, 0), (7, 1)], 1)


def test_fit_degree_overflow_signals():
    pts = [(p, p ** 3) for p in (5, 7, 11, 13)]
    with pytest.raises(NonIntegralFitError):
        lagrange_fit(pts, 2)


def test_consistency_exact():
    report = consistency_check(Q ** 2 - 1, [(13, 168)])
    assert report.status == EXACT
    assert report.offending_primes() == ()


def test_consistency_empty_holdout_rejected():
    with pytest.raises(FitError):
        consistency_check(Q ** 2 - 1, [])


def test_consistency_corrupted_count_identifies_prime():
    poly = Q ** 2 - 1
    holdout = [(p, poly.evaluate(p)) for p in PANEL]
    holdout[3] = (13, poly.evaluate(13) + 1)   # corrupt one record
    report = consistency_check(poly, holdout)
    assert report.status == INCONSISTENT
    assert report.offending_primes() == (13,)


def test_quasi_polynomial_mod4_recovered():
    b1 = Q ** 2 - 1
    b3 = Q ** 2 + 3
    data = [(p, (b1 if p % 4 == 1 else b3).evaluate(p)) for p in PANEL]
    report = consistency_check(b1, data)
    assert report.status == QUASI
    assert report.modulus == 4
    assert report.branches == {1: b1, 3: b3}


def test_quasi_requires_falsifiable_branches():
    # degree-5 branches with only 4-5 points per class are no evidence
    b1 = Q ** 5 - 3 * Q ** 3 - 6 * Q ** 2
    b3 = Q ** 5 - 3 * Q ** 3 + 6 * Q ** 2
    data = [(p, (b1 if p % 4 == 1 else b3).evaluate(p)) for p in PANEL]
    report = consistency_check(b1, data, degree_bound=5)
    assert report.status == INCONSISTENT
    # with enough primes per class the same series classifies
    wide = data + [(p, (b1 if p % 4 == 1 else b3).evaluate(p))
                   for p in (37, 41, 43, 47, 53)]
    report = consistency_check(b1, wide, degree_bound=5)
    assert report.status == QUASI and report.modulus == 4
    assert report.branches == {1: b1, 3: b3}


def test_round_trip_random_polynomials():
    rng = random.Random(20250810)
    for _ in range(25):
        degree = rng.randint(0, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(degree)] + \
            [rng.choice([c for c in range(-50, 51) if c])]
        poly = EPolynomial(coeffs)
        records = [(p, poly.evaluate(p)) for p in PANEL]
        # counts must be nonnegative for the fit contract; shift if needed
        if any(c < 0 for _, c in records):
            shift = -min(c for _, c in records)
            poly = poly + shift
            records = [(p, c + shift) for p, c in records]
        assert lagrange_fit(records, 8) == poly


def test_fit_stability_on_subsets():
    from itertools import combinations
    poly = Q ** 3 - 2 * Q ** 2 - 3 * Q
    samples = [(p, poly.evaluate(p)) for p in PANEL[:6]]   # degree+3 samples
    for subset in combinations(samples, 4):
        assert lagrange_fit(list(subset), 3) == poly


def test_compare():
    assert compare(Q ** 4 + Q ** 3 - Q + 7, Q ** 4 + Q ** 3 - Q + 7).equal
    diff = compare(Q ** 2 - 1, Q ** 2 + 1)
    assert not diff.equal
    assert diff.diffs == ((0, -1, 1),)
    assert "q^0: -1 vs 1" in str(diff)


# ---------------------------------------------------------------------------
# properties


@st.composite
def counted_polynomials(draw, extra_points=0):
    """(poly, degree, records): an integer polynomial of degree 0..8 with
    its values at distinct random odd primes, at least degree + 1 +
    extra_points of them; the constant term is shifted so that every count
    is nonnegative, as the fit contract requires."""
    degree = draw(st.integers(0, 8))
    coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                           min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(-10 ** 6, 10 ** 6).filter(bool)))
    primes = draw(st.lists(st.sampled_from(ODD_PRIMES), unique=True,
                           min_size=degree + 1 + extra_points,
                           max_size=degree + 3 + extra_points))
    poly = EPolynomial(coeffs)
    poly = poly + max(0, -min(poly.evaluate(p) for p in primes))
    return poly, degree, [(p, poly.evaluate(p)) for p in primes]


def newton_interpolant(points):
    """Reference interpolant over Fraction: Newton divided differences,
    expanded to ascending coefficients with trailing zeros trimmed."""
    xs = [x for x, _ in points]
    dd = [Fraction(y) for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = [dd[-1]]
    for i in range(len(xs) - 2, -1, -1):
        poly = [Fraction(0)] + poly   # times (q - xs[i]), plus dd[i]
        for k in range(len(poly) - 1):
            poly[k] -= poly[k + 1] * xs[i]
        poly[0] += dd[i]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


@PROPERTY
@given(counted_polynomials())
def test_property_fit_round_trips_at_random_primes(case):
    poly, degree, records = case
    assert lagrange_fit(records, degree) == poly


@PROPERTY
@given(st.lists(st.tuples(st.integers(-200, 200), st.integers(-10 ** 9, 10 ** 9)),
                min_size=1, max_size=10, unique_by=lambda pt: pt[0]))
def test_property_lagrange_equals_fraction_reference(points):
    assert _lagrange(points) == newton_interpolant(points)


@PROPERTY
@given(counted_polynomials(extra_points=1), st.data())
def test_property_one_corrupted_point_is_caught(case, data):
    poly, degree, records = case
    bad = data.draw(st.integers(0, len(records) - 1))
    delta = data.draw(st.integers(1, 10 ** 6))
    bad_p, count = records[bad]
    records[bad] = (bad_p, count + delta)
    report = consistency_check(poly, records, degree)
    assert report.status != EXACT
    assert report.offending_primes() == (bad_p,)
