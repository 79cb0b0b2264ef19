"""Symbolic E-polynomial bookkeeping for the twice-punctured torus cases.

The building blocks are transcribed constants from the one-puncture
computation; their internal cross-identities (stratification sum,
fibration products, complement identity for W4) are asserted the first
time the table is built.  Each two-puncture case is then replayed as a
literal stratum sum followed by the reducible correction and an exact
division by the stabiliser polynomial, reproducing

    (J+,J+)            q^4 + q^3 - q + 7        (reducibles)
    (J+,J-)            q^4 - 3q^2 - 6q
    (J+,xi)            q^4 + q^3 + 2q^2 + q + 1
    (xi,xi) distinct   q^4 + 2q^3 + 6q^2 + 2q + 1
    (xi,xi) equal      q^4 + q^3 + 8q^2 + q + 1  (reducibles)

Every division is checked exact; a nonzero remainder aborts with the
offending remainder attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .epoly import EPolynomial, Q, exact_divide

ONE = EPolynomial.constant(1)


@dataclass(frozen=True)
class BuildingBlockTable:
    """Named E-polynomials every case derivation draws from."""
    sl2: EPolynomial
    pgl2: EPolynomial
    w0: EPolynomial
    w1: EPolynomial
    w2: EPolynomial
    w3: EPolynomial
    w4lam: EPolynomial
    w4: EPolynomial
    x0: EPolynomial
    x1: EPolynomial
    xbar2: EPolynomial
    x2: EPolynomial
    xbar3: EPolynomial
    x3: EPolynomial
    xbar4lam: EPolynomial
    x4lam: EPolynomial
    xbar4: EPolynomial
    xbar4_quotient: EPolynomial
    x4: EPolynomial
    unipotent_group: EPolynomial   # affine line
    torus: EPolynomial             # multiplicative group

    def as_dict(self) -> dict[str, EPolynomial]:
        return {
            "SL2": self.sl2, "PGL2": self.pgl2,
            "W0": self.w0, "W1": self.w1, "W2": self.w2, "W3": self.w3,
            "W4lam": self.w4lam, "W4": self.w4,
            "X0": self.x0, "X1": self.x1,
            "Xbar2": self.xbar2, "X2": self.x2,
            "Xbar3": self.xbar3, "X3": self.x3,
            "Xbar4lam": self.xbar4lam, "X4lam": self.x4lam,
            "Xbar4": self.xbar4, "Xbar4/Z2": self.xbar4_quotient,
            "X4": self.x4,
            "U": self.unipotent_group, "C*": self.torus,
        }

    def identity_checks(self) -> dict[str, bool]:
        """The cross-identities the table must satisfy."""
        strata_sum = self.x0 + self.x1 + self.x2 + self.x3 + self.x4
        return {
            "X0+X1+X2+X3+X4 = SL2^2": strata_sum == self.sl2 * self.sl2,
            "X2 = W2 * Xbar2": self.x2 == self.w2 * self.xbar2,
            "X3 = W3 * Xbar3": self.x3 == self.w3 * self.xbar3,
            "X4lam = W4lam * Xbar4lam": self.x4lam == self.w4lam * self.xbar4lam,
            "W4 = SL2 - W0 - W1 - W2 - W3":
                self.w4 == self.sl2 - self.w0 - self.w1 - self.w2 - self.w3,
        }


@lru_cache(maxsize=1)
def building_blocks() -> BuildingBlockTable:
    q = Q
    table = BuildingBlockTable(
        sl2=q ** 3 - q,
        pgl2=q ** 3 - q,
        w0=ONE,
        w1=ONE,
        w2=q ** 2 - 1,
        w3=q ** 2 - 1,
        w4lam=q ** 2 + q,
        w4=q ** 3 - 2 * q ** 2 - q,
        x0=q ** 4 + 4 * q ** 3 - q ** 2 - 4 * q,
        x1=q ** 3 - q,
        xbar2=q ** 3 - 2 * q ** 2 - 3 * q,
        x2=q ** 5 - 2 * q ** 4 - 4 * q ** 3 + 2 * q ** 2 + 3 * q,
        xbar3=q ** 3 + 3 * q ** 2,
        x3=q ** 5 + 3 * q ** 4 - q ** 3 - 3 * q ** 2,
        xbar4lam=q ** 3 + 3 * q ** 2 - 3 * q - 1,
        x4lam=q ** 5 + 4 * q ** 4 - 4 * q ** 2 - q,
        xbar4=q ** 4 - 3 * q ** 3 - 6 * q ** 2 + 5 * q + 3,
        xbar4_quotient=q ** 4 - 2 * q ** 3 - 3 * q ** 2 + 3 * q + 1,
        x4=q ** 6 - 2 * q ** 5 - 4 * q ** 4 + 3 * q ** 2 + 2 * q,
        unipotent_group=q,
        torus=q - 1,
    )
    failures = [name for name, ok in table.identity_checks().items() if not ok]
    if failures:
        raise ArithmeticError(f"building-block identities failed: {failures}")
    return table


# ---------------------------------------------------------------------------
# case derivations

CASE_IDS = ("J+J+", "J+J-", "J+xi", "xixi-generic", "xixi-special", "xixi-equal")


@dataclass(frozen=True)
class CaseResult:
    case: str
    strata: tuple[tuple[str, EPolynomial], ...]
    zbar: EPolynomial
    reducible_locus: EPolynomial | None
    zbar_star: EPolynomial
    quotient_divisor: EPolynomial
    quotient_correction: EPolynomial
    e_moduli: EPolynomial
    has_reducibles: bool


def derive_case(case: str) -> CaseResult:
    """Replay one stratum-sum derivation down to the moduli polynomial."""
    b = building_blocks()
    q = Q
    if case == "J+J+":
        strata = (
            ("(q-2) * Xbar2", (q - 2) * b.xbar2),
            ("X0", b.x0),
            ("q * Xbar3", q * b.xbar3),
            ("q * Xbar4/Z2", q * b.xbar4_quotient),
        )
        reducible = 4 * q ** 2
        correction = EPolynomial.constant(4)
        divisor = b.unipotent_group
    elif case == "J+J-":
        strata = (
            ("(q-2) * Xbar3", (q - 2) * b.xbar3),
            ("X1", b.x1),
            ("q * Xbar2", q * b.xbar2),
            ("q * Xbar4/Z2", q * b.xbar4_quotient),
        )
        reducible = None
        correction = EPolynomial()
        divisor = b.unipotent_group
    elif case == "J+xi":
        strata = (
            ("(2q-1) * Xbar4lam", (2 * q - 1) * b.xbar4lam),
            ("(q-1) * Xbar2", (q - 1) * b.xbar2),
            ("(q-1) * Xbar3", (q - 1) * b.xbar3),
            ("(q-1) * (Xbar4/Z2 - Xbar4lam)",
             (q - 1) * (b.xbar4_quotient - b.xbar4lam)),
        )
        reducible = None
        correction = EPolynomial()
        divisor = b.torus
    elif case == "xixi-generic":
        strata = (
            ("F1 = (2q-1) * Xbar4lam", (2 * q - 1) * b.xbar4lam),
            ("F2 = (2q-1) * Xbar4lam", (2 * q - 1) * b.xbar4lam),
            ("F3 = (q-1) * Xbar2", (q - 1) * b.xbar2),
            ("F4 = (q-1) * Xbar3", (q - 1) * b.xbar3),
            ("F5 = (q-1) * (Xbar4/Z2 - 2 Xbar4lam)",
             (q - 1) * (b.xbar4_quotient - 2 * b.xbar4lam)),
        )
        reducible = None
        correction = EPolynomial()
        divisor = b.torus
    elif case == "xixi-special":
        strata = (
            ("F1 = (2q-1) * Xbar4lam", (2 * q - 1) * b.xbar4lam),
            ("F2 = 2(q-1) * Xbar3 + X1", 2 * (q - 1) * b.xbar3 + b.x1),
            ("F3 = (q-1) * Xbar2", (q - 1) * b.xbar2),
            ("F4 = (q-1) * (Xbar4/Z2 - Xbar4lam)",
             (q - 1) * (b.xbar4_quotient - b.xbar4lam)),
        )
        reducible = None
        correction = EPolynomial()
        divisor = b.torus
    elif case == "xixi-equal":
        strata = (
            ("F1 = (2q-1) * Xbar4lam", (2 * q - 1) * b.xbar4lam),
            ("F2 = 2(q-1) * Xbar2 + X0", 2 * (q - 1) * b.xbar2 + b.x0),
            ("F3 = (q-1) * Xbar3", (q - 1) * b.xbar3),
            ("F4 = (q-1) * (Xbar4/Z2 - Xbar4lam)",
             (q - 1) * (b.xbar4_quotient - b.xbar4lam)),
        )
        reducible = (q - 1) ** 2 * (2 * q ** 2 - 1)
        correction = (q - 1) ** 2
        divisor = b.torus
    else:
        raise ValueError(f"unknown case {case!r}; known: {CASE_IDS}")

    zbar = EPolynomial()
    for _, contrib in strata:
        zbar = zbar + contrib
    zbar_star = zbar - reducible if reducible is not None else zbar
    e_moduli = exact_divide(zbar_star, divisor) + correction
    return CaseResult(
        case=case,
        strata=strata,
        zbar=zbar,
        reducible_locus=reducible,
        zbar_star=zbar_star,
        quotient_divisor=divisor,
        quotient_correction=correction,
        e_moduli=e_moduli,
        has_reducibles=reducible is not None,
    )


# ---------------------------------------------------------------------------
# moduli-space results table


@dataclass(frozen=True)
class TableEntry:
    pair: tuple[str, str]
    e_moduli: EPolynomial
    has_reducibles: bool | None      # None: not stated for this entry


def moduli_table() -> tuple[TableEntry, ...]:
    """All class pairs: the five derived two-puncture polynomials with their
    symmetric duplicates plus the transcribed one-puncture reference list."""
    q = Q
    derived = {c: derive_case(c) for c in CASE_IDS}
    entries = [
        # one-puncture reductions (first holonomy central): transcribed
        TableEntry(("Id", "Id"), q ** 2 + 1, None),
        TableEntry(("-Id", "-Id"), q ** 2 + 1, None),
        TableEntry(("Id", "-Id"), ONE, None),
        TableEntry(("Id", "J+"), q ** 2 - 2 * q + 3, None),
        TableEntry(("-Id", "J-"), q ** 2 - 2 * q + 3, None),
        TableEntry(("Id", "J-"), q ** 2 + 3 * q, None),
        TableEntry(("-Id", "J+"), q ** 2 + 3 * q, None),
        TableEntry(("Id", "xi"), q ** 2 + 4 * q + 1, None),
        TableEntry(("-Id", "xi"), q ** 2 + 4 * q + 1, None),
        # two-puncture cases
        TableEntry(("J+", "J+"), derived["J+J+"].e_moduli, True),
        TableEntry(("J-", "J-"), derived["J+J+"].e_moduli, True),
        TableEntry(("J+", "J-"), derived["J+J-"].e_moduli, False),
        TableEntry(("J+", "xi"), derived["J+xi"].e_moduli, False),
        TableEntry(("J-", "xi"), derived["J+xi"].e_moduli, False),
        TableEntry(("xi_lam", "xi_mu"), derived["xixi-generic"].e_moduli, False),
        TableEntry(("xi_lam", "xi_lam"), derived["xixi-equal"].e_moduli, True),
    ]
    return tuple(entries)


# the unbarred E-polynomials of the single-puncture reductions (Z with one
# central holonomy collapses to an X stratum)
def z_reduction_references() -> dict[str, EPolynomial]:
    b = building_blocks()
    return {
        "Z00": b.x0, "Z01": b.x1, "Z02": b.x2, "Z03": b.x3, "Z04lam": b.x4lam,
        "Z11": b.x0, "Z12": b.x3, "Z13": b.x2, "Z14lam": b.x4lam,
    }


def stated_results() -> dict[str, EPolynomial]:
    """The five moduli polynomials as independently transcribed constants,
    used to cross-check the stratum-sum derivations."""
    q = Q
    return {
        "J+J+": q ** 4 + q ** 3 - q + 7,
        "J+J-": q ** 4 - 3 * q ** 2 - 6 * q,
        "J+xi": q ** 4 + q ** 3 + 2 * q ** 2 + q + 1,
        "xixi-generic": q ** 4 + 2 * q ** 3 + 6 * q ** 2 + 2 * q + 1,
        "xixi-special": q ** 4 + 2 * q ** 3 + 6 * q ** 2 + 2 * q + 1,
        "xixi-equal": q ** 4 + q ** 3 + 8 * q ** 2 + q + 1,
    }


def stated_zbar_totals() -> dict[str, EPolynomial]:
    """Transcribed barred-set totals, one per case derivation."""
    q = Q
    return {
        "J+J+": q ** 5 + q ** 4 + 3 * q ** 2 + 3 * q,
        "J+J-": q ** 5 - 3 * q ** 3 - 6 * q ** 2,
        "J+xi": q ** 5 + q ** 3 - q ** 2 - 1,
        "xixi-generic": q ** 5 + q ** 4 + 4 * q ** 3 - 4 * q ** 2 - q - 1,
        "xixi-special": q ** 5 + q ** 4 + 4 * q ** 3 - 4 * q ** 2 - q - 1,
        "xixi-equal": q ** 5 + 2 * q ** 4 + 2 * q ** 3 - 3 * q ** 2 - q - 1,
    }
