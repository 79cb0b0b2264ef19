"""Symbolic E-polynomial bookkeeping for the twice-punctured torus cases.

The building blocks are transcribed constants from the one-puncture
computation, held in one read-only mapping keyed by the names
`charvar blocks` prints.  Their cross-identities (stratification sum,
fibration products, complement identity for W4; block_identities) are
reported, one row each, by `charvar blocks` and `charvar verify`, which
exit 1 when one fails.  Each two-puncture case
is then replayed as a literal stratum sum followed by the reducible
correction and an exact division by the stabiliser polynomial,
reproducing

    (J+,J+)            q^4 + q^3 - q + 7        (reducibles)
    (J+,J-)            q^4 - 3q^2 - 6q
    (J+,xi)            q^4 + q^3 + 2q^2 + q + 1
    (xi,xi) distinct   q^4 + 2q^3 + 6q^2 + 2q + 1
    (xi,xi) equal      q^4 + q^3 + 8q^2 + q + 1  (reducibles)

Every division is checked exact; a nonzero remainder aborts with the
offending remainder attached.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .epoly import EPolynomial, Q, exact_divide


def block_identities(b: Mapping[str, EPolynomial]) -> dict[str, bool]:
    """The cross-identities the building blocks must satisfy."""
    strata_sum = b["X0"] + b["X1"] + b["X2"] + b["X3"] + b["X4"]
    return {
        "X0+X1+X2+X3+X4 = SL2^2": strata_sum == b["SL2"] * b["SL2"],
        "X2 = W2 * Xbar2": b["X2"] == b["W2"] * b["Xbar2"],
        "X3 = W3 * Xbar3": b["X3"] == b["W3"] * b["Xbar3"],
        "X4lam = W4lam * Xbar4lam": b["X4lam"] == b["W4lam"] * b["Xbar4lam"],
        "W4 = SL2 - W0 - W1 - W2 - W3":
            b["W4"] == b["SL2"] - b["W0"] - b["W1"] - b["W2"] - b["W3"],
    }


@lru_cache(maxsize=1)
def building_blocks() -> Mapping[str, EPolynomial]:
    """Named E-polynomials every case derivation draws from, read-only."""
    q = Q
    return MappingProxyType({
        "SL2": q ** 3 - q,
        "PGL2": q ** 3 - q,
        "W0": EPolynomial.constant(1),
        "W1": EPolynomial.constant(1),
        "W2": q ** 2 - 1,
        "W3": q ** 2 - 1,
        "W4lam": q ** 2 + q,
        "W4": q ** 3 - 2 * q ** 2 - q,
        "X0": q ** 4 + 4 * q ** 3 - q ** 2 - 4 * q,
        "X1": q ** 3 - q,
        "Xbar2": q ** 3 - 2 * q ** 2 - 3 * q,
        "X2": q ** 5 - 2 * q ** 4 - 4 * q ** 3 + 2 * q ** 2 + 3 * q,
        "Xbar3": q ** 3 + 3 * q ** 2,
        "X3": q ** 5 + 3 * q ** 4 - q ** 3 - 3 * q ** 2,
        "Xbar4lam": q ** 3 + 3 * q ** 2 - 3 * q - 1,
        "X4lam": q ** 5 + 4 * q ** 4 - 4 * q ** 2 - q,
        "Xbar4": q ** 4 - 3 * q ** 3 - 6 * q ** 2 + 5 * q + 3,
        "Xbar4/Z2": q ** 4 - 2 * q ** 3 - 3 * q ** 2 + 3 * q + 1,
        "X4": q ** 6 - 2 * q ** 5 - 4 * q ** 4 + 3 * q ** 2 + 2 * q,
        "U": q,          # affine line
        "C*": q - 1,     # multiplicative group
    })


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


def derive_case(case: str) -> CaseResult:
    """Replay one stratum-sum derivation down to the moduli polynomial."""
    b = building_blocks()
    q = Q
    # defaults: no reducible locus, no correction, the torus as stabiliser
    reducible, correction, divisor = None, EPolynomial(), b["C*"]
    if case == "J+J+":
        strata = (
            ("(q-2) * Xbar2", (q - 2) * b["Xbar2"]),
            ("X0", b["X0"]),
            ("q * Xbar3", q * b["Xbar3"]),
            ("q * Xbar4/Z2", q * b["Xbar4/Z2"]),
        )
        reducible = 4 * q ** 2
        correction = EPolynomial.constant(4)
        divisor = b["U"]
    elif case == "J+J-":
        strata = (
            ("(q-2) * Xbar3", (q - 2) * b["Xbar3"]),
            ("X1", b["X1"]),
            ("q * Xbar2", q * b["Xbar2"]),
            ("q * Xbar4/Z2", q * b["Xbar4/Z2"]),
        )
        divisor = b["U"]
    elif case == "J+xi":
        strata = (
            ("(2q-1) * Xbar4lam", (2 * q - 1) * b["Xbar4lam"]),
            ("(q-1) * Xbar2", (q - 1) * b["Xbar2"]),
            ("(q-1) * Xbar3", (q - 1) * b["Xbar3"]),
            ("(q-1) * (Xbar4/Z2 - Xbar4lam)",
             (q - 1) * (b["Xbar4/Z2"] - b["Xbar4lam"])),
        )
    elif case == "xixi-generic":
        strata = (
            ("F1 = (2q-1) * Xbar4lam", (2 * q - 1) * b["Xbar4lam"]),
            ("F2 = (2q-1) * Xbar4lam", (2 * q - 1) * b["Xbar4lam"]),
            ("F3 = (q-1) * Xbar2", (q - 1) * b["Xbar2"]),
            ("F4 = (q-1) * Xbar3", (q - 1) * b["Xbar3"]),
            ("F5 = (q-1) * (Xbar4/Z2 - 2 Xbar4lam)",
             (q - 1) * (b["Xbar4/Z2"] - 2 * b["Xbar4lam"])),
        )
    elif case == "xixi-special":
        strata = (
            ("F1 = (2q-1) * Xbar4lam", (2 * q - 1) * b["Xbar4lam"]),
            ("F2 = 2(q-1) * Xbar3 + X1", 2 * (q - 1) * b["Xbar3"] + b["X1"]),
            ("F3 = (q-1) * Xbar2", (q - 1) * b["Xbar2"]),
            ("F4 = (q-1) * (Xbar4/Z2 - Xbar4lam)",
             (q - 1) * (b["Xbar4/Z2"] - b["Xbar4lam"])),
        )
    elif case == "xixi-equal":
        strata = (
            ("F1 = (2q-1) * Xbar4lam", (2 * q - 1) * b["Xbar4lam"]),
            ("F2 = 2(q-1) * Xbar2 + X0", 2 * (q - 1) * b["Xbar2"] + b["X0"]),
            ("F3 = (q-1) * Xbar3", (q - 1) * b["Xbar3"]),
            ("F4 = (q-1) * (Xbar4/Z2 - Xbar4lam)",
             (q - 1) * (b["Xbar4/Z2"] - b["Xbar4lam"])),
        )
        reducible = (q - 1) ** 2 * (2 * q ** 2 - 1)
        correction = (q - 1) ** 2
    else:
        raise ValueError(f"unknown case {case!r}; known: {CASE_IDS}")

    zbar = sum((contrib for _, contrib in strata), EPolynomial())
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
    )


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
