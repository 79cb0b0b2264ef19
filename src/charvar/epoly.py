"""Exact integer polynomials in the counting variable q.

All coefficient arithmetic is over Z (with Fractions appearing only
transiently inside division); evaluation at integer arguments is exact.
Floating point is deliberately absent from this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class ExactDivisionError(ArithmeticError):
    """Division left a nonzero remainder."""

    def __init__(self, dividend: "EPolynomial", divisor: "EPolynomial",
                 remainder: "EPolynomial"):
        self.dividend = dividend
        self.divisor = divisor
        self.remainder = remainder
        super().__init__(
            f"({dividend}) is not divisible by ({divisor}): remainder {remainder}")


class EPolynomial:
    """Univariate integer polynomial, coefficients ascending in q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "EPolynomial":
        return cls((c,))

    @classmethod
    def variable(cls) -> "EPolynomial":
        return cls((0, 1))

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __add__(self, other) -> "EPolynomial":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return EPolynomial(self[k] + other[k] for k in range(n))

    __radd__ = __add__

    def __neg__(self) -> "EPolynomial":
        return EPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "EPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "EPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "EPolynomial":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return EPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return EPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EPolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = EPolynomial((1,))
        for _ in range(n):
            out = out * self
        return out

    def divmod(self, divisor: "EPolynomial") -> tuple["EPolynomial", "EPolynomial"]:
        """Polynomial long division over Q; quotient and remainder."""
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        dq = [Fraction(c) for c in divisor.coeffs]
        quo = [Fraction(0)] * max(len(rem) - len(dq) + 1, 0)
        while len(rem) >= len(dq) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(dq):
                break
            k = len(rem) - len(dq)
            f = rem[-1] / dq[-1]
            quo[k] = f
            for i, c in enumerate(dq):
                rem[k + i] -= f * c
            rem.pop()
        q_int = _to_int_coeffs(quo, "quotient")
        r_int = _to_int_coeffs(rem, "remainder")
        return EPolynomial(q_int), EPolynomial(r_int)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = EPolynomial.constant(other)
        if not isinstance(other, EPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"EPolynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}q^{k}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _coerce(x) -> EPolynomial:
    if isinstance(x, EPolynomial):
        return x
    if isinstance(x, int):
        return EPolynomial.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to EPolynomial")


def _to_int_coeffs(fracs: list[Fraction], what: str) -> list[int]:
    for c in fracs:
        if c.denominator != 1:
            raise ArithmeticError(f"non-integral {what} coefficient {c}")
    return [int(c) for c in fracs]


def exact_divide(a: EPolynomial, b: EPolynomial) -> EPolynomial:
    """Quotient a/b, required to leave zero remainder."""
    quo, rem = a.divmod(b)
    if not rem.is_zero():
        raise ExactDivisionError(a, b, rem)
    return quo


Q = EPolynomial.variable()
