"""Prime-field arithmetic, SL(2,F_p) enumeration, and conjugacy classes.

Two class notions coexist and must not be conflated:

* *rational* classes: orbits under SL(2,F_p)-conjugation.  There are p+4
  of them: two central, four unipotent-type (trace ±2 split by a
  quadratic-residue invariant), and one regular class per trace t ≠ ±2
  (split when t²−4 is a nonzero square mod p, nonsplit otherwise).  The
  library never names them: a trace's two unipotent classes share one
  commutator fiber, so the counting engine reads ±Id and the trace only.
* *geometric* classes W0..W4: the closure-level classes determined by
  trace/identity tests alone.  |W2| = |W3| = p²−1 and |W4(λ)| = p²+p
  exactly, which is why geometric membership is what the counting engine
  uses; each unipotent geometric class is the union of two rational ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

MAX_ENUM_PRIME = 101


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if p > MAX_ENUM_PRIME:
        raise ValueError(f"{p} exceeds the enumeration bound {MAX_ENUM_PRIME}")


def inverse_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def is_square_mod(a: int, p: int) -> bool:
    """Nonzero quadratic residue test; 0 is counted as a square."""
    a %= p
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


class SL2Element:
    """Determinant-1 2x2 matrix over F_p, entries stored as reduced ints."""

    __slots__ = ("m11", "m12", "m21", "m22", "p")

    def __init__(self, m11: int, m12: int, m21: int, m22: int, p: int):
        if not is_odd_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        self.p = p
        self.m11 = m11 % p
        self.m12 = m12 % p
        self.m21 = m21 % p
        self.m22 = m22 % p
        if (self.m11 * self.m22 - self.m12 * self.m21) % p != 1:
            raise ValueError(f"determinant != 1 mod {p}: "
                             f"[[{m11},{m12}],[{m21},{m22}]]")

    @classmethod
    def identity(cls, p: int) -> "SL2Element":
        return cls(1, 0, 0, 1, p)

    @classmethod
    def minus_identity(cls, p: int) -> "SL2Element":
        return cls(-1, 0, 0, -1, p)

    @classmethod
    def jplus(cls, p: int) -> "SL2Element":
        return cls(1, 1, 0, 1, p)

    @classmethod
    def jminus(cls, p: int) -> "SL2Element":
        return cls(-1, 1, 0, -1, p)

    @classmethod
    def diagonal(cls, lam: int, p: int) -> "SL2Element":
        return cls(lam, 0, 0, inverse_mod(lam, p), p)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.m11, self.m12, self.m21, self.m22)

    def trace(self) -> int:
        return (self.m11 + self.m22) % self.p

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        p = self.p
        return SL2Element(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22, p)

    def inverse(self) -> "SL2Element":
        # adjugate; determinant is 1
        return SL2Element(self.m22, -self.m12, -self.m21, self.m11, self.p)

    def __neg__(self) -> "SL2Element":
        return SL2Element(-self.m11, -self.m12, -self.m21, -self.m22, self.p)

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def is_minus_identity(self) -> bool:
        p = self.p
        return self.entries() == (p - 1, 0, 0, p - 1)

    def __eq__(self, other):
        return (isinstance(other, SL2Element)
                and self.p == other.p and self.entries() == other.entries())

    def __hash__(self):
        return hash((self.entries(), self.p))

    def __repr__(self):
        return f"SL2Element([[{self.m11},{self.m12}],[{self.m21},{self.m22}]] mod {self.p})"


def enumerate_sl2(p: int) -> Iterator[SL2Element]:
    """All of SL(2,F_p) exactly once, row-major over (m11,m12,m21).

    m22 is solved when m11 != 0; the m11 = 0 branch forces m21 = -m12^{-1}
    and leaves m22 free.  The scalar reference for _sl2_rows.
    """
    check_prime(p)
    for a in range(p):
        if a:
            ainv = inverse_mod(a, p)
            for b in range(p):
                for c in range(p):
                    yield SL2Element(a, b, c, (1 + b * c) * ainv, p)
        else:
            for b in range(1, p):
                c = (-inverse_mod(b, p)) % p
                for d in range(p):
                    yield SL2Element(0, b, c, d, p)


def commutator(a: SL2Element, b: SL2Element) -> SL2Element:
    """[a,b] = a b a^{-1} b^{-1}."""
    if a.p != b.p:
        raise ValueError("mixed moduli")
    return a * b * a.inverse() * b.inverse()


# ---------------------------------------------------------------------------
# geometric classes


@dataclass(frozen=True)
class GeometricClass:
    """Closure-level class spec: W0, W1, W2, W3, W4 (with lam), or W4any.

    Membership is decided by trace/identity tests only; W4(lam) and
    W4(lam^{-1}) describe the same point set.
    """
    kind: str
    lam: int | None = None

    def __post_init__(self):
        if self.kind not in ("W0", "W1", "W2", "W3", "W4", "W4any"):
            raise ValueError(f"unknown geometric class kind {self.kind!r}")
        if self.kind == "W4" and self.lam is None:
            raise ValueError("W4 requires an eigenvalue parameter")
        if self.kind != "W4" and self.lam is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    def lam_mod(self, p: int) -> int:
        lam = self.lam % p
        if lam in (0, 1, p - 1):
            raise ValueError(f"lambda = {self.lam} is 0 or ±1 mod {p}")
        return lam

    def trace_mod(self, p: int) -> int | None:
        """Required trace of members, None for W4any (trace != ±2)."""
        if self.kind in ("W0", "W2"):
            return 2
        if self.kind in ("W1", "W3"):
            return p - 2
        if self.kind == "W4":
            lam = self.lam_mod(p)
            return (lam + inverse_mod(lam, p)) % p
        return None

    def size(self, p: int) -> int:
        if self.kind in ("W0", "W1"):
            return 1
        if self.kind in ("W2", "W3"):
            return p * p - 1
        if self.kind == "W4":
            self.lam_mod(p)
            return p * p + p
        return p ** 3 - 2 * p ** 2 - p

    def representative(self, p: int) -> SL2Element:
        if self.kind == "W0":
            return SL2Element.identity(p)
        if self.kind == "W1":
            return SL2Element.minus_identity(p)
        if self.kind == "W2":
            return SL2Element.jplus(p)
        if self.kind == "W3":
            return SL2Element.jminus(p)
        if self.kind == "W4":
            return SL2Element.diagonal(self.lam_mod(p), p)
        raise ValueError("W4any has no distinguished representative")

    def __str__(self):
        if self.kind == "W4":
            return f"W4({self.lam})"
        return self.kind


W0 = GeometricClass("W0")
W1 = GeometricClass("W1")
W2 = GeometricClass("W2")
W3 = GeometricClass("W3")
W4ANY = GeometricClass("W4any")


def w4(lam: int) -> GeometricClass:
    return GeometricClass("W4", lam)


# ---------------------------------------------------------------------------
# the group table: every element of SL(2,F_p)


def _inverses(p: int) -> np.ndarray:
    """x^{-1} mod p at index x != 0 (index 0 holds 0)."""
    inv = np.zeros(p, dtype=np.int64)
    inv[1:] = [inverse_mod(x, p) for x in range(1, p)]
    return inv


def _sl2_rows(p: int) -> np.ndarray:
    """SL(2,F_p) as a (p^3 - p, 4) int64 array in lexicographic row order:
    the m11 = 0 block, where m21 = -1/m12 and m22 is free, then
    m11 = 1..p-1 with (m11, m12, m21) row-major and m22 solved.

    Each entry column is written in place through a reshaped view of the
    one output array, so the build allocates nothing of the table's size
    besides the table itself."""
    r = np.arange(p, dtype=np.int64)
    inv = _inverses(p)
    out = np.empty((p ** 3 - p, 4), dtype=np.int64)
    zero = out[:p * p - p].reshape(p - 1, p, 4)
    zero[..., 0] = 0
    zero[..., 1] = r[1:, None]
    zero[..., 2] = (p - inv[1:])[:, None]
    zero[..., 3] = r
    rest = out[p * p - p:].reshape(p - 1, p, p, 4)
    rest[..., 0] = r[1:, None, None]
    rest[..., 1] = r[:, None]
    rest[..., 2] = r
    m22 = rest[..., 3]
    np.multiply((1 + np.multiply.outer(r, r)) % p, inv[1:, None, None], out=m22)
    np.remainder(m22, p, out=m22)
    return out


class GroupTable:
    """SL(2,F_p) as a (p^3 - p, 4) C-contiguous int64 array of entries,
    built in place by _sl2_rows.

    Rows follow enumerate_sl2 order.  The fast counting path never builds
    one; it serves the brute-force oracle and the tests.
    """

    def __init__(self, p: int):
        check_prime(p)
        self.p = p
        self.elements = _sl2_rows(p)
        self.n = len(self.elements)


@lru_cache(maxsize=None)
def group_table(p: int) -> GroupTable:
    return GroupTable(p)
