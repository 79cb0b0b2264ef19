"""The tests' rational-class classifier, and the vectorised matrix
product and inverse that their reference routes use (mat_mul, mat_inv).

The library never names rational classes: off ±Id it reads commutator
fibers by trace, because a trace's two unipotent square classes share one
fiber.  The tests keep the finer split to check that fold against the
oracle: label_codes names the class of every matrix of an array by an
integer code,

    0 Id, 1 −Id, 2/3 trace 2 square/nonsquare, 4/5 trace −2
    square/nonsquare, 6+t split of trace t, 6+p+t nonsplit of trace t,

so the codes run over 0..6+2p−1 and p+2 of them name no class.  test_sl2
checks that the codes are exactly the brute-force conjugation orbits.

The square-class invariant of a trace-±2 non-central M is the Legendre
class of det(v, Nv) where N = M ∓ Id is nilpotent and v is any vector
outside ker N; changing v scales the determinant by a square, and
SL(2)-conjugation preserves it.  With v = e1 the determinant is n21,
falling back to v = e2 (giving −n12) when e1 lies in ker N.
"""

import numpy as np


def label_codes(p: int, M: np.ndarray) -> np.ndarray:
    """Rational class code of every matrix of M, shape (..., 4)."""
    square = np.zeros(p, dtype=bool)      # nonzero squares mod p
    square[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    m11, m12, m21, m22 = M[..., 0], M[..., 1], M[..., 2], M[..., 3]
    t = (m11 + m22) % p
    codes = np.where(square[(t * t - 4) % p], 6 + t, 6 + p + t)
    plus = t == 2
    minus = t == p - 2
    detail_square = square[np.where(m21 != 0, m21, (-m12) % p)]
    codes = np.where(plus, np.where(detail_square, 2, 3), codes)
    codes = np.where(minus, np.where(detail_square, 4, 5), codes)
    off_diag_zero = (m12 == 0) & (m21 == 0)
    codes = np.where(plus & off_diag_zero & (m11 == 1), 0, codes)
    codes = np.where(minus & off_diag_zero & (m11 == p - 1), 1, codes)
    return codes


def mat_mul(p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B mod p, broadcast over the leading axes of (..., 4) arrays."""
    a, b, c, d = A[..., 0], A[..., 1], A[..., 2], A[..., 3]
    e, f, g, h = B[..., 0], B[..., 1], B[..., 2], B[..., 3]
    return np.stack([(a * e + b * g) % p, (a * f + b * h) % p,
                     (c * e + d * g) % p, (c * f + d * h) % p], axis=-1)


def mat_inv(p: int, A: np.ndarray) -> np.ndarray:
    """A^{-1} mod p for determinant-one A, broadcast over the leading axes."""
    return np.stack([A[..., 3], (-A[..., 1]) % p,
                     (-A[..., 2]) % p, A[..., 0]], axis=-1)
