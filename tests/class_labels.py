"""The tests' vectorised class classifier, a reference for the kernel.

The library names one matrix's class with sl2.class_code and never labels
arrays of matrices: its fast path reads traces only.  The tests label
group-table rows and matrix products with label_codes, which
test_sl2 checks against class_code row by row.
"""

import numpy as np


def label_codes(p: int, M: np.ndarray) -> np.ndarray:
    """Rational class code of every matrix of M (see sl2.class_code)."""
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
