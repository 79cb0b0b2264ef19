"""Exact F_p cardinalities of the commutator-equation solution sets.

Two independent routes exist for every target and their agreement is a
test-suite contract:

* the fast path reduces everything to the commutator-fiber class function
  fiber(g) = #{(A,B): [A,B] = g}, read in closed form from the SL(2,F_p)
  character table.  Off ±Id the fiber depends only on the trace (a
  trace's two unipotent square classes share one fiber), so the
  distribution holds the two central fibers and one fiber per trace, with
  the number of non-central elements per trace in closed form as well
  (see commutator_fiber_distribution).  It builds no group table and sums
  Python ints, exact at every p.  Barred and full sets share one kernel,
  _fiber_sum(p, S, T) = sum_{C in S} fiber(T C): the closed-form histogram
  of tr(T C) over C in S (trace_histogram) against the fiber per trace,
  moved to the central fiber where T C = ±Id:
  - barred sets: C = [A,B]^{-1} T forces [A,B] = T C^{-1}, and every
    geometric class is closed under inversion (trace and ±Id are
    preserved), so the count is _fiber_sum(p, S, T);
  - full sets: [A,B] = (C1 C2)^{-1} and fiber(g^{-1}) = fiber(g) because
    [A,B]^{-1} = [B,A], so Z(S1, S2) = sum fiber(C1 C2) over S1 x S2.  The
    sum over C2 is constant on GL(2,F_p)-orbits of C1 (fiber and S2 are
    both conjugation invariant), and W0..W3 and W4(lam) are one orbit
    each, so C1 is the class representative weighted by the class size.
    W4any is not one orbit, but it is G minus W0..W3, and fiber(C1 C2)
    summed over every C2 in G is |G|^2.  Z is symmetric, so W4any goes to
    the second slot and Z(S, W4any) = |S| |G|^2 - sum_k Z(S, Wk), which
    recurses once more when S is W4any too; no pass reads W4any's p^3
    members;
* the brute-force oracle enumerates pairs (A,B) directly with no class
  theory at all, guarded to small primes.  It works on row indices of the
  group table: a per-prime multiplication table (_cayley), built from
  outer products of the table's entry columns, turns every product and
  inverse into one gather, and [A,B] = (AB)(BA)^{-1} is read for a block
  of A rows against every B at once.  That pass runs once per prime, into
  the histogram counts[r] = #{(A,B): [A,B] = row r}, and every oracle
  count regroups the same enumeration by the value of [A,B]: a lookup, a
  masked sum, or for full tuples one masked sum per C1.  The table is
  refused above the pair guard, so at most the five odd primes <= 13 ever
  hold one (about 27 MB in int32 if all are built).

The test suite keeps a third, vectorised route to the fibers as an oracle
for the closed forms above the brute guard: the class-function identity
#{(A,B): [A,B] = g} = sum over A with A^{-1}g ~ A^{-1} of |C(A)| (the
B's conjugating A^{-1} to A^{-1}g form a centralizer coset).

Fiber counts are constant on GL(2,F_p)-classes (conjugating both A and B
is a bijection), so barred-set counts depend only on the geometric class
of the target matrix T; in particular the lam <-> lam^{-1} and the
equal-regime normalisations below do not change any count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sl2 import (GeometricClass, GroupTable, SL2Element, W0, W1, W2, W3,
                  W4ANY, check_prime, group_table, inverse_mod, is_square_mod,
                  w4)

BRUTE_MAX_PAIR_PRIME = 13    # CommFiber / diagonal-commutator targets
BRUTE_MAX_TUPLE_PRIME = 7    # barred sets and full tuple sets


class OracleRangeError(ValueError):
    """Brute-force oracle requested above its hard runtime guard."""


def _guard(p: int, bound: int, noun: str) -> None:
    if p > bound:
        raise OracleRangeError(
            f"oracle out of range: {noun} are guarded to p <= {bound}, got {p}")


# ---------------------------------------------------------------------------
# target specs


@dataclass(frozen=True)
class CommutatorFiber:
    """#{(A,B): [A,B] = target}."""
    target: SL2Element

    def describe(self) -> dict:
        return {"kind": "commutator-fiber",
                "target": list(self.target.entries())}


ZBAR_ARITY = {"zbar22": 0, "zbar23": 0, "zbar24": 1, "zbar34": 1, "zbar44": 2}


@dataclass(frozen=True)
class ZbarCase:
    """Barred solution set; C is forced to [A,B]^{-1} T.

    zbar22: T = J+,            C in W2
    zbar23: T = -J+,           C in W2
    zbar24: T = diag(1/l1,l1), C in W2
    zbar34: T = diag(1/l1,l1), C in W3
    zbar44: T = diag(1/l2,l2), C in W4(l1); in the equal regime l2 is
            normalised to l1^{-1} so that T = diag(l1, l1^{-1}).
    """
    case: str
    lam1: int | None = None
    lam2: int | None = None

    def __post_init__(self):
        if self.case not in ZBAR_ARITY:
            raise ValueError(f"unknown barred case {self.case!r}")
        got = (self.lam1 is not None) + (self.lam2 is not None)
        if got != ZBAR_ARITY[self.case]:
            raise ValueError(f"{self.case} takes {ZBAR_ARITY[self.case]} parameter(s)")
        if self.lam2 is not None and self.lam1 is None:
            raise ValueError("lam2 given without lam1")

    def _lams(self, p: int) -> tuple[int | None, int | None]:
        l1 = l2 = None
        if self.lam1 is not None:
            l1 = self.lam1 % p
            if l1 in (0, 1, p - 1):
                raise ValueError(f"lam1 = {self.lam1} is 0 or ±1 mod {p}")
        if self.lam2 is not None:
            l2 = self.lam2 % p
            if l2 in (0, 1, p - 1):
                raise ValueError(f"lam2 = {self.lam2} is 0 or ±1 mod {p}")
        return l1, l2

    def regime(self, p: int) -> str | None:
        """zbar44 only: equal / special / generic."""
        if self.case != "zbar44":
            return None
        l1, l2 = self._lams(p)
        if l2 in (l1, inverse_mod(l1, p)):
            return "equal"
        if l2 == (-l1) % p:
            return "special"
        return "generic"

    def target_matrix(self, p: int) -> SL2Element:
        l1, l2 = self._lams(p)
        if self.case == "zbar22":
            return SL2Element.jplus(p)
        if self.case == "zbar23":
            return -SL2Element.jplus(p)
        if self.case in ("zbar24", "zbar34"):
            return SL2Element.diagonal(inverse_mod(l1, p), p)
        if self.regime(p) == "equal":
            l2 = inverse_mod(l1, p)
        return SL2Element.diagonal(inverse_mod(l2, p), p)

    def predicate_class(self, p: int) -> GeometricClass:
        if self.case in ("zbar22", "zbar23", "zbar24"):
            return W2
        if self.case == "zbar34":
            return W3
        l1, _ = self._lams(p)
        return w4(l1)

    def describe(self) -> dict:
        d: dict = {"kind": "zbar", "case": self.case}
        if self.lam1 is not None:
            d["lam1"] = self.lam1
        if self.lam2 is not None:
            d["lam2"] = self.lam2
        return d


@dataclass(frozen=True)
class ZFull:
    """#{(A,B,C1,C2): [A,B] C1 C2 = Id, Ci in class i}."""
    spec1: GeometricClass
    spec2: GeometricClass

    def describe(self) -> dict:
        return {"kind": "zfull", "class1": str(self.spec1), "class2": str(self.spec2)}


@dataclass(frozen=True)
class XStratum:
    """#{(A,B): [A,B] in the geometric class union named by tag}."""
    tag: str

    def __post_init__(self):
        if self.tag not in ("X0", "X1", "X2", "X3", "X4"):
            raise ValueError(f"unknown stratum {self.tag!r}")

    def geometric_union(self) -> GeometricClass:
        return {"X0": W0, "X1": W1, "X2": W2, "X3": W3, "X4": W4ANY}[self.tag]

    def describe(self) -> dict:
        return {"kind": "x-stratum", "tag": self.tag}


@dataclass(frozen=True)
class DiagonalCommutatorFiber:
    """Matrices P mod the right diagonal torus with [P, diag(lam,1/lam)]
    of the forced shape for the trace pair (t1, t2).

    t1 defaults to the value forced by the trace relation
      mu (lam^2-1) t1 + (1 - mu^2 lam^2) t2 = (1-mu^2)(1+lam^2);
    passing an explicit inconsistent t1 yields an empty fiber.
    """
    lam: int
    mu: int
    t2: int
    t1: int | None = None

    def describe(self) -> dict:
        d: dict = {"kind": "diagonal-commutator-fiber",
                   "lam": self.lam, "mu": self.mu, "t2": self.t2}
        if self.t1 is not None:
            d["t1"] = self.t1
        return d


TargetSpec = CommutatorFiber | ZbarCase | ZFull | XStratum | DiagonalCommutatorFiber


# ---------------------------------------------------------------------------
# the per-prime class distribution


@dataclass
class ClassDistribution:
    """The commutator fibers of Id and -Id (central), and per trace t the
    fiber of a non-central element of trace t (fibers[t]) and the number of
    such elements (sizes[t]), as tuples of Python ints."""
    p: int
    central: tuple[int, int]
    fibers: tuple[int, ...]
    sizes: tuple[int, ...]

    def check_consistency(self) -> None:
        """Raise unless the sizes with ±Id count |G| elements and the
        fibers |G|^2 pairs, summed in Python ints, which cannot wrap."""
        n = self.p ** 3 - self.p
        total = sum(self.central) + sum(f * s for f, s in zip(self.fibers, self.sizes))
        if sum(self.sizes) + 2 != n or total != n * n:
            raise ArithmeticError(
                f"{sum(self.sizes) + 2} elements and {total} pairs counted at "
                f"p={self.p}, expected |G| = {n} and |G|^2 = {n * n}")


def _closed_form_fiber(p: int, t: int) -> int:
    """#{(A,B): [A,B] = g} for a non-central g of trace t.

    Frobenius: the fiber is |G| sum_chi chi(g)/chi(1) over the irreducible
    characters of SL(2,F_q) (Fulton-Harris 5.2).  Every sum of roots of
    unity in it cancels by orthogonality, leaving a polynomial in q that
    depends only on eps = (-1)^((q-1)/2) at trace -2, and off ±2 on whether
    t^2 - 4 is a square (split or nonsplit) and on ell = +1 when t+2 is a
    square mod q (the Legendre symbol of lam for diag(lam, 1/lam)).
    """
    q = p
    if t == 2:
        return q ** 3 - 2 * q ** 2 - 3 * q
    if t == q - 2:
        eps = 1 if q % 4 == 1 else -1
        return q ** 3 + 3 * eps * q ** 2
    ell = is_square_mod(t + 2, q)
    if is_square_mod(t * t - 4, q):
        return q ** 3 + 3 * q ** 2 - 3 * q - 1 if ell else (q - 1) ** 3
    return q ** 3 - 3 * q ** 2 - 3 * q + 1 if ell else (q + 1) ** 3


_dist_memo: dict[int, ClassDistribution] = {}


def commutator_fiber_distribution(p: int) -> ClassDistribution:
    """Fibers and element counts by trace, memoised per prime; no group
    table is built.

    Fibers come in closed form, and so do the sizes: p^2 - 1 non-central
    elements at trace ±2, p^2 + p at a split trace (t^2 - 4 a nonzero
    square) and p^2 - p at a nonsplit one.  The totals check both against
    |G| elements and |G|^2 pairs.
    """
    if p in _dist_memo:
        return _dist_memo[p]
    check_prime(p)
    n = p ** 3 - p
    sizes = tuple(p * p - 1 if t in (2, p - 2) else
                  p * p + p if is_square_mod(t * t - 4, p) else p * p - p
                  for t in range(p))
    fibers = tuple(_closed_form_fiber(p, t) for t in range(p))
    central = (n * (p + 4), n)      # the fibers of Id and -Id
    dist = ClassDistribution(p, central, fibers, sizes)
    dist.check_consistency()
    _dist_memo[p] = dist
    return dist


# ---------------------------------------------------------------------------
# fast-path counts


def count_commutator_fiber(p: int, target: SL2Element) -> int:
    if target.p != p:
        raise ValueError(f"target lives mod {target.p}, not {p}")
    dist = commutator_fiber_distribution(p)
    if target.is_identity() or target.is_minus_identity():
        return dist.central[target.is_minus_identity()]
    return dist.fibers[target.trace()]


def membership_mask(table: GroupTable, M: np.ndarray,
                    spec: GeometricClass) -> np.ndarray:
    """Which matrices of M (shape (..., 4)) lie in the geometric class: the
    brute-force oracle's class predicate, which reads only matrix entries."""
    p = table.p
    t = (M[..., 0] + M[..., 3]) % p
    if spec.kind == "W4any":
        return (t != 2) & (t != p - 2)
    if spec.kind in ("W0", "W1"):
        target = spec.representative(p).entries()
        return (M == np.array(target, dtype=np.int64)).all(axis=-1)
    central = (M[..., 1] == 0) & (M[..., 2] == 0) & (M[..., 0] == M[..., 3])
    tm = spec.trace_mod(p)
    if spec.kind in ("W2", "W3"):
        return (t == tm) & ~central
    return t == tm


def trace_histogram(p: int, spec: GeometricClass, T: SL2Element) -> list[int]:
    """h[s] = #{C in spec: tr(T C) = s} for spec W2, W3 or W4(lam) and an
    upper-triangular T = [[x, y], [0, 1/x]], in closed form.

    C = [[a, b], [c, t-a]] has bc = a(t-a) - 1: p - 1 pairs (b, c) per a,
    2p - 1 at a root of a(t-a) = 1, an eigenvalue of spec's representative.
    tr(T C) = (x - 1/x) a + t/x + y c.  For x != ±1, a -> tr(T C) is a
    bijection (T is conjugate to diag(x, 1/x), and h is invariant under
    that); at T = ±Id every a lands on t/x.  Otherwise it is x t + y c: p
    pairs (a, b) per c != 0, p per root at c = 0.  W2, W3 drop C = ±Id.
    """
    check_prime(p)
    if spec.kind not in ("W2", "W3", "W4"):
        raise ValueError(f"no trace histogram for {spec}")
    x, y, z, _ = T.entries()
    if z or T.p != p:
        raise ValueError(f"{T} is not an upper-triangular matrix mod {p}")
    R = spec.representative(p)
    t, roots, xi = R.trace(), {R.m11, R.m22}, inverse_mod(x, p)
    if x == xi and y == 0:
        h = [0] * p
        h[t * xi % p] = p * (p - 1 + len(roots))
    elif x != xi:
        h = [p - 1] * p
        for a in roots:
            h[((x - xi) * a + t * xi) % p] += p
    else:
        h = [p] * p
        h[x * t % p] = p * len(roots)
    if spec.kind != "W4":
        h[(1 if spec.kind == "W2" else -1) * T.trace() % p] -= 1
    return h


def _fiber_sum(p: int, spec: GeometricClass, T: SL2Element) -> int:
    """sum over C in spec of fiber(T C), for an upper-triangular T."""
    if spec.kind in ("W0", "W1"):
        return count_commutator_fiber(p, T * spec.representative(p))
    dist = commutator_fiber_distribution(p)
    total = sum(h * f for h, f in zip(trace_histogram(p, spec, T), dist.fibers))
    # C = eps T^{-1}, in spec when T is not central, has T C = eps Id
    central = T.is_identity() or T.is_minus_identity()
    for fiber, eps in zip(dist.central, (1, -1)):
        if eps * T.trace() % p == spec.trace_mod(p) and not central:
            total += fiber - dist.fibers[2 * eps % p]
    return total


def count_zbar(p: int, case: ZbarCase) -> int:
    """Sum of fiber(T C^{-1}) over C in the constraining class, which is
    closed under inversion (trace and ±Id are preserved): C replaces C^{-1}."""
    if p < 5:
        raise ValueError("barred-set counts need p >= 5")
    return _fiber_sum(p, case.predicate_class(p), case.target_matrix(p))


def count_z_full(p: int, spec1: GeometricClass, spec2: GeometricClass) -> int:
    """Sum of fiber((C1 C2)^{-1}) = fiber(C1 C2) over the two classes.

    Every class but W4any is one GL(2,F_p)-orbit, so C1 is its representative
    weighted by its size.  Z is symmetric, so W4any goes second, and there
    it is G minus W0..W3: fiber(C1 C2) summed over all C2 in G is |G|^2.
    """
    if spec1.kind == "W4any":
        spec1, spec2 = spec2, spec1
    if spec2.kind != "W4any":
        return spec1.size(p) * _fiber_sum(p, spec2, spec1.representative(p))
    n = p ** 3 - p
    return spec1.size(p) * n * n - sum(count_z_full(p, spec1, w)
                                       for w in (W0, W1, W2, W3))


def count_x_stratum(p: int, name: str) -> int:
    """F_p points of the commutator preimage of a geometric class union:
    a central fiber, or fibers weighted by sizes over the union's traces."""
    union = XStratum(name).geometric_union()
    dist = commutator_fiber_distribution(p)
    if union in (W0, W1):
        return dist.central[union == W1]
    weighted = [f * s for f, s in zip(dist.fibers, dist.sizes)]
    t = union.trace_mod(p)
    if t is None:
        return sum(weighted) - weighted[2] - weighted[p - 2]
    return weighted[t]


def _diagonal_commutator_targets(p: int, lam: int, mu: int, t2: int,
                                 t1: int | None) -> tuple[int, int, int]:
    """(l2, want11, want22) of a DiagonalCommutatorFiber: P = [[x, y], [z, w]]
    is in it when xw - yz/l2 = want11 and xw - l2 yz = want22, with
    l2 = lam^2.  The wants are [[d mu, .], [., a/mu]] for the (a, d)
    recovered from the trace pair.  Plain arithmetic, no class theory, so
    the oracle shares it."""
    lam %= p
    mu %= p
    t2 %= p
    if lam in (0, 1, p - 1):
        raise ValueError(f"lam = {lam} must avoid {{0, ±1}} mod {p}")
    if mu in (0, 1, p - 1):
        raise ValueError(f"mu = {mu} must avoid {{0, ±1}} mod {p}: the trace "
                         "pair does not determine the diagonal of [A,B] there")
    l2 = lam * lam % p
    if t1 is None:
        # mu(lam^2-1) t1 + (1 - mu^2 lam^2) t2 = (1-mu^2)(1+lam^2)
        rhs = ((1 - mu * mu) * (1 + l2) - (1 - mu * mu % p * l2) * t2) % p
        t1 = rhs * inverse_mod(mu * (l2 - 1) % p, p) % p
    t1 %= p
    mu_inv = inverse_mod(mu, p)
    den = inverse_mod((mu - mu_inv) % p, p)
    a = (mu * t1 - t2) * den % p
    d = (t2 - mu_inv * t1) * den % p
    return l2, d * mu % p, a * mu_inv % p


def count_diagonal_commutator_fiber(p: int, lam: int, mu: int, t2: int,
                                    t1: int | None = None) -> int:
    """#{P in SL(2,F_p)} / (p-1) with [P, diag(lam, 1/lam)] of the diagonal
    forced by the trace pair; bc = ad - 1 is then automatic.

    X = xw and Y = yz solve X - Y = 1 (the determinant) and
    X - Y/l2 = want11, since l2 != 1; the fiber is empty unless also
    X - l2 Y = want22, and otherwise it is N(X) N(Y) / (p-1) with
    N(c) = #{(x, w): xw = c}, which is 2p-1 for c = 0 and p-1 otherwise.
    """
    check_prime(p)
    l2, want11, want22 = _diagonal_commutator_targets(p, lam, mu, t2, t1)
    Y = (want11 - 1) * inverse_mod(1 - inverse_mod(l2, p), p) % p
    X = (1 + Y) % p
    if (X - l2 * Y) % p != want22:
        return 0
    n_x, n_y = (2 * p - 1 if c == 0 else p - 1 for c in (X, Y))
    return n_x * n_y // (p - 1)


def fast_count(p: int, spec: TargetSpec) -> int:
    if isinstance(spec, CommutatorFiber):
        return count_commutator_fiber(p, spec.target)
    if isinstance(spec, ZbarCase):
        return count_zbar(p, spec)
    if isinstance(spec, ZFull):
        return count_z_full(p, spec.spec1, spec.spec2)
    if isinstance(spec, XStratum):
        return count_x_stratum(p, spec.tag)
    if isinstance(spec, DiagonalCommutatorFiber):
        return count_diagonal_commutator_fiber(p, spec.lam, spec.mu, spec.t2, spec.t1)
    raise TypeError(f"unknown target spec {spec!r}")


# ---------------------------------------------------------------------------
# brute-force oracle: direct enumeration, no class theory


_CELLS = 1 << 18   # gathered cells per block: a few MB of temporaries

# p -> (mul, inv, commutator histogram or None until a count first asks)
_cayley_memo: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}


def _cayley(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(mul, inv) on the rows of group_table(p): mul[i, j] is the row of
    E_i E_j and inv[i] the row of E_i^{-1}, both int32 and read-only.

    The table's four entry columns are taken once as contiguous arrays;
    for a block of rows i, each entry of E_i E_j is a sum of two outer
    products of them, and the entries are encoded as one base-p number
    that a dense p^4 lookup turns back into a row.  Memoised per prime and
    refused above BRUTE_MAX_PAIR_PRIME, which bounds the memo.
    """
    _guard(p, BRUTE_MAX_PAIR_PRIME, "multiplication tables")
    if p in _cayley_memo:
        return _cayley_memo[p][:2]
    table = group_table(p)
    n = table.n
    # int32 is exact: the guard keeps every code below 13^4
    m11, m12, m21, m22 = np.ascontiguousarray(table.elements.T, dtype=np.int32)
    row_of = np.full(p ** 4, -1, dtype=np.int32)
    row_of[((m11 * p + m12) * p + m21) * p + m22] = np.arange(n, dtype=np.int32)

    def rows(code: np.ndarray) -> np.ndarray:
        r = row_of[code]
        if (r < 0).any():
            raise ArithmeticError(f"a product missed the group table at p={p}")
        return r

    # the inverse is the adjugate [[m22, -m12], [-m21, m11]]
    inv = rows(((m22 * p + (p - m12) % p) * p + (p - m21) % p) * p + m11)
    mul = np.empty((n, n), dtype=np.int32)
    step = max(1, _CELLS // n)
    for a in range(0, n, step):
        x11, x12, x21, x22 = (m[a:a + step, None] for m in (m11, m12, m21, m22))
        # c11 of E_i E_j, then c12, c21 and c22 appended as base-p digits
        code = (x11 * m11 + x12 * m21) % p
        for x, y, u, v in ((x11, x12, m12, m22), (x21, x22, m11, m21),
                           (x21, x22, m12, m22)):
            code *= p
            code += (x * u + y * v) % p
        mul[a:a + step] = rows(code)
    mul.flags.writeable = inv.flags.writeable = False
    _cayley_memo[p] = mul, inv, None
    return mul, inv


def _commutator_blocks(p: int):
    """Row indices of [A, B] = (AB)(BA)^{-1} for every B, a block of A rows
    at a time; each block is a (rows, n) int32 array of about _CELLS
    entries."""
    mul, inv = _cayley(p)
    n = len(inv)
    flat = mul.ravel()
    step = max(1, _CELLS // n)
    for a in range(0, n, step):
        b = min(a + step, n)
        yield flat[mul[a:b] * n + inv[mul[:, a:b].T]]


def _commutator_counts(p: int) -> np.ndarray:
    """counts[r] = #{(A, B): [A, B] = row r of group_table(p)}, int64 and
    read-only: one pass of _commutator_blocks over all |G|^2 pairs, kept in
    the prime's _cayley_memo entry."""
    mul, inv = _cayley(p)
    counts = _cayley_memo[p][2]
    if counts is None:
        counts = np.zeros(len(inv), dtype=np.int64)
        for C in _commutator_blocks(p):
            counts += np.bincount(C.ravel(), minlength=len(inv))
        counts.flags.writeable = False
        _cayley_memo[p] = mul, inv, counts
    return counts


def _row_of(table: GroupTable, m: SL2Element) -> int:
    return int(np.flatnonzero((table.elements == m.entries()).all(axis=1))[0])


# spec type -> (the oracle's prime bound for it, the noun its refusal names)
ORACLE_GUARDS = {
    CommutatorFiber: (BRUTE_MAX_PAIR_PRIME, "commutator fibers"),
    ZbarCase: (BRUTE_MAX_TUPLE_PRIME, "barred sets"),
    ZFull: (BRUTE_MAX_TUPLE_PRIME, "full tuple sets"),
    XStratum: (BRUTE_MAX_PAIR_PRIME, "strata"),
    DiagonalCommutatorFiber: (BRUTE_MAX_PAIR_PRIME, "diagonal commutator fibers"),
}


def brute_force_count(p: int, spec: TargetSpec) -> int:
    """Ground-truth count over every pair (A, B), with no class theory.

    The pairs are enumerated once per prime into the commutator histogram
    counts[r] = #{(A, B): [A, B] = row r} (_commutator_counts); each count
    then regroups that enumeration by the value of [A, B], in O(n) for
    pair and barred targets and O(|K1| n) for full tuples, n = |G|.

    Hard runtime guards: p <= 13 for pair-domain targets and p <= 7 for
    barred/full-tuple targets (ORACLE_GUARDS); violations raise
    OracleRangeError.
    """
    if type(spec) not in ORACLE_GUARDS:
        raise TypeError(f"unknown target spec {spec!r}")
    _guard(p, *ORACLE_GUARDS[type(spec)])

    if isinstance(spec, CommutatorFiber):
        if spec.target.p != p:
            raise ValueError("target modulus mismatch")
        return int(_commutator_counts(p)[_row_of(group_table(p), spec.target)])

    if isinstance(spec, ZbarCase):
        if p < 5:
            raise ValueError("barred-set counts need p >= 5")
        table = group_table(p)
        mul, inv = _cayley(p)
        t = _row_of(table, spec.target_matrix(p))
        mask = membership_mask(table, table.elements, spec.predicate_class(p))
        # C = [A,B]^{-1} T for [A,B] = row r
        return int(_commutator_counts(p) @ mask[mul[inv, t]])

    if isinstance(spec, ZFull):
        table = group_table(p)
        mul, inv = _cayley(p)
        mask1 = membership_mask(table, table.elements, spec.spec1)
        mask2 = membership_mask(table, table.elements, spec.spec2)
        # C2 = C1^{-1} [A,B]^{-1} for every C1 and every value [A,B] = row r
        hits = mask2[mul[inv[mask1][:, None], inv]]
        return int((hits @ _commutator_counts(p)).sum())

    if isinstance(spec, XStratum):
        table = group_table(p)
        mask = membership_mask(table, table.elements, spec.geometric_union())
        return int(_commutator_counts(p) @ mask)

    return _brute_diagonal_commutator_fiber(p, spec)


def _brute_diagonal_commutator_fiber(p: int, spec: DiagonalCommutatorFiber) -> int:
    """Four nested scalar loops over P entries; independent of GroupTable."""
    l2, want11, want22 = _diagonal_commutator_targets(
        p, spec.lam, spec.mu, spec.t2, spec.t1)
    l2i = inverse_mod(l2, p)
    matches = 0
    for x in range(p):
        for y in range(p):
            for z in range(p):
                for w in range(p):
                    if (x * w - y * z) % p != 1:
                        continue
                    if (x * w - l2i * y * z) % p != want11:
                        continue
                    if (x * w - l2 * y * z) % p != want22:
                        continue
                    matches += 1
    if matches % (p - 1):
        raise ArithmeticError("fiber size not divisible by torus order")
    return matches // (p - 1)


def brute_commutator_tally(p: int) -> dict[tuple, int]:
    """Value -> pair count over the full pair enumeration; guard p <= 13.

    Keys come in table row order, which is lexicographic in the entries."""
    _guard(p, BRUTE_MAX_PAIR_PRIME, "commutator tallies")
    table = group_table(p)
    counts = _commutator_counts(p)
    return {tuple(table.elements[r].tolist()): int(counts[r])
            for r in np.flatnonzero(counts).tolist()}


# ---------------------------------------------------------------------------
# monodromy probe


def monodromy_probe(p: int) -> dict:
    """Union of split-diagonal fibers vs the two reference evaluations.

    The union of all X-bar_{4,lam} over F_p is the set of pairs whose
    commutator is a regular diagonal matrix; the probe always reports it
    next to the q=p values of the two degree-4 reference polynomials so
    that any divergence is visible rather than asserted away.
    """
    if p < 5:
        raise ValueError("probe needs p >= 5")
    from .strata import building_blocks
    blocks = building_blocks()
    per_lambda = {}
    classes: dict[str, list[int]] = {"square": [], "nonsquare": []}
    for lam in range(2, p - 1):
        per_lambda[str(lam)] = count_commutator_fiber(
            p, SL2Element.diagonal(lam, p))
        classes["square" if is_square_mod(lam, p) else "nonsquare"].append(lam)
    return {
        "p": p,
        "per_lambda": per_lambda,
        "union_count": sum(per_lambda.values()),
        "xbar4_reference_value": blocks["Xbar4"].evaluate(p),
        "xbar4_quotient_reference_value": blocks["Xbar4/Z2"].evaluate(p),
        "lambda_classes": classes,
    }
