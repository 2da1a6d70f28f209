"""Exact arithmetic substrate: rationals, square classes, cyclotomic numbers,
integer lattice normal forms, and the Kronecker/Hilbert symbol machinery that
decides membership in norm groups of quadratic fields.

Everything here is exact; there is no floating point anywhere in the engine.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import sympy

Rational = Union[int, Fraction]

#: Archimedean place marker accepted by :func:`hilbert_symbol`.
PLACE_INF = "inf"

DEFAULT_FACTOR_BOUND = 10**6


class FactorBoundError(ValueError):
    """An integer contains a prime factor beyond the configured bound."""


def factor_bounded(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Factor |n| into primes, refusing any prime factor above ``bound``.

    Trial division by the primes up to min(sqrt(cofactor), bound): inputs
    whose prime factors all lie within the bound succeed, anything else
    raises FactorBoundError after at most that much work.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    fac: dict[int, int] = {}
    k = 0
    while n > 1:
        if k == len(_PRIMES):
            _extend_primes(min(math.isqrt(n), bound))
            if k == len(_PRIMES):
                break
        p = _PRIMES[k]
        if p * p > n or p > bound:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            fac[p] = e
        k += 1
    if n > 1:
        # no prime <= min(sqrt(n), bound) divides n: n is a prime or has one
        # beyond the bound
        if n > bound:
            raise FactorBoundError(
                f"{n} has a prime factor above bound {bound}")
        fac[n] = 1
    return fac


#: Every prime up to _PRIMES[-1], in order; grown on demand, never sieved
#: ahead of need.
_PRIMES = [2, 3, 5, 7]


def _extend_primes(limit: int) -> None:
    """Append the primes up to ``limit`` by sieving one segment."""
    if limit <= _PRIMES[-1]:
        return
    _extend_primes(math.isqrt(limit))
    lo = _PRIMES[-1] + 1
    seg = bytearray([1]) * (limit - lo + 1)
    for p in _PRIMES:
        if p * p > limit:
            break
        start = max(p * p, -(-lo // p) * p) - lo
        seg[start::p] = bytes(len(range(start, len(seg), p)))
    _PRIMES.extend(lo + i for i, flag in enumerate(seg) if flag)


@functools.cache
def euler_phi(n: int) -> int:
    return int(sympy.totient(n))


@functools.cache
def mobius(n: int) -> int:
    return int(sympy.mobius(n))


class ExactCheckError(ArithmeticError):
    """An exact postcondition failed: a defect in the engine or in data it
    was handed, never a property of a valid input."""


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer."""
    if den == 0:
        raise ExactCheckError(f"{what}: {num}/0 is not an integer")
    q, r = divmod(num, den)
    if r:
        raise ExactCheckError(f"{what}: {num}/{den} is not an integer")
    return q


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class SquareClass(NamedTuple):
    """A nonzero rational modulo squares: sign and squarefree magnitude."""

    sign: int
    magnitude: int

    def __mul__(self, other: "SquareClass") -> "SquareClass":  # type: ignore[override]
        g = math.gcd(self.magnitude, other.magnitude)
        return SquareClass(self.sign * other.sign,
                           (self.magnitude // g) * (other.magnitude // g))

    __truediv__ = __mul__  # every class is its own inverse

    @property
    def value(self) -> int:
        return self.sign * self.magnitude

    def is_trivial(self) -> bool:
        return self.sign == 1 and self.magnitude == 1


SQUARE_ONE = SquareClass(1, 1)


def squarefree_class(x: Rational, bound: int = DEFAULT_FACTOR_BOUND) -> SquareClass:
    """Reduce a nonzero rational modulo squares.

    The class of p/q equals the class of p*q, so only one integer is factored.
    """
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = abs(x.numerator * x.denominator)
    mag = 1
    for p, e in factor_bounded(n, bound).items():
        if e % 2:
            mag *= p
    return SquareClass(1 if x > 0 else -1, mag)


def is_squarefree(d: int) -> bool:
    if d == 0:
        return False
    return all(e == 1 for e in factor_bounded(d).values())


# ---------------------------------------------------------------------------
# Kronecker and Hilbert symbols


def kronecker_symbol(a: int, n: int) -> int:
    """Standard Kronecker symbol (a|n), multiplicative in both arguments."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # strip the even part of n; (a|2) is 0 for even a, else chi_8(a)
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    # now n is odd and positive: Jacobi with quadratic reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _split_place(x: Fraction, p: int) -> tuple[int, int]:
    """Write x = p^alpha * u with u a p-unit; return (alpha, u) as integers
    up to p-adic square factors (u is num*den with p removed)."""
    num, den = x.numerator, x.denominator
    alpha = 0
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    return alpha, num * den


def hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """Local Hilbert symbol (a,b) at a finite prime or at ``PLACE_INF``.

    Satisfies bilinearity and the product formula over all places.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == PLACE_INF or place == math.inf:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not (isinstance(p, int) and p >= 2 and sympy.isprime(p)):
        raise ValueError(f"invalid place {place!r}")
    alpha, u = _split_place(a, p)
    beta, v = _split_place(b, p)
    if p != 2:
        s = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            s = -s
        if beta % 2:
            s *= kronecker_symbol(u % p, p)
        if alpha % 2:
            s *= kronecker_symbol(v % p, p)
        return s
    eps_u = ((u - 1) // 2) % 2
    eps_v = ((v - 1) // 2) % 2
    omega_u = ((u * u - 1) // 8) % 2
    omega_v = ((v * v - 1) // 8) % 2
    expo = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if expo % 2 else 1


def is_norm_from_quadratic(x: Rational, d: int) -> bool:
    """Decide x in N(Q(sqrt(d))^*) via Hilbert symbols at the relevant places.

    (x, d)_v = 1 automatically at odd primes dividing neither x nor d, so it
    is enough to look at infinity, 2, and the primes of x and d.  Verdicts
    are memoised on (x, d); invalid arguments raise and are not cached.
    """
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("zero is not in the multiplicative group")
    return _is_norm(x, d)


@functools.lru_cache(maxsize=4096)
def _is_norm(x: Fraction, d: int) -> bool:
    if d == 1 or not is_squarefree(d):
        raise ValueError(f"d must be squarefree and != 1, got {d}")
    places: set = {PLACE_INF, 2}
    places.update(factor_bounded(x.numerator * x.denominator or 1))
    places.update(factor_bounded(d))
    places.discard(1)
    return all(hilbert_symbol(x, d, v) == 1 for v in sorted(places, key=str))


class NormClass(NamedTuple):
    """A rational modulo norms from Q(sqrt(d)), stored as square class + d."""

    square_class: SquareClass
    d: int

    def is_trivial(self) -> bool:
        return is_norm_from_quadratic(self.square_class.value, self.d)

    def same_class(self, other: "NormClass") -> bool:
        if self.d != other.d:
            raise ValueError("norm classes live over different fields")
        ratio = (self.square_class / other.square_class).value
        return is_norm_from_quadratic(ratio, self.d)


def norm_class(x: Rational, d: int) -> NormClass:
    return NormClass(squarefree_class(x), d)


# ---------------------------------------------------------------------------
# Integer matrices: Smith and Hermite normal forms


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


class SmithForm(NamedTuple):
    """u*a*v = d with d diagonal and u, v unimodular."""

    d: list[list[int]]
    u: list[list[int]]
    v: list[list[int]]


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular.

    Diagonal entries d_1 | d_2 | ... are nonnegative. The postcondition is
    re-verified by multiplication on every call.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    k = 0
    while k < min(rows, cols):
        # find a pivot: smallest nonzero entry in the remaining block
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if m[i][k]:
                    add_row(i, k, -(m[i][k] // m[k][k]))
                    if m[i][k]:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, cols):
                if m[k][j]:
                    add_col(j, k, -(m[k][j] // m[k][k]))
                    if m[k][j]:
                        swap_cols(k, j)
                        dirty = True
        # enforce divisibility d_k | m[i][j] for the rest of the block
        bad = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if m[i][j] % m[k][k]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(k, bad, 1)
            continue
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    if mat_mul(mat_mul(u, [list(r) for r in a]), v) != m:
        raise ExactCheckError("Smith form postcondition u*a*v = d fails")
    return SmithForm(m, u, v)


class SnfSolution(NamedTuple):
    kernel_basis: list[list[int]]
    minimal_m: int
    witness: list[int]
    particular: Optional[list[int]]  # witness when m == 1, else None


class NoMultipleError(ValueError):
    """No positive multiple of the target lies in the column lattice."""


def snf_solve(a: Sequence[Sequence[int]], t: Sequence[int],
              smith: SmithForm | None = None) -> SnfSolution:
    """Solve a*x = m*t over the integers with m >= 1 minimal.

    Also returns a basis of the integer kernel {x : a*x = 0}.  ``smith`` is
    the Smith form of ``a`` when the caller already holds it; otherwise it
    is computed here.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if len(t) != rows:
        raise ValueError("dimension mismatch")
    d, u, v = smith if smith is not None else smith_normal_form(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    kernel = [[v[r][j] for r in range(cols)] for j in range(rank, cols)]
    s = [sum(u[i][k] * t[k] for k in range(rows)) for i in range(rows)]
    if any(s[i] for i in range(rank, rows)):
        raise NoMultipleError("no multiple works: target outside the rational column span")
    # smallest positive m with d_i | m*s_i for every pivot row
    m = 1
    for i in range(rank):
        if s[i]:
            di = d[i][i]
            m = math.lcm(m, di // math.gcd(di, s[i]))
    y = [m * s[i] // d[i][i] if i < rank else 0 for i in range(cols)]
    x = [sum(v[r][j] * y[j] for j in range(cols)) for r in range(cols)]
    if [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)] \
            != [m * ti for ti in t]:
        raise ExactCheckError("snf_solve witness does not solve a*x = m*t")
    return SnfSolution(kernel, m, x, x if m == 1 else None)


def hermite_row_basis(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Canonical basis (row-style Hermite form) of the lattice spanned by rows."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    basis: list[list[int]] = []
    col = 0
    while work and col < cols:
        pivots = [r for r in work if r[col]]
        if not pivots:
            col += 1
            continue
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            for r in pivots[1:]:
                q = r[col] // p[col]
                for j in range(cols):
                    r[j] -= q * p[j]
            pivots = [r for r in pivots if r[col]]
            rest = [r for r in work if not r[col]]
            work = pivots + rest
        p = pivots[0]
        if p[col] < 0:
            p[:] = [-x for x in p]
        # reduce earlier basis rows against this pivot
        for b in basis:
            q = b[col] // p[col]
            if q:
                for j in range(cols):
                    b[j] -= q * p[j]
        basis.append(p)
        work = [r for r in work if r is not p and any(r)]
        col += 1
    return basis


def reduce_by_kernel(x: Sequence[int],
                     kernel: Iterable[Sequence[int]]) -> list[int]:
    """A reduced vector of x + span(kernel), deterministically.

    The key is (L1 norm, then lexicographic).  When 7**rank <= 20000 the
    smallest key over kernel coefficients in [-3, 3] is taken; otherwise
    greedy sweeps along each basis row.  Neither is proven to reach the
    global minimum.
    """
    kb = hermite_row_basis(kernel)
    if not kb:
        return list(x)

    def key(v: list[int]) -> tuple:
        return (sum(abs(c) for c in v), tuple(v))

    best = list(x)
    if 7 ** len(kb) <= 20000:
        for combo in itertools.product(range(-3, 4), repeat=len(kb)):
            cand = list(x)
            for c, row in zip(combo, kb):
                if c:
                    cand = [a + c * b for a, b in zip(cand, row)]
            if key(cand) < key(best):
                best = cand
    else:
        improved = True
        while improved:
            improved = False
            for row in kb:
                for sign in (1, -1):
                    cand = [a + sign * b for a, b in zip(best, row)]
                    while key(cand) < key(best):
                        best = cand
                        cand = [a + sign * b for a, b in zip(best, row)]
                        improved = True
    return best


# ---------------------------------------------------------------------------
# Rational dense linear algebra (small matrices)


def rat_matrix(entries) -> list[list[Fraction]]:
    return [[_as_fraction(x) for x in row] for row in entries]


def rat_det(a: Sequence[Sequence[Rational]]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[_as_fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                c = m[i][k] * inv
                m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    return det


def rat_solve(a, b):
    """Solve a*x = b for square nonsingular a over Q."""
    n = len(a)
    m = [[_as_fraction(x) for x in row] + [_as_fraction(bi)] for row, bi in zip(a, b)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("singular system")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                c = m[i][k]
                m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Cyclotomic numbers

_CYCLO_CACHE: dict[int, tuple[list[Fraction], list[list[Fraction]]]] = {}


def _cyclo_tables(n: int):
    """Return (coeffs of Phi_n, reduction table of zeta^e for e in [0, n))."""
    cached = _CYCLO_CACHE.get(n)
    if cached is not None:
        return cached
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    coeffs = [Fraction(int(c)) for c in reversed(poly.all_coeffs())]  # c0..c_phi
    phi = len(coeffs) - 1
    # zeta^e as a vector over the power basis 1..zeta^(phi-1)
    table: list[list[Fraction]] = []
    for e in range(phi):
        vec = [Fraction(0)] * phi
        vec[e] = Fraction(1)
        table.append(vec)
    for e in range(phi, n):
        prev = table[e - 1]
        shifted = [Fraction(0)] + prev[:-1]
        top = prev[-1]
        if top:
            shifted = [s - top * coeffs[j] for j, s in enumerate(shifted)]
        table.append(shifted)
    _CYCLO_CACHE[n] = (coeffs, table)
    return _CYCLO_CACHE[n]


@functools.cache
def cyclotomic_reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e: zeta_n^e over the power basis 1 .. zeta_n^(phi(n)-1), for e in
    [0, n); integers, since Phi_n is monic with integer coefficients."""
    return tuple(tuple(int(c) for c in row) for row in _cyclo_tables(n)[1])


@functools.cache
def _galois_mean_row(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^j) / phi(n) = mu(d) / phi(d), d = n / gcd(n, j), j < phi."""
    out = []
    for j in range(euler_phi(n)):
        d = n // math.gcd(n, j)
        out.append(Fraction(mobius(d), euler_phi(d)))
    return tuple(out)


class CycNumber:
    """An element of Q(zeta_n) in the power basis modulo Phi_n.

    Values at different levels compare through a common level; instances are
    immutable and deliberately unhashable (equality crosses levels).
    """

    __slots__ = ("level", "coeffs")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, level: int, coeffs: Sequence[Rational]):
        phi = euler_phi(level)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients at level {level}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("CycNumber is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x: Rational, level: int = 1) -> "CycNumber":
        vec = [Fraction(0)] * euler_phi(level)
        vec[0] = _as_fraction(x)
        return CycNumber(level, vec)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycNumber":
        return CycNumber.from_powers(n, {k % n: Fraction(1)})

    @staticmethod
    def from_powers(n: int, powers: dict[int, Rational]) -> "CycNumber":
        _, table = _cyclo_tables(n)
        phi = euler_phi(n)
        vec = [Fraction(0)] * phi
        for e, c in powers.items():
            c = _as_fraction(c)
            if not c:
                continue
            row = table[e % n]
            for j in range(phi):
                if row[j]:
                    vec[j] += c * row[j]
        return CycNumber(n, vec)

    # -- level management ---------------------------------------------

    def raised(self, m: int) -> "CycNumber":
        if m == self.level:
            return self
        if m % self.level:
            raise ValueError(f"cannot raise level {self.level} to {m}")
        step = m // self.level
        return CycNumber.from_powers(
            m, {j * step: c for j, c in enumerate(self.coeffs) if c})

    def _common(self, other: "CycNumber"):
        m = math.lcm(self.level, other.level)
        return self.raised(m), other.raised(m)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return CycNumber(a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        n = a.level
        prods: dict[int, Fraction] = {}
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj:
                    e = (i + j) % n
                    prods[e] = prods.get(e, Fraction(0)) + ci * cj
        return CycNumber.from_powers(n, prods)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return any(self.coeffs)

    # -- inspection -----------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.coeffs[0]

    def galois_mean(self) -> Fraction:
        """Mean of the Galois conjugates of self, Tr(self) / phi(level).

        It does not depend on the level self is written at, and equals
        self when self is rational.
        """
        return sum((c * w for c, w in zip(self.coeffs,
                                          _galois_mean_row(self.level)) if c),
                   Fraction(0))

    def galois(self, k: int) -> "CycNumber":
        return cyclotomic_galois_apply(self, k)

    def conjugate(self) -> "CycNumber":
        return cyclotomic_galois_apply(self, -1)

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.level}^{j}" if j > 1 else f"{c}*z{self.level}")
        return " + ".join(terms) if terms else "0"


def cyclotomic_galois_apply(z: CycNumber, k: int) -> CycNumber:
    """Apply the field automorphism zeta -> zeta^k (k coprime to the level)."""
    n = z.level
    k %= n
    if math.gcd(k, n) != 1:
        raise ValueError(f"{k} is not coprime to level {n}")
    return CycNumber.from_powers(n, {(j * k) % n: c for j, c in enumerate(z.coeffs) if c})


CYC_ZERO = CycNumber.from_rational(0)
CYC_ONE = CycNumber.from_rational(1)
