"""Exact arithmetic substrate: rationals, cyclotomic numbers, integer lattice
normal forms, and the Kronecker/Hilbert symbol machinery that decides
membership in norm groups of quadratic fields.

The small-integer number theory the engine needs is here too, on the
standard library alone: bounded factoring (:func:`factor_bounded`), a prime
sieve grown on demand (:func:`primerange`), deterministic Miller-Rabin
(:func:`isprime`, exact below ``PSI_13``), :func:`divisors`,
:func:`euler_phi`, :func:`mobius`, the least :func:`primitive_root` and the
integer coefficients of cyclotomic polynomials (:func:`cyclotomic_coeffs`).

Everything here is exact; there is no floating point anywhere in the engine.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Union[int, Fraction]

#: Archimedean place marker accepted by :func:`hilbert_symbol`.
PLACE_INF = "inf"

#: The largest prime factor :func:`factor_bounded` accepts.
FACTOR_BOUND = 10**6


class FactorBoundError(ValueError):
    """An integer is beyond the exact number theory: it has a prime factor
    above the factoring bound, or it is a primality query at or above
    ``PSI_13``."""


def factor_bounded(n: int) -> dict[int, int]:
    """Factor |n| into primes, refusing any prime factor above
    ``FACTOR_BOUND``.

    Trial division by the primes up to min(sqrt(cofactor), FACTOR_BOUND):
    inputs whose prime factors all lie within the bound succeed, anything
    else raises FactorBoundError after at most that much work.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    fac: dict[int, int] = {}
    k = 0
    while n > 1:
        if k == len(_PRIMES):
            _extend_primes(min(math.isqrt(n), FACTOR_BOUND))
            if k == len(_PRIMES):
                break
        p = _PRIMES[k]
        if p * p > n or p > FACTOR_BOUND:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            fac[p] = e
        k += 1
    if n > 1:
        # no prime <= min(sqrt(n), FACTOR_BOUND) divides n: n is a prime or
        # has one beyond the bound
        if n > FACTOR_BOUND:
            raise FactorBoundError(
                f"{n} has a prime factor above bound {FACTOR_BOUND}")
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


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, ascending, read from the sieve."""
    _extend_primes(b - 1)
    return _PRIMES[bisect.bisect_left(_PRIMES, a):bisect.bisect_left(_PRIMES, b)]


#: The first 13 primes, the Miller-Rabin bases of :func:`isprime`.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least strong pseudoprime to every base in _MR_BASES (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
#: 2017): below it the bases decide primality exactly.
PSI_13 = 3317044064679887385961981


def isprime(n: int) -> bool:
    """Whether the integer n is prime, by deterministic Miller-Rabin.

    Exact for n < PSI_13; larger n raise FactorBoundError rather than
    answer probably.
    """
    n = operator.index(n)
    if n >= PSI_13:
        raise FactorBoundError(
            f"primality of {n} is not decided exactly at or above {PSI_13}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _positive_factors(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return factor_bounded(n)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in _positive_factors(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@functools.cache
def euler_phi(n: int) -> int:
    phi = n
    for p in _positive_factors(n):
        phi = phi // p * (p - 1)
    return phi


@functools.cache
def mobius(n: int) -> int:
    fac = _positive_factors(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


@functools.cache
def primitive_root(p: int) -> int:
    """The least primitive root modulo the prime p."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    cofactors = [(p - 1) // q for q in factor_bounded(p - 1)]
    return next(g for g in range(1, p)
                if all(pow(g, c, p) != 1 for c in cofactors))


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


def is_squarefree(d: int) -> bool:
    if d == 0:
        return False
    return all(e == 1 for e in factor_bounded(d).values())


# ---------------------------------------------------------------------------
# Kronecker and Hilbert symbols


def kronecker_symbol(a: int, n: int) -> int:
    """Standard Kronecker symbol (a|n): multiplicative in n away from 0, and
    in a except at n = -1, where (0|-1) = 1 but (0|-1)(-1|-1) = -1."""
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
    if place == PLACE_INF:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not (isinstance(p, int) and p >= 2 and isprime(p)):
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
    """Decide x in N(Q(sqrt(d))^*): true exactly when x has no local
    obstruction (see :func:`norm_obstruction`)."""
    return not norm_obstruction(x, d)


def norm_obstruction(x: Rational, d: int) -> frozenset:
    """The places v with (x, d)_v = -1, as a set of primes and ``PLACE_INF``.

    By Hasse's norm theorem x is a norm from Q(sqrt(d)) exactly when this
    set is empty, and since each (., d)_v is a character of exponent two,
    x -> norm_obstruction(x, d) is an injective F2-linear map from
    Q^x / N(K^x) into the sets of places under symmetric difference:
    obstruction(xy) = obstruction(x) ^ obstruction(y).  By Hilbert
    reciprocity every obstruction set has even size.  (x, d)_v = 1
    automatically at odd primes dividing neither x nor d, so only infinity,
    2, and the primes of x and d are examined.  Results are memoised on
    (x, d); invalid arguments raise and are not cached.
    """
    if isinstance(x, int):
        num, den = x, 1
    else:
        x = _as_fraction(x)
        num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("zero is not in the multiplicative group")
    return _norm_obstruction(num, den, d)


@functools.lru_cache(maxsize=4096)
def _norm_obstruction(num: int, den: int, d: int) -> frozenset:
    if d == 1 or not is_squarefree(d):
        raise ValueError(f"d must be squarefree and != 1, got {d}")
    places: set = {PLACE_INF, 2}
    places.update(factor_bounded(num * den))
    places.update(factor_bounded(d))
    x = Fraction(num, den)
    return frozenset(v for v in places if hilbert_symbol(x, d, v) == -1)


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


def smith_kernel(smith: SmithForm) -> list[list[int]]:
    """The columns of v past the rank of d: a basis of {x : a*x = 0}."""
    d, _, v = smith
    rank = sum(1 for i in range(min(len(d), len(v))) if d[i][i] != 0)
    return [[row[j] for row in v] for j in range(rank, len(v))]


class SnfSolution(NamedTuple):
    minimal_m: int
    witness: list[int]


class NoMultipleError(ValueError):
    """No positive multiple of the target lies in the column lattice."""


def snf_solve(a: Sequence[Sequence[int]], t: Sequence[int],
              smith: SmithForm) -> SnfSolution:
    """Solve a*x = m*t over the integers with m >= 1 minimal.

    ``smith`` is the Smith form of ``a``, ``smith_normal_form(a)``: every
    caller already holds it.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if len(t) != rows:
        raise ValueError("dimension mismatch")
    d, u, v = smith
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    s = [sum(u[i][k] * t[k] for k in range(rows)) for i in range(rows)]
    if any(s[i] for i in range(rank, rows)):
        raise NoMultipleError("no multiple works: target outside the rational column span")
    # smallest positive m with d_i | m*s_i for every pivot row
    m = 1
    for i in range(rank):
        if s[i]:
            di = d[i][i]
            m = math.lcm(m, di // math.gcd(di, s[i]))
    # y_j = m * s_j / d_j on the rank columns and 0 past them, so x = v*y
    # sums over the rank columns only
    y = [m * s[i] // d[i][i] for i in range(rank)]
    x = [sum(v[r][j] * y[j] for j in range(rank)) for r in range(cols)]
    if [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)] \
            != [m * ti for ti in t]:
        raise ExactCheckError("snf_solve witness does not solve a*x = m*t")
    return SnfSolution(m, x)


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
                     basis: Sequence[Sequence[int]]) -> list[int]:
    """A reduced vector of x + span(basis), deterministically.

    The key is (L1 norm, then lexicographic), a total order on vectors.
    basis = k_1..k_r must already be the Hermite basis that
    :func:`hermite_row_basis` writes; it is not reduced again here.  When
    7**r <= 20000 the search is exhaustive over x + sum c_i k_i with every
    c_i in [-3, 3]: candidates are built from shared prefix sums, one
    vector add each, and the smallest key wins.  The rows are independent,
    so that box holds no two equal vectors and the winner is unique; the
    witness does not depend on the order of the search.  Otherwise greedy
    sweeps along each basis row.  Neither is proven to reach the global
    minimum.
    """
    best = list(x)
    if not basis:
        return best
    best_l1 = sum(map(abs, best))
    if 7 ** len(basis) <= 20000:
        # prefixes: x plus every combination of the leading rows
        steps = [[[c * b for b in row] for c in range(-3, 4)]
                 for row in basis]
        prefixes = [best]
        for step in steps[:-1]:
            prefixes = [list(map(operator.add, v, s))
                        for v in prefixes for s in step]
        for v in prefixes:
            for s in steps[-1]:
                cand = list(map(operator.add, v, s))
                l1 = sum(map(abs, cand))
                if l1 < best_l1 or (l1 == best_l1 and cand < best):
                    best, best_l1 = cand, l1
    else:
        best_key = (best_l1, best)
        improved = True
        while improved:
            improved = False
            for row in basis:
                for sign in (1, -1):
                    while True:
                        cand = [a + sign * b for a, b in zip(best, row)]
                        key = (sum(map(abs, cand)), cand)
                        if not key < best_key:
                            break
                        best, best_key = cand, key
                        improved = True
    return best


# ---------------------------------------------------------------------------
# Rational dense linear algebra (small matrices)


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


# ---------------------------------------------------------------------------
# Cyclotomic numbers

def _times_xd_minus_one(a: list[int], d: int) -> list[int]:
    """a * (x^d - 1) for an integer coefficient list (constant term first)."""
    out = [-c for c in a] + [0] * d
    for i, c in enumerate(a):
        out[i + d] += c
    return out


def _over_xd_minus_one(a: list[int], d: int, what: str) -> list[int]:
    """a / (x^d - 1), from the top down; the remainder must vanish."""
    a = list(a)
    q = [0] * (len(a) - d)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + d]
        a[k] += c
    if any(a[:d]):
        raise ExactCheckError(f"{what}: division leaves remainder {a[:d]}")
    return q


@functools.cache
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients c_0 .. c_phi(n) of the cyclotomic polynomial Phi_n, the
    product of (x^d - 1)^mu(n/d) over d | n: the factors with mu = 1
    multiplied out, then each with mu = -1 divided off exactly."""
    divs = divisors(n)
    poly = [1]
    for d in divs:
        if mobius(n // d) == 1:
            poly = _times_xd_minus_one(poly, d)
    for d in divs:
        if mobius(n // d) == -1:
            poly = _over_xd_minus_one(poly, d, f"Phi_{n}")
    return tuple(poly)


@functools.cache
def cyclotomic_reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e: zeta_n^e over the power basis 1 .. zeta_n^(phi(n)-1), for e in
    [0, n); integers, since Phi_n is monic with integer coefficients."""
    coeffs = cyclotomic_coeffs(n)
    phi = len(coeffs) - 1
    table = [tuple(int(i == e) for i in range(phi)) for e in range(phi)]
    for _ in range(phi, n):
        prev = table[-1]
        shifted = (0,) + prev[:-1]
        if prev[-1]:
            shifted = tuple(s - prev[-1] * c for s, c in zip(shifted, coeffs))
        table.append(shifted)
    return tuple(table)


@functools.cache
def _galois_mean_row(n: int) -> tuple[tuple[int, ...], int]:
    """Tr(zeta_n^j) / phi(n) = mu(d) / phi(d), d = n / gcd(n, j), j < phi,
    as integer numerators over one common denominator."""
    ds = [n // math.gcd(n, j) for j in range(euler_phi(n))]
    den = math.lcm(*(euler_phi(d) for d in ds))
    return tuple(mobius(d) * (den // euler_phi(d)) for d in ds), den


def fraction_sum(pairs, divisor: int) -> Fraction:
    """(1/divisor) * the sum of x * w over the pairs (x, w), x rational and
    w an integer: one numerator over the lcm of the denominators seen,
    and a single Fraction at the end."""
    num, den = 0, 1
    for x, w in pairs:
        if x and w:
            xd = x.denominator
            if den % xd:
                f = xd // math.gcd(den, xd)
                num *= f
                den *= f
            num += w * x.numerator * (den // xd)
    return Fraction(num, den * divisor)


def fraction_product(pairs) -> Fraction:
    """The product of x ** n over the pairs (x, n), x rational and n an
    integer: one integer numerator and one denominator, and a single
    Fraction at the end (so a zero x with n < 0 raises ZeroDivisionError)."""
    num = den = 1
    for x, n in pairs:
        if n > 0:
            num *= x.numerator ** n
            den *= x.denominator ** n
        elif n < 0:
            num *= x.denominator ** -n
            den *= x.numerator ** -n
    return Fraction(num, den)


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
        table = cyclotomic_reduction_table(n)
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
        row, den = _galois_mean_row(self.level)
        return fraction_sum(zip(self.coeffs, row), den)

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
