import functools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krel.exactmath import (
    PLACE_INF,
    CycNumber,
    ExactCheckError,
    FactorBoundError,
    FACTOR_BOUND,
    NoMultipleError,
    cyclotomic_galois_apply,
    factor_bounded,
    fraction_product,
    hermite_row_basis,
    hilbert_symbol,
    is_norm_from_quadratic,
    is_squarefree,
    kronecker_symbol,
    mat_mul,
    norm_obstruction,
    rat_det,
    smith_kernel,
    smith_normal_form,
    snf_solve,
)
from sympy import factorint

# ---------------------------------------------------------------------------
# Independent oracle: local solvability of a^2 - D*b^2 = x*c^2
#
# The form is normalized so that every prime appears in the coefficients with
# exponent 0 or 1 (square classes only).  For odd p a primitive zero mod p^2
# is then equivalent to Q_p-solvability; at 2 we use mod 2^8, comfortably
# above the Hensel threshold; at infinity the sign condition decides.


def _square_residues(pk, p):
    """The distinct pairs (z^2 mod pk, p does not divide z).

    The oracle's congruence sees b and c only through these pairs, so
    looping over them decides exactly what looping over all residues does.
    """
    return sorted({((z * z) % pk, z % p != 0) for z in range(pk)})


def _odd_local_solvable(D, x, p):
    pk = p * p
    sq = {(z * z) % pk for z in range(pk)}
    sq_unit = {(z * z) % pk for z in range(pk) if z % p}
    residues = _square_residues(pk, p)
    for b2, b_unit in residues:
        for c2, c_unit in residues:
            t = (D * b2 + x * c2) % pk
            if b_unit or c_unit:
                if t in sq:
                    return True
            elif t in sq_unit:
                return True
    return False


def _two_local_solvable(D, x):
    mod = 2**8
    sq = {(z * z) % mod for z in range(mod)}
    sq_odd = {(z * z) % mod for z in range(1, mod, 2)}
    residues = _square_residues(mod, 2)
    for b2, b_odd in residues:
        for c2, c_odd in residues:
            t = (D * b2 + x * c2) % mod
            if b_odd or c_odd:
                if t in sq:
                    return True
            elif t in sq_odd:
                return True
    return False


def squarefree_part(x):
    """The squarefree integer in the square class of a nonzero rational x,
    from sympy's factorisation of its numerator times its denominator."""
    x = Fraction(x)
    out = 1 if x > 0 else -1
    for p, e in factorint(abs(x.numerator * x.denominator)).items():
        if e % 2:
            out *= p
    return out


def oracle_is_norm(x, D):
    """Two-sided oracle: complete local solvability check at every relevant place."""
    return _oracle_is_norm(squarefree_part(x), D)


@functools.cache
def _oracle_is_norm(xs, D):
    if D < 0 and xs < 0:
        return False
    primes = set(factor_bounded(abs(xs * D)))
    for p in sorted(primes):
        if p == 2:
            if not _two_local_solvable(D, xs):
                return False
        elif not _odd_local_solvable(D, xs, p):
            return False
    if 2 not in primes and not _two_local_solvable(D, xs):
        return False
    return True


@functools.cache
def oracle_obstruction(xs, D):
    """Places where a^2 - D*b^2 = xs*c^2 has no nontrivial local solution,
    xs squarefree, decided by the congruence oracle place by place."""
    bad = set()
    if D < 0 and xs < 0:
        bad.add(PLACE_INF)
    if not _two_local_solvable(D, xs):
        bad.add(2)
    for p in factor_bounded(abs(xs * D)):
        if p != 2 and not _odd_local_solvable(D, xs, p):
            bad.add(p)
    return frozenset(bad)


def witness_search(x, D, bound=500):
    """One-sided oracle: small integral points on a^2 - D*b^2 = x*c^2."""
    for c in range(1, bound + 1):
        target = x * c * c
        for b in range(bound + 1):
            a2 = target + D * b * b
            if a2 < 0:
                continue
            a = math.isqrt(a2)
            if a * a == a2 and a <= bound:
                return (a, b, c)
    return None


# ---------------------------------------------------------------------------
# factor_bounded


def test_factor_bound_error():
    with pytest.raises(FactorBoundError):
        factor_bounded(1000003)  # prime just over the bound
    assert FACTOR_BOUND == 10**6
    assert factor_bounded(999983) == {999983: 1}


def test_factor_bounded_fails_fast_on_large_prime_factors():
    p27 = 100000000000000000000000067
    # a 40-digit semiprime: full factorisation takes tens of seconds
    p20, q20 = 16148330015722618271, 43199337810208087973
    for n in (6 * p27, 6 * p20 * q20):
        start = time.perf_counter()
        with pytest.raises(FactorBoundError):
            factor_bounded(n)
        assert time.perf_counter() - start < 1.0
    assert factor_bounded(2**5 * 999983**2) == {2: 5, 999983: 2}
    with pytest.raises(FactorBoundError):
        factor_bounded(999983 * 1000003)


# ---------------------------------------------------------------------------
# Kronecker


def test_kronecker_examples():
    assert kronecker_symbol(3, 7) == -1
    assert kronecker_symbol(1, 5) == 1
    assert kronecker_symbol(7, 3) == 1


def test_kronecker_against_euler_criterion():
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        for a in range(-2 * p, 2 * p + 1):
            want = pow(a, (p - 1) // 2, p)
            want = {0: 0, 1: 1, p - 1: -1}[want]
            assert kronecker_symbol(a, p) == want, (a, p)


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-60, 60))
def test_kronecker_multiplicative_top(a, b, n):
    # the one exception: at n = -1 the symbol is the sign of a, with
    # (0 | -1) = 1, so (0 * b | -1) = 1 while (0 | -1) * (-1 | -1) = -1
    assume(not (n == -1 and a * b == 0))
    assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


def test_kronecker_special_values():
    assert kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(-1, 0) == 1
    assert kronecker_symbol(-1, 7) == -1
    assert kronecker_symbol(-1, 13) == 1
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(2, 5) == -1
    # Cohen, GTM 138, Def. 1.4.8: (a | -1) is 1 for a >= 0 and -1 below
    assert kronecker_symbol(0, -1) == 1
    assert kronecker_symbol(-1, -1) == -1


# ---------------------------------------------------------------------------
# Hilbert symbol


def test_hilbert_spec_values():
    assert hilbert_symbol(3, 21, 3) == -1
    assert hilbert_symbol(7, 21, 7) == 1
    assert hilbert_symbol(-1, -1, PLACE_INF) == -1


def test_hilbert_invalid_place():
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 5, 3)


def test_hilbert_real_place_has_one_spelling():
    # the real place is PLACE_INF only: a float infinity is not a place
    assert hilbert_symbol(-1, -1, PLACE_INF) == -1
    with pytest.raises(ValueError, match="invalid place"):
        hilbert_symbol(-1, -1, math.inf)


def test_hilbert_symmetry_and_squares():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.choice([x for x in range(-50, 51) if x])
        b = rng.choice([x for x in range(-50, 51) if x])
        for v in [2, 3, 5, 7, PLACE_INF]:
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * a, b, v) == 1


def test_hilbert_bilinear():
    rng = random.Random(11)
    for _ in range(60):
        a1, a2, b = (rng.choice([x for x in range(-30, 31) if x]) for _ in range(3))
        for v in [2, 3, 5, PLACE_INF]:
            lhs = hilbert_symbol(a1 * a2, b, v)
            assert lhs == hilbert_symbol(a1, b, v) * hilbert_symbol(a2, b, v)


def test_hilbert_product_formula_200_random_pairs():
    rng = random.Random(20260816)
    for _ in range(200):
        a = rng.randint(1, 10**4) * rng.choice([1, -1])
        b = rng.randint(1, 10**4) * rng.choice([1, -1])
        places = {PLACE_INF, 2}
        places.update(factor_bounded(a))
        places.update(factor_bounded(b))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


# ---------------------------------------------------------------------------
# Norm test and the dual-route oracle


def test_norm_examples():
    assert is_norm_from_quadratic(7, 21) is True
    assert is_norm_from_quadratic(3, 21) is False
    assert is_norm_from_quadratic(-21, 21) is True
    assert norm_obstruction(7, 21) == frozenset()
    assert norm_obstruction(3, 21) == frozenset({3, 7})
    assert norm_obstruction(-1, -1) == frozenset({PLACE_INF, 2})


def test_norm_rejects_bad_field():
    # verdicts are memoised, rejections are not: each call raises again
    for _ in range(2):
        with pytest.raises(ValueError):
            is_norm_from_quadratic(5, 1)
        with pytest.raises(ValueError):
            is_norm_from_quadratic(5, 12)
        with pytest.raises(ValueError):
            is_norm_from_quadratic(0, 21)
        for bad_x, bad_d in ((5, 1), (5, 12), (0, 21), (Fraction(0), 5)):
            with pytest.raises(ValueError):
                norm_obstruction(bad_x, bad_d)
    assert is_norm_from_quadratic(Fraction(7), 21) is True
    assert is_norm_from_quadratic(Fraction(7, 9), 21) is True


def test_norm_witness_examples():
    # 14^2 - 21*3^2 = 196 - 189 = 7
    assert witness_search(7, 21) is not None
    assert witness_search(3, 21) is None


def test_norm_agrees_with_local_solvability_oracle():
    ds = [d for d in range(-30, 31) if d not in (0, 1) and
          all(e == 1 for e in factor_bounded(d or 1).values())]
    for D in ds:
        for x in range(-30, 31):
            if x == 0:
                continue
            got = is_norm_from_quadratic(x, D)
            assert got == oracle_is_norm(x, D), (x, D)
            obs = norm_obstruction(x, D)
            assert (not obs) == got, (x, D)
            assert len(obs) % 2 == 0, (x, D, obs)  # Hilbert reciprocity
            # the oracle's odd-prime search is quadratic in p^2, so the
            # place-by-place comparison keeps to the small corner
            if abs(x) <= 15 and abs(D) <= 15:
                xs = squarefree_part(x)
                assert obs == oracle_obstruction(xs, D), (x, D)
            if got:
                w = witness_search(x, D)
                if w is not None:
                    a, b, c = w
                    assert a * a - D * b * b == x * c * c


_GRID_DS = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree(d)]
_NONZERO = st.one_of(
    st.integers(min_value=-200, max_value=200).filter(bool),
    st.builds(Fraction, st.integers(min_value=-60, max_value=60).filter(bool),
              st.integers(min_value=1, max_value=60)))


@given(_NONZERO, _NONZERO, st.sampled_from(_GRID_DS))
def test_norm_obstruction_is_multiplicative_and_even(x, y, d):
    ox, oy = norm_obstruction(x, d), norm_obstruction(y, d)
    assert norm_obstruction(Fraction(x) * y, d) == ox ^ oy
    # Hilbert reciprocity: the symbols multiply to 1 over all places
    assert len(ox) % 2 == 0 and len(oy) % 2 == 0
    assert all(hilbert_symbol(x, d, v) == -1 for v in ox)


def test_norm_class_reduction():
    assert norm_obstruction(189, 21)
    assert norm_obstruction(Fraction(27), 21) == norm_obstruction(3, 21)
    assert norm_obstruction(7, 21) == frozenset()


# ---------------------------------------------------------------------------
# Smith normal form and lattice solving


def test_snf_small_example():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 2, 156] or all(
        diag[i] and diag[i + 1] % diag[i] == 0 for i in range(2))


def test_snf_postcondition_failure_raises(monkeypatch):
    import krel.exactmath as em

    def wrong_product(a, b):
        out = mat_mul(a, b)
        out[0][0] += 1
        return out

    monkeypatch.setattr(em, "mat_mul", wrong_product)
    with pytest.raises(ExactCheckError):
        smith_normal_form([[2, 4], [6, 8]])


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_postconditions(rows):
    d, u, v = smith_normal_form(rows)
    assert mat_mul(mat_mul(u, rows), v) == d
    assert abs(rat_det(u)) == 1
    assert abs(rat_det(v)) == 1
    n = min(len(d), len(d[0]))
    diag = [d[i][i] for i in range(n)]
    for i in range(n - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


def test_snf_solve_minimal_multiple():
    # x + y even lattice: t = (1,) over A = [[1, 1]] has m = 1; A = [[2]] and
    # t = (1,) needs m = 2
    sol = snf_solve([[2]], [1], smith_normal_form([[2]]))
    assert sol.minimal_m == 2 and sol.witness == [1]
    sol = snf_solve([[1, 1]], [3], smith_normal_form([[1, 1]]))
    assert sol.minimal_m == 1
    assert sum(sol.witness) == 3
    assert len(smith_kernel(smith_normal_form([[1, 1]]))) == 1


def test_snf_solve_zero_target():
    a = [[1, 2], [3, 4]]
    sol = snf_solve(a, [0, 0], smith_normal_form(a))
    assert sol.minimal_m == 1 and sol.witness == [0, 0]


def test_snf_solve_no_multiple():
    with pytest.raises(NoMultipleError):
        snf_solve([[1, 1], [1, 1]], [1, 2],
                  smith_normal_form([[1, 1], [1, 1]]))


def test_hermite_row_basis_membership():
    gens = [[2, 0, 4], [0, 2, 2], [2, 2, 6], [0, 0, 8]]
    basis = hermite_row_basis(gens)
    # every generator must lie in the lattice spanned by the basis
    a = [list(col) for col in zip(*basis)]
    for g in gens:
        sol = snf_solve(a, g, smith_normal_form(a))
        assert sol.minimal_m == 1
    # and conversely
    a = [list(col) for col in zip(*gens)]
    for b in basis:
        sol = snf_solve(a, b, smith_normal_form(a))
        assert sol.minimal_m == 1


# ---------------------------------------------------------------------------
# Rational linear algebra


def test_rat_det_and_solve():
    a = [[Fraction(1, 2), 1], [3, 4]]
    assert rat_det(a) == Fraction(1, 2) * 4 - 3


# ---------------------------------------------------------------------------
# Cyclotomic numbers


def test_zeta3_basics():
    z = CycNumber.zeta(3)
    assert z * z * z == 1
    assert z + z * z == -1
    assert (z - z).is_rational()


def test_galois_apply_spec_examples():
    z3 = CycNumber.zeta(3)
    assert cyclotomic_galois_apply(z3, 2) == z3 * z3
    zero = CycNumber.zeta(4) + CycNumber.zeta(4, -1)
    assert zero == 0
    assert cyclotomic_galois_apply(zero, 3) == 0
    z7 = CycNumber.zeta(7)
    lhs = cyclotomic_galois_apply(z7 + z7 * z7, 3)
    assert lhs == CycNumber.zeta(7, 3) + CycNumber.zeta(7, 6)


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        cyclotomic_galois_apply(CycNumber.zeta(6), 2)


def test_cross_level_equality():
    assert CycNumber.zeta(6, 2) == CycNumber.zeta(3)
    assert CycNumber.zeta(4, 2) == -1
    assert CycNumber.from_rational(Fraction(5, 3), 12).rational_value() == Fraction(5, 3)


def test_cyc_is_unhashable():
    with pytest.raises(TypeError):
        hash(CycNumber.zeta(5))


def test_cyc_ring_identities():
    # (1 + z5)(1 + z5^4) = 1 + z5 + z5^4 + 1 = 2 + (z5 + z5^4)
    z = CycNumber.zeta(5)
    lhs = (1 + z) * (1 + z.galois(4))
    rhs = 2 + z + z.galois(4)
    assert lhs == rhs
    total = sum((CycNumber.zeta(5, k) for k in range(1, 5)), CycNumber.from_rational(0))
    assert total == -1


def test_conjugate_fixes_real_combinations():
    z = CycNumber.zeta(7)
    real = z + z.conjugate()
    assert real.conjugate() == real


# ---------------------------------------------------------------------------
# fraction_product


def test_fraction_product_matches_powers_of_fractions():
    grid = [Fraction(n, d) for n in (-6, -1, 1, 2, 9) for d in (1, 4, 15)]
    grid += [2, -3]
    exponents = (-3, -1, 0, 1, 2)
    for x in grid:
        for n in exponents:
            assert fraction_product([(x, n)]) == Fraction(x) ** n
    for k in range(len(grid) - 2):
        pairs = [(grid[k + i], exponents[(k + i) % 5]) for i in range(3)]
        got = fraction_product(pairs)
        assert got == math.prod(Fraction(x) ** n for x, n in pairs)
        assert type(got) is Fraction


def test_fraction_product_of_nothing_and_of_zero():
    assert fraction_product([]) == 1 and type(fraction_product([])) is Fraction
    assert fraction_product([(Fraction(0), 2), (Fraction(3, 2), -1)]) == 0
    assert fraction_product([(Fraction(0), 0)]) == Fraction(0) ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        fraction_product([(Fraction(2), 1), (Fraction(0), -1)])
