"""The engine's small-integer number theory (``krel.exactmath``) against
sympy as an independent oracle, plus the cases that need no oracle: known
pseudoprimes, the exactness bound of the primality test, and hostile places
that must fail by name."""

import random

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.specialpolys import dup_zz_cyclotomic_poly

from krel.curvelocal import Good, InvalidPlace, PlaceDescriptor
from krel.exactmath import (
    PSI_13,
    FactorBoundError,
    cyclotomic_coeffs,
    divisors,
    euler_phi,
    hilbert_symbol,
    isprime,
    mobius,
    primerange,
    primitive_root,
)
from krel.groups import cyclic_group

#: A Mersenne prime above PSI_13.
M89 = 2**89 - 1


def test_small_n_against_sympy():
    for n in range(1, 5000):
        assert mobius(n) == sympy.mobius(n), n
        assert euler_phi(n) == sympy.totient(n), n
        assert divisors(n) == sympy.divisors(n), n
    for n in range(-20, 5000):
        assert isprime(n) == sympy.isprime(n), n


def test_isprime_on_random_large_n_against_sympy():
    rng = random.Random(20170101)
    ns = [rng.randrange(10**22) for _ in range(20000)]
    assert [isprime(n) for n in ns] == [sympy.isprime(n) for n in ns]


def test_least_primitive_root_against_sympy():
    for p in sympy.primerange(2, 10**5):
        assert primitive_root(p) == sympy.primitive_root(p), p


def test_cyclotomic_coeffs_against_sympy():
    for n in range(1, 1100):
        # sympy's dense list runs from the leading coefficient down
        assert cyclotomic_coeffs(n) \
            == tuple(int(c) for c in reversed(dup_zz_cyclotomic_poly(n, ZZ))), n
    assert min(cyclotomic_coeffs(105)) == -2


def test_primerange_against_sympy():
    assert primerange(5, 60) == list(sympy.primerange(5, 60))
    assert primerange(2, 200) == list(sympy.primerange(2, 200))


@pytest.mark.parametrize("n", [561, 1105, 41041])
def test_carmichael_numbers_are_composite(n):
    assert not isprime(n)


@pytest.mark.parametrize("n", [
    3215031751,                   # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,          # to the first nine prime bases
    318665857834031151167461,     # psi_12: to the first twelve
])
def test_strong_pseudoprimes_are_composite(n):
    assert not isprime(n)


def test_primality_beyond_the_exact_bound_raises_by_name():
    assert isprime(PSI_13 - 2) is False   # 17 * 1709 * ..., just below
    for n in (PSI_13, M89):
        with pytest.raises(FactorBoundError):
            isprime(n)


def test_n_at_most_one_is_not_prime():
    assert not any(isprime(n) for n in (1, 0, -1, -2, -7))


def test_primitive_root_refuses_a_composite():
    with pytest.raises(ValueError):
        primitive_root(15)


def test_hilbert_symbol_at_a_huge_place_raises_by_name():
    with pytest.raises(FactorBoundError):
        hilbert_symbol(3, 5, M89)


def test_validate_place_with_a_huge_residue_characteristic_is_a_diagnostic():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    for l in (PSI_13, M89):
        with pytest.raises(InvalidPlace) as exc:
            PlaceDescriptor("w", "finite", C2, l, l, w, frozenset([0]), Good())
        diags = exc.value.diagnostics
        assert [d.rule for d in diags] == ["residue-size"]
        assert str(PSI_13) in diags[0].message
