"""Brute-force sweeps behind the additive local-factor claims.

The local functions attached to additive places (Tamagawa numbers, the
differential weight, and the fixed-space determinants of the root-number
module V, a virtual permutation module) are claimed to be trivial on
K-relations after taking suitable ratios.  The checks here enumerate the
metacyclic decomposition groups where those claims live, instantiate every
admissible combination of declared reduction flags, and norm-test the ratios
on an explicit lattice basis for a battery of quadratic fields.  A second
family of checks evaluates the differential weight functions on the cyclic
elements Psi_n and compares the set of non-square values against the
predicted membership tables.

The module also houses the randomized model generator used by the global
property sweeps; proposals are drawn from the subgroup lattice with
coherent valuation parities, and a proposal that is not a valid place is
dropped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import (_fundamental_discriminant, _quadratic_subfields,
                         character_table)
from .curvelocal import (AddPotGood, AddPotMult, Good, InvalidPlace,
                         NonsplitMult, PlaceDescriptor, SplitMult,
                         SquareClassLocal, _cyclic_quotient, _is_prime_power,
                         is_dihedral, is_square_in_ext, ram_degree, v_pairing)
from .exactmath import (PLACE_INF, ExactCheckError, _as_fraction, divisors,
                        factor_bounded, fraction_product,
                        is_norm_from_quadratic, is_squarefree, isprime,
                        kronecker_symbol, mobius, primerange, snf_solve)
from .groups import PermGroup, metacyclic_generators
from .parity import CurveLocalModel
from .relations import is_trivial_on_k_relations, k_relation_basis

__all__ = [
    "MetacyclicSpec", "build_metacyclic", "quadratic_probe_fields",
    "TamagawaCheckRow", "appendix_tamagawa_check",
    "DifferentialReport", "appendix_differential_check",
    "SplitNormReport", "lemma_b3_check", "synthetic_model",
]


@dataclass(frozen=True)
class MetacyclicSpec:
    """Parameters of the group C_e : C_{2^k} with y x y^-1 = x^sign.

    The inverting action needs an element to invert with, so sign -1 demands
    k >= 1 once e exceeds 2 (for e <= 2 inversion is the identity action).
    """

    e: int
    k: int
    sign: int

    def __post_init__(self):
        if self.e not in (2, 3, 4, 6):
            raise ValueError(f"e must be one of 2, 3, 4, 6, not {self.e}")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.sign == -1 and self.k == 0 and self.e > 2:
            raise ValueError("sign -1 with k = 0 collapses; use sign +1")

    @property
    def order(self) -> int:
        return self.e << self.k


def build_metacyclic(spec: MetacyclicSpec) -> tuple[PermGroup, int, int]:
    """Permutation model of the spec: (G, rotation, frobenius).

    rotation is the element index of x, which generates the cyclic normal
    inertia subgroup of order spec.e, and frobenius that of the acting
    generator y.
    """
    e, m = spec.e, 1 << spec.k
    q = 1 if spec.sign == 1 or spec.k == 0 else e - 1
    sgn = "" if spec.sign == 1 or spec.e <= 2 else "-"
    sigma, phi = metacyclic_generators(e, m, q)
    G = PermGroup(e + m, [sigma, phi], name=f"C{e}:C{m}{sgn}")
    return G, G.element_index(sigma), G.element_index(phi)


def quadratic_probe_fields(G: PermGroup) -> tuple[int, ...]:
    """Quadratic fields worth norm-testing against a group's local data.

    Takes every quadratic subfield of the cyclotomic field of the group's
    exponent (where K-relations can exceed the even-multiplicity lattice)
    together with a fixed generic batch, so that both special and generic
    behaviour get exercised.
    """
    cands = {-1, 2, -2, 3, -3, 5, -5}
    cands.update(_quadratic_subfields(G.exponent(), ()))
    return tuple(sorted(cands, key=lambda m: (abs(m), m)))


# ---------------------------------------------------------------------------
# Tamagawa ratio sweeps


_DELTAS = {2: (6,), 3: (4, 8), 4: (3, 9), 6: (2, 10)}

# valuation parity of the quartic-free invariant B declared alongside delta;
# only consulted when gcd(delta*e, 12) = 4, but kept coherent throughout
_B_PARITY = {2: 1, 3: 0, 4: 0, 6: 1, 8: 0, 9: 0, 10: 1}

_RAMIFIED_CLASSES = (SquareClassLocal(1, True), SquareClassLocal(1, False))


def _ef_of(G, isub, h):
    hi = len(h & isub)
    return len(isub) // hi, (G.order * hi) // (len(h) * len(isub))


def _sqrt_field_subgroup(G, rotation, frobenius) -> frozenset[int]:
    """Fixed group of the distinguished ramified quadratic inside F.

    The tower is normalized so that the square roots of ramified invariants
    (the discriminant when its valuation is odd, B when that one is) live in
    the fixed field of <x^2, y>.  The other labeling is carried over to this
    one by the automorphism y -> xy, so no generality is lost.
    """
    return G.closure([G.mul(rotation, rotation), frobenius])


def _fine_potgood(G, isub, wsub, delta, du, bu, dihedral, h) -> int:
    """Base-change Tamagawa number for potentially good reduction.

    Unramified square-root membership is decided by the declared unit flag
    and the residue degree; ramified membership (odd valuation) by
    containment in the normalized index-2 subgroup.
    """
    e, f = _ef_of(G, isub, h)
    g = math.gcd(delta * e, 12)
    if g == 3:
        return 2
    if g == 4:
        if _B_PARITY[delta] == 0:
            ok = bu or f % 2 == 0
        else:
            ok = (dihedral or bu) and h <= wsub
        return 3 if ok else 1
    if g == 6:
        if delta % 2 == 0:
            ok = du or f % 2 == 0
        else:
            ok = h <= wsub
        return 1 if ok else 2
    return 1


def _fine_potmult(G, isub, dprime, n, du, bu, h) -> int:
    """Base-change Tamagawa number for potentially multiplicative reduction.

    The semistability field is ramified quadratic here (the minimal model
    has v(c6) = 3), so it sits inside the fixed field of H exactly when H
    lies in its fixed group.  Even ramification over the base leaves a
    multiplicative curve, split or not by that membership; odd ramification
    keeps the reduction additive and the component count follows a unit
    square test, through the discriminant for even n and through the
    four-component criterion unit (the declared B-class) for odd n.
    """
    e, f = _ef_of(G, isub, h)
    if e % 2 == 0:
        return n * e if (dprime is not None and h <= dprime) else 2
    flag = du if n % 2 == 0 else bu
    return 4 if (flag or f % 2 == 0) else 2


@dataclass(frozen=True)
class TamagawaCheckRow:
    case: str
    e: int
    k: int
    sign: int
    q: int
    flags: str
    d: int
    passed: bool
    detail: str


def _residue_powers(e: int, residue: int):
    """Prime powers q = l^j with q = residue mod e, residue char at least 5:
    the first two such primes, and 25 when residue is 1 mod e."""
    out = []
    for l in primerange(5, 60):
        if l % e == residue % e:
            out.append((l, l))
        if len(out) == 2:
            break
    if residue % e == 1 % e:
        out.append((5, 25))
    return tuple(out)


def _whole_group_place(G, isub, l, q, red) -> PlaceDescriptor:
    return PlaceDescriptor("w", "finite", group=G, l=l, q=q,
                           dsub=frozenset(range(G.order)), isub=isub,
                           reduction=red)


def _v_fixed_det(p: PlaceDescriptor):
    """h -> the unscaled fixed-space determinant of V at h, cached, for the
    V of a place p with D_v = G.

    V's multiplicities are its integer pairings with the irreducibles of G
    (:func:`v_pairing`).  V is solved from them as the sum of m_D * Q[G/D]
    on the cached multiplicity Smith form (``ExactCheckError`` if V needs a
    multiple), and the value at h is the product over D of (the product
    over H\\G/D of [H : H ∩ xDx^-1]) ** m_D, read from one double-coset
    walk per (H, D); m_D may be negative.
    """
    G = p.group
    sol = snf_solve(G.data.multiplicity_matrix,
                    [v_pairing(p, chi)
                     for chi in character_table(G).irreducibles],
                    G.data.multiplicity_smith)
    if sol.minimal_m != 1:
        raise ExactCheckError(f"V is a virtual permutation module only "
                              f"{sol.minimal_m} times over")
    module = [(c.representative, m)
              for c, m in zip(G.subgroup_classes(), sol.witness) if m]
    return functools.cache(lambda h: fraction_product(
        (math.prod(len(h) // len(local) for _, local
                   in G.double_cosets(h, d)), m) for d, m in module))


def _value_vector(G, fn) -> tuple[tuple[int, int], ...]:
    """The values of fn on the subgroup classes, as (numerator,
    denominator) pairs: the memo key of :func:`_check_function`.  Each
    value passes through ``_as_fraction``, so a float raises
    ``TypeError``; the pairs hash faster than ``Fraction``."""
    return tuple(_as_fraction(fn(c.representative)).as_integer_ratio()
                 for c in G.subgroup_classes())


def _check_function(case, spec, G, q, flags, fn, values, fields, lattices,
                    memo, rows):
    """Append one row per field d for the local function fn.

    fn is norm-tested through memo, keyed by (d, values), values being
    fn's :func:`_value_vector`: a function whose values were already
    decided for d reuses that report.  fn is called again by each norm
    test, so the sweeps pass cached functions.
    """
    for d in fields:
        rep = memo.get((d, values))
        if rep is None:
            rep = memo[d, values] = is_trivial_on_k_relations(
                fn, G, d, lattice=lattices[d])
        detail = ""
        if not rep.trivial:
            places = ", ".join(str(v) for v in sorted(
                rep.obstruction,
                key=lambda v: (v == PLACE_INF, 0 if v == PLACE_INF else v)))
            detail = (f"value {rep.value} on {rep.certificate} is not a norm "
                      f"from Q(sqrt {d}), with local obstruction at {places}; "
                      f"the case-{case} local ratio must be trivial on "
                      "K-relations")
        rows.append(TamagawaCheckRow(case, spec.e, spec.k, spec.sign, q,
                                     flags, d, rep.trivial, detail))


def appendix_tamagawa_check(case: str,
                            spec: MetacyclicSpec) -> list[TamagawaCheckRow]:
    """Norm-test a Tamagawa ratio over one metacyclic group, all flag combos.

    Case 2C tests the Tamagawa function itself, case 2D its ratio against
    the fixed-space determinant of the reference module 1 + eta + sigma,
    and case 2M its ratio against the power function |H|^dim V^H attached
    to the quadratic character cutting out the semistability field.  Every
    row records one (configuration, quadratic field) verdict; the claim
    under test holds when every row passes.  The fields d are
    :func:`quadratic_probe_fields` of the group, and the residue sizes q
    come from :func:`_residue_powers`.  Case 2D takes V = 1 + eta + sigma,
    the V of the dihedral local root number, from its first place: its
    multiplicities are that place's integer pairings with the irreducibles
    (:func:`v_pairing`), with no class function of V.  It values V as a
    virtual permutation module with the standard permutation pairing
    (:func:`_v_fixed_det`), once per group; any other invariant pairing
    gives the same verdicts, since regulator constants do not depend on it
    up to norms.

    The residue size q enters only the place, built and so validated for
    every q in the pool, and the ``dihedral`` switch (q = -1 mod the
    ramification degree of delta); no local function reads q itself.  So
    each local function and its vector of values on the subgroup classes
    (:func:`_value_vector`) are built once per parameter tuple and serve
    every q, and each distinct function is norm-tested once per field: the
    call keeps one memo keyed by (d, that vector).  The K-relation basis
    of each field comes from ``k_relation_basis``, which reduces one
    lattice per set of parity conditions of the group.  Every row is still
    emitted, in order.
    """
    if case not in ("2C", "2D", "2M"):
        raise ValueError(f"unknown case {case!r}")
    if case == "2C" and spec.sign != 1:
        raise ValueError("case 2C pairs with the trivial action, sign +1")
    if case == "2D" and (spec.sign != -1 or spec.e == 2 or spec.k == 0):
        raise ValueError("case 2D needs sign -1, e > 2 and k >= 1")

    G, rotation, frobenius = build_metacyclic(spec)
    isub = G.closure([rotation])
    fields = quadratic_probe_fields(G)
    lattices = {d: k_relation_basis(G, d) for d in fields}
    rows: list[TamagawaCheckRow] = []
    memo: dict = {}  # (d, values on the subgroup classes) -> report

    if case in ("2C", "2D"):
        residue = 1 if case == "2C" else -1
        pool = _residue_powers(ram_degree(_DELTAS[spec.e][0]), residue)
        wsub = _sqrt_field_subgroup(G, rotation, frobenius)
        if case == "2D":
            dprime = G.closure([G.mul(frobenius, frobenius)])
        fixed_det = None  # V's, set at the first place: all share D_v, I_v, D'

        # one cached function and its value vector per parameter tuple,
        # shared by every q
        @functools.cache
        def potgood(delta, du, bu, dihedral):
            if dihedral:
                fn = functools.cache(lambda h: fixed_det(h) / _fine_potgood(
                    G, isub, wsub, delta, du, bu, True, h))
            else:
                fn = functools.cache(lambda h: Fraction(_fine_potgood(
                    G, isub, wsub, delta, du, bu, False, h)))
            return fn, _value_vector(G, fn)

        for delta in _DELTAS[spec.e]:
            fe = ram_degree(delta)
            for l, q in pool:
                dihedral = is_dihedral(fe, q)
                if delta % 2 or (not dihedral and fe == 6):
                    d_units = (True,)
                else:
                    d_units = (True, False)
                if _B_PARITY[delta] == 1 and dihedral:
                    b_units = (True,)
                elif delta in (3, 9):
                    b_units = (True,)
                else:
                    b_units = (True, False)
                for du in d_units:
                    for bu in b_units:
                        red = AddPotGood(
                            delta, SquareClassLocal(delta % 2, du),
                            SquareClassLocal(_B_PARITY[delta], bu),
                            dprime=dprime if dihedral else None)
                        p = _whole_group_place(G, isub, l, q, red)
                        if dihedral and fixed_det is None:
                            fixed_det = _v_fixed_det(p)
                        flags = f"delta={delta} dsq={du:d} bsq={bu:d}"
                        fn, values = potgood(delta, du, bu, dihedral)
                        _check_function(case, spec, G, q, flags, fn, values,
                                        fields, lattices, memo, rows)
        return rows

    # case 2M: potentially multiplicative over any metacyclic shape
    pool = _residue_powers(spec.e, spec.sign)
    e1, f1 = len(isub), G.order // len(isub)
    halves = [c.representative for c in G.subgroup_classes()
              if 2 * c.order == G.order]

    @functools.cache  # as potgood above: one function per parameters
    def potmult(n, du, bu, dp):
        fn = functools.cache(lambda h: Fraction(
            _fine_potmult(G, isub, dp, n, du, bu, h)
            * (len(h) if dp is not None and h <= dp else 1)))
        return fn, _value_vector(G, fn)

    for n in (1, 2):
        for l, q in pool:
            for mc in _RAMIFIED_CLASSES:
                in_f = is_square_in_ext(mc, e1, f1)
                if in_f:
                    dprimes = [h for h in halves if not isub <= h]
                    if not dprimes:
                        continue
                else:
                    dprimes = [None]
                for dp in dprimes:
                    dus = (True, False) if n % 2 == 0 else (True,)
                    bus = (True, False) if n % 2 == 1 else (True,)
                    for du in dus:
                        for bu in bus:
                            red = AddPotMult(
                                n, mc, SquareClassLocal(0, bu),
                                SquareClassLocal(n % 2, du), dprime=dp)
                            _whole_group_place(G, isub, l, q, red)
                            fn, values = potmult(n, du, bu, dp)
                            flags = (f"n={n}"
                                     f" mc=({mc.val_parity},{mc.unit_is_square:d})"
                                     f" dsq={du:d} bsq={bu:d}"
                                     f" dp={dp is not None:d}")
                            _check_function(case, spec, G, q, flags, fn,
                                            values, fields, lattices, memo,
                                            rows)
    return rows


# ---------------------------------------------------------------------------
# Differential weight functions on cyclic groups


def _h_exponent(delta: int, n: int) -> int:
    return sum(mobius(n // d) * (delta * d // 12) for d in divisors(n))


def _g_value(e: int, n: int) -> Fraction:
    val = Fraction(1)
    for d in divisors(n):
        mu = mobius(n // d)
        if mu and d % e:
            val *= Fraction(d) ** mu
    return val


def quadratic_subfields_of_fixed_field(n: int, q: int) -> tuple[int, ...]:
    """Quadratic fields inside the degree-n cyclotomic field fixed by ^q."""
    if n < 1 or math.gcd(n, q) != 1:
        raise ValueError("q must be invertible mod n")
    return _quadratic_subfields(n, (q,))


def _reference_nonsquare(e: int, delta: int, n: int) -> bool:
    """Predicted membership of n in the non-square value set of h.

    These are the table predicates; the checker compares them against the
    directly computed Moebius-sum parities.  Within each admissible pair of
    delta values the sets agree except at a single small n, which flips
    between the ramification degree (delta on the steep side) and 2.
    """
    if n == 1:
        return False
    fac = factor_bounded(n)
    a = fac.pop(2, 0)
    if e == 2:
        if n in (2, 4):
            return True
        if len(fac) != 1 or a > 1:
            return False
        (p, _), = fac.items()
        return p % 4 == 3
    if e == 3:
        if n == (3 if delta == 4 else 2):
            return True
        b = fac.pop(3, 0)
        if b > 1 or len(fac) > 1:
            return False
        if b == 0 and not fac:
            return a >= 2
        if b == 1 and not fac:
            return a >= 1
        (p, _), = fac.items()
        return p % 3 == 2 and a == 0
    if e == 4:
        if n == (4 if delta == 3 else 2) or n == 8:
            return True
        if len(fac) != 1:
            return False
        (p, _), = fac.items()
        if a == 0:
            return p % 8 in (5, 7)
        if a == 1:
            return p % 8 in (3, 5)
        if a == 2:
            return p % 4 == 3
        return False
    # e == 6
    if n == (6 if delta == 2 else 2):
        return True
    b = fac.pop(3, 0)
    if not fac:
        if b == 0:
            return a >= 3
        if a == 0:
            return b >= 2
        if b == 1:
            return a >= 2
        if a == 1:
            return b >= 2
        return False
    if len(fac) != 1 or b > 1:
        return False
    (p, _), = fac.items()
    if b == 1:
        return a == 1 and p % 12 in (5, 11)
    if a == 0:
        return p % 12 in (7, 11)
    if a == 1:
        return p % 12 in (5, 7)
    return False


@dataclass(frozen=True)
class DifferentialReport:
    e: int
    delta: int
    l: int
    q: int
    r: int
    case: str
    values: dict[int, Fraction]
    subfields: dict[int, tuple[int, ...]]
    nonsquare: tuple[int, ...]
    expected_nonsquare: tuple[int, ...]
    table_ok: bool
    norm_failures: tuple[tuple[int, int], ...]
    passed: bool


def appendix_differential_check(e: int, delta: int, l: int, q: int,
                                r: int) -> DifferentialReport:
    """Evaluate the differential weight on every Psi_n with n dividing r.

    The weight at Psi_n is q^h(n), a power of the residue size q as in the
    differential term of :func:`curvelocal.fudge_C`.  With the inverting
    Frobenius (q = -1 mod e) the index weight g is multiplied in as well.
    Two verdicts are combined: every value must be a norm from every
    quadratic subfield of the fixed field of ^q in the n-th cyclotomic
    field, and the set of n with non-square h value must match the
    reference table exactly.

    The argument checks make q a power of a prime l >= 5, so q is prime to
    6 and q is 1 or -1 mod e for each e in {3, 4, 6}: the case is 2C or 2D
    with no third option.
    """
    if e not in (2, 3, 4, 6) or ram_degree(delta) != e:
        raise ValueError(f"delta = {delta} does not pair with e = {e}")
    if not isprime(l) or l < 5:
        raise ValueError("the residue characteristic must be a prime >= 5")
    if math.gcd(q, r) != 1:
        raise ValueError("q must be invertible mod r")
    if not _is_prime_power(q, l):
        raise ValueError(f"q = {q} is not a power of l = {l}")
    case = "2D" if is_dihedral(e, q) else "2C"

    values: dict[int, Fraction] = {}
    subfields: dict[int, tuple[int, ...]] = {}
    nonsquare = []
    failures = []
    for n in divisors(r):
        hexp = _h_exponent(delta, n)
        if hexp % 2:
            nonsquare.append(n)
        val = Fraction(q) ** hexp
        if case == "2D":
            val *= _g_value(e, n)
        values[n] = val
        subs = quadratic_subfields_of_fixed_field(n, q)
        subfields[n] = subs
        for m in subs:
            if not is_norm_from_quadratic(val, m):
                failures.append((n, m))
    expected = tuple(n for n in divisors(r) if _reference_nonsquare(e, delta, n))
    table_ok = tuple(nonsquare) == expected
    return DifferentialReport(
        e, delta, l, q, r, case, values, subfields, tuple(nonsquare),
        expected, table_ok, tuple(failures),
        table_ok and not failures)


@dataclass(frozen=True)
class SplitNormReport:
    d: int
    tested: tuple[int, ...]
    failures: tuple[int, ...]
    passed: bool


def lemma_b3_check(d: int, ls=None) -> SplitNormReport:
    """Split primes must be norms for the fields equal to their genus field.

    Valid d are -1, 2, -2 and p* (the prime field discriminant, p* = 1 mod
    4); for these, any prime with trivial Artin symbol is already a global
    norm, which the brute-force oracle must confirm.  ls, any iterable of
    split primes, is read once; an empty one is refused.
    """
    special = d in (-1, 2, -2)
    starred = d % 4 == 1 and is_squarefree(d) and isprime(abs(d))
    if not (special or starred):
        raise ValueError(f"d = {d} is not of genus-trivial shape")
    disc = _fundamental_discriminant(d)
    if ls is None:
        ls = tuple(l for l in primerange(2, 200)
                   if disc % l and kronecker_symbol(disc, l) == 1)
    else:
        ls = tuple(ls)
        if not ls:
            raise ValueError("ls is empty: no split prime to test")
        for l in ls:
            if not isprime(l) or disc % l == 0 \
                    or kronecker_symbol(disc, l) != 1:
                raise ValueError(f"l = {l} is not split in Q(sqrt {d})")
    failures = tuple(l for l in ls if not is_norm_from_quadratic(l, d))
    return SplitNormReport(d, ls, failures, not failures)


# ---------------------------------------------------------------------------
# Randomized models


_SEMISTABLE_QS = ((2, 2), (2, 4), (2, 8), (3, 3), (3, 9), (5, 5), (7, 7),
                  (11, 11), (13, 13), (5, 25))
_ADDITIVE_QS = ((5, 5), (5, 25), (7, 7), (7, 49), (11, 11), (13, 13))


def synthetic_model(G: PermGroup, rng, semistable: bool = False,
                    rational_base: bool | None = None) -> CurveLocalModel:
    """Draw a random valid model over G, with one to three places.

    All randomness flows through the supplied rng, so a seeded generator
    reproduces the same model.  A proposal that is not a valid place is
    dropped and another drawn; a good place at a split prime is always
    available as a fallback, so the construction cannot fail.
    """
    count = rng.randint(1, 3)
    places = [_synthetic_place(G, rng, f"v{i}", semistable)
              for i in range(count)]
    if rational_base is None:
        rational_base = bool(rng.getrandbits(1))
    return CurveLocalModel(G, places, rational_base=rational_base)


def _synthetic_place(G, rng, name, semistable):
    classes = G.subgroup_classes()
    kinds = ["good", "split", "split", "nonsplit"]
    if not semistable:
        kinds += ["potgood", "potgood", "potmult"]
    for _ in range(80):
        dsub = rng.choice(classes).representative
        inert = [c.representative for c in G.sub_lattice(dsub)
                 if c.is_normal and c.is_cyclic
                 and _cyclic_quotient(G, dsub, c.representative)]
        if not inert:
            continue
        isub = rng.choice(inert)
        try:
            p = _propose_place(G, dsub, isub, rng.choice(kinds), rng, name)
        except InvalidPlace:
            continue
        if p is not None:
            return p
    return PlaceDescriptor(name, "finite", group=G, l=5, q=5,
                           dsub=frozenset([0]), isub=frozenset([0]),
                           reduction=Good())


def _centralizes(G, dsub, isub) -> bool:
    return all(G.mul(d, x) == G.mul(x, d) for d in dsub for x in isub)


def _propose_place(G, dsub, isub, kind, rng, name):
    if kind in ("good", "split", "nonsplit"):
        l, q = rng.choice(_SEMISTABLE_QS)
        n = rng.randint(1, 4)
        red = {"good": Good(), "split": SplitMult(n),
               "nonsplit": NonsplitMult(n)}[kind]
        return PlaceDescriptor(name, "finite", group=G, l=l, q=q,
                               dsub=dsub, isub=isub, reduction=red)
    e1, f1 = len(isub), len(dsub) // len(isub)
    if kind == "potgood":
        # only the split shape is generated: the Frobenius acts trivially on
        # the tame quotient, which forces q = 1 mod |I_v| and a central I_v;
        # ramification degrees 4 and 6 additionally demand a totally
        # ramified place so that the square-class tests stay unambiguous
        if not _centralizes(G, dsub, isub):
            return None
        pool = [(l, q) for l, q in _ADDITIVE_QS if q % e1 == 1 % e1]
        deltas = [d for d in (2, 3, 4, 6, 8, 9, 10) if d * e1 % 12 == 0
                  and (ram_degree(d) < 4 or f1 == 1)]
        if not deltas or not pool:
            return None
        l, q = rng.choice(pool)
        delta = rng.choice(deltas)
        du = bool(rng.getrandbits(1)) if delta in (4, 6, 8) else True
        red = AddPotGood(delta, SquareClassLocal(delta % 2, du),
                         SquareClassLocal(_B_PARITY[delta],
                                          bool(rng.getrandbits(1))),
                         lambda_override=rng.choice((None, None, 1, -1)))
        return PlaceDescriptor(name, "finite", group=G, l=l, q=q,
                               dsub=dsub, isub=isub, reduction=red)
    # potentially multiplicative places keep odd inertia, where -c6 stays a
    # non-square and takes no D'; drawing D' would move every seed's draws
    if e1 % 2 == 0:
        return None
    l, q = rng.choice(_ADDITIVE_QS)
    mc = rng.choice(_RAMIFIED_CLASSES)
    n = rng.randint(1, 3)
    red = AddPotMult(n, mc, SquareClassLocal(0, bool(rng.getrandbits(1))),
                     SquareClassLocal(n % 2, bool(rng.getrandbits(1))))
    return PlaceDescriptor(name, "finite", group=G, l=l, q=q,
                           dsub=dsub, isub=isub, reduction=red)
