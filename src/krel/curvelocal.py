"""Per-place curve data: Tamagawa numbers, fudge factors, root-number data.

A place descriptor packages the decomposition and inertia groups at one
place together with declared reduction data (type, discriminant valuation,
square classes of the invariants involved), a frozen value checked by
:func:`validate_place` where it is built.  Everything downstream is a
function of these inputs; no Weierstrass models are processed.  Additive
cases assume residue characteristic at least 5 throughout.  The module owns
the (D_v, I_v) rules, the (e, f) of a local subgroup and the D' rules, all
in G's own element indices: no place builds a group of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .characters import ClassFunction
from .exactmath import (ExactCheckError, FactorBoundError, exact_quotient,
                        fraction_sum, isprime, kronecker_symbol)
from .groups import PermGroup

CASE_GOOD = "1G"
CASE_SPLIT = "1S"
CASE_NONSPLIT = "1NS"
CASE_CYCLIC = "2C"
CASE_DIHEDRAL = "2D"
CASE_POTMULT = "2M"


@dataclass(frozen=True)
class SquareClassLocal:
    """Square class of a nonzero local element: valuation parity, unit part."""

    val_parity: int
    unit_is_square: bool

    def __post_init__(self):
        if self.val_parity not in (0, 1):
            raise ValueError("val_parity must be 0 or 1")


@dataclass(frozen=True)
class Good:
    pass


@dataclass(frozen=True)
class SplitMult:
    n: int


@dataclass(frozen=True)
class NonsplitMult:
    n: int


@dataclass(frozen=True)
class AddPotGood:
    delta: int
    delta_class: SquareClassLocal
    b_class: SquareClassLocal
    lambda_override: int | None = None
    dprime: frozenset[int] | None = None


@dataclass(frozen=True)
class AddPotMult:
    """Reduction of type I_n* (l >= 5), so v(c6) = 3 and ``minus_c6_class``
    has odd valuation.  Over F_w with e_w odd it stays I_n*, and c is 4 or
    2 by whether ``delta_class`` (n even) or ``b_class`` (n odd) is a
    square there.  ``dprime`` is the subgroup of D_v fixing
    Q_l(sqrt(-c6)), given exactly when the top field holds sqrt(-c6); with
    e_w even the reduction is I_{n e_w}, split exactly when the local
    subgroup lies in D'."""

    n: int
    minus_c6_class: SquareClassLocal
    b_class: SquareClassLocal
    delta_class: SquareClassLocal
    dprime: frozenset[int] | None = None


ReductionData = Good | SplitMult | NonsplitMult | AddPotGood | AddPotMult


def ram_degree(delta: int) -> int:
    """Ramification degree of the potentially-good splitting field."""
    return 12 // gcd(12, delta)


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    message: str

    def __str__(self):
        return f"{self.rule}: {self.message}"


class InvalidPlace(ValueError):
    """A place that breaks the rules listed in ``diagnostics``."""

    def __init__(self, name: str, diagnostics: list[Diagnostic]):
        super().__init__(f"invalid place {name!r}: "
                         + "; ".join(map(str, diagnostics)))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class PlaceDescriptor:
    """One place, validated where it is built (an invalid one raises
    :class:`InvalidPlace`); ``dataclasses.replace`` builds a changed one."""

    name: str
    kind: str  # "real" | "complex" | "finite"
    group: PermGroup | None = None
    l: int | None = None
    q: int | None = None
    dsub: frozenset[int] | None = None
    isub: frozenset[int] | None = None
    reduction: ReductionData | None = None

    def __post_init__(self):
        problems = validate_place(self)
        if problems:
            raise InvalidPlace(self.name, problems)

    def is_finite(self) -> bool:
        return self.kind == "finite"

    @cached_property
    def root_datum(self) -> RootDatum:
        """Local twisted-root-number data (lambda, V) for this place."""
        if self.kind in ("real", "complex"):
            return RootDatum(-1)
        G, red = self.group, self.reduction
        if isinstance(red, Good):
            return RootDatum(1)
        if isinstance(red, SplitMult):
            return _with_v(self, 1, lambda x: 1)
        if isinstance(red, NonsplitMult):
            if len(self.dsub) // len(self.isub) % 2 == 1:
                return RootDatum(1)
            # the unramified quadratic character, trivial on I_v and squares
            kernel = G.closure(self.isub | {G.mul(y, y) for y in self.dsub})
            return _with_v(self, 1, lambda x: 1 if x in kernel else -1)
        if isinstance(red, AddPotGood):
            fe = ram_degree(red.delta)
            dihedral = reduction_case(self) == CASE_DIHEDRAL
            lam = red.lambda_override
            if lam is None:
                lam = default_additive_lambda(fe, self.q, dihedral)
            if not dihedral:
                return RootDatum(lam)
            # V = 1 + eta + sigma, pulled back from the dihedral D_v/D': on
            # the rotations R = I_v D' it is 2 + sigma of the order modulo
            # D', and off R, where eta = -1 and sigma = 0, it vanishes
            dprime = red.dprime
            rot = G.closure(self.isub | dprime)
            return _with_v(self, lam, lambda x: 2 + _SIGMA[_order_mod(
                G, x, dprime)] if x in rot else 0)
        # potentially multiplicative: v(-c6) is odd, so lambda = (-1 | q)
        lam = kronecker_symbol(-1, self.q)
        if red.dprime is None:
            return RootDatum(lam)
        return _with_v(self, lam, lambda x: 1 if x in red.dprime else -1)


@dataclass(frozen=True)
class RootDatum:
    """The local sign lambda and V, a character of D_v: ``v`` maps each x
    in D_v (G's element indices) to V(x), None when V = 0; ``v_terms`` has
    (class k of G, sum of V(x) over x in D_v ∩ k), the nonzero terms of
    <Res chi, V> * |D_v| (see :func:`v_pairing`)."""

    lam: int
    v: dict[int, int] | None = None
    v_terms: tuple[tuple[int, int], ...] = ()


def is_square_in_ext(x: SquareClassLocal, e: int, f: int) -> bool:
    """Does x become a square after an extension with these e and f?

    The valuation gets multiplied by e and a non-square unit becomes a
    square exactly in even residue degree (odd residue characteristic).
    """
    return (x.val_parity * e) % 2 == 0 and (x.unit_is_square or f % 2 == 0)


def _is_prime_power(q: int, l: int) -> bool:
    if q < l:
        return False
    while q % l == 0:
        q //= l
    return q == 1


def _order_mod(G: PermGroup, x: int, sub: frozenset[int]) -> int:
    """The order of x modulo sub: the least t >= 1 with x^t in sub."""
    t, y = 1, x
    while y not in sub:
        y = G.mul(y, x)
        t += 1
    return t


def _cyclic_quotient(G: PermGroup, dsub: frozenset[int],
                     isub: frozenset[int]) -> bool:
    """Is D/I cyclic, for I normal in D?"""
    index = len(dsub) // len(isub)
    return any(_order_mod(G, x, isub) == index for x in dsub)


def _place_rule(G: PermGroup, rule, *key):
    """rule(G, *key), a structural rule of a place, checked once per group
    and (rule, key) and kept on ``G.data.place_problems``."""
    memo, k = G.data.place_problems, (rule, *key)
    if k not in memo:
        memo[k] = rule(G, *key)
    return memo[k]


def decomposition_pair_problem(G: PermGroup, dsub: frozenset[int],
                               isub: frozenset[int]) -> tuple[str, str] | None:
    """The first rule that (D_v, I_v) breaks, as (rule, message), or None:
    D_v must be a subgroup, I_v a normal subgroup of it, and D_v/I_v
    cyclic."""
    if G.closure(dsub) != dsub:
        return "decomposition-closed", "D_v is not a subgroup"
    if not isub <= dsub or G.closure(isub) != isub:
        return "inertia-subgroup", "I_v is not a subgroup of D_v"
    if any(G.conjugate_subgroup(isub, g) != isub
           for g in G.generating_indices(dsub)):
        return "inertia-normality", "I_v is not normal in D_v"
    if not _cyclic_quotient(G, dsub, isub):
        return "quotient-cyclic", "D_v/I_v is not cyclic"
    return None


def local_ef(dsub: frozenset[int], isub: frozenset[int],
             lsub: frozenset[int]) -> tuple[int, int]:
    """(e, f) of the place with local subgroup L, a subgroup of D.

    D and I are the decomposition and inertia groups below; the fixed field
    of L has ramification degree e = |I| / |L ∩ I| and residue degree
    f = [D : I] / [L : L ∩ I] over the base.
    """
    li = len(lsub & isub)
    what = f"(e, f) of a local subgroup of order {len(lsub)}"
    e = exact_quotient(len(isub), li, what)
    f = exact_quotient(len(dsub) * li, len(isub) * len(lsub), what)
    return e, f


def validate_place(p: PlaceDescriptor) -> list[Diagnostic]:
    """Check a descriptor against the structural and arithmetic rules: each
    violated rule appears as a named diagnostic, and an empty list means
    the place is valid."""
    out: list[Diagnostic] = []
    if p.kind in ("real", "complex"):
        return out
    if p.kind != "finite":
        return [Diagnostic("kind", f"unknown place kind {p.kind!r}")]

    G, red = p.group, p.reduction
    if G is None or p.dsub is None or p.isub is None or red is None:
        return [Diagnostic("incomplete", "finite place needs group, D_v, I_v "
                           "and reduction data")]
    dprime = getattr(red, "dprime", None)
    if not all(isinstance(s, frozenset) for s in (p.dsub, p.isub, dprime)
               if s is not None):
        return [Diagnostic("subgroup-type",
                           "D_v, I_v and D' must be frozensets")]
    try:
        l_prime = p.l is not None and isprime(p.l)
    except FactorBoundError as exc:
        return [Diagnostic("residue-size", str(exc))]
    if not l_prime or p.q is None or not _is_prime_power(p.q, p.l):
        out.append(Diagnostic("residue-size",
                              f"q = {p.q} is not a power of the prime l = {p.l}"))
        return out
    problem = _place_rule(G, decomposition_pair_problem, p.dsub, p.isub)
    if problem is not None:
        return [Diagnostic(*problem)]

    e1, f1 = len(p.isub), len(p.dsub) // len(p.isub)
    if isinstance(red, (SplitMult, NonsplitMult, AddPotMult)) and red.n < 1:
        out.append(Diagnostic("discriminant-valuation", "n must be >= 1"))

    if isinstance(red, (AddPotGood, AddPotMult)):
        if p.l < 5:
            out.append(Diagnostic("additive-residue-char",
                                  "additive reduction requires l >= 5"))
        # v(Delta) is delta when potentially good and n + 6 at I_n*
        v_delta = red.delta if isinstance(red, AddPotGood) else red.n + 6
        if red.delta_class.val_parity != v_delta % 2:
            out.append(Diagnostic("delta-class-parity",
                                  f"v(Delta) = {v_delta}, but the declared "
                                  "discriminant class has the other parity"))
    if isinstance(red, AddPotGood):
        if red.delta not in (2, 3, 4, 6, 8, 9, 10):
            out.append(Diagnostic("delta-range",
                                  f"delta = {red.delta} is not additive "
                                  "potentially good"))
            return out
        if (red.delta * e1) % 12 != 0:
            out.append(Diagnostic(
                "good-not-attained",
                f"delta*|I_v| = {red.delta * e1} is not 0 mod 12"))
        fe = ram_degree(red.delta)
        if red.lambda_override not in (None, 1, -1):
            out.append(Diagnostic("lambda-range", "lambda must be +-1"))
        if reduction_case(p) == CASE_DIHEDRAL:
            if problem := _place_rule(G, _dihedral_problem, p.dsub, p.isub,
                                      dprime, fe):
                out.append(problem)
        else:
            if dprime is not None:
                out.append(Diagnostic("d-prime-not-needed",
                                      "cyclic case takes no D'"))
            if fe == 6 and not is_square_in_ext(red.delta_class, 1, 1):
                out.append(Diagnostic(
                    "delta-square-forced",
                    "q = 1 mod 6 admits a tame cubic extension, so the "
                    "discriminant must already be a square"))
    elif isinstance(red, AddPotMult):
        if red.minus_c6_class.val_parity == 0:
            out.append(Diagnostic("not-additive",
                                  "v(c6) = 3 at I_n*: -c6 of even valuation "
                                  "means multiplicative reduction"))
        in_f = is_square_in_ext(red.minus_c6_class, e1, f1)
        if dprime is None:
            if in_f:
                out.append(Diagnostic(
                    "d-prime-required",
                    "-c6 becomes a square in F_w, so the quadratic subfield "
                    "exists and D' must be given"))
        elif not in_f:
            out.append(Diagnostic(
                "d-prime-forbidden",
                "-c6 stays non-square in F_w, so no D' exists"))
        elif problem := _place_rule(G, _dprime_index_problem, p.dsub,
                                    dprime):
            out.append(problem)
        elif p.isub <= dprime:
            out.append(Diagnostic("d-prime-ramification",
                                  "sqrt(-c6) is ramified: I_v not in D'"))
    return out


def _dprime_index_problem(G: PermGroup, dsub: frozenset[int],
                          dprime: frozenset[int]) -> Diagnostic | None:
    """The 2M D' rule: D' is an index-2 subgroup of D_v."""
    if (G.closure(dprime) != dprime or not dprime <= dsub
            or 2 * len(dprime) != len(dsub)):
        return Diagnostic("d-prime-index",
                          "D' must be an index-2 subgroup of D_v")
    return None


def _dihedral_problem(G: PermGroup, dsub: frozenset[int],
                      isub: frozenset[int], dprime: frozenset[int] | None,
                      fe: int) -> Diagnostic | None:
    """The first dihedral D' rule broken: D' given, normal in D_v with
    D_v/D' dihedral of order 2fe, and inertia onto its rotations."""
    if dprime is None:
        return Diagnostic("d-prime-missing",
                          "dihedral case needs D' with D_v/D' dihedral")
    if G.closure(dprime) != dprime or not dprime <= dsub:
        return Diagnostic("d-prime-subgroup", "D' is not a subgroup of D_v")
    if len(dsub) != 2 * fe * len(dprime):
        return Diagnostic("d-prime-index", f"D_v/D' must have order {2 * fe}")
    if any(G.conjugate_subgroup(dprime, g) != dprime
           for g in G.generating_indices(dsub)):
        return Diagnostic("d-prime-normality", "D' is not normal in D_v")
    if len(isub) != fe * len(isub & dprime):
        return Diagnostic("inertia-image",
                          "inertia must map onto the rotation subgroup")
    # R = I_v D' has index 2: D_v/D' is dihedral when some x in I_v has
    # order fe mod D' and a y off R (any one decides) has y^2 and y x y^-1 x
    # in D'
    rot = G.closure(isub | dprime)
    x = next((x for x in isub if _order_mod(G, x, dprime) == fe), None)
    y = min(dsub - rot)
    if (x is None or G.mul(y, y) not in dprime
            or G.mul(G.conjugate(x, G.inv(y)), x) not in dprime):
        return Diagnostic("d-prime-quotient",
                          f"D_v/D' is not dihedral of order {2 * fe}")
    return None


def is_dihedral(fe: int, q: int) -> bool:
    """Case 2D, not 2C: the splitting field's ramification degree fe is
    above 2 and Frobenius inverts inertia, q = -1 mod fe."""
    return fe > 2 and q % fe == fe - 1


def reduction_case(p: PlaceDescriptor) -> str:
    """Reduction case label: 1G, 1S, 1NS, 2C, 2D or 2M."""
    red = p.reduction
    if isinstance(red, Good):
        return CASE_GOOD
    if isinstance(red, SplitMult):
        return CASE_SPLIT
    if isinstance(red, NonsplitMult):
        return CASE_NONSPLIT
    if isinstance(red, AddPotGood):
        dihedral = is_dihedral(ram_degree(red.delta), p.q)
        return CASE_DIHEDRAL if dihedral else CASE_CYCLIC
    return CASE_POTMULT


def tamagawa(p: PlaceDescriptor, h: frozenset[int]) -> int:
    """Tamagawa number of the curve over the subfield fixed by h."""
    return _tamagawa(p, h, *_place_ef(p, h))


def _place_ef(p: PlaceDescriptor, h: frozenset[int]) -> tuple[int, int]:
    if not p.is_finite():
        raise ValueError(f"place {p.name!r} is not finite")
    h = frozenset(h)
    if not h <= p.dsub:
        raise ValueError("H must be a subgroup of D_v")
    return local_ef(p.dsub, p.isub, h)


def _tamagawa(p: PlaceDescriptor, h: frozenset[int], e: int, f: int) -> int:
    """Tamagawa number over F_w, the fixed field of h."""
    red = p.reduction
    if isinstance(red, Good):
        return 1
    if isinstance(red, SplitMult):
        return e * red.n
    if isinstance(red, NonsplitMult):
        en = e * red.n
        if f % 2 == 0:
            return en
        return 2 if en % 2 == 0 else 1
    if isinstance(red, AddPotGood):
        g = gcd(red.delta * e, 12)
        if g == 3:
            return 2
        if g == 4:
            return 3 if is_square_in_ext(red.b_class, e, f) else 1
        if g == 6:
            # "1 or 4" for attained I_0*; both are the trivial square class
            return 1 if is_square_in_ext(red.delta_class, e, f) else 2
        return 1
    if e % 2 == 1:
        key = red.delta_class if red.n % 2 == 0 else red.b_class
        return 4 if is_square_in_ext(key, e, f) else 2
    # e even: I_{ne}, split exactly when sqrt(-c6) lies in F_w, i.e. h in D'
    if red.dprime is not None and h <= red.dprime:
        return e * red.n
    return 2


def fudge_C(p: PlaceDescriptor, h: frozenset[int]) -> Fraction:
    """Tamagawa number times the minimal-differential term.

    Over the subfield fixed by h, with ramification degree e and residue
    degree f, the differential term is q^(floor(delta*e/12)*f) for
    potentially good reduction, q^(floor(e/2)*f) for potentially
    multiplicative reduction, and 1 otherwise.
    """
    red = p.reduction
    if not isinstance(red, (AddPotGood, AddPotMult)):
        return Fraction(tamagawa(p, h))
    e, f = _place_ef(p, h)
    if isinstance(red, AddPotGood):
        exponent = (red.delta * e // 12) * f
    else:
        exponent = (e // 2) * f
    return _tamagawa(p, h, e, f) * Fraction(p.q) ** exponent


def default_additive_lambda(fe: int, q: int, dihedral: bool) -> int:
    """Residue-symbol local sign for tame additive potentially good reduction."""
    table = {2: -1, 3: -3, 4: -2, 6: -1}
    sign = kronecker_symbol(table[fe], q)
    return -sign if dihedral else sign


# sigma(o) = 2cos(2 pi / o): the faithful two-dimensional character of a
# dihedral group of order 2fe, fe in {3, 4, 6}, at a rotation of order o
_SIGMA = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


def _with_v(p: PlaceDescriptor, lam: int, value) -> RootDatum:
    """The datum with V(x) = value(x) at each x in D_v.

    V is a rational character, so V(x^k) = V(x) for every k prime to the
    order of x; that is what lets the pairing with a character of G read
    Galois means (see :func:`v_pairing`), and it is checked.
    """
    G = p.group
    v = {x: value(x) for x in p.dsub}
    sums: dict[int, int] = {}
    for x, vx in v.items():
        o, y = G.element_order(x), x
        for k in range(2, o):
            y = G.mul(y, x)
            if v[y] != vx and gcd(k, o) == 1:
                raise ExactCheckError(f"V at {p.name!r} is {vx} at {x} but "
                                      f"{v[y]} at {x}^{k}: not rational")
        c = G.class_of(x)
        sums[c] = sums.get(c, 0) + vx
    return RootDatum(lam, v, tuple(sorted((c, w) for c, w in sums.items()
                                          if w)))


def v_pairing(p: PlaceDescriptor, chi: ClassFunction) -> int:
    """<Res chi, V> over D_v, an exact integer; 0 where V = 0.

    The pairing is (1/|D_v|) * sum of V(x) * chi(x) over the x in D_v.  V
    is rational, V(x^k) = V(x) for k prime to the order of x, so chi(x) may
    be replaced by its Galois mean, read at the class of G that holds x:
    the sum is then one term per class of G (``RootDatum.v_terms``).  At a
    place with D_v = G these are V's multiplicities in the irreducibles.
    """
    rd = p.root_datum
    if rd.v is None:
        return 0
    means = chi.galois_means
    m = fraction_sum(((means[k], w) for k, w in rd.v_terms), len(p.dsub))
    if m.denominator != 1:
        raise ValueError("character does not restrict integrally")
    return int(m)


def local_u_contribution(p: PlaceDescriptor, chi: ClassFunction) -> int:
    """Parity bit this place adds to the twisted-root-number exponent:
    <Res chi, V> (:func:`v_pairing`), plus dim chi where lambda = -1,
    modulo 2."""
    bit = v_pairing(p, chi)
    if p.root_datum.lam == -1:
        bit += int(chi.degree())
    return bit % 2
