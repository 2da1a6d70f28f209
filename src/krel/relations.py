"""Brauer relations, quadratic K-relations, and local functions on them.

A virtual sum of transitive G-sets is a dict mapping subgroup class ids to
integer coefficients, as in :mod:`krel.groups`.  This module decides when
such a sum is a K-relation, produces lattice bases of all of them, searches
for the minimal norm relation attached to an irreducible character, and
evaluates local functions (D, I, psi) together with the certificate test
for triviality on K-relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from sympy import divisors, mobius

from .characters import ClassFunction
from .exactmath import (
    ExactCheckError,
    exact_quotient,
    hermite_row_basis,
    is_norm_from_quadratic,
    is_squarefree,
    snf_solve,
)
from .groups import PermGroup, SubgroupClass, subgroup_rep

#: Marker accepted wherever a quadratic discriminant is expected, selecting
#: the classical notion (permutation character vanishes identically).
BRAUER = "brauer"

QuadraticField = Union[int, str]


def _check_quadratic(d: int) -> None:
    if not isinstance(d, int) or d == 1 or not is_squarefree(d):
        raise ValueError(f"need a squarefree integer != 1, got {d!r}")


def _theta_vector(G: PermGroup, theta: dict[str, int]) -> list[int]:
    pos = G.data.subgroup_positions
    vec = [0] * len(pos)
    for cid, coeff in theta.items():
        vec[pos[cid]] += coeff
    return vec


def _vector_theta(classes: list[SubgroupClass],
                  vec: list[int]) -> dict[str, int]:
    return {classes[i].id: v for i, v in enumerate(vec) if v}


def _multiplicity_rows(G: PermGroup) -> list[list[int]]:
    """mult[i][j] = multiplicity of the j-th irreducible in C[G/H_i]."""
    return G.data.multiplicity_rows


# ---------------------------------------------------------------------------
# Relations


def psi_d(n: int, d: int) -> dict[str, int]:
    """The element Psi_d of B(C_n): sum of mu(d/d') * [C_n / C_{n/d'}].

    Its permutation character is the full Galois orbit of one character of
    order d, so these elements diagonalize the Burnside ring of C_n.
    """
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    out: dict[str, int] = {}
    for dp in divisors(d):
        mu = int(mobius(d // dp))
        if mu:
            out[f"{n // dp}.1"] = mu
    return out


def _multiplicities(G: PermGroup, theta: dict[str, int],
                    js: Iterable[int]) -> list[int]:
    """Multiplicities of the irreducibles chi_j, j in js, in the permutation
    character of theta, summed over its nonzero terms only."""
    mult = _multiplicity_rows(G)
    pos = G.data.subgroup_positions
    terms = [(mult[pos[cid]], c) for cid, c in theta.items() if c]
    return [sum(c * row[j] for row, c in terms) for j in js]


def is_brauer_relation(G: PermGroup, theta: dict[str, int]) -> bool:
    """True when the permutation character of theta vanishes."""
    mult = _multiplicity_rows(G)
    return not any(_multiplicities(G, theta, range(len(mult[0]))))


def is_k_relation(G: PermGroup, theta: dict[str, int],
                  d: QuadraticField) -> bool:
    """Divisibility test for membership in the K-relation lattice.

    For K = Q(sqrt(d)) the multiplicity of each complex irreducible chi in
    the permutation character must be divisible by [K : K ∩ Q(chi)], which
    is 1 or 2 according to whether sqrt(d) lies in the character field.
    Passing the BRAUER marker demands vanishing multiplicities instead.
    """
    if d == BRAUER:
        return is_brauer_relation(G, theta)
    _check_quadratic(d)
    odd = [j for j, fd in enumerate(G.data.field_data)
           if fd.degree_factor(d) == 2]
    return not any(m % 2 for m in _multiplicities(G, theta, odd))


@dataclass
class KRelationLattice:
    group: PermGroup
    d: QuadraticField
    basis: list[dict[str, int]]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, theta: dict[str, int]) -> bool:
        rows = [_theta_vector(self.group, b) for b in self.basis]
        vec = _theta_vector(self.group, theta)
        base = hermite_row_basis(rows)
        return hermite_row_basis(rows + [vec]) == base


def brauer_basis(G: PermGroup) -> KRelationLattice:
    """Integer kernel of the permutation character map, in Hermite form."""
    classes = G.subgroup_classes()
    data = G.data
    a = data.multiplicity_matrix
    sol = snf_solve(a, [0] * len(a), data.multiplicity_smith)
    rows = hermite_row_basis(sol.kernel_basis)
    lat = KRelationLattice(G, BRAUER,
                           [_vector_theta(classes, v) for v in rows])
    # Artin's induction theorem: the rank is the number of non-cyclic classes
    if lat.rank != sum(1 for c in classes if not c.is_cyclic):
        raise ExactCheckError(f"Brauer lattice has rank {lat.rank}")
    if not all(is_brauer_relation(G, b) for b in lat.basis):
        raise ExactCheckError("Brauer basis element is not a relation")
    return lat


def gf2_relation_lattice(cond: Iterable[int], s: int) -> list[dict[int, int]]:
    """Hermite form of lift(V) + 2Z^s, for V the vectors of GF(2)^s
    orthogonal to every row of ``cond`` (bit i of a row is column i).

    Rows are returned sparse, {column: entry} without zeros, one leading at
    each column c in turn.  With the rows of cond reduced so that each has
    its pivot at its highest bit and no other row has a bit there, V has
    the basis v_c = e_c + (e_q for each pivot q whose row has bit c), one
    for each non-pivot c, and v_c leads at c because q > c.  The v_c read
    as 0/1 vectors, and 2*e_q for the pivots q, form an upper triangular
    basis of the lattice with diagonal 1 or 2, whose entries above a 1 are
    0 and above a 2 are 0 or 1: that is the unique row Hermite form.
    """
    reduced: dict[int, int] = {}  # pivot column -> row
    for row in cond:
        for q, r in reduced.items():
            if row >> q & 1:
                row ^= r
        if row:
            top = row.bit_length() - 1
            for q, r in reduced.items():
                if r >> top & 1:
                    reduced[q] = r ^ row
            reduced[top] = row
    out = []
    for c in range(s):
        if c in reduced:
            out.append({c: 2})
        else:
            v = {c: 1}
            for q, r in reduced.items():
                if r >> c & 1:
                    v[q] = 1
            out.append(dict(sorted(v.items())))
    return out


def k_relation_basis(G: PermGroup, d: QuadraticField) -> KRelationLattice:
    """Basis of the full-rank lattice of K-relations for K = Q(sqrt(d)).

    The parity conditions of :func:`is_k_relation` cut out
    L = lift(V) + 2Z^s, V their GF(2) kernel; the basis is the Hermite form
    of L, written straight from the reduced echelon form of V (see
    :func:`gf2_relation_lattice`).
    """
    if d == BRAUER:
        return brauer_basis(G)
    _check_quadratic(d)
    classes = G.subgroup_classes()
    s = len(classes)
    mult = _multiplicity_rows(G)
    cond = {int("".join(str(mult[i][j] & 1) for i in reversed(range(s))), 2)
            for j, fd in enumerate(G.data.field_data)
            if fd.degree_factor(d) == 2}
    rows = gf2_relation_lattice(cond, s)
    # rank: s rows with distinct leading columns
    if len({min(v) for v in rows}) != s:
        raise ExactCheckError(f"K-relation lattice has rank < {s}")
    basis = [{classes[i].id: c for i, c in v.items()} for v in rows]
    if not all(is_k_relation(G, b, d) for b in basis):
        raise ExactCheckError("K-relation basis element fails the parity test")
    return KRelationLattice(G, d, basis)


def find_norm_relation(G: PermGroup,
                       chi: ClassFunction) -> tuple[int, dict[str, int]]:
    """Minimal m >= 1 and theta whose permutation character is m times the
    Galois orbit sum of chi.

    Artin induction guarantees a solution for some m.  The witness is a
    reduced (deterministic) solution: one solution reduced modulo the
    kernel of the multiplicity matrix, the Brauer relations.
    """
    data = G.data
    idx = data.irreducible_index(chi)
    if idx is None:
        raise ValueError("chi does not match an irreducible of the table")
    m, x = data.perm_multiple(data.orbit_target(idx))
    return m, _vector_theta(G.subgroup_classes(), x)


# ---------------------------------------------------------------------------
# Local functions


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if not self.value:
            raise ValueError("constant must be nonzero")


@dataclass(frozen=True)
class E:
    pass


@dataclass(frozen=True)
class F:
    pass


@dataclass(frozen=True)
class EF:
    pass


@dataclass(frozen=True)
class PowFloor:
    """base ** (floor(delta * e / 12) * f)"""

    base: Fraction
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if not self.base:
            raise ValueError("base must be nonzero")


@dataclass(frozen=True)
class PowHalf:
    """base ** (floor(e / 2) * f)"""

    base: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if not self.base:
            raise ValueError("base must be nonzero")


@dataclass(frozen=True)
class CondDivides:
    """alpha when k divides f, beta otherwise."""

    k: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.k < 1 or not self.alpha or not self.beta:
            raise ValueError("need k >= 1 and nonzero branches")


@dataclass(frozen=True)
class Product:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


PsiExpr = Union[Const, E, F, EF, PowFloor, PowHalf, CondDivides, Product]


def _psi_value(psi: PsiExpr, e: int, f: int) -> Fraction:
    match psi:
        case Const(value=a):
            return a
        case E():
            return Fraction(e)
        case F():
            return Fraction(f)
        case EF():
            return Fraction(e * f)
        case PowFloor(base=q, delta=delta):
            return q ** ((delta * e // 12) * f)
        case PowHalf(base=q):
            return q ** ((e // 2) * f)
        case CondDivides(k=k, alpha=a, beta=b):
            return a if f % k == 0 else b
        case Product(parts=parts):
            out = Fraction(1)
            for p in parts:
                out *= _psi_value(p, e, f)
            return out
    raise TypeError(f"not a psi expression: {psi!r}")


def _cyclic_quotient(G: PermGroup, dsub: frozenset[int],
                     isub: frozenset[int]) -> bool:
    index = len(dsub) // len(isub)
    if index == 1:
        return True
    for x in sorted(dsub):
        t, y = 1, x
        while y not in isub:
            y = G.mul(y, x)
            t += 1
        if t == index:
            return True
    return False


@dataclass(eq=False)
class LocalFn:
    """A function H -> prod over H\\G/D of psi(e, f).

    Here e is the ramification-like part |I| / |H ∩ xIx^-1| and f the
    residue-like part [D:I] / [H ∩ xDx^-1 : H ∩ xIx^-1], one factor per
    double coset representative x.
    """

    group: PermGroup
    dsub: frozenset
    isub: frozenset
    psi: PsiExpr

    def __post_init__(self):
        G = self.group
        self.dsub = frozenset(self.dsub)
        self.isub = frozenset(self.isub)
        if G.closure(self.dsub) != self.dsub:
            raise ValueError("D is not a subgroup")
        if not self.isub <= self.dsub or G.closure(self.isub) != self.isub:
            raise ValueError("I is not a subgroup of D")
        for g in G.generating_indices(self.dsub):
            if G.conjugate_subgroup(self.isub, g) != self.isub:
                raise ValueError("I is not normal in D")
        if not _cyclic_quotient(G, self.dsub, self.isub):
            raise ValueError("D/I is not cyclic")


def coset_profile(G: PermGroup, dsub: frozenset[int], isub: frozenset[int],
                  hsub: frozenset[int]) -> list[tuple[int, int]]:
    """The pairs (e, f), one per H\\G/D double coset."""
    dn, inn = len(dsub), len(isub)
    out = []
    for x, hd in G.double_cosets(hsub, dsub):
        xinv = G.inv(x)
        hi = sum(1 for h in hsub if G.mul(G.mul(xinv, h), x) in isub)
        what = f"(e, f) at double coset of {x}"
        e = exact_quotient(inn, hi, what)
        f = exact_quotient(dn * hi, inn * hd, what)
        out.append((e, f))
    return out


def eval_localfn(fn: LocalFn, h) -> Fraction:
    """Evaluate at a subgroup (frozenset, SubgroupClass, or class id)."""
    rep = subgroup_rep(fn.group, h)
    val = Fraction(1)
    for e, f in coset_profile(fn.group, fn.dsub, fn.isub, rep):
        val *= _psi_value(fn.psi, e, f)
    return val


def eval_on_theta(f, G: PermGroup, theta: dict[str, int]) -> Fraction:
    """Multiplicative extension of a subgroup function to virtual sums."""
    fval = _as_subgroup_function(f, G)
    val = Fraction(1)
    for cid, coeff in theta.items():
        if coeff:
            val *= Fraction(fval(G.subgroup_class_by_id(cid).representative)) ** coeff
    return val


def _as_subgroup_function(f, G: PermGroup) -> Callable[[frozenset], Fraction]:
    if isinstance(f, LocalFn):
        if f.group is not G:
            raise ValueError("local function lives on a different group")
        return lambda rep: eval_localfn(f, rep)
    return f


@dataclass
class TrivialityReport:
    trivial: bool
    certificate: dict[str, int] | None = None
    value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.trivial


def is_trivial_on_k_relations(f, G: PermGroup, d: int,
                              lattice: KRelationLattice | None = None,
                              ) -> TrivialityReport:
    """Certificate test for f(theta) being a norm on every K-relation.

    f is a LocalFn or any callable on subgroup representatives that is
    constant on conjugacy classes.  Values of f land in the group
    Q^x / N(K^x) of exponent two, so checking a lattice basis settles the
    whole lattice; a failing basis element is returned as certificate.
    """
    _check_quadratic(d)
    if lattice is None:
        lattice = k_relation_basis(G, d)
    elif lattice.d != d or lattice.group is not G:
        raise ValueError("lattice does not match the requested field")
    fval = _as_subgroup_function(f, G)
    values = {cls.id: Fraction(fval(cls.representative))
              for cls in G.subgroup_classes()}
    for theta in lattice.basis:
        val = Fraction(1)
        for cid, coeff in theta.items():
            val *= values[cid] ** coeff
        if not is_norm_from_quadratic(val, d):
            return TrivialityReport(False, dict(theta), val)
    return TrivialityReport(True)


# ---------------------------------------------------------------------------
# Reporting helpers


def _id_key(cid: str) -> tuple[int, int]:
    order, j = cid.split(".")
    return int(order), int(j)


def theta_pairs(theta: dict[str, int]) -> list[tuple[str, int]]:
    """(class id, coefficient) pairs: positive terms first, by subgroup size."""
    items = [(cid, c) for cid, c in theta.items() if c]
    pos = sorted((p for p in items if p[1] > 0), key=lambda p: _id_key(p[0]))
    neg = sorted((p for p in items if p[1] < 0), key=lambda p: _id_key(p[0]))
    return pos + neg


def format_theta(theta: dict[str, int]) -> str:
    items = sorted(((cid, c) for cid, c in theta.items() if c),
                   key=lambda p: _id_key(p[0]))
    if not items:
        return "0"
    parts = []
    for k, (cid, coeff) in enumerate(items):
        term = f"[{cid}]" if abs(coeff) == 1 else f"{abs(coeff)}*[{cid}]"
        if k == 0:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {term}")
    return " ".join(parts)
