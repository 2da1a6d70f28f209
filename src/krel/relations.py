"""Brauer relations, quadratic K-relations, and subgroup functions on them.

A virtual sum of transitive G-sets is a dict mapping subgroup class ids to
integer coefficients, as in :mod:`krel.groups`.  This module decides when
such a sum is a K-relation, produces lattice bases of all of them, searches
for the minimal norm relation attached to an irreducible character, and
tests subgroup functions for triviality on K-relations, with a certificate.

A subgroup function is any callable on subgroup representatives, constant
on conjugacy classes, with ``int`` or ``Fraction`` values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .characters import ClassFunction, character_table
from .exactmath import (
    ExactCheckError,
    _as_fraction,
    divisors,
    fraction_product,
    hermite_row_basis,
    is_squarefree,
    mobius,
    norm_obstruction,
)
from .groups import PermGroup, SubgroupClass

#: The ``d`` of the lattice :func:`brauer_basis` returns, in place of a
#: quadratic discriminant: its relations have a vanishing permutation
#: character.
BRAUER = "brauer"


def _check_quadratic(d: int) -> None:
    if not isinstance(d, int) or not _is_quadratic_d(d):
        raise ValueError(f"need a squarefree integer != 1, got {d!r}")


@functools.lru_cache(maxsize=1024)
def _is_quadratic_d(d: int) -> bool:
    return d != 1 and is_squarefree(d)


def _theta_vector(G: PermGroup, theta: dict[str, int]) -> list[int]:
    vec = [0] * len(G.subgroup_classes())
    for cid, coeff in theta.items():
        vec[G.subgroup_class_by_id(cid).index] += coeff
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
        mu = mobius(d // dp)
        if mu:
            out[f"{n // dp}.1"] = mu
    return out


def is_brauer_relation(G: PermGroup, theta: dict[str, int]) -> bool:
    """True when the permutation character of theta vanishes."""
    mult = _multiplicity_rows(G)
    terms = [(mult[G.subgroup_class_by_id(cid).index], c)
             for cid, c in theta.items() if c]
    return not any(sum(c * row[j] for row, c in terms)
                   for j in range(len(mult[0])))


def _odd_mask(G: PermGroup, theta: dict[str, int]) -> int:
    """Bit i set when theta is odd at the i-th subgroup class; an unknown
    class id raises ``KeyError`` at any nonzero coefficient."""
    by_id, odd = G.subgroup_class_by_id, 0
    for cid, c in theta.items():
        if c:
            odd |= (c & 1) << by_id(cid).index
    return odd


def _meets_evenly(odd: int, cond: Iterable[int]) -> bool:
    """The K-relation rule: odd meets each condition in an even bit count."""
    return not odd or not any((odd & c).bit_count() % 2 for c in cond)


def is_k_relation(G: PermGroup, theta: dict[str, int], d: int) -> bool:
    """Divisibility test for membership in the K-relation lattice.

    For K = Q(sqrt(d)), d a squarefree integer != 1, the multiplicity of
    each complex irreducible chi in the permutation character must be
    divisible by [K : K ∩ Q(chi)], which is 1 or 2 according to whether
    sqrt(d) lies in the character field: the parity conditions of d
    (:meth:`~krel.characters.GroupData.k_conditions`) on theta's odd
    coefficients, the rule that :func:`k_relation_basis` reduces.
    """
    _check_quadratic(d)
    return _meets_evenly(_odd_mask(G, theta), G.data.k_conditions(d))


@dataclass
class KRelationLattice:
    """The K-relations for K = Q(sqrt(d)), or the Brauer relations when d
    is BRAUER.  Invariant: the basis is the row Hermite form that
    :func:`hermite_row_basis` writes, over ``subgroup_classes()``; both
    constructors return it, and :meth:`contains` relies on it.

    ``odd_masks`` holds, for each basis element of a K-relation lattice,
    the int whose bit i is set when its coefficient at the i-th subgroup
    class is odd, as :func:`k_relation_basis` writes them.  The Brauer
    lattice has none: :func:`is_trivial_on_k_relations`, their one reader,
    refuses it.
    """

    group: PermGroup
    d: int | str
    basis: list[dict[str, int]]
    odd_masks: tuple[int, ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, theta: dict[str, int]) -> bool:
        rows = [_theta_vector(self.group, b) for b in self.basis]
        vec = _theta_vector(self.group, theta)
        return hermite_row_basis(rows + [vec]) == rows


def brauer_basis(G: PermGroup) -> KRelationLattice:
    """Integer kernel of the permutation character map, in Hermite form:
    the group's :attr:`~krel.characters.GroupData.brauer_kernel`."""
    classes = G.subgroup_classes()
    lat = KRelationLattice(G, BRAUER, [_vector_theta(classes, v)
                                       for v in G.data.brauer_kernel])
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


def k_relation_basis(G: PermGroup, d: int) -> KRelationLattice:
    """Basis of the full-rank lattice of K-relations for K = Q(sqrt(d)).

    The parity conditions of d
    (:meth:`~krel.characters.GroupData.k_conditions`), the rule of
    :func:`is_k_relation`, cut out L = lift(V) + 2Z^s, V their GF(2)
    kernel; the basis is the Hermite form of L, written straight from the
    reduced echelon form of V (see :func:`gf2_relation_lattice`).  Each
    condition is the parity mask of an irreducible chi with
    [K : K ∩ Q(chi)] = 2, and L depends on d only through that set of
    masks: the rows and their odd masks are made once per set and kept in
    ``G.data.k_lattices``, and every d gets its own lattice with fresh
    basis dicts.  A new set is checked: s distinct leading columns, and
    each element's odd mask passing the rule of :func:`is_k_relation`.
    """
    _check_quadratic(d)
    data = G.data
    classes = G.subgroup_classes()
    cond = data.k_conditions(d)
    got = data.k_lattices.get(cond)
    if got is None:
        got = data.k_lattices[cond] = _k_lattice_rows(cond, len(classes))
    rows, odd_masks = got
    return KRelationLattice(G, d, [{classes[i].id: c for i, c in v.items()}
                                   for v in rows], odd_masks)


def _k_lattice_rows(cond: frozenset[int], s: int
                    ) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """The checked Hermite rows of :func:`k_relation_basis` for one set of
    parity conditions, with the odd mask of each row."""
    rows = gf2_relation_lattice(cond, s)
    # rank: s rows with distinct leading columns
    if len({min(v) for v in rows}) != s:
        raise ExactCheckError(f"K-relation lattice has rank < {s}")
    odd_masks = tuple(sum(1 << i for i, c in v.items() if c % 2)
                      for v in rows)
    if not all(_meets_evenly(mask, cond) for mask in odd_masks):
        raise ExactCheckError("K-relation basis element fails the parity test")
    return rows, odd_masks


def find_norm_relation(G: PermGroup,
                       chi: ClassFunction) -> tuple[int, dict[str, int]]:
    """Minimal m >= 1 and theta whose permutation character is m times the
    Galois orbit sum of chi.

    Artin induction guarantees a solution for some m.  The witness is a
    reduced (deterministic) solution: one solution reduced modulo the
    kernel of the multiplicity matrix, the Brauer relations.  Kept per
    Galois orbit in ``G.data.norm_relations``; each call gets a fresh dict.
    """
    data = G.data
    idx = data.irreducible_index(chi)
    if idx is None:
        raise ValueError("chi does not match an irreducible of the table")
    head = character_table(G).orbits[idx][0]
    got = data.norm_relations.get(head)
    if got is None:
        m, x = data.perm_multiple(data.orbit_target(idx))
        got = data.norm_relations[head] = (
            m, _vector_theta(G.subgroup_classes(), x))
    return got[0], dict(got[1])


# ---------------------------------------------------------------------------
# Subgroup functions on relations


def eval_on_theta(f, G: PermGroup, theta: dict[str, int]) -> Fraction:
    """Multiplicative extension of a subgroup function to virtual sums.

    Values of f must be exact: an ``int`` or a ``Fraction``; anything else,
    a float included, raises ``TypeError``.
    """
    return fraction_product(
        (_as_fraction(f(G.subgroup_class_by_id(cid).representative)), coeff)
        for cid, coeff in theta.items() if coeff)


@dataclass
class TrivialityReport:
    """Verdict of :func:`is_trivial_on_k_relations`.  On failure it names the
    first failing basis element, the value there, and the places where
    that value is not a local norm."""

    trivial: bool
    certificate: dict[str, int] | None = None
    value: Fraction | None = None
    obstruction: frozenset | None = None

    def __bool__(self) -> bool:
        return self.trivial


def is_trivial_on_k_relations(f, G: PermGroup, d: int,
                              lattice: KRelationLattice) -> TrivialityReport:
    """Certificate test for f(theta) being a norm on every K-relation.

    f is any callable on subgroup representatives that is constant on
    conjugacy classes, with ``int`` or ``Fraction`` values; any other
    value, a float included, raises ``TypeError``.  lattice is the
    caller's :func:`k_relation_basis` of (G, d), else ``ValueError``.
    Values of f land
    in the group Q^x / N(K^x) of exponent two, so checking a lattice basis
    settles the whole lattice; a failing basis element is returned as
    certificate.

    By Hasse's norm theorem that group embeds F2-linearly into the sets of
    places under symmetric difference, x -> norm_obstruction(x, d).  So
    f(theta) is a norm exactly when the symmetric difference of the
    obstruction sets of the classes with odd coefficient in theta is
    empty; even coefficients contribute nothing.  As bits: a place v is in
    that difference when the classes obstructed at v meet the odd classes
    of theta (``KRelationLattice.odd_masks``) in an odd number.  Each class
    value is norm-tested once, and the rational f(theta) is formed only for
    the failing basis element.  Every class value must therefore be
    nonzero with all prime factors within the factoring bound, whichever
    basis elements it enters.
    """
    _check_quadratic(d)
    if lattice.d != d or lattice.group is not G:
        raise ValueError("lattice does not match the requested field")
    obstructed: dict = {}  # place -> bit mask of the classes obstructed there
    for cls in G.subgroup_classes():
        for v in norm_obstruction(f(cls.representative), d):
            obstructed[v] = obstructed.get(v, 0) | 1 << cls.index
    masks = tuple(obstructed.items())
    for theta, odd in zip(lattice.basis, lattice.odd_masks if masks else ()):
        for _, mask in masks:
            if (mask & odd).bit_count() % 2:
                places = frozenset(v for v, m in masks
                                   if (m & odd).bit_count() % 2)
                return TrivialityReport(False, dict(theta),
                                        eval_on_theta(f, G, theta), places)
    return TrivialityReport(True)
