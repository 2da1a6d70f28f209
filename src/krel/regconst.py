"""Regulator constants of virtual permutation modules and matrix models.

Every module the engine values goes through the permutation route, the
double-coset product on Q[G/D]: rational irreducibles whenever an odd
multiple is a virtual permutation character, and the appendix's dihedral V,
solved in ``krel.harness`` from its integer pairings with the irreducibles
(``krel.curvelocal.v_pairing``), so no class function of V is built.
A rational irreducible with an orthogonal constituent and no odd permutation
multiple raises :class:`NeedsMatrixModel` (``nrt_run`` records it as the
``needs-matrix-model`` diagnostic).  The matrix route (:class:`MatrixRep`,
:func:`matrix_fixed_det`, :func:`reg_const_matrix`) has no engine caller: it
is the tests' reference for the permutation route.  Regulator constants do
not depend on the G-invariant pairing up to norms, so one pairing serves
every model, :func:`invariant_pairing`, the sum of M_g^T M_g over the group.
Regulator constants are plain ``Fraction``s, read modulo norms at the end.

The route takes a :class:`RationalCharacter` of G only: the (k, expansion)
of :func:`minimal_perm_multiple` is the norm relation of its constituent,
kept once per Galois orbit in ``G.data.norm_relations``.
:func:`perm_fixed_det` keeps its values in ``G.data.fixed_dets`` by
class-id pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import RationalCharacter
from .exactmath import Rational, fraction_product, mat_mul, rat_det
from .groups import PermGroup, subgroup_rep
from .relations import find_norm_relation, is_k_relation

Matrix = list[list[Rational]]


class NeedsMatrixModel(RuntimeError):
    """No permutation route exists: the value needs an explicit MatrixRep,
    passed to :func:`reg_const_matrix` with a pairing such as
    :func:`invariant_pairing` of that model."""


class DegeneratePairingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Permutation route


def perm_fixed_det(G: PermGroup, hcid: str, dcid: str) -> Fraction:
    """det of the scaled standard pairing on the H-fixed part of Q[G/D].

    The H-orbit sums of cosets give an orthogonal basis whose scaled Gram
    determinant telescopes to the product of 1/|H ∩ wDw^-1| over double
    cosets: 1/|L| for each local subgroup L = D ∩ w^-1 H w that
    :meth:`PermGroup.double_cosets` returns.  H and D are given by class
    ids, which key the memo; representatives are looked up only on a miss.
    """
    memo = G.data.fixed_dets
    val = memo.get((hcid, dcid))
    if val is None:
        val = memo[hcid, dcid] = Fraction(1, math.prod(
            len(local) for _, local in G.double_cosets(
                subgroup_rep(G, hcid), subgroup_rep(G, dcid))))
    return val


def reg_const_perm(G: PermGroup, theta: dict[str, int], tau: dict[str, int],
                   d: int) -> Fraction:
    """Regulator constant on a K-relation of the virtual permutation module
    tau, the sum of m * Q[G/D] over its {class id of D: m} entries."""
    if not is_k_relation(G, theta, d):
        raise ValueError("theta is not a K-relation for this field")
    return fraction_product(
        (perm_fixed_det(G, cid, did), n * m) for cid, n in theta.items() if n
        for did, m in tau.items() if m)


def minimal_perm_multiple(G: PermGroup, tau: RationalCharacter
                          ) -> tuple[int, dict[str, int]]:
    """Least k >= 1 with k*tau a virtual permutation character, plus witness.

    tau must be a :class:`RationalCharacter` of G, else ``ValueError``.
    The answer is the kept :func:`find_norm_relation` of its constituent,
    with the witness as {class id: coefficient}, a fresh dict per call.
    """
    if not isinstance(tau, RationalCharacter):
        raise ValueError("the route takes a RationalCharacter only")
    if tau.constituent.group is not G:
        raise ValueError("tau lives on a different group")
    return find_norm_relation(G, tau.constituent)


def reg_const_rational_irr(G: PermGroup, theta: dict[str, int],
                           tau: RationalCharacter, d: int) -> Fraction:
    """Regulator constant of a :class:`RationalCharacter` tau of G, routed
    by self-duality.

    When some odd multiple k*tau is a virtual permutation character the
    permutation value is returned (an odd power, so the same square class).
    Otherwise symplectic or non-self-dual constituents force a square and
    the value is 1; the remaining case needs an explicit matrix model.
    Either route checks once that theta is a K-relation: the odd one
    inside :func:`reg_const_perm`.
    """
    k, expansion = minimal_perm_multiple(G, tau)
    if k % 2 == 1:
        return reg_const_perm(G, theta, expansion, d)
    if not is_k_relation(G, theta, d):
        raise ValueError("theta is not a K-relation for this field")
    if tau.indicator in (0, -1):
        return Fraction(1)
    raise NeedsMatrixModel(
        f"{tau.label} has no odd permutation multiple "
        "and an orthogonal constituent")


# ---------------------------------------------------------------------------
# Matrix route


def _transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _exact(x) -> Rational:
    """x as an ``int`` when it is integral, as a ``Fraction`` otherwise."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass
class MatrixRep:
    """Exact rational representation given on the group's generators.

    images[i] is the matrix of the i-th entry of group.generator_indices.
    Well-definedness is verified on construction by extending along the
    multiplication table and checking every generator edge.  Entries are
    kept as ``int`` where integral, so an integral model multiplies in ints.
    """

    group: PermGroup
    images: list[Matrix]
    _elements: list[Matrix] = field(init=False, repr=False)

    def __post_init__(self):
        G = self.group
        gens = G.generator_indices
        if len(self.images) != len(gens):
            raise ValueError(
                f"need {len(gens)} generator images, got {len(self.images)}")
        dim = len(self.images[0]) if self.images else 1
        mats: list[Matrix | None] = [None] * G.order
        mats[0] = [[int(i == j) for j in range(dim)] for i in range(dim)]
        imgs = [[[_exact(x) for x in row] for row in m] for m in self.images]
        for m in imgs:
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ValueError("generator images must be square, same size")
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g, img in zip(gens, imgs):
                    y = G.mul(g, x)
                    prod = mat_mul(img, mats[x])
                    if mats[y] is None:
                        mats[y] = prod
                        nxt.append(y)
                    elif mats[y] != prod:
                        raise ValueError(
                            "generator images violate the group relations")
            frontier = nxt
        self.images = imgs
        self._elements = mats  # type: ignore[assignment]

    @property
    def dimension(self) -> int:
        return len(self._elements[0])

    def at(self, i: int) -> Matrix:
        return self._elements[i]


def perm_matrix_rep(G: PermGroup, dsub) -> MatrixRep:
    """Matrix model of Q[G/D] in the basis of left cosets."""
    drep = subgroup_rep(G, dsub)
    reps, coset_of = [], {}
    for x in range(G.order):
        if x in coset_of:
            continue
        k = len(reps)
        reps.append(x)
        for h in drep:
            coset_of[G.mul(x, h)] = k
    n = len(reps)
    images = []
    for g in G.generator_indices:
        m = [[0] * n for _ in range(n)]
        for j, x in enumerate(reps):
            m[coset_of[G.mul(g, x)]][j] = 1
        images.append(m)
    return MatrixRep(G, images)


def invariant_pairing(rep: MatrixRep) -> Matrix:
    """The G-invariant symmetric pairing Q = sum over g in G of M_g^T M_g.

    Q is positive definite, since the identity term alone gives
    x^T Q x >= |x|^2, so it is nondegenerate on every fixed space.  An
    integral model sums in ints; the pairing is returned as Fractions.
    """
    n = rep.dimension
    total = [[0] * n for _ in range(n)]
    for g in range(rep.group.order):
        m = rep.at(g)
        for row, part in zip(total, mat_mul(_transpose(m), m)):
            for j, x in enumerate(part):
                row[j] += x
    return [[Fraction(x) for x in row] for row in total]


def _check_pairing(rep: MatrixRep, pairing: Matrix) -> Matrix:
    n = rep.dimension
    q = [[Fraction(x) for x in row] for row in pairing]
    if len(q) != n or any(len(row) != n for row in q):
        raise ValueError("pairing has the wrong size")
    if q != _transpose(q):
        raise ValueError("pairing must be symmetric")
    if rat_det(q) == 0:
        raise DegeneratePairingError("pairing is degenerate")
    for img in rep.images:
        if mat_mul(_transpose(img), mat_mul(q, img)) != q:
            raise ValueError("pairing is not invariant")
    return q


def _fixed_space_basis(rep: MatrixRep, hrep: frozenset[int]) -> list[list[Fraction]]:
    """Fixed-subspace basis in reduced echelon form, via the averaging projector.

    Echelon normalization keeps the determinant downstream reproducible; any
    other basis would change it by a square only.
    """
    n = rep.dimension
    proj = [[0] * n for _ in range(n)]
    for h in hrep:
        m = rep.at(h)
        for i in range(n):
            for j in range(n):
                proj[i][j] += m[i][j]
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for j in range(n):
        v = [proj[i][j] for i in range(n)]
        for b, p in zip(basis, pivots):
            if v[p]:
                c = v[p]
                v = [x - c * y for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        c = Fraction(v[p])
        v = [x / c for x in v]
        for k, (b, q) in enumerate(zip(basis, pivots)):
            if b[p]:
                basis[k] = [x - b[p] * y for x, y in zip(b, v)]
        basis.append(v)
        pivots.append(p)
    return basis


def matrix_fixed_det(rep: MatrixRep, pairing: Matrix, hsub) -> Fraction:
    """det((1/|H|) pairing restricted to the fixed space of H)."""
    hrep = subgroup_rep(rep.group, hsub)
    basis = _fixed_space_basis(rep, hrep)
    if not basis:
        return Fraction(1)
    n = rep.dimension
    scale = Fraction(1, len(hrep))
    qb = [[sum(pairing[i][j] * b[j] for j in range(n)) for b in basis]
          for i in range(n)]
    gram = [[scale * sum(a[i] * qb[i][k] for i in range(n))
             for k in range(len(basis))] for a in basis]
    det = rat_det(gram)
    if det == 0:
        raise DegeneratePairingError("pairing restricts degenerately")
    return det


def reg_const_matrix(theta: dict[str, int], rep: MatrixRep, pairing: Matrix,
                     d: int) -> Fraction:
    """Regulator constant from an explicit matrix model.

    pairing is a symmetric, nondegenerate, G-invariant rational matrix,
    which is checked; :func:`invariant_pairing` gives one for any model.
    The raw value depends on the pairing and fixed-space bases; only its
    class modulo norms is canonical.
    """
    q = _check_pairing(rep, pairing)
    return fraction_product(
        (matrix_fixed_det(rep, q, cid), n) for cid, n in theta.items() if n)
