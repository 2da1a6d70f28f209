"""Exact complex character tables and rational character data.

Tables are computed by the modular class-algebra method (Dixon-Schneider),
with the linear characters known in advance (Schneider, "Dixon's character
table algorithm revisited", J. Symb. Comput. 9, 1990).  Those are read
exactly from G/G': each is an integer exponent map a: G -> Z/exp G, built
one generator at a time, whose value at a class is the one root of unity
zeta_e^a(g).  Only their complement, the vectors summing to 0 over the
classes of each coset of G', is split into common eigenvectors of the
sparse class-sum matrices over a prime field GF(p) with p ≡ 1 (mod exp G)
and p > 2·sqrt(|G|); an abelian group leaves nothing to split and builds
no class-sum matrix.  The class sums are tried cheapest first, by class
size, and each is applied to a whole space at once, as sums of vectors
packed into integers, and a class sum that is not scalar splits the space
into the kernels of M - lam.  The split reaches one eigenvector per Galois
orbit: sigma_k chi has the eigenvector of chi with its coordinates
permuted by the k-th power map, so the whole orbit is known at once, and
every space it fills is dropped.  Each orbit's first eigenvector gives a
degree and eigenvalue multiplicities, lifted through one fixed primitive
root as one packed DFT per rational class, and the whole table is
verified before anything is returned: the degrees against |G|, closure
under the Galois action, and orthogonality as one packed integer dot
product per irreducible, against the first member of every orbit at once.

The multiplicities are lifted once per rational class, at its first class
g: the other classes hold the unit powers g^k, and rho(g^k) has the
eigenvalues of rho(g) raised to the k-th power, so their multisets are
relabellings, exact with no further lift.  The orthogonality check, the
field degrees, the values and their sort keys are all integer arithmetic;
each value becomes a :class:`CycNumber` once, at the end.  That build is
the only engine code that makes or reads one on the theorem and appendix
paths: an irreducible's degree is its multiset at the identity
(:meth:`ClassFunction.degree`), and every other reduction reads the
integer records below.

The table keeps each irreducible's multisets at the first classes
(``CharacterTable.multisets``), and the Galois action is read from them:
sigma_k relabels j -> jk.  Each irreducible's stabiliser in (Z/exp G)^x and
its Galois orbit are found once per orbit, by the closure check of the
build, and kept on the table (``CharacterTable.stabilisers`` and
``CharacterTable.orbits``): the stabiliser's size is the field-degree part
of the sort key, the character fields (``GroupData.field_data``) read the
stabilisers, and ``rational_irreducibles`` reads the orbits.
Every rational reduction of character values instead reads the Galois
means Tr(chi(g))/phi, one cached tuple per class function
(``ClassFunction.galois_means``): class weights, Frobenius-Schur
indicators and the local root-number pairings of ``curvelocal``, which
also give the multiplicities of the appendix's V.  For the irreducibles of
the table the means come from the multisets too, once per Galois orbit and
with no cyclotomic value: Tr(zeta_n^j)/phi(n) is
mu(m)/phi(m) for m = n/gcd(n, j), so the class weights are integer sums
(``GroupData.class_weights``), the means are the weights over the class
sizes, and the multiplicity columns follow once per orbit.  Only a
class function from outside the table takes its means from its values.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactmath import (
    CycNumber,
    ExactCheckError,
    SmithForm,
    cyclotomic_reduction_table,
    euler_phi,
    exact_quotient,
    fraction_sum,
    hermite_row_basis,
    is_squarefree,
    isprime,
    kronecker_symbol,
    mobius,
    primitive_root,
    reduce_by_kernel,
    smith_kernel,
    smith_normal_form,
    snf_solve,
)
from .groups import PermGroup

PRIME_SEARCH_BOUND = 10**7


class ModularMethodError(RuntimeError):
    """No admissible prime below the bound, or a lift failed verification."""


@dataclass
class ClassFunction:
    group: PermGroup
    values: tuple[CycNumber, ...]
    label: str | None = None
    # the position of an irreducible in its group's character table; None
    # for every other class function
    table_index: int | None = None

    def __post_init__(self):
        self.values = tuple(
            v if isinstance(v, CycNumber) else CycNumber.from_rational(v)
            for v in self.values)

    def at_element(self, i: int) -> CycNumber:
        return self.values[self.group.class_of(i)]

    def degree(self) -> Fraction:
        """chi(1).  An irreducible of the table reads its eigenvalue
        multiset at the identity, ((0, chi(1)),), with no cyclotomic value;
        any other class function reads its value there."""
        if self.table_index is not None:
            ((_, dim),) = character_table(
                self.group).multisets[self.table_index][0]
            return Fraction(dim)
        return self.values[0].rational_value()

    @cached_property
    def galois_means(self) -> tuple[Fraction, ...]:
        """Tr(v) / phi at each class: the mean of the Galois conjugates of
        the value there, for a character or any Z-combination of
        characters.

        Every rational reduction of a character's values reads these: on a
        rational class o the values are the conjugates of the value at its
        first class, each equally often, so they sum to |o| times its mean.
        The mean is therefore one per rational class, shared by its
        classes.  An irreducible of the table reads it from its class
        weights (:attr:`GroupData.class_weights`), which come from the
        table's multisets; any other class function from its value at the
        first class of each rational class (see
        :meth:`CycNumber.galois_mean`).
        """
        data = self.group.data
        if self.table_index is not None:
            per_class = [Fraction(w, s) for w, s in zip(
                data.class_weights[self.table_index],
                data.rational_class_sizes)]
        else:
            per_class = [self.values[o[0]].galois_mean()
                         for o in data.rational_classes]
        means: list[Fraction] = [Fraction(0)] * len(self.values)
        for orbit, m in zip(data.rational_classes, per_class):
            for c in orbit:
                means[c] = m
        return tuple(means)

    def is_rational(self) -> bool:
        return all(v.is_rational() for v in self.values)

    def galois(self, k: int) -> "ClassFunction":
        """Action of ζ -> ζ^k, computed through the power maps."""
        G = self.group
        e = G.exponent()
        if math.gcd(k, e) != 1:
            raise ValueError(f"k={k} not coprime to exponent {e}")
        vals = tuple(self.values[G.power_class(i, k)]
                     for i in range(len(self.values)))
        return ClassFunction(G, vals)

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, tuple(v.conjugate() for v in self.values))

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(
            a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(
            a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(self.group, tuple(
                a * b for a, b in zip(self.values, other.values)))
        return ClassFunction(self.group, tuple(a * other for a in self.values))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def _check(self, other):
        if other.group is not self.group:
            raise ValueError("class functions live on different groups")


@dataclass
class CharacterTable:
    group: PermGroup
    irreducibles: list[ClassFunction]
    class_sizes: tuple[int, ...]
    # multisets[j][o]: the eigenvalue multiset of chi_j at the first class
    # of the o-th rational class, as sorted (j, c_j) pairs; equal multisets
    # are one shared tuple
    multisets: list[tuple[tuple[tuple[int, int], ...], ...]]
    # stabilisers[j]: the units k mod exp G with sigma_k chi_j = chi_j,
    # ascending (see _galois_stabiliser); [Q(chi_j) : Q] is the number of
    # units over its size
    stabilisers: list[tuple[int, ...]]
    # orbits[j]: the indices of the Galois conjugates of chi_j, chi_j among
    # them, ascending; one shared tuple per orbit
    orbits: list[tuple[int, ...]]


@dataclass
class RationalCharacter:
    label: str
    constituent: ClassFunction
    constituent_index: int
    orbit_indices: tuple[int, ...]
    indicator: int  # Frobenius-Schur indicator of the constituent


@dataclass
class CharFieldData:
    stabilizer: tuple[int, ...]
    quadratic_subfields: tuple[int, ...]
    field_degree: int

    def degree_factor(self, d: int) -> int:
        """[K : K ∩ Q(χ)] for K = Q(sqrt(d))."""
        if d == 1 or d in self.quadratic_subfields:
            return 1
        return 2


# ---------------------------------------------------------------------------
# GF(p) linear algebra helpers (dense lists of ints)


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of rows over GF(p), entries in [0, p),
    as (its nonzero rows, their pivots): each row in turn is reduced by the
    pivot rows so far, and a remainder that is not 0 joins them."""
    found: dict[int, list[int]] = {}
    for row in rows:
        for c, b in found.items():
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, b)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        inv = pow(row[c], -1, p)
        row = [x * inv % p for x in row]
        for k, b in found.items():
            f = b[c]
            if f:
                found[k] = [(x - f * y) % p for x, y in zip(b, row)]
        found[c] = row
    pivots = sorted(found)
    return [found[c] for c in pivots], pivots


def _pack(vec: list[int]) -> int:
    """vec as one integer, entry t in the t-th unsigned 64-bit slot.  The
    split's sums of packed vectors add at most r products below p^2 in a
    slot, and _compute_character_table refuses a prime with r (p - 1)^2 >=
    2^64, so no slot carries into the next."""
    return int.from_bytes(struct.pack(f"{len(vec)}Q", *vec), sys.byteorder)


def _unpack(x: int, d: int, p: int) -> list[int]:
    """The d 64-bit slots of x, each reduced mod p."""
    return [v % p for v in memoryview(x.to_bytes(8 * d, sys.byteorder)
                                      ).cast("Q")]


def _kernel(mat: list[list[int]], p: int
            ) -> tuple[list[list[int]], list[int]]:
    """A basis of the kernel of mat over GF(p) and its free columns, the
    columns that are no pivot of mat's reduced echelon form: the basis has
    one vector per free column, with the identity at the free columns."""
    n = len(mat)
    rref_rows, pivots = _rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for row, c in zip(rref_rows, pivots):
            v[c] = (-row[fc]) % p
        basis.append(v)
    return basis, free


def _krylov_poly(mat: list[list[int]], start: int, p: int) -> list[int]:
    """The monic polynomial of least degree that kills e_start under mat,
    coefficients low to high: the first dependence among e_start, mat
    e_start, mat^2 e_start, ..."""
    n = len(mat)
    w = [0] * n
    w[start] = 1
    # echelon rows: (pivot, reduced vector, poly coeffs of that vector)
    rows: list[tuple[int, list[int], list[int]]] = []
    deg = 0
    while True:
        vec = w[:]
        coeffs = [0] * deg + [1]
        for piv, evec, ecoef in rows:
            f = vec[piv] % p
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, evec)]
                coeffs = [(a - f * b) % p for a, b in zip(
                    coeffs, ecoef + [0] * (len(coeffs) - len(ecoef)))]
        if not any(vec):
            return coeffs
        piv = next(i for i, x in enumerate(vec) if x)
        inv = pow(vec[piv], -1, p)
        rows.append((piv, [(x * inv) % p for x in vec],
                     [(c * inv) % p for c in coeffs]))
        w = [sum(map(operator.mul, row, w)) % p for row in mat]
        deg += 1


def _eigenspaces(mat: list[list[int]], p: int
                 ) -> list[tuple[int, tuple[list[list[int]], list[int]]]]:
    """Each eigenvalue lam of mat over GF(p), ascending, with the kernel
    of mat - lam as :func:`_kernel` gives it: (basis, free columns).

    The Krylov sequences of e_0, e_1, ... are taken one at a time.  Each
    root of a sequence's polynomial is an eigenvalue, and every eigenvalue
    of a diagonalizable mat is a root of some e_i's; each root not seen yet
    has its kernel taken.  Eigenspaces are independent, so once the kernel
    dimensions sum to d no other eigenvalue is left and the sweep stops.
    When every e_i is spent and they still fall short, mat is not
    diagonalizable over GF(p).
    """
    d = len(mat)
    spaces: dict[int, tuple[list[list[int]], list[int]]] = {}
    covered = 0
    for start in range(d):
        for lam in _roots(_krylov_poly(mat, start, p), p):
            if lam not in spaces:
                shifted = [[(x - lam if a == b else x) % p
                             for b, x in enumerate(row)]
                           for a, row in enumerate(mat)]
                spaces[lam] = _kernel(shifted, p)
                covered += len(spaces[lam][1])
        if covered == d:
            return sorted(spaces.items())
    raise ModularMethodError("class-sum matrix is not "
                             "diagonalizable on a subspace")


def _roots(poly: list[int], p: int) -> list[int]:
    """The distinct roots of poly over GF(p), ascending.  GF(p) is scanned
    in blocks of 256, each evaluated at once by Horner's rule, until the
    roots number poly's degree."""
    roots: list[int] = []
    for lo in range(0, p, 256):
        if len(roots) == len(poly) - 1:
            break
        xs = range(lo, min(lo + 256, p))
        vals = [0] * len(xs)
        for c in reversed(poly):
            vals = [(v * x + c) % p for v, x in zip(vals, xs)]
        roots += [x for x, v in zip(xs, vals) if not v]
    return roots


def _split_space(basis: list[list[int]], pivots: list[int],
                 img: list[list[int]], p: int
                 ) -> list[tuple[int, tuple[list[list[int]], list[int]]]]:
    """The eigenspaces of M on an M-invariant space, ascending by
    eigenvalue, each as (lam, (rows, pivots)): a basis with the identity
    at its pivots.

    The space is (basis, pivots) in the same form, and img[a][t] is
    coordinate a of M basis[t], mod p.  So restr[a][t] = img[pivots[a]][t]
    are the coordinates of M basis[t], and they fix every other entry of an
    image in the space; an image that breaks this raises
    :class:`ModularMethodError`.  The kernels of restr - lam
    (:func:`_eigenspaces`) have the identity at their free columns q, and
    taken back through the basis they keep it at the pivots[q].
    """
    d = len(basis)
    restr = [img[c] for c in pivots]
    packed = [_pack(row) for row in restr]
    for a in sorted(set(range(len(img))) - set(pivots)):
        if img[a] != _unpack(sum(map(operator.mul, [row[a] for row in basis],
                                     packed)), d, p):
            raise ModularMethodError("vector left the invariant subspace")
    basis_rows = [_pack(row) for row in basis]
    return [(lam, ([_unpack(sum(map(operator.mul, row, basis_rows)),
                            len(img), p) for row in rows],
                   [pivots[q] for q in qs]))
            for lam, (rows, qs) in _eigenspaces(restr, p)]


# ---------------------------------------------------------------------------
# The table itself


def admissible_prime(G: PermGroup) -> int:
    e = G.exponent()
    p = e + 1
    while p < PRIME_SEARCH_BOUND:
        if p * p > 4 * G.order and isprime(p):
            return p
        p += e
    raise ModularMethodError(
        f"no prime ≡ 1 mod {e} above 2*sqrt({G.order}) below {PRIME_SEARCH_BOUND}")


def _structure_constants(G: PermGroup, cls) -> dict[tuple[int, int], int]:
    """The class-sum matrix of ``cls``, sparse: {(j, k): a} for a != 0.

    a is the number of pairs (x, y) with x in cls, y in class j and xy = z,
    for any fixed z in class k.  The pairs are counted over all of class k
    at once, so each count must be a multiple of |class k|; when cls is not
    a union of conjugacy classes it need not be, and
    :class:`ModularMethodError` is raised.
    """
    classes = G.conjugacy_classes()
    class_of = G._class_of
    counts: Counter = Counter()
    for x in cls:
        counts.update(zip(class_of, [class_of[z] for z in G._mul[x]]))
    out = {}
    for (j, k), c in counts.items():
        q, rem = divmod(c, len(classes[k]))
        if rem:
            raise ModularMethodError(
                f"{c} products land in class {k} of size {len(classes[k])}: "
                "not a union of conjugacy classes")
        out[j, k] = q
    return out


def _galois_stabiliser(G: PermGroup, multisets, memo: dict
                       ) -> tuple[int, ...]:
    """The units k mod exp G with sigma_k chi = chi, from the eigenvalue
    multisets of chi at the first class of each rational class, in the
    order of ``G.data.rational_classes``: sorted (j, c_j) pairs, rho(g)
    having the eigenvalue zeta_n^j c_j times, n = ord g.

    sigma_k chi = chi exactly when every class keeps its multiset under
    j -> jk, and the first class of each rational class suffices: the
    other classes hold its unit powers, whose multisets are relabellings
    of it that commute with j -> jk.  The units mod n keeping one multiset
    are kept in ``memo`` by (n, multiset).
    """
    stab = G.data.units
    for ms, n in zip(multisets, G.data.rational_class_orders):
        fixed = memo.get((n, ms))
        if fixed is None:
            d = dict(ms)
            fixed = memo[n, ms] = frozenset(
                k for k in range(n) if math.gcd(k, n) == 1
                and all(d.get(j * k % n) == c for j, c in ms))
        if len(fixed) < euler_phi(n):
            stab = tuple(k for k in stab if k % n in fixed)
    return stab


@functools.cache
def _root_traces(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^j) for j in [0, n), the trace to Q: the Galois mean of
    zeta_n^j is mu(m) / phi(m), m = n / gcd(n, j), so the trace is
    mu(m) * phi(n) / phi(m), an integer."""
    phi = euler_phi(n)
    return tuple(mobius(m) * (phi // euler_phi(m))
                 for m in (n // math.gcd(n, j) for j in range(n)))


def _relabel(multisets, k: int, orders) -> tuple:
    """The multisets of sigma_k chi from those of chi: j -> jk mod n."""
    return tuple(tuple(sorted((j * k % n, c) for j, c in ms))
                 for ms, n in zip(multisets, orders))


def _conjugate_lines(powers: list[tuple[int, list[int]]], om: list[int]
                     ) -> dict[tuple[int, ...], int]:
    """The lines of the Galois conjugates of chi, from chi's own line om,
    each mapped to the least unit k mod exp G that gives it.

    om[i] = omega_chi(C_i) = |C_i| chi(g_i) / chi(1) mod p, and
    omega_{sigma_k chi}(C_i) = omega_chi(C_{i^k}) holds exactly in Z[zeta],
    so the line of sigma_k chi is om with its coordinates permuted by the
    k-th power map.  ``powers`` holds (k, [the class of g_i^k for each
    class i]) for every unit k, ascending.
    """
    out: dict[tuple[int, ...], int] = {}
    for k, classes in powers:
        out.setdefault(tuple(map(om.__getitem__, classes)), k)
    return out


def _check_orthogonality(rows: list[tuple[list[int], list[int]]],
                         heads: dict[int, list[int]], norm: int) -> None:
    """Raise unless, for every row a and head b, the dot product of a with
    v_b is ``norm`` when a is b and 0 otherwise.

    rows[a] is (positions, coefficients); ``heads`` maps each head b to its
    vector v_b over all positions.  The v_b are packed into one integer per
    position, v_b in the slot of b, so each row takes one dot product, which
    must be norm in a's own slot when a is a head and 0 in every other slot.
    Each slot sum s has |s| <= B = max(norm, max |v| * max sum |c|), and its
    target t is 0 or norm, so |s - t| <= 2B < 2^(w-1) for slots of w =
    bitlen(B) + 2 bits.  Where the packed sum and the packed target agree,
    their difference in the lowest slot that differs would be a nonzero
    multiple of 2^w, so they agree in every slot.
    """
    bound = max(norm, max(abs(x) for v in heads.values() for x in v)
                * max(sum(map(abs, c)) for _, c in rows))
    width = bound.bit_length() + 2
    shifts = {b: width * t for t, b in enumerate(heads)}
    packed = [sum(x << s for x, s in zip(col, shifts.values()))
              for col in zip(*heads.values())]
    for a, (pos, coeffs) in enumerate(rows):
        total = sum(map(operator.mul, coeffs, map(packed.__getitem__, pos)))
        if total != (norm << shifts[a] if a in shifts else 0):
            raise ModularMethodError("orthogonality check failed")


def character_table(G: PermGroup) -> CharacterTable:
    return G.data.table


def _linear_characters(G: PermGroup
                       ) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The coset of G' that each class lies in, and every linear character
    as its exponents a at the class representatives: lambda = zeta_e^a,
    e = exp G.

    G' is the closure of the commutators [x, s], x in G and s a generator.
    That closure is normal, since [x, s]^g = [xg, s] [g, s]^-1, and every
    generator is central modulo it, so it is G'.  The generators are
    adjoined to G' one at a time: where s first lands in the subgroup H
    built so far at its power t, each element of H<s> is h s^c with h in H
    and 0 <= c < t, and gets the coordinates of h followed by c.  A
    character is fixed by its exponents b at the adjoined generators, with
    a = sum of c*b; it extends from H to H<s> exactly when
    t*b = a(s^t) (mod e) is solvable, and then in the t ways
    b0 + j*e/t.  The coordinates of an element name its coset of G'.
    """
    n, e = G.order, G.exponent()
    mul, inv = G._mul, G._inv
    derived = G.closure({mul[mul[inv[x]][inv[s]]][mul[x][s]]
                         for x in range(n) for s in G.generator_indices})
    coords: list[tuple[int, ...] | None] = [None] * n
    for h in derived:
        coords[h] = ()
    members = list(derived)
    chars: list[tuple[int, ...]] = [()]
    for s in G.generator_indices:
        x, t = s, 1
        while coords[x] is None:
            x = mul[x][s]
            t += 1
        if t == 1:
            continue
        rel = coords[x]
        grown = []
        for b in chars:
            c = sum(map(operator.mul, rel, b)) % e
            if c % t:
                raise ModularMethodError(
                    f"a linear character does not extend to generator {s}")
            grown.extend(b + (c // t + j * (e // t),) for j in range(t))
        chars = grown
        old = [coords[h] for h in members]
        y, grown_members = 0, []
        for c in range(t):
            for h, ch in zip(members, old):
                g = mul[h][y]
                coords[g] = ch + (c,)
                grown_members.append(g)
            y = mul[y][s]
        members = grown_members
    if len(members) != n:
        raise ModularMethodError("the generators do not reach G from G'")
    cosets = [coords[cls[0]] for cls in G.conjugacy_classes()]
    return cosets, [[sum(map(operator.mul, c, b)) % e for c in cosets]
                    for b in chars]


def _compute_character_table(G: PermGroup) -> CharacterTable:
    classes = G.conjugacy_classes()
    r = len(classes)
    sizes = tuple(len(c) for c in classes)
    reps = [c[0] for c in classes]
    e = G.exponent()
    p = admissible_prime(G)
    if r * (p - 1) ** 2 >> 64:
        raise ModularMethodError(
            f"{r} classes mod {p} overflow the 64-bit slots of the split")
    orders = [G.element_order(reps[i]) for i in range(r)]

    # The linear characters are exact from G/G'.  Their eigenvectors
    # (|c_i| lambda(g_i))_i span a complement of the others', which is
    # {v : sum_i v_i lambda(g_i^-1) = 0 for every linear lambda}; the
    # lambda are the characters of G/G', whose table is invertible, so this
    # is the space of v summing to 0 over the classes in each coset of G'.
    # Its reduced echelon form has one row e_k - e_l for each class k of a
    # coset but its last class l.
    cosets, linear = _linear_characters(G)
    fibers: dict[tuple[int, ...], list[int]] = {}
    for i, c in enumerate(cosets):
        fibers.setdefault(c, []).append(i)
    if len(fibers) != len(linear):
        raise ModularMethodError(
            f"the complement of the linear characters has rank "
            f"{r - len(fibers)}, not r - |G:G'| = {r - len(linear)}")
    last = {k: f[-1] for f in fibers.values() for k in f[:-1]}
    pivots = sorted(last)
    start = []
    for k in pivots:
        row = [0] * r
        row[k], row[last[k]] = 1, p - 1
        start.append(row)

    # Split the complement into common eigenspaces of the class-sum
    # matrices one space at a time, depth first.  The classes are tried
    # cheapest first, the first classes of the rational classes before the
    # others, each part by size: large classes are often scalar (on D128's
    # complement both reflection classes act as 0).  Each matrix is built
    # sparse when the split first needs it, as one (columns, coefficients)
    # pair per row.  A space is kept as (rows, pivots), a basis with the
    # identity at its pivots, the position of the next class to try, and
    # its path: the (class, eigenvalue) pairs that cut it out.  A line,
    # scaled to 1 at the identity, is om = omega_chi for an irreducible chi,
    # and om[i] is the eigenvalue of the i-th class sum on it; the lines of
    # chi's Galois conjugates follow from it with no split (see
    # _conjugate_lines).  A space is spanned by the lines whose eigenvalues
    # match its path, so it is dropped once the known such lines fill it.
    # A class sum that is not scalar on a space splits it into the kernels
    # of M - lam (_split_space).
    firsts = {o[0] for o in G.data.rational_classes}
    trial = sorted(range(1, r), key=lambda i: (i not in firsts, sizes[i], i))
    mats: dict[int, list[tuple[list[int], list[int]]]] = {}
    # (om, the least unit k giving each other conjugate line)
    orbits: list[tuple[list[int], list[int]]] = []
    known: set[tuple[int, ...]] = set()
    stack: list = []
    # (k, the class of g_i^k for each class i) for every unit k, needed
    # only where there is something to split
    power_maps: list[tuple[int, list[int]]] = []
    if start:
        stack.append((start, pivots, 0, ()))
        prows = [G.power_class_row(i) for i in range(r)]
        power_maps = [(k, [row[k % len(row)] for row in prows])
                      for k in G.data.units]
    while stack:
        basis, pivots, pos, path = stack.pop()
        d = len(basis)
        if sum(all(line[i] == lam for i, lam in path) for line in known) >= d:
            continue
        if d == 1:
            vec = basis[0]
            if vec[0] % p == 0:
                raise ModularMethodError(
                    "eigenvector vanishes on the identity class")
            norm = pow(vec[0], -1, p)
            om = [(v * norm) % p for v in vec]
            lines = _conjugate_lines(power_maps, om)
            if not known.isdisjoint(lines):
                raise ModularMethodError(
                    "a new line has a known Galois conjugate: the lines are "
                    "not closed under the Galois action")
            known.update(lines)
            orbits.append((om, [k for k in lines.values() if k != 1]))
            continue
        cols = list(zip(*basis))
        packed_cols = [_pack(col) for col in cols]
        while pos < len(trial):
            i = trial[pos]
            pos += 1
            mat = mats.get(i)
            if mat is None:
                ks: list[list[int]] = [[] for _ in range(r)]
                cs: list[list[int]] = [[] for _ in range(r)]
                for (j, k), a in _structure_constants(G, classes[i]).items():
                    if a % p:
                        ks[j].append(k)
                        cs[j].append(a % p)
                mat = mats[i] = list(zip(ks, cs))
            # The images of all d basis vectors, one coordinate at a time:
            # img[a][t] is coordinate a of M basis[t], one packed sum of
            # products per row of the matrix.
            img = [_unpack(sum(map(operator.mul, coeffs,
                                   map(packed_cols.__getitem__, where))),
                           d, p)
                   for where, coeffs in mat]
            # A class sum that acts on the space as a scalar lam, read at
            # the first pivot, where basis[0] has its 1, keeps the space as
            # it is.
            lam = img[pivots[0]][0]
            if all(row == [lam * x % p for x in col]
                   for row, col in zip(img, cols)):
                path += ((i, lam),)
                continue
            stack.extend((rows, piv, pos, path + ((i, lam),))
                         for lam, (rows, piv) in reversed(
                             _split_space(basis, pivots, img, p)))
            break
        else:
            raise ModularMethodError("class algebra did not split into lines")
    if len(known) != r - len(linear):
        raise ModularMethodError("class algebra did not split into lines")

    inv_class = [G.class_of(G.inv(reps[i])) for i in range(r)]
    gp = primitive_root(p)
    omega_e = pow(gp, (p - 1) // e, p)
    size_inv = [pow(s, -1, p) for s in sizes]

    # The eigenvalue multiplicities are lifted once per rational class, at
    # its first class g.  Every other class of it holds some g^k with k a
    # unit mod n = ord g; where rho(g) has the eigenvalue zeta_n^j c_j
    # times, rho(g^k) has zeta_n^(jk) c_j times, so its multiset is
    # {jk mod n: c_j}: exactly what a lift there would give.
    lifts = []  # (first class, its order, [(member class, unit k)])
    for orbit in G.data.rational_classes:
        i = orbit[0]
        prow = G.power_class_row(i)
        n = len(prow)
        unit_of: dict[int, int] = {}
        for k in range(n):
            if math.gcd(k, n) == 1:
                unit_of.setdefault(prow[k], k)
        lifts.append((i, n, [(c, unit_of[c]) for c in orbit]))
    # dft[n] = (w, theta^(-jt) packed over j in slots of w bits, for each
    # t), theta the image of zeta_n in GF(p), made when the first character
    # that is not linear needs it: a lift at order n is one sum of products
    # whose slot j, below n (p - 1)^2 < 2^w, is n c_j before reduction.
    dft: dict[int, tuple[int, list[int]]] = {}

    rc_orders = G.data.rational_class_orders
    power_of = dict(power_maps)
    shared: dict[tuple, tuple] = {}  # one tuple per distinct multiset
    # a linear character lambda = zeta_e^a has the one eigenvalue
    # zeta_n^(a n/e) at a class of order n
    rows = []
    for a in linear:
        multisets = []
        for ai, n in zip(a, orders):
            j, rem = divmod(ai * n, e)
            if rem:
                raise ModularMethodError(
                    f"zeta_{e}^{ai} is not a power of zeta_{n}")
            multisets.append({j: 1})
        firsts = []
        for i, _, _ in lifts:
            ms = tuple(multisets[i].items())
            firsts.append(shared.setdefault(ms, ms))
        rows.append((1, multisets, tuple(firsts)))

    # Only the first line of each orbit is lifted.  sigma_k chi has at a
    # class the multiset of chi at the k-th power of the class, and at the
    # first classes the multisets of chi relabelled j -> jk (_relabel).
    # conjugate_of[a] is (the lifted row, k) for the row a of sigma_k chi.
    conjugate_of: dict[int, tuple[int, int]] = {}
    for om, units in orbits:
        s = sum(om[i] * om[inv_class[i]] * size_inv[i] for i in range(r)) % p
        d2 = (G.order * pow(s, -1, p)) % p
        deg = next((d for d in range(1, math.isqrt(G.order) + 1)
                    if (d * d - d2) % p == 0), None)
        if deg is None:
            raise ModularMethodError("no integer degree matches the eigenvector")
        chi_mod = [(deg * om[i] * size_inv[i]) % p for i in range(r)]
        multisets: list[dict[int, int]] = [{}] * r
        firsts = []
        for i, n, members in lifts:
            if n not in dft:
                size = (n * (p - 1) ** 2).bit_length() // 8 + 1
                slots = [pow(omega_e, -(e // n) * m, p).to_bytes(
                    size, "little") for m in range(n)]
                dft[n] = (8 * size, [int.from_bytes(b"".join(
                    [slots[j * t % n] for j in range(n)]), "little")
                    for t in range(n)])
            width, columns = dft[n]
            vals = [chi_mod[c] for c in G.power_class_row(i)]
            total = sum(map(operator.mul, vals, columns))
            n_inv, mask = pow(n, -1, p), (1 << width) - 1
            powers = {}
            for j in range(n):
                cj = (total >> width * j & mask) * n_inv % p
                if cj:
                    if cj > deg:
                        raise ModularMethodError("eigenvalue multiplicity lift "
                                                 "out of range")
                    powers[j] = cj
            for c, k in members:
                multisets[c] = {j * k % n: cj for j, cj in powers.items()}
            ms = tuple(powers.items())
            firsts.append(shared.setdefault(ms, ms))
        lifted = len(rows)
        rows.append((deg, multisets, tuple(firsts)))
        for k in units:
            conjugate_of[len(rows)] = (lifted, k)
            rows.append((deg,
                         [multisets[c] for c in power_of[k]],
                         tuple(shared.setdefault(ms, ms) for ms in
                               _relabel(firsts, k, rc_orders))))

    # verify the table exactly before trusting it: the degrees, closure
    # under the Galois action, and orthogonality.
    if sum(row[0] ** 2 for row in rows) != G.order:
        raise ModularMethodError("degree check failed")

    # The rows are walked in order, and a row not yet reached heads its
    # orbit: its stabiliser is computed once and holds for the whole orbit,
    # and its image under one unit per coset of the stabiliser must be a
    # row not yet reached, which is the head relabelled at the first
    # classes and at their inverses, the classes that the pair check below
    # reads.  A gap is raised after the pair check, where a wrong or
    # repeated row shows first: such a row is reached from no head, so it
    # heads an orbit of its own and is paired with them all.
    index: dict[tuple, int] = {}
    for a, row in enumerate(rows):
        index.setdefault(row[2], a)
    head: list[int | None] = [None] * len(rows)
    stabs: list[tuple[int, ...]] = [()] * len(rows)
    memo: dict = {}
    inverses = [(inv_class[i], n) for i, n, _ in lifts]
    gap = None
    for a, (_, _, firsts) in enumerate(rows):
        if head[a] is not None:
            continue
        stab = _galois_stabiliser(G, firsts, memo)
        covered: set[int] = set()
        for k in G.data.units:
            if k in covered:
                continue
            covered.update(k * s % e for s in stab)
            b = a if k == 1 else index.get(_relabel(firsts, k, rc_orders))
            if b is None or head[b] is not None or (k != 1 and any(
                    rows[b][1][c] != {j * k % n: m
                                      for j, m in rows[a][1][c].items()}
                    for c, n in inverses)):
                gap = gap or (a, k)
                continue
            head[b] = a
            stabs[b] = stab
    heads = [a for a in range(len(rows)) if head[a] == a]

    # Inner products are computed through traces of roots of unity: classes
    # group into rational classes, and on each the summands are a full
    # Galois orbit, so Tr(zeta_n^m) (_root_traces) gives the exact value.
    # <a, b> = 1/|G| * sum over rational classes o of |c|*|o|*tr/phi(n);
    # scaled by |G|*L, L = lcm of the phi(n), every term is an integer, so
    # comparing the integer sum with |G|*L*delta_ab is the same check with
    # no fractions.  Laid out flat over the pairs
    # (o, m), m mod n, the sum is one dot product: the multiplicities c_a
    # of a at the first class g of each o, read at their positions (o, m),
    # against v_b(o, m) = |c|*|o|*L/phi(n) * sum of c_b*Tr(zeta_n^(m + m_b))
    # over the multiset of b at g^-1.  Each row is paired with the head b
    # of every orbit only: <a, sigma b> = <sigma^-1 a, b>, and sigma^-1 a is
    # a row, so that checks every pair (_check_orthogonality).
    levels = {n for _, n, _ in lifts}
    lcm_phi = math.lcm(*(euler_phi(n) for n in levels))
    traces = {n: _root_traces(n) for n in levels}
    weights = [(i, n, sizes[i] * len(members) * (lcm_phi // euler_phi(n)))
               for i, n, members in lifts]
    offsets = [0]
    for _, n, _ in lifts:
        offsets.append(offsets[-1] + n)
    us = [([off + m for off, ms in zip(offsets, firsts) for m, _ in ms],
           [c for ms in firsts for _, c in ms]) for _, _, firsts in rows]
    vs = {}
    for b in heads:
        v = []
        for i, n, w in weights:
            tr = traces[n]
            db = rows[b][1][inv_class[i]].items()
            v.extend(w * sum(cb * tr[(m + mb) % n] for mb, cb in db)
                     for m in range(n))
        vs[b] = v
    _check_orthogonality(us, vs, G.order * lcm_phi)
    if gap is not None:
        a, k = gap
        raise ModularMethodError(
            f"sigma_{k} of a degree-{rows[a][0]} row is not another row: the "
            "rows are not closed under the Galois action")

    # values and sort keys from integer coefficient vectors: the value at
    # level n, and minus the value raised to level e for the key.  The
    # values of sigma_k chi are chi's at the classes of the k-th powers, so
    # a lifted row's values and keys, permuted, are its conjugates'.
    values_of, keys_of = [], []
    converted: dict[tuple, tuple[CycNumber, tuple[int, ...]]] = {}
    fracs: dict[int, Fraction] = {}  # one Fraction per integer coefficient
    key_table = cyclotomic_reduction_table(e)
    for a, (_, multisets, _) in enumerate(rows):
        if a in conjugate_of:
            b, k = conjugate_of[a]
            values_of.append(tuple(map(values_of[b].__getitem__, power_of[k])))
            keys_of.append(tuple(map(keys_of[b].__getitem__, power_of[k])))
            continue
        vals, keys = [], []
        for i, powers in enumerate(multisets):
            n = orders[i]
            memo = (n, tuple(sorted(powers.items())))
            got = converted.get(memo)
            if got is None:
                table = cyclotomic_reduction_table(n)
                vec = [0] * euler_phi(n)
                key = [0] * euler_phi(e)
                for j, c in powers.items():
                    vec = [v + c * t for v, t in zip(vec, table[j])]
                    key = [v - c * t
                           for v, t in zip(key, key_table[j * (e // n)])]
                vec = [fracs[v] if v in fracs else
                       fracs.setdefault(v, Fraction(v)) for v in vec]
                got = converted[memo] = (CycNumber(n, vec), tuple(key))
            vals.append(got[0])
            keys.append(got[1])
        values_of.append(tuple(vals))
        keys_of.append(tuple(keys))

    # sorted by degree, then field degree (a smaller stabiliser is a larger
    # field), then value keys
    order_idx = sorted(
        range(len(rows)),
        key=lambda a: (rows[a][0], -len(stabs[a]), keys_of[a]))
    irrs = [ClassFunction(G, values_of[a], label=f"chi_{k + 1}",
                          table_index=k)
            for k, a in enumerate(order_idx)]
    members: dict[int, list[int]] = {}
    for t, a in enumerate(order_idx):
        members.setdefault(head[a], []).append(t)
    orbits = {h: tuple(m) for h, m in members.items()}
    return CharacterTable(G, irrs, sizes,
                          [rows[a][2] for a in order_idx],
                          [stabs[a] for a in order_idx],
                          [orbits[head[a]] for a in order_idx])


# ---------------------------------------------------------------------------
# Derived character operations


def perm_character(G: PermGroup, hsub: frozenset[int]) -> ClassFunction:
    """Character of C[G/H]: fixed-coset counts, one value per class."""
    hsub = frozenset(hsub)
    reps, covered = [], set()
    for x in range(G.order):
        if x in covered:
            continue
        reps.append(x)
        covered.update(G.mul(x, h) for h in hsub)
    values = []
    for cls in G.conjugacy_classes():
        g = cls[0]
        count = sum(1 for x in reps
                    if G.mul(G.mul(G.inv(x), g), x) in hsub)
        values.append(CycNumber.from_rational(count))
    return ClassFunction(G, tuple(values))


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """<a, b>, summed class by class in cyclotomic arithmetic.

    The engine's own multiplicities come from the integer class weights of
    :class:`GroupData`; this direct sum is the reference they are tested
    against.
    """
    if a.group is not b.group:
        raise ValueError("different groups")
    G = a.group
    sizes = [len(c) for c in G.conjugacy_classes()]
    tot = CycNumber.from_rational(0)
    for i, s in enumerate(sizes):
        tot = tot + s * (a.values[i] * b.values[i].conjugate())
    return tot.rational_value() / G.order


def fs_indicator(chi: ClassFunction) -> int:
    """Frobenius-Schur indicator (1/|G|) * sum of chi(g^2) of a character.

    g -> chi(g^2) is a virtual character, so each class may be replaced by
    the Galois mean of chi at the class of its squares.
    """
    G = chi.group
    means = chi.galois_means
    val = fraction_sum(((means[k], n) for k, n in G.data.square_counts),
                       G.order)
    if val not in (-1, 0, 1):
        raise ValueError(f"indicator {val} is not in {{-1, 0, 1}}")
    return int(val)


def rational_irreducibles(G: PermGroup) -> list[RationalCharacter]:
    return list(G.data.rational_irreducibles)


def _fundamental_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


@functools.lru_cache(maxsize=1024)
def _quadratic_subfields(e: int, stab: tuple[int, ...]) -> tuple[int, ...]:
    """Squarefree d != 1 with Q(sqrt(d)) in Q(zeta_e) fixed by ``stab``;
    an empty ``stab`` gives every quadratic subfield of Q(zeta_e).  A pure
    function of ints, kept per (e, stab)."""
    subfields = []
    for d in range(-e, e + 1):
        if d in (0, 1):
            continue
        if not is_squarefree(d):
            continue
        disc = _fundamental_discriminant(d)
        if e % abs(disc) != 0:
            continue
        if all(kronecker_symbol(disc, k) == 1 for k in stab):
            subfields.append(d)
    subfields.sort(key=lambda d: (abs(d), d))
    return tuple(subfields)


def char_field_data(chi: ClassFunction) -> CharFieldData:
    """The character field of an irreducible of the table, read from
    :attr:`GroupData.field_data`."""
    data = chi.group.data
    j = data.irreducible_index(chi)
    if j is None:
        raise ValueError("chi does not match an irreducible of the table")
    return data.field_data[j]


# ---------------------------------------------------------------------------
# The per-group record


class GroupData:
    """The invariants of one group, each computed on first use and kept.

    Reached as ``G.data``.  Nothing is computed at construction, so a group
    that is used briefly pays only for what it asks for.  Returned lists
    are shared: callers must not mutate them.  The Brauer relations, for
    one, are put in Hermite form once, as :attr:`brauer_kernel`.  What
    depends on an irreducible only through its Galois orbit is computed
    once per orbit from the table's integer multisets: the Galois means,
    the class weights and the multiplicity columns.  A quadratic field's
    K-relation rule is its set of parity conditions (:meth:`k_conditions`),
    made once per d; its K-relation lattice depends only on that set, so
    it is reduced once per set and kept in ``k_lattices``.
    """

    def __init__(self, group: PermGroup):
        self.group = group
        # least member of a Galois orbit -> (m, theta) of its norm
        # relation, for krel.relations.find_norm_relation
        self.norm_relations: dict[int, tuple[int, dict[str, int]]] = {}
        # (class id of H, class id of D) -> det of the H-fixed part of
        # Q[G/D], for krel.regconst.perm_fixed_det
        self.fixed_dets: dict[tuple[str, str], Fraction] = {}
        # (rule, key) -> the verdict of a place's structural rule, the
        # function that checks it, for krel.curvelocal._place_rule
        self.place_problems: dict[tuple, object] = {}
        # d -> its parity conditions, for k_conditions
        self._k_conditions: dict[int, frozenset[int]] = {}
        # parity conditions -> (Hermite rows, odd masks) of their K-relation
        # lattice, for krel.relations.k_relation_basis
        self.k_lattices: dict[frozenset[int], tuple] = {}

    @cached_property
    def units(self) -> tuple[int, ...]:
        """The units k modulo exp G, acting on classes by x -> x^k."""
        e = self.group.exponent()
        return tuple(k for k in range(1, e + 1) if math.gcd(k, e) == 1)

    @cached_property
    def rational_classes(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the power maps x -> x^k, k in ``units``, on conjugacy
        classes; each orbit is sorted and the orbits are ordered by their
        least class."""
        G = self.group
        seen: set[int] = set()
        out = []
        for i in range(len(G.conjugacy_classes())):
            if i in seen:
                continue
            prow = G.power_class_row(i)
            members = tuple(sorted({prow[k % len(prow)] for k in self.units}))
            seen.update(members)
            out.append(members)
        return tuple(out)

    @cached_property
    def rational_class_sizes(self) -> tuple[int, ...]:
        """The number of elements in each rational class."""
        classes = self.group.conjugacy_classes()
        return tuple(len(classes[o[0]]) * len(o) for o in self.rational_classes)

    @cached_property
    def rational_class_orders(self) -> tuple[int, ...]:
        """The element order on each rational class."""
        return tuple(len(self.group.power_class_row(o[0]))
                     for o in self.rational_classes)

    @cached_property
    def square_counts(self) -> tuple[tuple[int, int], ...]:
        """(k, the number of g with g^2 in class k), for each class k that
        holds a square."""
        G = self.group
        counts: Counter = Counter()
        for i, cls in enumerate(G.conjugacy_classes()):
            counts[G.power_class(i, 2)] += len(cls)
        return tuple(sorted(counts.items()))

    @cached_property
    def table(self) -> CharacterTable:
        """Read through :func:`character_table`, like every other use."""
        return _compute_character_table(self.group)

    @cached_property
    def class_weights(self) -> list[list[int]]:
        """w[j][o]: the sum of chi_j over the o-th rational class, an
        integer: its size times the Galois mean of chi_j at its first class
        g, read from the table's multisets with no cyclotomic value.

        Where rho(g) has the eigenvalue zeta_n^k c_k times, n = ord g, the
        mean is the sum of c_k Tr(zeta_n^k) over phi(n), the traces being
        integers (``_root_traces``); the size is a multiple of phi(n).
        Galois conjugates have equal means, so each orbit's row is
        computed once, at its least member, and shared by the others.
        """
        table = character_table(self.group)
        scales = [(s, euler_phi(n), _root_traces(n)) for s, n in zip(
            self.rational_class_sizes, self.rational_class_orders)]
        out: list[list[int]] = []
        for j, (multisets, orbit) in enumerate(zip(table.multisets,
                                                   table.orbits)):
            if orbit[0] < j:
                out.append(out[orbit[0]])
                continue
            sums = [s * sum(tr[k] * c for k, c in ms)
                    for (s, _, tr), ms in zip(scales, multisets)]
            if any(x % phi for x, (_, phi, _) in zip(sums, scales)):
                row = [Fraction(x, phi)
                       for x, (_, phi, _) in zip(sums, scales)]
                raise ExactCheckError(
                    f"class weights {row} of chi_{j + 1} are not integers")
            out.append([x // phi for x, (_, phi, _) in zip(sums, scales)])
        return out

    @cached_property
    def multiplicity_rows(self) -> list[list[int]]:
        """mult[i][j]: the multiplicity of chi_j in C[G/H_i].

        An element g fixes |C_G(g)| * |g^G ∩ H| / |H| cosets of H, a
        number constant on rational classes, so |G| * mult[i][j] is the
        dot product of these counts with the class weights of chi_j.  The
        count is 0 on a rational class that misses H, so the dot product
        runs over the rational classes that meet H only.  Galois
        conjugates share their weights, so there is one dot product per
        orbit, at its head, its least member.

        The heads' weights at each rational class are packed into one
        integer, the t-th head in the t-th slot of w bits, so a subgroup
        class costs one multiply-add per rational class it meets.  A
        fixed-coset count is at most |G|, so a head's sum S has |S| <= B =
        |G| * (the largest sum of |weights| of a head); with w = bitlen(B)
        + 1, each slot plus 2^(w-1) lies in [0, 2^w), and S reads back.
        """
        G = self.group
        classes = G.conjugacy_classes()
        weights = self.class_weights
        orbits = character_table(G).orbits
        heads = sorted({orbit[0] for orbit in orbits})
        width = (G.order * max(sum(map(abs, weights[h])) for h in heads)
                 ).bit_length() + 1
        half, mask = 1 << (width - 1), (1 << width) - 1
        shifts = [width * t for t in range(len(heads))]
        bias = sum(half << s for s in shifts)
        packed = [sum(weights[h][o] << s for h, s in zip(heads, shifts))
                  for o in range(len(self.rational_classes))]
        slot = {h: t for t, h in enumerate(heads)}
        rows = []
        for cls in G.subgroup_classes():
            hits = Counter(G.class_of(h) for h in cls.representative)
            total = bias
            for o, orbit in enumerate(self.rational_classes):
                if hits[orbit[0]]:
                    total += packed[o] * exact_quotient(
                        G.order * hits[orbit[0]],
                        len(classes[orbit[0]]) * cls.order,
                        "fixed-coset count")
            what = f"multiplicity in [{cls.id}]"
            mults = [exact_quotient((total >> s & mask) - half, G.order, what)
                     for s in shifts]
            rows.append([mults[slot[orbit[0]]] for orbit in orbits])
        return rows

    @cached_property
    def parity_masks(self) -> tuple[int, ...]:
        """For each irreducible chi_j, the int whose bit i is set when
        mult[i][j] is odd."""
        rows = self.multiplicity_rows
        return tuple(sum(1 << i for i, row in enumerate(rows) if row[j] & 1)
                     for j in range(len(rows[0])))

    def k_conditions(self, d: int) -> frozenset[int]:
        """The parity conditions of K = Q(sqrt(d)), kept per d: the
        :attr:`parity_masks` of the chi_j with [K : K ∩ Q(chi_j)] = 2.
        theta has an even multiplicity of each such chi_j exactly when its
        odd coefficients meet every condition in an even number of
        classes."""
        got = self._k_conditions.get(d)
        if got is None:
            got = self._k_conditions[d] = frozenset(
                mask for mask, fd in zip(self.parity_masks, self.field_data)
                if fd.degree_factor(d) == 2)
        return got

    @cached_property
    def multiplicity_matrix(self) -> list[list[int]]:
        """a[j][i] = mult[i][j]: a times a coefficient vector over the
        subgroup classes gives the irreducible multiplicities."""
        return [list(col) for col in zip(*self.multiplicity_rows)]

    @cached_property
    def multiplicity_smith(self) -> SmithForm:
        return smith_normal_form(self.multiplicity_matrix)

    @cached_property
    def brauer_kernel(self) -> list[list[int]]:
        """Hermite basis of the kernel of the multiplicity matrix, read by
        :meth:`perm_multiple` and :func:`krel.relations.brauer_basis`."""
        return hermite_row_basis(smith_kernel(self.multiplicity_smith))

    @cached_property
    def field_data(self) -> list[CharFieldData]:
        """The character field of each irreducible, from its Galois
        stabiliser on the table (``CharacterTable.stabilisers``);
        irreducibles with one stabiliser share one record."""
        G = self.group
        by_stab: dict[tuple[int, ...], CharFieldData] = {}
        out = []
        for stab in character_table(G).stabilisers:
            fd = by_stab.get(stab)
            if fd is None:
                fd = by_stab[stab] = CharFieldData(
                    stab, _quadratic_subfields(G.exponent(), stab),
                    len(self.units) // len(stab))
            out.append(fd)
        return out

    @cached_property
    def rational_irreducibles(self) -> tuple[RationalCharacter, ...]:
        """The Galois orbits of the table (``CharacterTable.orbits``), in
        the order of their least member, each with that member and its
        indicator.  No orbit sum is built: the engine reads a rational
        irreducible through its constituent and its orbit."""
        table = character_table(self.group)
        out = []
        for idx, chi in enumerate(table.irreducibles):
            members = table.orbits[idx]
            if members[0] != idx:
                continue
            out.append(RationalCharacter(
                label=f"tau_{len(out) + 1}",
                constituent=chi,
                constituent_index=idx,
                orbit_indices=members,
                indicator=fs_indicator(chi),
            ))
        return tuple(out)

    def irreducible_index(self, chi: ClassFunction) -> int | None:
        """Position of chi in the table, or None: its ``table_index`` when
        chi is that irreducible of the table, and otherwise, for a chi from
        outside the table, by value."""
        irrs = character_table(self.group).irreducibles
        j = chi.table_index
        if j is not None and j < len(irrs) and irrs[j] is chi:
            return j
        return next((j for j, c in enumerate(irrs) if c == chi), None)

    def orbit_target(self, j: int) -> tuple[int, ...]:
        """Indicator vector of the Galois orbit of chi_j."""
        table = character_table(self.group)
        orbit = table.orbits[j]
        return tuple(int(k in orbit) for k in range(len(table.irreducibles)))

    def perm_multiple(self, target: tuple[int, ...]
                      ) -> tuple[int, tuple[int, ...]]:
        """Least m >= 1 and a reduced x with a*x = m*target, for a the
        multiplicity matrix, solved on every call: the norm relation of an
        irreducible's orbit is kept in :attr:`norm_relations`.

        x is the SNF witness reduced modulo :attr:`brauer_kernel` (see
        :func:`krel.exactmath.reduce_by_kernel`).
        """
        a = self.multiplicity_matrix
        sol = snf_solve(a, target, self.multiplicity_smith)
        x = reduce_by_kernel(sol.witness, self.brauer_kernel)
        m = sol.minimal_m
        if any(sum(c * v for c, v in zip(row, x)) != m * t
               for row, t in zip(a, target)):
            raise ExactCheckError("reduced witness does not solve "
                                  "a*x = m*target")
        return m, tuple(x)
