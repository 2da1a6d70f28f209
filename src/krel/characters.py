"""Exact complex character tables and rational character data.

Tables are computed by the modular class-algebra method (Dixon-Schneider):
split the sparse class-sum matrices into common eigenvectors over a prime
field GF(p) with p ≡ 1 (mod exp G) and p > 2·sqrt(|G|), read off degrees
and eigenvalue multiplicities, lift roots of unity through one fixed
primitive root, and verify orthogonality exactly before returning anything.

The multiplicities are lifted once per rational class, at its first class
g: the other classes hold the unit powers g^k, and rho(g^k) has the
eigenvalues of rho(g) raised to the k-th power, so their multisets are
relabellings, exact with no further lift.  The orthogonality check, the
field degrees, the values and their sort keys are all integer arithmetic;
each value becomes a :class:`CycNumber` once, at the end.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from sympy import isprime, primitive_root

from .exactmath import (
    CycNumber,
    ExactCheckError,
    SmithForm,
    cyclotomic_reduction_table,
    euler_phi,
    exact_quotient,
    kronecker_symbol,
    mobius,
    reduce_by_kernel,
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

    def __post_init__(self):
        self.values = tuple(
            v if isinstance(v, CycNumber) else CycNumber.from_rational(v)
            for v in self.values)

    def at_element(self, i: int) -> CycNumber:
        return self.values[self.group.class_of(i)]

    def degree(self) -> Fraction:
        return self.values[0].rational_value()

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
    prime: int


@dataclass
class RationalCharacter:
    label: str
    sum_values: ClassFunction
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
    rows = [r[:] for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _coords(rref_rows, pivots, vec, p):
    vec = vec[:]
    out = []
    for row, c in zip(rref_rows, pivots):
        f = vec[c] % p
        out.append(f)
        if f:
            vec = [(a - f * b) % p for a, b in zip(vec, row)]
    if any(x % p for x in vec):
        raise ModularMethodError("vector left the invariant subspace")
    return out


def _kernel(mat: list[list[int]], p: int) -> list[list[int]]:
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
    return basis


def _min_poly(mat: list[list[int]], p: int) -> list[int]:
    """Monic minimal polynomial, as the lcm over Krylov sequences of e_i."""
    n = len(mat)
    result = [1]  # polynomial 1, coefficients low-to-high
    for start in range(n):
        if len(result) == n + 1:
            break
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
                result = _poly_lcm(result, coeffs, p)
                break
            piv = next(i for i, x in enumerate(vec) if x)
            inv = pow(vec[piv], -1, p)
            rows.append((piv, [(x * inv) % p for x in vec],
                         [(c * inv) % p for c in coeffs]))
            w = [sum(map(operator.mul, row, w)) % p for row in mat]
            deg += 1
    return result


def _poly_divmod(a, b, p):
    a = a[:]
    binv = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] % p == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = (a[-1] * binv) % p
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    while a and a[-1] % p == 0:
        a.pop()
    return q, a or [0]


def _poly_gcd(a, b, p):
    while any(c % p for c in b):
        _, r = _poly_divmod(a, b, p)
        a, b = b, r
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_lcm(a, b, p):
    g = _poly_gcd(a, b, p)
    q, r = _poly_divmod(_poly_mul(a, b, p), g, p)
    if r != [0]:
        raise ModularMethodError(f"gcd {g} does not divide {a} * {b} mod {p}")
    return q


def _poly_eval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


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
    class_of = [G.class_of(x) for x in range(G.order)]
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


def _field_degree(G: PermGroup, multisets: list[dict[int, int]]) -> int:
    """[Q(chi) : Q] from the eigenvalue multisets of chi, one {j: c_j} per
    class (rho(g) has the eigenvalue zeta_n^j c_j times, n = ord g).

    sigma_k chi = chi exactly when every class keeps its multiset under
    j -> jk, and the first class of each rational class suffices: the
    other classes hold its unit powers, whose multisets are relabellings
    of it that commute with j -> jk.
    """
    units = G.data.units
    firsts = [(orbit[0], len(G.power_class_row(orbit[0])))
              for orbit in G.data.rational_classes]
    stab = sum(1 for k in units
               if all({j * k % n: c for j, c in multisets[i].items()}
                      == multisets[i] for i, n in firsts))
    return len(units) // stab


def character_table(G: PermGroup) -> CharacterTable:
    return G.data.table


def _compute_character_table(G: PermGroup) -> CharacterTable:
    classes = G.conjugacy_classes()
    r = len(classes)
    sizes = tuple(len(c) for c in classes)
    reps = [c[0] for c in classes]
    e = G.exponent()
    p = admissible_prime(G)

    # split GF(p)^r into common eigenspaces of the class-sum matrices,
    # each built sparse when the split first needs it
    spaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for i in range(1, r):
        if all(len(b) == 1 for b in spaces):
            break
        mat: list[list[tuple[int, int]]] = [[] for _ in range(r)]
        for (j, k), a in _structure_constants(G, classes[i]).items():
            if a % p:
                mat[j].append((k, a % p))
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            rref_rows, pivots = _rref(basis, p)
            basis = rref_rows
            d = len(basis)
            images = [[sum(a * vec[k] for k, a in row) % p for row in mat]
                      for vec in basis]
            cols = [_coords(rref_rows, pivots, img, p) for img in images]
            restr = [[cols[j][a] for j in range(d)] for a in range(d)]
            mp = _min_poly(restr, p)
            roots = [lam for lam in range(p) if _poly_eval(mp, lam, p) == 0]
            covered = 0
            for lam in roots:
                shifted = [[(restr[a][b] - (lam if a == b else 0)) % p
                            for b in range(d)] for a in range(d)]
                kern = _kernel(shifted, p)
                covered += len(kern)
                sub = []
                for kv in kern:
                    acc = [0] * r
                    for c, row in zip(kv, basis):
                        if c:
                            acc = [x + c * y for x, y in zip(acc, row)]
                    sub.append([x % p for x in acc])
                nxt.append(sub)
            if covered != d:
                raise ModularMethodError("class-sum matrix is not "
                                         "diagonalizable on a subspace")
        spaces = nxt
    if any(len(b) != 1 for b in spaces) or len(spaces) != r:
        raise ModularMethodError("class algebra did not split into lines")

    inv_class = [G.class_of(G.inv(reps[i])) for i in range(r)]
    gp = primitive_root(p)
    omega_e = pow(gp, (p - 1) // e, p)
    size_inv = [pow(s, -1, p) for s in sizes]
    orders = [G.element_order(reps[i]) for i in range(r)]

    # The eigenvalue multiplicities are lifted once per rational class, at
    # its first class g.  Every other class of it holds some g^k with k a
    # unit mod n = ord g; where rho(g) has the eigenvalue zeta_n^j c_j
    # times, rho(g^k) has zeta_n^(jk) c_j times, so its multiset is
    # {jk mod n: c_j}: exactly what a lift there would give.
    # dft[n][j][t] = theta^(-jt) for theta the image of zeta_n in GF(p).
    lifts = []  # (first class, its order, [(member class, unit k)])
    dft: dict[int, list[list[int]]] = {}
    for orbit in G.data.rational_classes:
        i = orbit[0]
        prow = G.power_class_row(i)
        n = len(prow)
        unit_of: dict[int, int] = {}
        for k in range(n):
            if math.gcd(k, n) == 1:
                unit_of.setdefault(prow[k], k)
        lifts.append((i, n, [(c, unit_of[c]) for c in orbit]))
        if n not in dft:
            tpow = [pow(omega_e, -(e // n) * m, p) for m in range(n)]
            dft[n] = [[tpow[(j * t) % n] for t in range(n)]
                      for j in range(n)]

    rows = []
    for (vec,) in spaces:
        if vec[0] % p == 0:
            raise ModularMethodError("eigenvector vanishes on the identity class")
        norm = pow(vec[0], -1, p)
        om = [(v * norm) % p for v in vec]
        s = sum(om[i] * om[inv_class[i]] * size_inv[i] for i in range(r)) % p
        d2 = (G.order * pow(s, -1, p)) % p
        deg = next((d for d in range(1, math.isqrt(G.order) + 1)
                    if (d * d - d2) % p == 0), None)
        if deg is None:
            raise ModularMethodError("no integer degree matches the eigenvector")
        chi_mod = [(deg * om[i] * size_inv[i]) % p for i in range(r)]
        multisets: list[dict[int, int]] = [{}] * r
        for i, n, members in lifts:
            vals = [chi_mod[c] for c in G.power_class_row(i)]
            n_inv = pow(n, -1, p)
            powers = {}
            for j, w in enumerate(dft[n]):
                cj = sum(map(operator.mul, vals, w)) * n_inv % p
                if cj:
                    if cj > deg:
                        raise ModularMethodError("eigenvalue multiplicity lift "
                                                 "out of range")
                    powers[j] = cj
            for c, k in members:
                multisets[c] = {j * k % n: cj for j, cj in powers.items()}
        rows.append((deg, multisets))

    # verify the table exactly before trusting it.  Inner products are
    # computed through traces of roots of unity: classes group into
    # rational classes, and on each the summands are a full Galois orbit,
    # so Tr(zeta_n^m) = mu(d)*phi(n)/phi(d), d = n/gcd(n, m), gives the
    # exact value.  <a, b> = 1/|G| * sum over rational classes o of
    # |c|*|o|*tr/phi(n); scaled by |G|*L, L = lcm of the phi(n), every
    # term is an integer, so comparing the integer sum with |G|*L*delta_ab
    # is the same check with no fractions.
    if sum(deg * deg for deg, _ in rows) != G.order:
        raise ModularMethodError("degree check failed")
    lcm_phi = math.lcm(*(euler_phi(n) for n in dft))
    traces = {}
    for n in dft:
        traces[n] = []
        for m in range(n):
            d = n // math.gcd(n, m)
            traces[n].append(mobius(d) * (euler_phi(n) // euler_phi(d)))
    weights = [(i, n, sizes[i] * len(members) * (lcm_phi // euler_phi(n)))
               for i, n, members in lifts]
    for a, (_, sa) in enumerate(rows):
        for b in range(a, len(rows)):
            sb = rows[b][1]
            total = 0
            for i, n, w in weights:
                tr = traces[n]
                db = sb[inv_class[i]]
                total += w * sum(ca * cb * tr[(ma + mb) % n]
                                 for ma, ca in sa[i].items()
                                 for mb, cb in db.items())
            if total != (G.order * lcm_phi if a == b else 0):
                raise ModularMethodError("orthogonality check failed")

    # values and sort keys from integer coefficient vectors: the value at
    # level n, and minus the value raised to level e for the key
    values_of, keys_of = [], []
    converted: dict[tuple, tuple[CycNumber, tuple[int, ...]]] = {}
    key_table = cyclotomic_reduction_table(e)
    for _, multisets in rows:
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
                got = converted[memo] = (CycNumber(n, vec), tuple(key))
            vals.append(got[0])
            keys.append(got[1])
        values_of.append(tuple(vals))
        keys_of.append(tuple(keys))

    order_idx = sorted(
        range(len(rows)),
        key=lambda a: (rows[a][0], _field_degree(G, rows[a][1]), keys_of[a]))
    irrs = [ClassFunction(G, values_of[a], label=f"chi_{k + 1}")
            for k, a in enumerate(order_idx)]
    return CharacterTable(G, irrs, sizes, p)


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


def rational_inner_product(chi: ClassFunction, v: ClassFunction) -> Fraction:
    """<chi, v> for a character chi and a rational virtual character v.

    v is constant on rational classes, so the sum splits into the rational
    class sums of chi (see :meth:`GroupData.class_sums`).
    """
    G = chi.group
    if v.group is not G:
        raise ValueError("different groups")
    if not v.is_rational():
        raise ValueError("character values must be rational")
    vals = [x.rational_value() for x in v.values]
    orbits = G.data.rational_classes
    if any(vals[c] != vals[orbit[0]] for orbit in orbits for c in orbit):
        raise ValueError("not a virtual character: not constant on a "
                         "rational class")
    sums = G.data.class_sums(chi.values)
    return sum(vals[orbit[0]] * s for orbit, s in zip(orbits, sums)) / G.order


def fs_indicator(chi: ClassFunction) -> int:
    """Frobenius-Schur indicator (1/|G|) * sum of chi(g^2) of a character.

    g -> chi(g^2) is a virtual character, so the sum is over its rational
    class sums (see :meth:`GroupData.class_sums`).
    """
    G = chi.group
    squares = [chi.values[G.power_class(i, 2)] for i in range(len(chi.values))]
    val = sum(G.data.class_sums(squares)) / G.order
    if val not in (-1, 0, 1):
        raise ValueError(f"indicator {val} is not in {{-1, 0, 1}}")
    return int(val)


def _value_keys(cf: ClassFunction) -> list[tuple]:
    e = cf.group.exponent()
    return [tuple(v.raised(e).coeffs) for v in cf.values]


def galois_orbit(chi: ClassFunction) -> list[ClassFunction]:
    G = chi.group
    r = len(chi.values)
    base = _value_keys(chi)
    seen = set()
    out: list[ClassFunction] = []
    for k in G.data.units:
        key = tuple(base[G.power_class(i, k)] for i in range(r))
        if key not in seen:
            seen.add(key)
            out.append(chi.galois(k))
    return out


def rational_irreducibles(G: PermGroup) -> list[RationalCharacter]:
    return list(G.data.rational_irreducibles)


def _compute_rational_irreducibles(G: PermGroup) -> list[RationalCharacter]:
    table = character_table(G)
    r = len(table.class_sizes)
    units = G.data.units
    keys = [_value_keys(chi) for chi in table.irreducibles]
    key_to_idx = {tuple(k): i for i, k in enumerate(keys)}
    used: set[int] = set()
    out = []
    for idx, chi in enumerate(table.irreducibles):
        if idx in used:
            continue
        members = sorted({
            key_to_idx[tuple(keys[idx][G.power_class(i, k)] for i in range(r))]
            for k in units})
        used.update(members)
        total = table.irreducibles[members[0]]
        for m in members[1:]:
            total = total + table.irreducibles[m]
        out.append(RationalCharacter(
            label=f"tau_{len(out) + 1}",
            sum_values=total,
            constituent=chi,
            constituent_index=idx,
            orbit_indices=tuple(members),
            indicator=fs_indicator(chi),
        ))
    return out


def _fundamental_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def char_field_data(chi: ClassFunction) -> CharFieldData:
    G = chi.group
    e = G.exponent()
    r = len(G.conjugacy_classes())
    keys = _value_keys(chi)
    units = G.data.units
    stab = [k for k in units
            if all(keys[G.power_class(i, k)] == keys[i] for i in range(r))]
    subfields = []
    for d in range(-e, e + 1):
        if d in (0, 1):
            continue
        if any(v > 1 for v in _squarefree_exps(abs(d))):
            continue
        disc = _fundamental_discriminant(d)
        if e % abs(disc) != 0:
            continue
        if all(kronecker_symbol(disc, k) == 1 for k in stab):
            subfields.append(d)
    subfields.sort(key=lambda d: (abs(d), d))
    return CharFieldData(stabilizer=tuple(stab),
                         quadratic_subfields=tuple(subfields),
                         field_degree=len(units) // len(stab))


def _squarefree_exps(n: int):
    from .groups import sympy_factorint_cache
    return sympy_factorint_cache(n).values()


# ---------------------------------------------------------------------------
# The per-group record


class GroupData:
    """The invariants of one group, each computed on first use and kept.

    Reached as ``G.data``.  Nothing is computed at construction, so a group
    that is used briefly pays only for what it asks for.  Returned lists
    are shared: callers must not mutate them.
    """

    def __init__(self, group: PermGroup):
        self.group = group
        self._perm_multiples: dict[tuple[int, ...],
                                   tuple[int, tuple[int, ...]]] = {}

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

    def class_sums(self, values) -> list[Fraction]:
        """Sum of |c| * value(c) over the classes c of each rational class,
        for the class values of a virtual character.

        On a rational class o the values are the Galois conjugates of the
        value at its first class, each equally often, so the sum is
        |c| * |o| times their mean: no cyclotomic arithmetic is needed.
        """
        classes = self.group.conjugacy_classes()
        return [len(classes[o[0]]) * len(o) * values[o[0]].galois_mean()
                for o in self.rational_classes]

    @cached_property
    def subgroup_positions(self) -> dict[str, int]:
        """Subgroup class id -> its index in ``subgroup_classes()``."""
        return {c.id: c.index for c in self.group.subgroup_classes()}

    @cached_property
    def table(self) -> CharacterTable:
        """Read through :func:`character_table`, like every other use."""
        return _compute_character_table(self.group)

    @cached_property
    def class_weights(self) -> list[list[int]]:
        """w[j][o]: the rational class sums of chi_j, integers."""
        out = []
        for j, chi in enumerate(character_table(self.group).irreducibles):
            row = self.class_sums(chi.values)
            if any(w.denominator != 1 for w in row):
                raise ExactCheckError(
                    f"class weights {row} of chi_{j + 1} are not integers")
            out.append([int(w) for w in row])
        return out

    @cached_property
    def multiplicity_rows(self) -> list[list[int]]:
        """mult[i][j]: the multiplicity of chi_j in C[G/H_i].

        An element g fixes |C_G(g)| * |g^G ∩ H| / |H| cosets of H, a
        number constant on rational classes, so |G| * mult[i][j] is the
        dot product of these counts with the class weights of chi_j.
        """
        G = self.group
        classes = G.conjugacy_classes()
        reps = [orbit[0] for orbit in self.rational_classes]
        weights = self.class_weights
        rows = []
        for cls in G.subgroup_classes():
            hits = Counter(G.class_of(h) for h in cls.representative)
            fixed = [exact_quotient(G.order * hits[c],
                                    len(classes[c]) * cls.order,
                                    "fixed-coset count") for c in reps]
            what = f"multiplicity in [{cls.id}]"
            rows.append([exact_quotient(sum(f * w for f, w in zip(fixed, wj)),
                                        G.order, what) for wj in weights])
        return rows

    @cached_property
    def multiplicity_matrix(self) -> list[list[int]]:
        """a[j][i] = mult[i][j]: a times a coefficient vector over the
        subgroup classes gives the irreducible multiplicities."""
        return [list(col) for col in zip(*self.multiplicity_rows)]

    @cached_property
    def multiplicity_smith(self) -> SmithForm:
        return smith_normal_form(self.multiplicity_matrix)

    @cached_property
    def rational_irreducibles(self) -> tuple[RationalCharacter, ...]:
        return tuple(_compute_rational_irreducibles(self.group))

    @cached_property
    def field_data(self) -> list[CharFieldData]:
        return [char_field_data(chi)
                for chi in character_table(self.group).irreducibles]

    def irreducible_index(self, chi: ClassFunction) -> int | None:
        """Position of chi in the table, or None."""
        irrs = character_table(self.group).irreducibles
        j = next((j for j, c in enumerate(irrs) if c is chi), None)
        if j is None:
            j = next((j for j, c in enumerate(irrs) if c == chi), None)
        return j

    def orbit_target(self, j: int) -> tuple[int, ...]:
        """Indicator vector of the Galois orbit of chi_j."""
        orbit = next(tau.orbit_indices for tau in self.rational_irreducibles
                     if j in tau.orbit_indices)
        count = len(character_table(self.group).irreducibles)
        return tuple(int(k in orbit) for k in range(count))

    def perm_multiple(self, target: tuple[int, ...]
                      ) -> tuple[int, tuple[int, ...]]:
        """Least m >= 1 and a reduced x with a*x = m*target, for a the
        multiplicity matrix; memoised by target.

        x is the SNF witness reduced modulo the kernel of a, the Brauer
        relations (see :func:`krel.exactmath.reduce_by_kernel`).
        """
        got = self._perm_multiples.get(target)
        if got is None:
            a = self.multiplicity_matrix
            sol = snf_solve(a, target, self.multiplicity_smith)
            x = reduce_by_kernel(sol.witness, sol.kernel_basis)
            m = sol.minimal_m
            if any(sum(c * v for c, v in zip(row, x)) != m * t
                   for row, t in zip(a, target)):
                raise ExactCheckError("reduced witness does not solve "
                                      "a*x = m*target")
            got = self._perm_multiples[target] = (m, tuple(x))
        return got
