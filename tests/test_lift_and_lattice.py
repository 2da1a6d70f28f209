"""The character-table lift and the K-relation lattices, bit for bit against
the constructions they replaced: a lift at every class with a sort on
cyclotomic value keys, and a GF(2) kernel put through the general Hermite
reduction.  Also the named errors on the rewritten paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primitive_root

from krel import characters
from krel.characters import (
    ModularMethodError,
    _eigenspaces,
    _rref,
    _structure_constants,
    admissible_prime,
    char_field_data,
    character_table,
)
from krel.exactmath import CycNumber, ExactCheckError, hermite_row_basis
from krel.groups import (
    PermGroup,
    alternating4_group,
    cyclic_group,
    dihedral_group,
    metacyclic_group,
    quaternion_group,
)
from krel.harness import MetacyclicSpec, build_metacyclic
from krel.curvelocal import local_ef
from krel.relations import (
    _multiplicity_rows,
    gf2_relation_lattice,
    is_k_relation,
    k_relation_basis,
)

import character_oracles as oracle


def elementary_abelian_2(n):
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * n, gens, name=f"C2^{n}")


# ---------------------------------------------------------------------------
# Reference: dense class-sum tensor, a lift at every class, CycNumber keys


def _coords(rref_rows, pivots, vec, p):
    """The coordinates of vec in the echelon basis, one row at a time."""
    vec = vec[:]
    out = []
    for row, c in zip(rref_rows, pivots):
        f = vec[c] % p
        out.append(f)
        if f:
            vec = [(a - f * b) % p for a, b in zip(vec, row)]
    assert not any(x % p for x in vec), "vector left the invariant subspace"
    return out


def _reference_table(G):
    """(label, values) per irreducible, in table order."""
    classes = G.conjugacy_classes()
    r = len(classes)
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    e = G.exponent()
    p = admissible_prime(G)
    class_of = [G.class_of(y) for y in range(G.order)]
    const = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, ci in enumerate(classes):
        for x in ci:
            for y in range(G.order):
                const[i][class_of[y]][class_of[G.mul(x, y)]] += 1
    mats = [[[const[i][j][k] // sizes[k] % p for k in range(r)]
             for j in range(r)] for i in range(r)]

    spaces = [[[int(i == j) for j in range(r)] for i in range(r)]]
    for i in range(1, r):
        mat = mats[i]
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            basis, pivots = _rref(basis, p)
            d = len(basis)
            images = [[sum(mat[a][b] * vec[b] for b in range(r)) % p
                       for a in range(r)] for vec in basis]
            cols = [_coords(basis, pivots, img, p) for img in images]
            restr = [[cols[j][a] for j in range(d)] for a in range(d)]
            for _, (kern, _) in _eigenspaces(restr, p):
                nxt.append([[sum(kv[j] * basis[j][b] for j in range(d)) % p
                             for b in range(r)] for kv in kern])
        spaces = nxt
    assert len(spaces) == r

    inv_class = [G.class_of(G.inv(x)) for x in reps]
    omega_e = pow(primitive_root(p), (p - 1) // e, p)
    rows = []
    for (vec,) in spaces:
        om = [v * pow(vec[0], -1, p) % p for v in vec]
        s = sum(om[i] * om[inv_class[i]] * pow(sizes[i], -1, p)
                for i in range(r)) % p
        d2 = G.order * pow(s, -1, p) % p
        deg = next(d for d in range(1, G.order) if (d * d - d2) % p == 0)
        chi_mod = [deg * om[i] * pow(sizes[i], -1, p) % p for i in range(r)]
        multisets = []
        for i in range(r):
            prow = G.power_class_row(i)
            n = len(prow)
            t = pow(omega_e, -(e // n), p)
            tpow = [pow(t, m, p) for m in range(n)]
            powers = {}
            for j in range(n):
                cj = sum(chi_mod[prow[k]] * tpow[j * k % n]
                         for k in range(n)) * pow(n, -1, p) % p
                if cj:
                    powers[j] = cj
            multisets.append(powers)
        values = tuple(CycNumber.from_powers(len(G.power_class_row(i)), m)
                       for i, m in enumerate(multisets))
        keys = [tuple(v.raised(e).coeffs) for v in values]
        units = G.data.units
        stab = sum(1 for k in units
                   if all(keys[G.power_class(i, k)] == keys[i]
                          for i in range(r)))
        sort_key = (deg, len(units) // stab,
                    tuple(tuple(-c for c in cs) for cs in keys))
        rows.append((sort_key, values))
    rows.sort(key=lambda row: row[0])
    return [(f"chi_{k + 1}", values) for k, (_, values) in enumerate(rows)]


def alternating5_group():
    return PermGroup(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], name="A5")


def symmetric4_group():
    return PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")


TABLE_GROUPS = {
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
    "7:6": lambda: metacyclic_group(7, 6, 3),
    "9:6": lambda: metacyclic_group(9, 6, 2),
    "16:4": lambda: metacyclic_group(16, 4, 3),
    # not dihedral, and every split of its table is binary
    "16:8": lambda: metacyclic_group(16, 8, 3),
    "D21": lambda: dihedral_group(21),
    "C2^5": lambda: elementary_abelian_2(5),
    # abelian groups that are not elementary, and groups whose
    # abelianisation has more than two elements
    "C12": lambda: cyclic_group(12),
    "C60": lambda: cyclic_group(60),
    "C4xC8": lambda: build_metacyclic(MetacyclicSpec(4, 3, 1))[0],
    "Q8": quaternion_group,
    "A4": alternating4_group,
    "S4": symmetric4_group,
    "A5": alternating5_group,
}
TABLE_GROUPS.update({f"D{n}": (lambda n=n: dihedral_group(n))
                     for n in range(3, 41)})


@pytest.mark.parametrize("name", list(TABLE_GROUPS))
def test_table_matches_per_class_lift(name):
    G = TABLE_GROUPS[name]()
    ref = _reference_table(G)
    got = character_table(G).irreducibles
    assert len(got) == len(ref)
    for chi, (label, values) in zip(got, ref):
        assert chi.label == label
        assert [(v.level, v.coeffs) for v in chi.values] \
            == [(v.level, v.coeffs) for v in values]
        # the stabiliser kept from the build against the cyclotomic one
        fd, ref_fd = char_field_data(chi), oracle.char_field_data(chi)
        assert fd.stabilizer == ref_fd.stabilizer
        assert fd.field_degree == ref_fd.field_degree


# |G:G'| by hand: the number of linear characters
LINEAR_COUNTS = {
    "C1": (lambda: cyclic_group(1), 1),
    "C12": (lambda: cyclic_group(12), 12),
    "C60": (lambda: cyclic_group(60), 60),
    "D3": (lambda: dihedral_group(3), 2),
    "D4": (lambda: dihedral_group(4), 4),
    "D21": (lambda: dihedral_group(21), 2),
    "D40": (lambda: dihedral_group(40), 4),
    "Q8": (quaternion_group, 4),
    "A4": (alternating4_group, 3),
    "S4": (symmetric4_group, 2),
    "7:6": (lambda: metacyclic_group(7, 6, 3), 6),
    "A5": (alternating5_group, 1),
}


@pytest.mark.parametrize("name", list(LINEAR_COUNTS))
def test_linear_characters_number_the_abelianisation(name):
    make, index = LINEAR_COUNTS[name]
    table = character_table(make())
    assert sum(chi.degree() == 1 for chi in table.irreducibles) == index


def test_table_rejects_wrong_linear_characters(monkeypatch):
    real = characters._linear_characters

    def dropped(G):
        cosets, linear = real(G)
        return cosets, linear[1:]

    def doubled(G):
        cosets, linear = real(G)
        return cosets, linear[:-1] + linear[:1]

    monkeypatch.setattr(characters, "_linear_characters", dropped)
    with pytest.raises(ModularMethodError, match="rank"):
        character_table(alternating4_group())
    monkeypatch.setattr(characters, "_linear_characters", doubled)
    with pytest.raises(ModularMethodError, match="orthogonality"):
        character_table(alternating4_group())


def test_table_refuses_a_prime_too_large_for_its_slots(monkeypatch):
    # the split packs vectors in 64-bit slots, each summing at most r
    # products below p^2
    monkeypatch.setattr(characters, "admissible_prime",
                        lambda G: 2 ** 61 - 1)
    with pytest.raises(ModularMethodError, match="64-bit slots"):
        character_table(dihedral_group(5))


def test_table_rejects_a_class_sum_that_leaves_the_space(monkeypatch):
    # D5's complement of the linear characters is 0 on the reflections;
    # a rotation class sum that also sends r to the reflections leaves it
    G = dihedral_group(5)
    reflections = next(i for i, c in enumerate(G.conjugacy_classes())
                       if len(c) == 5)
    real = characters._structure_constants

    def leaking(G, cls):
        out = real(G, cls)
        if len(cls) == 2:
            out[reflections, G.class_of(cls[0])] = 1
        return out
    monkeypatch.setattr(characters, "_structure_constants", leaking)
    with pytest.raises(ModularMethodError, match="left the invariant"):
        character_table(G)


# ---------------------------------------------------------------------------
# Reference: the GF(2) kernel, lifted, through the general Hermite form


def _gf2_kernel(rows, ncols):
    reduced = []  # (pivot column, row), reduced echelon form
    for row in rows:
        row = list(row)
        for pc, r in reduced:
            if row[pc]:
                row = [a ^ b for a, b in zip(row, r)]
        pc = next((c for c in range(ncols) if row[c]), None)
        if pc is None:
            continue
        reduced = [(q, [a ^ b for a, b in zip(r, row)] if r[pc] else r)
                   for q, r in reduced]
        reduced.append((pc, row))
    pivots = {q for q, _ in reduced}
    out = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [0] * ncols
        v[c] = 1
        for pc, r in reduced:
            if r[c]:
                v[pc] = 1
        out.append(v)
    return out


def _reference_lattice(rows, s):
    gens = _gf2_kernel(rows, s)
    gens += [[2 * (i == k) for i in range(s)] for k in range(s)]
    return hermite_row_basis(gens)


def _packed(row):
    return sum(bit << i for i, bit in enumerate(row))


def _dense(v, s):
    return [v.get(i, 0) for i in range(s)]


@st.composite
def gf2_systems(draw):
    s = draw(st.integers(1, 30))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=s, max_size=s),
                         max_size=8))
    return s, rows


@settings(max_examples=200, deadline=None)
@given(gf2_systems())
def test_gf2_lattice_is_the_hermite_form(system):
    s, rows = system
    got = gf2_relation_lattice([_packed(r) for r in rows], s)
    assert [_dense(v, s) for v in got] == _reference_lattice(rows, s)
    assert all(0 not in v.values() for v in got)


LATTICE_GROUPS = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "A4": alternating4_group,
    "C3:C4": lambda: metacyclic_group(3, 4, 2),
    "S4": lambda: PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)], name="S4"),
    "D21": lambda: dihedral_group(21),
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
}


@pytest.mark.parametrize("name", list(LATTICE_GROUPS))
def test_k_relation_basis_matches_hermite_reference(name):
    G = LATTICE_GROUPS[name]()
    classes = G.subgroup_classes()
    s = len(classes)
    mult = _multiplicity_rows(G)
    for d in (-1, 2, -3, 5):
        cond = [[mult[i][j] % 2 for i in range(s)]
                for j, fd in enumerate(G.data.field_data)
                if fd.degree_factor(d) == 2]
        want = [{classes[i].id: c for i, c in enumerate(v) if c}
                for v in _reference_lattice(cond, s)]
        got = k_relation_basis(G, d).basis
        assert got == want
        assert [list(b) for b in got] == [list(b) for b in want]
        assert all(is_k_relation(G, b, d) for b in got)


# ---------------------------------------------------------------------------
# Named errors on the rewritten paths


def test_structure_constants_reject_a_non_class():
    G = dihedral_group(3)
    classes = G.conjugacy_classes()
    # a single reflection is not a union of conjugacy classes
    one = next(c[:1] for c in classes if len(c) == 3)
    with pytest.raises(ModularMethodError, match="union of conjugacy"):
        _structure_constants(G, one)
    # on a true class the sparse counts are the structure constants
    const = _structure_constants(G, classes[1])
    assert sum(const.get((0, k), 0) * len(classes[k])
               for k in range(len(classes))) == len(classes[1])


def test_coset_profile_rejects_inconsistent_subgroups():
    G = dihedral_group(3)
    whole = frozenset(range(G.order))
    involution = next(x for x in range(G.order) if G.element_order(x) == 2)
    hsub = frozenset({0, involution})
    not_subgroup = frozenset(
        [0] + [x for x in range(G.order) if G.element_order(x) == 2][:2])
    assert G.closure(not_subgroup) != not_subgroup
    with pytest.raises(ExactCheckError, match=r"\(e, f\)"):
        local_ef(whole, not_subgroup, hsub)
    with pytest.raises(ExactCheckError):
        local_ef(whole, frozenset({1}), frozenset({0}))
