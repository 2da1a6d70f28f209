import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from krel import characters
from krel.characters import (
    ModularMethodError,
    _check_orthogonality,
    _conjugate_lines,
    _eigenspaces,
    _krylov_poly,
    _roots,
    _split_space,
    _structure_constants,
    char_field_data,
    character_table,
    fs_indicator,
    inner_product,
    perm_character,
    rational_irreducibles,
)
from krel.exactmath import CycNumber
from krel.groups import (
    PermGroup,
    alternating4_group,
    cyclic_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
)

from character_oracles import galois_orbit, orbit_sum

_CACHE = {}


def G(name):
    if name not in _CACHE:
        _CACHE[name] = {
            "S3": lambda: group_from_cycles(3, ["(1 2)", "(1 2 3)"], name="S3"),
            "C3": lambda: cyclic_group(3),
            "C4": lambda: cyclic_group(4),
            "C5": lambda: cyclic_group(5),
            "C6": lambda: cyclic_group(6),
            "C8": lambda: cyclic_group(8),
            "Q8": quaternion_group,
            "A4": alternating4_group,
            "D21": lambda: dihedral_group(21),
            "F21": lambda: metacyclic_group(7, 3, 2),
        }[name]()
    return _CACHE[name]


def table(name):
    return character_table(G(name))


def degrees(name):
    return sorted(int(chi.degree()) for chi in table(name).irreducibles)


# ---------------------------------------------------------------------------
# Hand-built small tables as oracles


def test_s3_table_matches_hand_table():
    t = table("S3")
    assert degrees("S3") == [1, 1, 2]
    # classes ordered: identity, transpositions, 3-cycles
    got = {tuple(v.rational_value() for v in chi.values)
           for chi in t.irreducibles}
    assert got == {(1, 1, 1), (1, -1, 1), (2, 0, -1)}
    assert t.irreducibles[0].values[1].rational_value() == 1  # trivial first


def test_c4_table():
    t = table("C4")
    assert degrees("C4") == [1, 1, 1, 1]
    i = CycNumber.zeta(4)
    faithful = [chi for chi in t.irreducibles if not chi.is_rational()]
    assert len(faithful) == 2
    vals = {chi.values[2] == i or chi.values[2] == i.conjugate()
            for chi in faithful}
    assert vals == {True}


def test_q8_table():
    t = table("Q8")
    assert degrees("Q8") == [1, 1, 1, 1, 2]
    two = t.irreducibles[-1]
    assert int(two.degree()) == 2
    rat = [v.rational_value() for v in two.values]
    # classes: 1, -1, then the three C4 axes
    assert rat == [2, -2, 0, 0, 0]


def test_d21_table_shape():
    t = table("D21")
    ds = degrees("D21")
    assert ds.count(1) == 2 and ds.count(2) == 10 and len(ds) == 12


def test_a4_and_f21_degrees():
    assert degrees("A4") == [1, 1, 1, 3]
    assert degrees("F21") == [1, 1, 1, 3, 3]


def test_degree_squares_sum():
    for name in ["S3", "C4", "Q8", "A4", "D21", "F21", "C6"]:
        t = table(name)
        assert sum(int(chi.degree()) ** 2
                   for chi in t.irreducibles) == t.group.order


def test_column_orthogonality_exact():
    for name in ["S3", "C4", "Q8", "A4", "C6", "F21"]:
        t = table(name)
        r = len(t.class_sizes)
        for i in range(r):
            for j in range(r):
                tot = CycNumber.from_rational(0)
                for chi in t.irreducibles:
                    tot = tot + chi.values[i] * chi.values[j].conjugate()
                want = Fraction(t.group.order, t.class_sizes[i]) if i == j \
                    else Fraction(0)
                assert tot.rational_value() == want


def test_d77_table_builds_and_verifies():
    t = character_table(dihedral_group(77))
    ds = sorted(int(chi.degree()) for chi in t.irreducibles)
    assert ds.count(1) == 2 and ds.count(2) == 38


# ---------------------------------------------------------------------------
# Permutation characters


def test_perm_character_s3_c2():
    g = G("S3")
    c2 = g.subgroup_class_by_id("2.1").representative
    chi = perm_character(g, c2)
    assert [v.rational_value() for v in chi.values] == [3, 1, 0]


def test_perm_character_extremes():
    g = G("S3")
    full = frozenset(range(6))
    chi = perm_character(g, full)
    assert all(v.rational_value() == 1 for v in chi.values)
    c2 = cyclic_group(2)
    reg = perm_character(c2, frozenset({0}))
    assert [v.rational_value() for v in reg.values] == [2, 0]


def test_perm_character_decomposition():
    """Nonnegative integer multiplicities; trivial shows up once."""
    for name in ["S3", "Q8", "A4", "D21"]:
        g = G(name)
        t = table(name)
        for cls in g.subgroup_classes():
            pc = perm_character(g, cls.representative)
            for chi in t.irreducibles:
                m = inner_product(pc, chi)
                assert m.denominator == 1 and m >= 0
            assert inner_product(pc, t.irreducibles[0]) == 1


def test_perm_character_multiplicity_orbit_constant():
    g = G("D21")
    t = table("D21")
    for cls in g.subgroup_classes():
        pc = perm_character(g, cls.representative)
        for chi in t.irreducibles:
            mult = inner_product(pc, chi)
            for sib in galois_orbit(chi):
                assert inner_product(pc, sib) == mult


# ---------------------------------------------------------------------------
# Inner products, indicators


def test_inner_product_orthonormality():
    t = table("D21")
    for a, chi in enumerate(t.irreducibles):
        assert inner_product(chi, chi) == 1
        for b in range(a):
            assert inner_product(t.irreducibles[b], chi) == 0


def test_fs_indicator_values():
    t = table("Q8")
    assert fs_indicator(t.irreducibles[0]) == 1
    two = t.irreducibles[-1]
    assert fs_indicator(two) == -1
    c3 = table("C3")
    nontriv = [chi for chi in c3.irreducibles if not chi.is_rational()]
    assert all(fs_indicator(chi) == 0 for chi in nontriv)


def test_fs_constant_on_orbits():
    for name in ["C6", "D21", "F21"]:
        for chi in table(name).irreducibles:
            fs = fs_indicator(chi)
            assert all(fs_indicator(s) == fs for s in galois_orbit(chi))


# ---------------------------------------------------------------------------
# Galois orbits and rational characters


def test_c6_faithful_orbit():
    t = table("C6")
    faithful = next(chi for chi in t.irreducibles
                    if char_field_data(chi).field_degree == 2
                    and chi.values[t.group.class_of(
                        t.group.element_index(tuple((i + 1) % 6
                                                    for i in range(6))))]
                    == CycNumber.zeta(6))
    orbit = galois_orbit(faithful)
    assert len(orbit) == 2
    assert any(o == faithful.galois(5) for o in orbit)


def test_rational_of_rational_is_singleton():
    t = table("S3")
    for chi in t.irreducibles:
        assert len(galois_orbit(chi)) == 1


def test_d21_rational_irreducibles():
    rats = rational_irreducibles(G("D21"))
    assert [r.label for r in rats] == ["tau_1", "tau_2", "tau_3", "tau_4",
                                       "tau_5"]
    dims = [int(orbit_sum(r).degree()) for r in rats]
    assert dims == [1, 1, 2, 6, 12]
    sizes = [len(r.orbit_indices) for r in rats]
    assert sizes == [1, 1, 1, 3, 6]
    for r in rats:
        assert orbit_sum(r).is_rational()


def test_cp_rational_entries():
    rats = rational_irreducibles(G("C5"))
    assert len(rats) == 2
    assert int(orbit_sum(rats[1]).degree()) == 4


def test_rational_exhausts_table():
    for name in ["S3", "C4", "Q8", "A4", "D21", "F21"]:
        rats = rational_irreducibles(G(name))
        total = sum(len(r.orbit_indices) for r in rats)
        assert total == len(table(name).irreducibles)


# ---------------------------------------------------------------------------
# Character fields


def test_d21_faithful_field():
    rats = rational_irreducibles(G("D21"))
    sigma21 = rats[4]
    data = char_field_data(sigma21.constituent)
    assert data.quadratic_subfields == (21,)
    assert data.field_degree == 6
    assert data.degree_factor(21) == 1
    assert data.degree_factor(-3) == 2
    assert data.degree_factor(1) == 1


def test_c4_field():
    t = table("C4")
    faithful = next(chi for chi in t.irreducibles if not chi.is_rational())
    assert char_field_data(faithful).quadratic_subfields == (-1,)


def test_c8_field():
    t = table("C8")
    faithful = next(chi for chi in t.irreducibles
                    if char_field_data(chi).field_degree == 4)
    subs = set(char_field_data(faithful).quadratic_subfields)
    assert subs == {-1, 2, -2}


def test_stabilizer_is_subgroup():
    for name in ["D21", "C8", "F21"]:
        e = G(name).exponent()
        for chi in table(name).irreducibles:
            stab = char_field_data(chi).stabilizer
            assert 1 in stab
            for a in stab:
                for b in stab:
                    assert (a * b) % e in stab


def test_galois_orbit_sum_rational():
    for name in ["C6", "D21", "F21", "C8"]:
        for chi in table(name).irreducibles:
            orbit = galois_orbit(chi)
            total = orbit[0]
            for o in orbit[1:]:
                total = total + o
            assert total.is_rational()


# ---------------------------------------------------------------------------
# The eigenspace helper of the split and the packed orthogonality check


def _is_eigenvector(mat, lam, v, p):
    return all((sum(x * y for x, y in zip(row, v)) - lam * v[a]) % p == 0
               for a, row in enumerate(mat))


def test_eigenspaces_reject_a_jordan_block():
    with pytest.raises(ModularMethodError, match="not diagonalizable"):
        _eigenspaces([[3, 1], [0, 3]], 7)


def test_eigenspaces_reach_what_the_first_sequence_misses():
    # e_0 is an eigenvector of diag(1, 2): its Krylov sequence sees only 1
    assert _eigenspaces([[1, 0], [0, 2]], 7) == [(1, ([[1, 0]], [0])),
                                                 (2, ([[0, 1]], [1]))]


def test_eigenspaces_keep_a_repeated_eigenvalue_whole():
    p = 11
    mat = [[2, 1, 0], [0, 3, 0], [0, 0, 2]]
    got = _eigenspaces(mat, p)
    assert [(lam, len(kern), free) for lam, (kern, free) in got] == [
        (2, 2, [0, 2]), (3, 1, [1])]
    assert all(_is_eigenvector(mat, lam, v, p)
               for lam, (kern, _) in got for v in kern)


IDENTITY = {n: [[int(a == b) for b in range(n)] for a in range(n)]
            for n in range(1, 7)}


@st.composite
def diagonalizable(draw):
    """(p, M, D, lam) with M = P D P^-1 over GF(p) and D diagonal: D has a
    repeated entry and the entry lam once, and column 0 of P^-1 is 0 at
    lam's row, so e_0 has no part in lam's eigenspace."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.integers(3, 6))
    values = st.integers(0, p - 1)
    repeated = draw(values)
    others = draw(st.lists(values, min_size=n - 3, max_size=n - 3))
    lam = draw(st.sampled_from(sorted(set(range(p)) - {repeated, *others})))
    diag = [repeated, *others, lam, repeated]
    pinv = Matrix(n, n, lambda a, b: 0 if (a, b) == (n - 2, 0)
                  else draw(values))
    assume(pinv.det() % p)
    mat = pinv.inv_mod(p) * Matrix.diag(*diag) * pinv
    return p, [[int(x) % p for x in mat.row(a)] for a in range(n)], diag, lam


@settings(max_examples=60, deadline=None)
@given(diagonalizable())
def test_split_space_returns_exactly_the_eigenspaces(case):
    p, mat, diag, missed = case
    n = len(mat)
    assert missed not in _roots(_krylov_poly(mat, 0, p), p)
    # on the whole space img[a][t], coordinate a of M e_t, is mat itself
    got = _split_space(IDENTITY[n], list(range(n)), mat, p)
    assert [(lam, len(rows)) for lam, (rows, _) in got] == sorted(
        Counter(diag).items())
    for lam, (rows, pivots) in got:
        assert all(_is_eigenvector(mat, lam, v, p) for v in rows)
        assert [[v[c] for c in pivots] for v in rows] == IDENTITY[len(rows)]


def test_split_space_rejects_a_jordan_block():
    # e_0 has the polynomial (x - 3)^2: the kernel of M - 3 has one
    # dimension where the space has two
    with pytest.raises(ModularMethodError, match="not diagonalizable"):
        _split_space(IDENTITY[2], [0, 1], [[3, 0], [1, 3]], 7)


def test_split_space_rejects_a_jordan_block_behind_two_roots():
    # e_0 = u + w with M u = u, M w = 2w, and a Jordan chain M w' = 2w' +
    # w: e_0 has the polynomial (x - 1)(x - 2), but the kernels of M - 1
    # and M - 2 have 1 + 1 < 3 dimensions
    with pytest.raises(ModularMethodError, match="not diagonalizable"):
        _split_space(IDENTITY[3], [0, 1, 2],
                     [[1, 0, 0], [1, 2, 1], [0, 0, 2]], 7)


def test_split_space_sees_an_image_leave_the_space():
    # the space is spanned by e_0 and e_1 of GF(7)^3, and M e_0 = e_0 + e_2
    with pytest.raises(ModularMethodError, match="left the invariant"):
        _split_space([[1, 0, 0], [0, 1, 0]], [0, 1],
                     [[1, 0], [0, 2], [1, 0]], 7)


def test_orthogonality_check_accepts_an_orthonormal_set():
    # rows 0 and 2 head their orbits; row 1 is orthogonal to both
    rows = [([0, 1], [1, 1]), ([0, 1], [1, -1]), ([2], [1])]
    _check_orthogonality(rows, {0: [2, 2, 0], 2: [0, 0, 4]}, 4)


@pytest.mark.parametrize("rows", [
    # a head paired with an earlier head
    [([0], [1]), ([0, 1], [1, 1])],
    # a row that is not a head, off in a slot other than the first
    [([0], [1]), ([1], [1]), ([0, 1], [0, 1])],
    # the first head right in its own slot, off in the second
    [([0, 1], [1, 3]), ([1], [1])],
])
def test_orthogonality_check_sees_every_slot(rows):
    with pytest.raises(ModularMethodError, match="orthogonality"):
        _check_orthogonality(rows, {0: [4, 0], len(rows) - 1: [0, 4]}, 4)


def test_orthogonality_slots_are_wide_enough_for_a_signed_difference():
    # B = 2 * 2 = 4 = norm.  Row 0 reads -4 against its own target 4 and 1
    # in the slot of head 1: -4 - 4 = -2^3, so slots of bitlen(B) = 3 bits
    # would carry the 1 into a false match.  Row 1 is right.
    rows = [([0, 1], [1, 1]), ([2], [2])]
    with pytest.raises(ModularMethodError, match="orthogonality"):
        _check_orthogonality(rows, {0: [-2, -2, 0], 1: [2, -1, 2]}, 4)


# ---------------------------------------------------------------------------
# Closed forms that do not use the modular method, on large dihedral and
# elementary abelian groups; and what the eigenspace split asks of
# _eigenspaces


ORACLE_DIHEDRAL = (3, 4, 5, 6, 8, 15, 16, 32, 77, 128)
ORACLE_C2_RANKS = (1, 2, 3, 4, 5, 6)
ORACLE_CYCLIC = (12, 64, 128)


def elementary_abelian_2(k):
    gens = []
    for i in range(k):
        g = list(range(2 * k))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * k, gens, name=f"C2^{k}")


@pytest.fixture(scope="module")
def oracle_tables():
    """name -> (group, table, calls), each table computed fresh while the
    split is watched: calls["_eigenspaces"] says, per call, whether the matrix
    was scalar, calls["_structure_constants"] holds the class of each
    class-sum matrix built, and calls["_conjugate_lines"] holds each new
    line that the split reached."""
    groups = ([(f"D{n}", dihedral_group(n)) for n in ORACLE_DIHEDRAL]
              + [(f"C2^{k}", elementary_abelian_2(k)) for k in ORACLE_C2_RANKS]
              + [(f"C{n}", cyclic_group(n)) for n in ORACLE_CYCLIC])
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, group in groups:
            calls = {"_eigenspaces": [], "_structure_constants": [],
                     "_conjugate_lines": []}

            def watched(mat, p, calls=calls["_eigenspaces"]):
                lam = mat[0][0]
                calls.append(all(x == (lam if a == b else 0)
                                 for a, row in enumerate(mat)
                                 for b, x in enumerate(row)))
                return _eigenspaces(mat, p)

            def constants(G, cls, calls=calls["_structure_constants"]):
                calls.append(cls)
                return _structure_constants(G, cls)

            def lines(powers, om, calls=calls["_conjugate_lines"]):
                calls.append(om)
                return _conjugate_lines(powers, om)

            mp.setattr(characters, "_eigenspaces", watched)
            mp.setattr(characters, "_structure_constants", constants)
            mp.setattr(characters, "_conjugate_lines", lines)
            out[name] = (group, character_table(group), calls)
    return out


def exact_key(value, level):
    """The coefficients of value written at the given level, as integer
    pairs, which hash much faster than Fractions."""
    return tuple((c.numerator, c.denominator) for c in value.raised(level).coeffs)


def table_rows(group, table):
    """The table's value rows as a multiset, each value at its class's level."""
    levels = [group.element_order(c[0]) for c in group.conjugacy_classes()]
    return Counter(tuple(exact_key(v, n) for v, n in zip(chi.values, levels))
                   for chi in table.irreducibles)


def closed_form_rows(group, value_of, characters_):
    """The rows of value_of(chi, element, level) -> {power of zeta_level: c}
    over the given characters, as a multiset."""
    memo = {}
    out = Counter()
    reps = [(group.elements[c[0]], group.element_order(c[0]))
            for c in group.conjugacy_classes()]
    for chi in characters_:
        row = []
        for perm, level in reps:
            powers = value_of(chi, perm, level)
            key = (level, tuple(sorted(powers.items())))
            if key not in memo:
                memo[key] = exact_key(CycNumber.from_powers(level, powers),
                                      level)
            row.append(memo[key])
        out[tuple(row)] += 1
    return out


def dihedral_value(n):
    """chi(x) for D_n on Z/n: r is x -> x + 1 and x -> k - x is r^k s.

    chi is ("linear", a, b) with chi(r) = a, chi(s) = b, or ("2", h) with
    chi(r^k) = zeta_n^(hk) + zeta_n^(-hk) and chi = 0 on reflections."""
    def value(chi, perm, level):
        k = perm[0]
        rotation = (perm[1] - perm[0]) % n == 1
        if chi[0] == "linear":
            _, a, b = chi
            return {0: a ** k * (1 if rotation else b)}
        if not rotation:
            return {}
        # zeta_n^(hk) is zeta_level^(hk/g), g = n/level = gcd(n, k)
        j = chi[1] * (k // (n // level))
        return dict(Counter([j % level, -j % level]))
    return value


@pytest.mark.parametrize("n", ORACLE_DIHEDRAL)
def test_dihedral_table_matches_closed_form(oracle_tables, n):
    group, table, _ = oracle_tables[f"D{n}"]
    signs = [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else [])
    chars = ([("linear", a, b) for a, b in signs]
             + [("2", h) for h in range(1, (n - 1) // 2 + 1)])
    assert len(chars) == len(table.irreducibles)
    assert table_rows(group, table) == closed_form_rows(
        group, dihedral_value(n), chars)


@pytest.mark.parametrize("k", ORACLE_C2_RANKS)
def test_elementary_abelian_table_is_every_sign_vector(oracle_tables, k):
    group, table, _ = oracle_tables[f"C2^{k}"]

    def value(subset, perm, level):
        flips = sum(1 for i in range(k) if subset >> i & 1 and perm[2 * i] != 2 * i)
        return {0: (-1) ** flips}

    assert table_rows(group, table) == closed_form_rows(
        group, value, range(2 ** k))


@pytest.mark.parametrize("n", ORACLE_CYCLIC)
def test_cyclic_table_matches_closed_form(oracle_tables, n):
    # chi_a(x -> x + k) = zeta_n^(ak): every row is linear, and the rows
    # fall into one Galois orbit per divisor of n
    group, table, _ = oracle_tables[f"C{n}"]

    def value(a, perm, level):
        return {a * perm[0] // (n // level) % level: 1}

    assert table_rows(group, table) == closed_form_rows(group, value, range(n))
    assert len(rational_irreducibles(group)) == sum(
        1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("name, orbits", [("D128", 6), ("D77", 3)])
def test_split_reaches_one_line_per_galois_orbit(oracle_tables, name, orbits):
    # the degree-2 characters chi_h of D_n, 1 <= h < n/2, fall into one
    # orbit per divisor gcd(h, n) < n/2: 1, 2, 4, ..., 32 on D128 and 1, 7,
    # 11 on D77.  Every other line comes from a power map, with no split.
    group, _, calls = oracle_tables[name]
    assert sum(1 for tau in rational_irreducibles(group)
               if tau.constituent.degree() > 1) == orbits
    assert len(calls["_conjugate_lines"]) == orbits


@pytest.mark.parametrize("name, splits", [("D128", 20), ("D77", 4),
                                          ("C2^6", 0)])
def test_each_split_takes_one_eigenspace_sweep(oracle_tables, name, splits):
    group, _, calls = oracle_tables[name]
    if all(len(c) == 1 for c in group.conjugacy_classes()):
        # every character of an abelian group is linear, read from G/G':
        # nothing is split and no class-sum matrix is built
        assert calls == {"_eigenspaces": [], "_structure_constants": [],
                         "_conjugate_lines": []}
        return
    # one _eigenspaces call per split, D128's 20 and D77's 4, and none of
    # them is handed a scalar matrix
    calls = calls["_eigenspaces"]
    assert len(calls) == splits
    assert not any(calls)


def test_small_classes_are_tried_before_the_reflections(oracle_tables):
    # D128's reflections form two classes of 64, and both act on the
    # complement of the linear characters as 0: the split tries a class of
    # size 1 or 2 first, and never builds a reflection class's matrix
    _, _, calls = oracle_tables["D128"]
    sizes = [len(cls) for cls in calls["_structure_constants"]]
    assert sizes[0] <= 2
    assert 64 not in sizes


def _conjugates_patched(change):
    """_conjugate_lines with ``change`` applied to its first answer that
    has at least three lines, and the others left as they are."""
    done = []

    def patched(powers, om):
        lines = _conjugate_lines(powers, om)
        if done or len(lines) < 3:
            return lines
        done.append(om)
        return change(lines)
    return patched


def test_a_wrongly_relabelled_conjugate_row_is_rejected(monkeypatch):
    # the second conjugate's line is right, but its row is relabelled by the
    # third's unit: two rows agree, and one conjugate has no row
    def wrong_unit(lines):
        items = list(lines.items())
        (l1, _), (_, k2) = items[1], items[2]
        return {**lines, l1: k2}
    monkeypatch.setattr(characters, "_conjugate_lines",
                        _conjugates_patched(wrong_unit))
    with pytest.raises(ModularMethodError,
                       match="closed under the Galois action|orthogonality"):
        character_table(dihedral_group(32))


def test_a_dropped_conjugate_row_is_rejected(monkeypatch):
    # the split then reaches the dropped line as a new one, and finds its
    # other conjugates known already
    def dropped(lines):
        return dict(list(lines.items())[:-1])
    monkeypatch.setattr(characters, "_conjugate_lines",
                        _conjugates_patched(dropped))
    with pytest.raises(ModularMethodError,
                       match="closed under the Galois action|orthogonality"):
        character_table(dihedral_group(32))


def test_a_linear_row_bent_off_its_orbit_is_rejected(monkeypatch):
    # chi(g^-1), g the first class of its rational class, is moved on one
    # faithful linear character of C5: its multisets at the first classes
    # still name a Galois conjugate, but its value at g^-1 does not
    real = characters._linear_characters

    def bent(G):
        cosets, linear = real(G)
        first = G.data.rational_classes[1][0]
        c = G.class_of(G.inv(G.conjugacy_classes()[first][0]))
        linear[-1][c] = (linear[-1][c] + 1) % G.exponent()
        return cosets, linear

    monkeypatch.setattr(characters, "_linear_characters", bent)
    with pytest.raises(ModularMethodError,
                       match="closed under the Galois action|orthogonality"):
        character_table(cyclic_group(5))


def test_an_orbit_walk_that_meets_a_placed_row_is_rejected(monkeypatch):
    # with every stabiliser cut down to {1}, the walk from the trivial
    # character meets it again under every other unit; the table itself is
    # right, so only the closure check can object
    real = characters._galois_stabiliser
    monkeypatch.setattr(characters, "_galois_stabiliser",
                        lambda G, ms, memo: real(G, ms, memo)[:1])
    with pytest.raises(ModularMethodError,
                       match="closed under the Galois action"):
        character_table(dihedral_group(5))
