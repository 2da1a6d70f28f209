import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import cyclotomic_poly, divisors

from krel import relations
from krel.characters import (
    character_table,
    inner_product,
    perm_character,
    rational_irreducibles,
)
from krel.exactmath import (CycNumber, ExactCheckError, FactorBoundError,
                            hermite_row_basis, is_norm_from_quadratic,
                            norm_obstruction, smith_normal_form, snf_solve)
from krel.groups import (
    alternating4_group,
    burnside_ind,
    burnside_res,
    burnside_project,
    cyclic_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
    subgroup_as_group,
)
from krel.harness import (MetacyclicSpec, build_metacyclic,
                          quadratic_probe_fields)
from krel.curvelocal import decomposition_pair_problem, local_ef
from krel.relations import (
    BRAUER,
    _multiplicity_rows,
    brauer_basis,
    eval_on_theta,
    find_norm_relation,
    is_brauer_relation,
    is_k_relation,
    is_trivial_on_k_relations,
    k_relation_basis,
    psi_d,
)

from character_oracles import galois_orbit
from local_functions import local_fn
from test_lift_and_lattice import TABLE_GROUPS
from test_parity import WALK_GROUPS

SAMPLE = {}


def sample(name):
    if not SAMPLE:
        SAMPLE.update({
            "S3": group_from_cycles(3, ["(1 2)", "(1 2 3)"], name="S3"),
            "C4": cyclic_group(4),
            "C5": cyclic_group(5),
            "C6": cyclic_group(6),
            "C12": cyclic_group(12),
            "Q8": quaternion_group(),
            "A4": alternating4_group(),
            "D21": dihedral_group(21),
        })
    return SAMPLE[name]


S3_RELATION = {"1.1": 1, "2.1": -2, "3.1": -1, "6.1": 2}
D21_THETA = {"2.1": 1, "6.1": -1, "14.1": -1, "42.1": 1}

ONE = CycNumber.from_rational(1)


def value_order(v, cap=64):
    acc = v
    for t in range(1, cap + 1):
        if acc == ONE:
            return t
        acc = acc * v
    raise AssertionError("no finite order found")


def linear_char_of_order(G, n):
    gcls = next(i for i, cls in enumerate(G.conjugacy_classes())
                if G.element_order(cls[0]) == G.exponent())
    for chi in character_table(G).irreducibles:
        if chi.degree() == 1 and value_order(chi.values[gcls]) == n:
            return chi
    raise AssertionError(f"no linear character of order {n}")


def theta_perm_character(G, theta):
    total = None
    for cid, coeff in theta.items():
        pc = coeff * perm_character(G, G.subgroup_class_by_id(cid).representative)
        total = pc if total is None else total + pc
    return total


# ---------------------------------------------------------------------------
# psi_d


def test_psi_d_examples():
    assert psi_d(6, 6) == {"1.1": 1, "2.1": -1, "3.1": -1, "6.1": 1}
    assert psi_d(5, 1) == {"5.1": 1}
    assert psi_d(12, 1) == {"12.1": 1}
    for p in (2, 3, 7):
        assert psi_d(p, p) == {"1.1": 1, f"{p}.1": -1}
    with pytest.raises(ValueError):
        psi_d(6, 4)


@pytest.mark.parametrize("n", [6, 12])
def test_psi_d_picks_out_characters_of_order_d(n):
    G = sample(f"C{n}")
    gcls = next(i for i, cls in enumerate(G.conjugacy_classes())
                if G.element_order(cls[0]) == n)
    table = character_table(G)
    for d in divisors(n):
        pc = theta_perm_character(G, psi_d(n, d))
        for chi in table.irreducibles:
            expected = 1 if value_order(chi.values[gcls]) == d else 0
            assert inner_product(pc, chi) == expected


# ---------------------------------------------------------------------------
# Brauer relations


def test_s3_brauer_relation():
    S3 = sample("S3")
    assert is_brauer_relation(S3, S3_RELATION)
    assert is_brauer_relation(S3, {k: 3 * v for k, v in S3_RELATION.items()})
    assert not is_brauer_relation(S3, {"1.1": 1, "2.1": -2, "3.1": -1, "6.1": 1})
    assert is_brauer_relation(S3, {})


def test_cyclic_groups_have_no_brauer_relations():
    rng = random.Random(20260816)
    for name in ("C4", "C6", "C12"):
        G = sample(name)
        ids = [c.id for c in G.subgroup_classes()]
        for _ in range(8):
            theta = {cid: rng.randint(-3, 3) for cid in ids}
            if any(theta.values()):
                assert not is_brauer_relation(G, theta)
        assert brauer_basis(G).rank == 0


def test_brauer_basis_rank_counts_non_cyclic_classes():
    for name, rank in [("C5", 0), ("S3", 1), ("Q8", 1), ("A4", 2), ("D21", 3)]:
        G = sample(name)
        lat = brauer_basis(G)
        assert lat.rank == rank
        assert lat.rank == sum(1 for c in G.subgroup_classes() if not c.is_cyclic)
        for b in lat.basis:
            assert is_brauer_relation(G, b)
            assert theta_perm_character(G, b) == 0 * perm_character(
                G, frozenset({0}))


def test_s3_relation_spans_the_brauer_lattice():
    S3 = sample("S3")
    lat = brauer_basis(S3)
    assert lat.contains(S3_RELATION)
    assert not lat.contains({"1.1": 1})
    # membership cross-check through an integer linear solve
    cols = [[b.get(c.id, 0) for b in lat.basis] for c in S3.subgroup_classes()]
    target = [S3_RELATION.get(c.id, 0) for c in S3.subgroup_classes()]
    assert snf_solve(cols, target, smith_normal_form(cols)).minimal_m == 1


# ---------------------------------------------------------------------------
# K-relations


def test_c4_example_reduces_to_multiplicity_parity():
    C4 = sample("C4")
    theta = {"1.1": 1, "2.1": -1}
    # independent route: the virtual character is chi + chi^3 for chi of
    # order 4, so multiplicities are 0 on the rational characters and 1 on
    # the pair generating Q(i)
    pc = theta_perm_character(C4, theta)
    chi4 = linear_char_of_order(C4, 4)
    mults = [inner_product(pc, chi) for chi in character_table(C4).irreducibles]
    assert sorted(mults) == [0, 0, 1, 1]
    assert inner_product(pc, chi4) == 1
    assert is_k_relation(C4, theta, -1)
    assert not is_k_relation(C4, theta, -3)
    assert not is_k_relation(C4, theta, 5)


def test_d21_main_example_is_a_21_relation():
    D21 = sample("D21")
    assert is_k_relation(D21, D21_THETA, 21)
    assert not is_k_relation(D21, D21_THETA, 5)
    assert not is_k_relation(D21, D21_THETA, -21)


def test_brauer_relations_are_k_relations_for_every_field():
    S3 = sample("S3")
    for d in (-1, 2, -3, 5, 21):
        assert is_k_relation(S3, S3_RELATION, d)
    assert is_brauer_relation(S3, S3_RELATION)


def test_q8_c1_minus_center_works_for_all_quadratic_fields():
    Q8 = sample("Q8")
    theta = {"1.1": 1, "2.1": -1}
    for d in (-1, 2, -2, 3, -3, 5, -7, 21):
        assert is_k_relation(Q8, theta, d)
    assert not is_brauer_relation(Q8, theta)


def test_is_k_relation_validates_the_discriminant():
    C4 = sample("C4")
    with pytest.raises(ValueError):
        is_k_relation(C4, {"1.1": 2}, 1)
    with pytest.raises(ValueError):
        is_k_relation(C4, {"1.1": 2}, 12)


def lattice_membership_by_solver(G, lat, theta):
    cols = [[b.get(c.id, 0) for b in lat.basis] for c in G.subgroup_classes()]
    target = [theta.get(c.id, 0) for c in G.subgroup_classes()]
    try:
        return snf_solve(cols, target, smith_normal_form(cols)).minimal_m == 1
    except Exception:
        return False


@pytest.mark.parametrize("name,d", [
    ("C4", -1), ("C6", -3), ("Q8", -1), ("D21", 21), ("A4", -3),
])
def test_k_relation_lattice_has_full_rank(name, d):
    G = sample(name)
    lat = k_relation_basis(G, d)
    assert lat.rank == len(G.subgroup_classes())
    for b in lat.basis:
        assert is_k_relation(G, b, d)
    for c in G.subgroup_classes():
        doubled = {c.id: 2}
        assert lat.contains(doubled)
        assert lattice_membership_by_solver(G, lat, doubled)


def test_c4_lattice_contains_the_expected_elements():
    C4 = sample("C4")
    lat = k_relation_basis(C4, -1)
    theta = {"1.1": 1, "2.1": -1}
    assert lat.contains(theta)
    assert lattice_membership_by_solver(C4, lat, theta)
    assert not lat.contains({"1.1": 1})
    assert not lat.contains({"1.1": 1, "2.1": -1, "4.1": 1})


def test_d21_lattice_contains_the_main_theta():
    D21 = sample("D21")
    lat = k_relation_basis(D21, 21)
    assert lat.contains(D21_THETA)
    assert lattice_membership_by_solver(D21, lat, D21_THETA)


@pytest.mark.parametrize("name", ["S3", "C6", "Q8", "A4", "D21"])
def test_both_constructors_return_the_hermite_form(name):
    # KRelationLattice.contains compares against its basis as it stands
    G = sample(name)
    classes = G.subgroup_classes()
    for lat in [brauer_basis(G)] + [k_relation_basis(G, d)
                                    for d in (-1, 2, -3, 5)]:
        rows = [[b.get(c.id, 0) for c in classes] for b in lat.basis]
        assert hermite_row_basis(rows) == rows


def multiplicity_k_rule(G, theta, d):
    """The K-relation rule read from the multiplicities: each chi_j with
    [K : K ∩ Q(chi_j)] = 2 occurs an even number of times in the
    permutation character of theta."""
    mult = _multiplicity_rows(G)
    terms = [(mult[G.subgroup_class_by_id(cid).index], c)
             for cid, c in theta.items() if c]
    return all(sum(c * row[j] for row, c in terms) % 2 == 0
               for j, fd in enumerate(G.data.field_data)
               if fd.degree_factor(d) == 2)


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
def test_k_membership_matches_the_multiplicity_rule(name):
    # random theta, and each K-basis element with one odd unit added, over
    # the probe fields and every quadratic subfield of a character field
    G = WALK_GROUPS[name]()
    rng = random.Random(f"k-rule/{name}")
    ids = [c.id for c in G.subgroup_classes()]
    fields = {-1, 2, -3, 5}.union(*(fd.quadratic_subfields
                                     for fd in G.data.field_data))
    seen = set()
    for d in sorted(fields):
        thetas = [{cid: rng.randint(-3, 3)
                   for cid in rng.sample(ids, rng.randint(1, len(ids)))}
                  for _ in range(20)]
        for b in k_relation_basis(G, d).basis:
            unit = rng.choice(ids)
            thetas.append({**b, unit: b.get(unit, 0) + rng.choice((-1, 1))})
        for theta in thetas:
            got = is_k_relation(G, theta, d)
            assert got == multiplicity_k_rule(G, theta, d), (d, theta)
            seen.add(got)
    assert seen == {True, False}


def test_unknown_class_is_refused_at_any_nonzero_coefficient():
    # the rule reads odd coefficients only, but every term is looked up
    S3 = sample("S3")
    for theta in ({"1.1": 1, "5.9": 2}, {"5.9": -2}, {"5.9": 1}):
        with pytest.raises(KeyError, match="5.9"):
            is_k_relation(S3, theta, -1)
    assert is_k_relation(S3, {"1.1": 2, "5.9": 0}, -1)


def test_corrupt_k_relation_basis_is_refused(monkeypatch):
    real = relations.gf2_relation_lattice

    def halved(cond, s):
        # e_c for a pivot c keeps the leading column but breaks a parity
        return [{c: 1} if v == {c: 2} else v
                for c, v in enumerate(real(cond, s))]

    monkeypatch.setattr(relations, "gf2_relation_lattice", halved)
    # a fresh group: the shared sample may already keep its lattice
    S3 = group_from_cycles(3, ["(1 2)", "(1 2 3)"], name="S3")
    with pytest.raises(ExactCheckError, match="parity"):
        k_relation_basis(S3, -1)


def string_row_basis(G, d):
    """k_relation_basis as it was before the lattices were kept per set of
    conditions: each parity row rebuilt as a string, and the lattice
    reduced, for every d."""
    classes = G.subgroup_classes()
    s = len(classes)
    mult = G.data.multiplicity_rows
    cond = {int("".join(str(mult[i][j] & 1) for i in reversed(range(s))), 2)
            for j, fd in enumerate(G.data.field_data)
            if fd.degree_factor(d) == 2}
    rows = relations.gf2_relation_lattice(cond, s)
    return [{classes[i].id: c for i, c in v.items()} for v in rows], cond


@pytest.mark.parametrize("name", list(TABLE_GROUPS))
def test_kept_lattices_match_the_string_row_route(name):
    G = TABLE_GROUPS[name]()
    for d in quadratic_probe_fields(G):
        lat = k_relation_basis(G, d)
        want, _ = string_row_basis(G, d)
        assert lat.d == d and lat.group is G
        assert lat.basis == want
        assert lat.odd_masks == tuple(relations._odd_mask(G, theta)
                                      for theta in want)


def test_one_lattice_per_condition_set(monkeypatch):
    G = build_metacyclic(MetacyclicSpec(4, 3, -1))[0]  # order 32, cold
    fields = quadratic_probe_fields(G)
    conds = {frozenset(string_row_basis(G, d)[1]) for d in fields}
    calls = []
    real = relations.gf2_relation_lattice

    def counting(cond, s):
        calls.append(frozenset(cond))
        return real(cond, s)
    monkeypatch.setattr(relations, "gf2_relation_lattice", counting)
    for _ in range(2):
        for d in fields:
            k_relation_basis(G, d)
    assert sorted(calls, key=sorted) == sorted(conds, key=sorted)
    assert len(calls) < len(fields)


def test_returned_bases_are_fresh():
    G = dihedral_group(12)
    first = k_relation_basis(G, -1)
    want = [dict(b) for b in first.basis]
    # -1 and 2 give one condition set on D12: the character field is Q(sqrt 3)
    assert G.data.field_data[-1].quadratic_subfields == (3,)
    for b in first.basis:
        b.clear()
    first.basis.clear()
    again = k_relation_basis(G, 2)
    assert again.basis == want and again.d == 2
    assert k_relation_basis(G, -1).basis == want


# ---------------------------------------------------------------------------
# Norm relations


def orbit_sum(chi):
    total = None
    for member in galois_orbit(chi):
        total = member if total is None else total + member
    return total


def check_norm_relation(G, chi, m, theta):
    lhs = theta_perm_character(G, theta)
    rhs = m * orbit_sum(chi)
    assert lhs == rhs


def test_find_norm_relation_on_c6():
    C6 = sample("C6")
    chi6 = linear_char_of_order(C6, 6)
    m, theta = find_norm_relation(C6, chi6)
    assert (m, theta) == (1, psi_d(6, 6))
    check_norm_relation(C6, chi6, m, theta)


def test_find_norm_relation_on_d21():
    D21 = sample("D21")
    taus = rational_irreducibles(D21)
    tau = taus[4]
    assert tau.label == "tau_5"
    assert len(tau.orbit_indices) == 6
    assert tau.constituent.degree() == 2
    m, theta = find_norm_relation(D21, tau.constituent)
    assert (m, theta) == (1, D21_THETA)
    check_norm_relation(D21, tau.constituent, m, theta)


def test_find_norm_relation_on_q8_needs_multiplier_two():
    Q8 = sample("Q8")
    chi = next(c for c in character_table(Q8).irreducibles if c.degree() == 2)
    m, theta = find_norm_relation(Q8, chi)
    assert (m, theta) == (2, {"1.1": 1, "2.1": -1})
    check_norm_relation(Q8, chi, m, theta)
    # the multiplier is genuinely minimal: every multiplicity of chi in a
    # transitive permutation module is even, while the target is odd
    for cls in Q8.subgroup_classes():
        pc = perm_character(Q8, cls.representative)
        assert inner_product(pc, chi) % 2 == 0


def test_find_norm_relation_on_trivial_character():
    for name in ("S3", "C6"):
        G = sample(name)
        triv = character_table(G).irreducibles[0]
        assert triv.degree() == 1 and triv.is_rational()
        m, theta = find_norm_relation(G, triv)
        assert m == 1
        assert theta == {f"{G.order}.1": 1}


def test_find_norm_relation_rejects_non_irreducibles():
    C6 = sample("C6")
    doubled = character_table(C6).irreducibles[0] * 2
    with pytest.raises(ValueError):
        find_norm_relation(C6, doubled)


# ---------------------------------------------------------------------------
# Local functions


def whole(G):
    return frozenset(range(G.order))


def ef(e, f):
    return e * f


def index(e, f):
    return e


def test_localfn_validation():
    S3 = sample("S3")
    c2 = S3.subgroup_class_by_id("2.1").representative
    c3 = S3.subgroup_class_by_id("3.1").representative
    assert decomposition_pair_problem(S3, whole(S3), c2)[0] \
        == "inertia-normality"
    Q8 = sample("Q8")
    assert decomposition_pair_problem(Q8, whole(Q8), frozenset({0}))[0] \
        == "quotient-cyclic"
    assert decomposition_pair_problem(S3, c3, c2)[0] == "inertia-subgroup"
    assert decomposition_pair_problem(
        Q8, whole(Q8), Q8.subgroup_class_by_id("4.1").representative) is None


def test_eval_ef_at_trivial_subgroup_gives_group_order():
    S3 = sample("S3")
    c3 = S3.subgroup_class_by_id("3.1").representative
    fn = local_fn(S3, whole(S3), c3, ef)
    assert fn(frozenset({0})) == 6
    C6 = sample("C6")
    fn6 = local_fn(C6, whole(C6), frozenset({0}), ef)
    assert fn6("1.1") == 6


def test_eval_constant_on_psi_d_is_one():
    C6 = sample("C6")
    fn = local_fn(C6, whole(C6), frozenset({0}), lambda e, f: Fraction(7, 3))
    for d in (2, 3, 6):
        assert eval_on_theta(fn, C6, psi_d(6, d)) == 1
    assert eval_on_theta(fn, C6, psi_d(6, 1)) == Fraction(7, 3)


@pytest.mark.parametrize("n,ds", [(6, (2, 3, 6)), (4, (2, 4)), (12, (2, 3, 4, 6, 12))])
def test_index_function_on_psi_d_gives_cyclotomic_value(n, ds):
    G = cyclic_group(n)
    fn = local_fn(G, whole(G), whole(G), index)
    for d in ds:
        assert eval_on_theta(fn, G, psi_d(n, d)) == cyclotomic_poly(d, 1)


def test_coset_profile_internal_consistency():
    for name, did, iid in [("S3", "6.1", "3.1"), ("Q8", "4.1", "2.1"),
                           ("D21", "14.1", "7.1"), ("A4", "4.1", "2.1"),
                           ("D21", "21.1", "7.1")]:
        G = sample(name)
        dsub = G.subgroup_class_by_id(did).representative
        isub = G.subgroup_class_by_id(iid).representative
        for cls in G.subgroup_classes():
            for _, local in G.double_cosets(cls.representative, dsub):
                e, f = local_ef(dsub, isub, local)
                assert len(isub) % e == 0
                assert (len(dsub) // len(isub)) % f == 0


def test_localfn_values_are_exact():
    C6 = sample("C6")
    S3 = sample("S3")
    fn = local_fn(C6, whole(C6), whole(C6), lambda e, f: Fraction(e * f, 2))
    # one double coset, e = [G:H], f = 1
    assert fn("2.1") == Fraction(3, 2)
    assert fn(C6.subgroup_class_by_id("2.1")) == Fraction(3, 2)
    assert fn("6.1") == Fraction(1, 2)
    for bad in (lambda e, f: 0.5 * e, lambda e, f: "3"):
        with pytest.raises(TypeError):
            eval_on_theta(local_fn(C6, whole(C6), whole(C6), bad), C6,
                          {"1.1": 1})


def test_descent_to_smaller_inertia_for_product_functions():
    cases = [
        ("C12", "12.1", "6.1", ("1.1", "2.1", "3.1")),
        ("C6", "6.1", "3.1", ("1.1",)),
        ("D21", "21.1", "7.1", ("1.1",)),
    ]
    for name, did, iid, smaller in cases:
        G = sample(name)
        dsub = G.subgroup_class_by_id(did).representative
        isub = G.subgroup_class_by_id(iid).representative
        for psi in (ef, lambda e, f: 3, lambda e, f: 2 * e * f):
            fn = local_fn(G, dsub, isub, psi)
            for iid0 in smaller:
                isub0 = G.subgroup_class_by_id(iid0).representative
                assert isub0 < isub
                fn0 = local_fn(G, dsub, isub0, psi)
                for cls in G.subgroup_classes():
                    assert fn(cls) == fn0(cls)


# ---------------------------------------------------------------------------
# Triviality on K-relations


def test_index_function_is_trivial_on_cyclic_groups():
    for n in (4, 6, 12):
        G = cyclic_group(n)
        fn = local_fn(G, whole(G), whole(G), index)
        for d in (-1, -3, 5, 21, -7):
            assert is_trivial_on_k_relations(fn, G, d, k_relation_basis(G, d))


def test_constants_are_trivial():
    for name in ("C6", "S3", "Q8"):
        G = sample(name)
        isub = (G.subgroup_class_by_id("4.1").representative
                if name == "Q8" else
                G.subgroup_class_by_id("3.1").representative
                if name == "S3" else frozenset({0}))
        fn = local_fn(G, whole(G), isub, lambda e, f: Fraction(7))
        for d in (-1, -3, 5):
            assert is_trivial_on_k_relations(fn, G, d, k_relation_basis(G, d))


def test_cond_divides_with_a_cyclotomic_norm_ratio_is_trivial():
    C6 = sample("C6")
    # 3 = N(1 - zeta_3) is a norm from Q(zeta_3)
    fn = local_fn(C6, whole(C6), frozenset({0}),
                  lambda e, f: 3 if f % 3 == 0 else 1)
    for d in (-1, -3, 5, 21):
        assert is_trivial_on_k_relations(fn, C6, d, k_relation_basis(C6, d))
    C12 = sample("C12")
    # 2 = N(1 + i) is a norm from Q(zeta_4)
    fn4 = local_fn(C12, whole(C12), frozenset({0}),
                   lambda e, f: 2 if f % 4 == 0 else 1)
    for d in (-1, -3, 5):
        assert is_trivial_on_k_relations(fn4, C12, d,
                                         k_relation_basis(C12, d))


def test_even_index_branch_is_trivial():
    # the value f when 2 | f and 1 otherwise, assembled from coset data
    for name, did, iid in [("C6", "6.1", "1.1"), ("C12", "12.1", "1.1"),
                           ("D21", "14.1", "7.1")]:
        G = sample(name)
        dsub = G.subgroup_class_by_id(did).representative
        isub = G.subgroup_class_by_id(iid).representative

        def branchy(rep, G=G, dsub=dsub, isub=isub):
            val = Fraction(1)
            for _, local in G.double_cosets(rep, dsub):
                _, f = local_ef(dsub, isub, local)
                if f % 2 == 0:
                    val *= f
            return val

        for d in (-1, -3, 5, 21):
            assert is_trivial_on_k_relations(branchy, G, d,
                                             k_relation_basis(G, d))


def test_certificate_for_a_nontrivial_function():
    D21 = sample("D21")
    lat = k_relation_basis(D21, 21)

    def three_on_reflections(rep):
        cls = D21.classify_subgroup(frozenset(rep))
        return Fraction(3) if cls.id == "2.1" else Fraction(1)

    report = is_trivial_on_k_relations(three_on_reflections, D21, 21, lat)
    assert not report
    assert report.certificate is not None
    assert lat.contains(report.certificate)
    assert is_k_relation(D21, report.certificate, 21)
    assert not is_norm_from_quadratic(report.value, 21)
    # the failing value is not a local norm at 3 and at 7
    assert report.obstruction == norm_obstruction(report.value, 21)
    assert report.obstruction == frozenset({3, 7})
    # the motivating value: 3 on the main theta is not a norm from Q(sqrt 21)
    val = eval_on_theta(three_on_reflections, D21, D21_THETA)
    assert val == 3
    assert not is_norm_from_quadratic(val, 21)


def reference_triviality(f, G, d, lattice):
    """The triviality test as one rational product per basis element,
    norm-tested as a whole: the oracle for the per-class obstruction sets."""
    values = {cls.id: Fraction(f(cls.representative))
              for cls in G.subgroup_classes()}
    for theta in lattice.basis:
        val = Fraction(1)
        for cid, coeff in theta.items():
            val *= values[cid] ** coeff
        if not is_norm_from_quadratic(val, d):
            return False, dict(theta), val
    return True, None, None


REFERENCE_GROUPS = {
    "S3": lambda: sample("S3"),
    "D4": functools.cache(lambda: dihedral_group(4)),
    "Q8": lambda: sample("Q8"),
    "D21": lambda: sample("D21"),
    "C12:C4": functools.cache(lambda: metacyclic_group(12, 4, 5)),
}


@functools.cache
def reference_lattice(name, d):
    G = REFERENCE_GROUPS[name]()
    return G, k_relation_basis(G, d)


VALUE_POOL = tuple(Fraction(v) for v in (1, -1, 2, -2, 3, -3, 5, 7, 6, -21, 13)) \
    + (Fraction(1, 2), Fraction(-2, 3), Fraction(10, 7), Fraction(9, 4))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(REFERENCE_GROUPS)),
       st.sampled_from((-1, 2, -3, 5, 21)), st.booleans(), st.data())
def test_obstruction_sets_agree_with_the_rational_products(name, d, norms_only,
                                                           data):
    G, lat = reference_lattice(name, d)
    pool = [v for v in VALUE_POOL
            if not norms_only or is_norm_from_quadratic(v, d)]
    ids = [cls.id for cls in G.subgroup_classes()]
    table = dict(zip(ids, data.draw(st.lists(st.sampled_from(pool),
                                             min_size=len(ids),
                                             max_size=len(ids)))))

    def f(rep):
        return table[G.classify_subgroup(frozenset(rep)).id]

    report = is_trivial_on_k_relations(f, G, d, lat)
    trivial, certificate, value = reference_triviality(f, G, d, lat)
    assert (report.trivial, report.certificate, report.value) == (
        trivial, certificate, value)
    if norms_only:
        assert report.trivial
    if not trivial:
        assert report.obstruction == norm_obstruction(value, d)
    else:
        assert report.obstruction is None


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_failing_reports_agree_with_the_rational_products(name):
    # the bit-mask test names the same first failing theta, the same value
    # and the obstruction set of that value, on every reference group
    rng = random.Random(name)
    failures = 0
    for d in (-1, 2, -3, 5, 21):
        G, lat = reference_lattice(name, d)
        ids = [cls.id for cls in G.subgroup_classes()]
        for _ in range(12):
            table = {cid: rng.choice(VALUE_POOL) for cid in ids}

            def f(rep, table=table):
                return table[G.classify_subgroup(frozenset(rep)).id]

            report = is_trivial_on_k_relations(f, G, d, lat)
            trivial, certificate, value = reference_triviality(f, G, d, lat)
            obstruction = None if trivial else norm_obstruction(value, d)
            assert (report.trivial, report.certificate, report.value,
                    report.obstruction) == (trivial, certificate, value,
                                            obstruction)
            failures += not trivial
    assert failures


def test_class_values_are_norm_tested_before_any_theta():
    # every class value is norm-tested on its own, so a zero value or one
    # with a prime beyond the factoring bound raises its named error
    C6 = sample("C6")
    lat = k_relation_basis(C6, -3)
    for bad, error in ((Fraction(0), ValueError),
                       (Fraction(1000003), FactorBoundError)):
        def f(rep, bad=bad):
            return bad if len(rep) == 6 else Fraction(1)
        with pytest.raises(error):
            is_trivial_on_k_relations(f, C6, -3, lat)


def test_triviality_report_validates_inputs():
    C6 = sample("C6")
    fn = local_fn(C6, whole(C6), whole(C6), index)
    lat = k_relation_basis(C6, -3)
    with pytest.raises(ValueError):
        is_trivial_on_k_relations(fn, C6, 5, lat)
    with pytest.raises(ValueError):
        is_trivial_on_k_relations(fn, C6, BRAUER, lat)


# ---------------------------------------------------------------------------
# Closure of K-relations under restriction, induction, projection


def push_to_standalone(G, dsub, sub, to_sub, theta_sub_lattice):
    out = {}
    for cid, coeff in theta_sub_lattice.items():
        rep = next(c.representative for c in G.sub_lattice(dsub) if c.id == cid)
        image = frozenset(to_sub[h] for h in rep)
        key = sub.classify_subgroup(image).id
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def pull_from_standalone(G, dsub, sub, to_sub, theta_standalone):
    back = {v: k for k, v in to_sub.items()}
    out = {}
    for cid, coeff in theta_standalone.items():
        rep = sub.subgroup_class_by_id(cid).representative
        image = frozenset(back[h] for h in rep)
        key = G.classify_in_lattice(dsub, image).id
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def random_lattice_elements(lat, rng, count=4):
    out = []
    for _ in range(count):
        theta = {}
        for b in rng.sample(lat.basis, k=min(3, len(lat.basis))):
            c = rng.randint(-2, 2)
            for cid, v in b.items():
                theta[cid] = theta.get(cid, 0) + c * v
        out.append({k: v for k, v in theta.items() if v})
    return out


@pytest.mark.parametrize("name,d,did,nid", [
    ("D21", 21, "6.1", "21.1"),
    ("Q8", -1, "4.1", "2.1"),
    ("A4", -3, "4.1", "4.1"),
])
def test_k_relations_close_under_res_ind_proj(name, d, did, nid):
    G = sample(name)
    rng = random.Random(hash((name, d)) & 0xFFFF)
    lat = k_relation_basis(G, d)
    dsub = G.subgroup_class_by_id(did).representative
    sub, to_sub = subgroup_as_group(G, dsub)
    nsub = G.subgroup_class_by_id(nid).representative
    thetas = list(lat.basis) + random_lattice_elements(lat, rng)
    for theta in thetas:
        assert is_k_relation(G, theta, d)
        res = burnside_res(G, theta, dsub)
        assert is_k_relation(sub, push_to_standalone(G, dsub, sub, to_sub, res), d)
        _, proj = burnside_project(G, theta, nsub)
        q, _ = G.quotient_group(nsub)
        assert is_k_relation(q, proj, d)
    # induction goes the other way: start from relations of the subgroup
    for theta_s in k_relation_basis(sub, d).basis:
        theta_lat = pull_from_standalone(G, dsub, sub, to_sub, theta_s)
        induced = burnside_ind(G, dsub, theta_lat)
        assert is_k_relation(G, induced, d)


@pytest.mark.parametrize("bad", [lambda h: 0.5 * len(h), lambda h: 0.1,
                                 lambda h: "3"],
                         ids=["half_order", "tenth", "string"])
def test_inexact_class_values_raise_type_error(bad):
    S3 = sample("S3")
    lat = k_relation_basis(S3, -1)
    theta = lat.basis[0]
    with pytest.raises(TypeError):
        is_trivial_on_k_relations(bad, S3, -1, lat)
    with pytest.raises(TypeError):
        eval_on_theta(bad, S3, theta)
    with pytest.raises(TypeError):
        norm_obstruction(0.5, -1)


def test_int_and_fraction_class_values_are_accepted():
    S3 = sample("S3")
    for d in (-1, 2, -3, 5):
        lat = k_relation_basis(S3, d)
        theta = lat.basis[0]
        as_int = is_trivial_on_k_relations(lambda h: len(h), S3, d, lat)
        as_frac = is_trivial_on_k_relations(lambda h: Fraction(len(h)), S3, d,
                                            lat)
        assert as_int.trivial == as_frac.trivial
        assert as_int.certificate == as_frac.certificate
        assert as_int.value == as_frac.value
        assert eval_on_theta(lambda h: len(h), S3, theta) \
            == eval_on_theta(lambda h: Fraction(len(h)), S3, theta)
