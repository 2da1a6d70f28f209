"""Regulator constants: permutation route, matrix route, and their interplay."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from appendix_places import DIHEDRAL_SPECS, appendix_places

from krel import regconst, relations
from krel.characters import ClassFunction, GroupData, character_table, \
    inner_product, perm_character, rational_irreducibles
from krel.exactmath import is_norm_from_quadratic, mat_mul, rat_det, \
    smith_normal_form, snf_solve
from krel.groups import (
    alternating4_group,
    burnside_add,
    burnside_res,
    cyclic_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
    subgroup_as_group,
    subgroup_rep,
)
from krel.regconst import (
    DegeneratePairingError,
    MatrixRep,
    invariant_pairing,
    matrix_fixed_det,
    minimal_perm_multiple,
    perm_fixed_det,
    perm_matrix_rep,
    reg_const_matrix,
    reg_const_perm,
    reg_const_rational_irr,
)
from krel.curvelocal import v_pairing
from krel.harness import (MetacyclicSpec, _v_fixed_det, build_metacyclic,
                          quadratic_probe_fields)
from test_double_coset_memo import naive_double_cosets

from krel.relations import eval_on_theta, is_trivial_on_k_relations, \
    k_relation_basis
from local_functions import local_fn
from character_oracles import orbit_sum

D21_THETA = {"2.1": 1, "6.1": -1, "14.1": -1, "42.1": 1}

# quaternion left multiplication by i and j on the basis (1, i, j, k)
QUAT_I = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
QUAT_J = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]


def identity_matrix(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def is_cyclic_class(G, cls):
    rep = cls.representative
    return any(G.element_order(x) == len(rep) for x in rep)


def same_mod_norms(a, b):
    """Do two regulator constants, each given as (value, d), agree modulo
    norms from their field?"""
    if a[1] != b[1]:
        raise ValueError("values live over different fields")
    return is_norm_from_quadratic(a[0] / b[0], a[1])


def virtual_character(G, rep):
    """The character of a virtual permutation module: the sum of its
    permutation characters with their coefficients."""
    total = 0 * perm_character(G, frozenset({0}))
    for cid, m in rep.items():
        total = total + m * perm_character(G, subgroup_rep(G, cid))
    return total


def matrix_character(rep):
    """The character of a matrix model: its traces on the classes."""
    G = rep.group
    return ClassFunction(G, tuple(
        sum(rep.at(cls[0])[i][i] for i in range(rep.dimension))
        for cls in G.conjugacy_classes()))


def tau_by_label(G, label):
    return next(t for t in rational_irreducibles(G) if t.label == label)


def random_lattice_elements(lat, rng, count=4):
    out = []
    for _ in range(count):
        theta = {}
        for b in rng.sample(lat.basis, k=min(3, len(lat.basis))):
            c = rng.randint(-2, 2)
            if c:
                theta = burnside_add(theta, {k: c * v for k, v in b.items()})
        out.append(theta)
    return out


def push_to_standalone(G, dsub, sub, to_sub, theta_sub_lattice):
    out = {}
    for cid, coeff in theta_sub_lattice.items():
        rep = next(c.representative for c in G.sub_lattice(dsub) if c.id == cid)
        image = frozenset(to_sub[h] for h in rep)
        key = sub.classify_subgroup(image).id
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# perm_fixed_det


def test_perm_fixed_det_s3_example():
    S3 = dihedral_group(3)
    assert perm_fixed_det(S3, "2.1", "2.1") == Fraction(1, 2)

    # independent oracle: the coset space of C_2 has three points, H-orbit
    # sums give a basis of the fixed space, and the scaled Gram determinant
    # is computed literally
    h = subgroup_rep(S3, "2.1")
    cosets, coset_of = [], {}
    for x in range(S3.order):
        if x in coset_of:
            continue
        k = len(cosets)
        cosets.append(x)
        for t in h:
            coset_of[S3.mul(x, t)] = k
    orbits = []
    placed = set()
    for k, x in enumerate(cosets):
        if k in placed:
            continue
        orb = {coset_of[S3.mul(g, x)] for g in h}
        placed |= orb
        orbits.append(orb)
    vecs = [[Fraction(j in orb) for j in range(len(cosets))] for orb in orbits]
    gram = [[Fraction(1, len(h)) * sum(a[i] * b[i] for i in range(len(cosets)))
             for b in vecs] for a in vecs]
    assert rat_det(gram) == Fraction(1, 2)


@pytest.mark.parametrize("maker", [
    lambda: dihedral_group(3), lambda: cyclic_group(6),
    quaternion_group, alternating4_group])
def test_perm_fixed_det_identities(maker):
    G = maker()
    classes = G.subgroup_classes()
    bottom, top = classes[0].id, classes[-1].id
    assert perm_fixed_det(G, bottom, bottom) == 1
    assert perm_fixed_det(G, top, top) == Fraction(1, G.order)
    assert perm_fixed_det(G, bottom, top) == 1


# ---------------------------------------------------------------------------
# minimal_perm_multiple


def test_minimal_perm_multiple_d21():
    G = dihedral_group(21)
    expected = {
        "tau_1": {"42.1": 1},
        "tau_2": {"21.1": 1, "42.1": -1},
        "tau_3": {"14.1": 1, "42.1": -1},
        "tau_4": {"6.1": 1, "42.1": -1},
        "tau_5": {"2.1": 1, "6.1": -1, "14.1": -1, "42.1": 1},
    }
    for t in rational_irreducibles(G):
        k, exp = minimal_perm_multiple(G, t)
        assert k == 1
        assert exp == expected[t.label]
        # the defining property, checked on characters
        assert virtual_character(G, exp) == orbit_sum(t)


def test_minimal_perm_multiple_q8():
    Q8 = quaternion_group()
    t = next(t for t in rational_irreducibles(Q8)
             if orbit_sum(t).degree() == 2)
    k, exp = minimal_perm_multiple(Q8, t)
    assert k == 2
    assert exp == {"1.1": 1, "2.1": -1}
    assert virtual_character(Q8, exp) == 2 * orbit_sum(t)


def test_minimal_perm_multiple_trivial_and_c4():
    S3 = dihedral_group(3)
    k, exp = minimal_perm_multiple(S3, tau_by_label(S3, "tau_1"))
    assert (k, exp) == (1, {"6.1": 1})

    C4 = cyclic_group(4)
    t = next(t for t in rational_irreducibles(C4)
             if orbit_sum(t).degree() == 2)
    k, exp = minimal_perm_multiple(C4, t)
    assert (k, exp) == (1, {"1.1": 1, "2.1": -1})


def test_minimal_perm_multiple_rejects_irrational():
    C4 = cyclic_group(4)
    t = next(t for t in rational_irreducibles(C4)
             if orbit_sum(t).degree() == 2)
    with pytest.raises(ValueError):
        minimal_perm_multiple(C4, t.constituent)


# ---------------------------------------------------------------------------
# reg_const_perm


def test_reg_const_perm_d21_golden():
    G = dihedral_group(21)
    raws = {}
    for t in rational_irreducibles(G):
        _, exp = minimal_perm_multiple(G, t)
        raws[t.label] = reg_const_perm(G, D21_THETA, exp, 21)
    assert raws["tau_1"] == 1
    assert raws["tau_2"] == 1
    assert raws["tau_3"] == 7
    assert raws["tau_4"] == 27
    assert raws["tau_5"] == Fraction(1, 189)
    # square classes modulo norms from Q(sqrt(21)): (1, 1, 1, 3, 3)
    for label in ("tau_1", "tau_2", "tau_3"):
        assert is_norm_from_quadratic(raws[label], 21)
    for label in ("tau_4", "tau_5"):
        assert not is_norm_from_quadratic(raws[label], 21)
        assert is_norm_from_quadratic(raws[label] / 3, 21)
    # dihedral p=3, q=7 pattern: value on the degree-(p-1) piece is q^((p-1)/2)
    assert raws["tau_3"] == 7 ** ((3 - 1) // 2)


def test_reg_const_perm_validates():
    G = dihedral_group(21)
    with pytest.raises(ValueError):
        reg_const_perm(G, {"2.1": 1, "42.1": -1}, {"42.1": 1}, 21)
    with pytest.raises(ValueError):
        reg_const_perm(G, D21_THETA, {"42.1": 1}, 20)
    v = reg_const_perm(G, {}, {"6.1": 3}, 21)
    assert v == 1 and is_norm_from_quadratic(v, 21)


def test_reg_const_value_field_mismatch():
    G = dihedral_group(21)
    Q8 = quaternion_group()
    a = reg_const_perm(G, D21_THETA, {"42.1": 1}, 21), 21
    b = reg_const_perm(Q8, {"1.1": 1, "2.1": -1}, {"8.1": 1}, -1), -1
    with pytest.raises(ValueError):
        same_mod_norms(a, b)


# ---------------------------------------------------------------------------
# reg_const_rational_irr routing


def test_rational_irr_odd_multiple_uses_perm_route():
    G = dihedral_group(21)
    v = reg_const_rational_irr(G, D21_THETA, tau_by_label(G, "tau_3"), 21)
    assert v == 7 and is_norm_from_quadratic(v, 21)

    # C_4: the faithful rational character has Frobenius-Schur indicator 0
    # on its constituent but k = 1, so the perm value must come back verbatim
    C4 = cyclic_group(4)
    t = next(t for t in rational_irreducibles(C4)
             if orbit_sum(t).degree() == 2)
    _, exp = minimal_perm_multiple(C4, t)
    direct = reg_const_perm(C4, {"1.1": 1, "2.1": -1}, exp, -1)
    routed = reg_const_rational_irr(C4, {"1.1": 1, "2.1": -1}, t, -1)
    assert routed == direct


def test_rational_irr_symplectic_gives_one():
    Q8 = quaternion_group()
    t = next(t for t in rational_irreducibles(Q8)
             if orbit_sum(t).degree() == 2)
    v = reg_const_rational_irr(Q8, {"1.1": 1, "2.1": -1}, t, -1)
    assert v == 1


def test_rational_irr_needs_constituent_on_even_multiple():
    Q8 = quaternion_group()
    t = next(t for t in rational_irreducibles(Q8)
             if orbit_sum(t).degree() == 2)
    with pytest.raises(ValueError):
        reg_const_rational_irr(Q8, {"1.1": 1, "2.1": -1}, orbit_sum(t), -1)


def q8_symplectic_tau():
    Q8 = quaternion_group()
    t = next(t for t in rational_irreducibles(Q8)
             if orbit_sum(t).degree() == 2)
    assert t.indicator == -1
    return Q8, t


def test_rational_irr_rejects_a_non_relation_on_both_routes():
    G = dihedral_group(21)
    tau = tau_by_label(G, "tau_3")
    assert minimal_perm_multiple(G, tau)[0] % 2 == 1
    with pytest.raises(ValueError):
        reg_const_rational_irr(G, {"1.1": 1}, tau, 21)
    Q8, t = q8_symplectic_tau()
    assert minimal_perm_multiple(Q8, t)[0] % 2 == 0
    with pytest.raises(ValueError):
        reg_const_rational_irr(Q8, {"1.1": 1}, t, -1)


def test_rational_irr_checks_the_relation_once(monkeypatch):
    calls = []
    real = relations.is_k_relation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relations, "is_k_relation", counted)
    monkeypatch.setattr(regconst, "is_k_relation", counted)
    G = dihedral_group(21)
    Q8, t = q8_symplectic_tau()
    for args in [(G, D21_THETA, tau_by_label(G, "tau_3"), 21),
                 (Q8, {"1.1": 1, "2.1": -1}, t, -1)]:
        calls.clear()
        reg_const_rational_irr(*args)
        assert len(calls) == 1


# the nine groups of the benchmark's global workload
ROUTE_GROUPS = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "D6": lambda: dihedral_group(6),
    "A4": alternating4_group,
    "D21": lambda: dihedral_group(21),
    "C3:C4": lambda: metacyclic_group(3, 4, 2),
    "S4": lambda: group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4"),
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
}


@pytest.mark.parametrize("name", sorted(ROUTE_GROUPS))
def test_kept_route_matches_the_direct_route(name):
    G = ROUTE_GROUPS[name]()
    checked = 0
    for d in (-1, 2, -3, 5):
        for theta in k_relation_basis(G, d).basis:
            for tau in rational_irreducibles(G):
                routed = reg_const_rational_irr(G, theta, tau, d)
                k, expansion = minimal_perm_multiple(G, tau)
                if k % 2 == 1:
                    assert routed == reg_const_perm(G, theta, expansion,
                                                    d), (d, theta, tau)
                    checked += 1
    assert checked > 0


def test_route_is_refused_for_a_tau_of_another_group():
    S3, D4 = dihedral_group(3, name="S3"), dihedral_group(4)
    theta = k_relation_basis(D4, -1).basis[0]
    # D4 keeps a norm relation at every orbit head that an S3 tau carries
    for tau in rational_irreducibles(D4):
        reg_const_rational_irr(D4, theta, tau, -1)
    for tau in rational_irreducibles(S3):
        with pytest.raises(ValueError, match="tau lives on a different group"):
            reg_const_rational_irr(D4, theta, tau, -1)


def test_a_mutated_expansion_changes_no_later_constant():
    G = dihedral_group(21)
    tau = tau_by_label(G, "tau_3")
    want = reg_const_rational_irr(G, D21_THETA, tau, 21)
    k, expansion = minimal_perm_multiple(G, tau)
    kept = dict(expansion)
    expansion.clear()
    expansion["1.1"] = 1
    assert minimal_perm_multiple(G, tau) == (k, kept)
    assert reg_const_rational_irr(G, D21_THETA, tau, 21) == want
    _, norm_theta = relations.find_norm_relation(G, tau.constituent)
    norm_theta["1.1"] = norm_theta.get("1.1", 0) + 5
    assert relations.find_norm_relation(G, tau.constituent)[1] == kept


@pytest.mark.parametrize("name", sorted(ROUTE_GROUPS))
def test_norm_relation_is_solved_once_per_galois_orbit(name, monkeypatch):
    solves = Counter()
    plain = GroupData.perm_multiple

    def counted(self, target):
        solves[target] += 1
        return plain(self, target)

    monkeypatch.setattr(GroupData, "perm_multiple", counted)
    G = ROUTE_GROUPS[name]()
    taus = rational_irreducibles(G)
    for _ in range(2):
        for chi in character_table(G).irreducibles:
            relations.find_norm_relation(G, chi)
        for tau in taus:
            minimal_perm_multiple(G, tau)
    assert sorted(G.data.norm_relations) == [t.constituent_index
                                             for t in taus]
    assert len(solves) == len(taus) and set(solves.values()) == {1}


def test_fixed_dets_are_kept_by_class_id_pairs():
    G = dihedral_group(21)
    reg_const_rational_irr(G, D21_THETA, tau_by_label(G, "tau_3"), 21)
    ids = {c.id for c in G.subgroup_classes()}
    assert G.data.fixed_dets
    for (hcid, dcid), det in G.data.fixed_dets.items():
        assert hcid in ids and dcid in ids
        cosets = G.double_cosets(subgroup_rep(G, hcid), subgroup_rep(G, dcid))
        assert det == Fraction(1, math.prod(len(l) for _, l in cosets))


# ---------------------------------------------------------------------------
# matrix models


def test_fixed_space_basis_in_a_skewed_regular_model():
    # the regular representation of S3 conjugated by a rational unipotent
    # upper triangular t: the projector's columns are no longer 0/1 orbit
    # vectors, so a new pivot clears its column in earlier basis vectors
    S3 = dihedral_group(3)
    reg = perm_matrix_rep(S3, "1.1")
    n = reg.dimension
    nil = [[Fraction(j - i, i + 2) if j > i else 0 for j in range(n)]
           for i in range(n)]
    t = [[x + (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(nil)]
    t_inv, power = identity_matrix(n), identity_matrix(n)
    for k in range(1, n):
        power = mat_mul(power, nil)
        t_inv = [[a + (-1) ** k * b for a, b in zip(row, prow)]
                 for row, prow in zip(t_inv, power)]
    assert mat_mul(t, t_inv) == identity_matrix(n)
    model = MatrixRep(S3, [mat_mul(mat_mul(t, m), t_inv)
                           for m in reg.images])
    for cls in S3.subgroup_classes():
        h = cls.representative
        basis = regconst._fixed_space_basis(model, h)
        pivots = [next(i for i, x in enumerate(v) if x) for v in basis]
        assert pivots == sorted(set(pivots))
        for v, p in zip(basis, pivots):
            assert v[p] == 1
            assert all(w[p] == 0 for w in basis if w is not v)
            for x in h:
                assert [sum(a * b for a, b in zip(row, v))
                        for row in model.at(x)] == v
        trace = sum(model.at(x)[i][i] for x in h for i in range(n))
        assert len(basis) == trace / len(h)


def test_matrix_rep_quaternion_model():
    Q8 = quaternion_group()
    rep = MatrixRep(Q8, [QUAT_I, QUAT_J])
    assert rep.dimension == 4
    vals = [v.rational_value() for v in matrix_character(rep).values]
    assert sorted(vals) == [-4, 0, 0, 0, 4]


def test_matrix_rep_rejects_bad_images():
    Q8 = quaternion_group()
    # right multiplication by j is an anti-homomorphism, not a homomorphism
    wrong_j = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(ValueError):
        MatrixRep(Q8, [QUAT_I, wrong_j])
    C3 = cyclic_group(3)
    with pytest.raises(ValueError):
        MatrixRep(C3, [[[Fraction(-1)]]])
    with pytest.raises(ValueError):
        MatrixRep(Q8, [QUAT_I])
    with pytest.raises(ValueError):
        MatrixRep(Q8, [QUAT_I, [[1, 0], [0, 1]]])


def test_matrix_rep_factoring_through_quotient_is_fine():
    # C_4 -> {+-1} kills the squares; a legal model, just not faithful
    C4 = cyclic_group(4)
    rep = MatrixRep(C4, [[[Fraction(-1)]]])
    assert rep.dimension == 1
    assert matrix_character(rep).is_rational()


@pytest.mark.parametrize("maker,cid", [
    (lambda: dihedral_group(3), "2.1"),
    (quaternion_group, "4.1"),
    (lambda: dihedral_group(21), "14.1"),
])
def test_perm_matrix_rep_character(maker, cid):
    G = maker()
    rep = perm_matrix_rep(G, cid)
    assert matrix_character(rep) == perm_character(G, subgroup_rep(G, cid))


def test_invariant_pairing_properties():
    Q8 = quaternion_group()
    rep = MatrixRep(Q8, [QUAT_I, QUAT_J])
    q = invariant_pairing(rep)
    n = rep.dimension
    assert all(q[i][j] == q[j][i] for i in range(n) for j in range(n))
    assert rat_det(q) != 0
    for g in range(Q8.order):
        m = rep.at(g)
        conj = [[sum(m[a][i] * q[a][b] * m[b][j] for a in range(n)
                     for b in range(n)) for j in range(n)] for i in range(n)]
        assert conj == q
    assert invariant_pairing(rep) == q
    # the quaternion matrices are signed permutations, so each term M_g^T M_g
    # is the identity
    assert q == [[8 * x for x in row] for row in identity_matrix(4)]


def test_pairing_validation():
    C2 = cyclic_group(2)
    rep = perm_matrix_rep(C2, "1.1")
    with pytest.raises(ValueError):
        reg_const_matrix({}, rep, [[0, 1], [2, 0]], -1)
    with pytest.raises(DegeneratePairingError):
        reg_const_matrix({}, rep, [[0, 0], [0, 0]], -1)
    with pytest.raises(ValueError):
        reg_const_matrix({}, rep, [[1, 0], [0, 2]], -1)  # not invariant
    with pytest.raises(ValueError):
        reg_const_matrix({}, rep, [[1]], -1)


def test_matrix_fixed_det_c2_regular():
    C2 = cyclic_group(2)
    rep = perm_matrix_rep(C2, "1.1")
    ident = identity_matrix(2)
    assert matrix_fixed_det(rep, ident, "2.1") == 1
    assert matrix_fixed_det(rep, ident, "1.1") == 1
    v = reg_const_matrix({"1.1": 2, "2.1": -2}, rep, ident, -1)
    assert v == 1


def test_reg_const_matrix_quaternion():
    Q8 = quaternion_group()
    rep = MatrixRep(Q8, [QUAT_I, QUAT_J])
    theta = {"1.1": 1, "2.1": -1}
    pairings = [identity_matrix(4), invariant_pairing(rep)]
    assert pairings[0] != pairings[1]
    v_id, v_inv = (reg_const_matrix(theta, rep, q, -1) for q in pairings)
    # the model carries the symplectic character twice, so the value is a
    # square no matter which pairing is used
    assert v_id == 1
    assert is_norm_from_quadratic(v_inv, -1) \
        and same_mod_norms((v_inv, -1), (v_id, -1))
    assert reg_const_matrix({}, rep, pairings[1], -1) == 1


def test_pairing_choice_is_invisible_mod_norms():
    G = dihedral_group(21)
    rep = perm_matrix_rep(G, "6.1")
    ident = identity_matrix(7)
    # I + J: the all-ones matrix J is invariant under every permutation
    plus_ones = [[x + 1 for x in row] for row in ident]
    pairings = [ident, plus_ones, invariant_pairing(rep)]
    assert len({tuple(map(tuple, q)) for q in pairings}) == 3
    values = [(reg_const_matrix(D21_THETA, rep, q, 21), 21) for q in pairings]
    for v in values[1:]:
        assert same_mod_norms(values[0], v)
    perm = reg_const_perm(G, D21_THETA, {"6.1": 1}, 21), 21
    assert same_mod_norms(values[0], perm)


@pytest.mark.parametrize("maker,d,cids", [
    (lambda: dihedral_group(21), 21, ["6.1", "14.1", "42.1"]),
    (quaternion_group, -1, ["2.1", "4.1", "8.1"]),
])
def test_matrix_and_perm_routes_agree(maker, d, cids):
    G = maker()
    lat = k_relation_basis(G, d)
    theta = lat.basis[0]
    for cid in cids:
        rep = perm_matrix_rep(G, cid)
        vm = reg_const_matrix(theta, rep, invariant_pairing(rep), d), d
        vp = reg_const_perm(G, theta, {cid: 1}, d), d
        assert same_mod_norms(vm, vp)


def test_virtual_matrix_route_d21():
    # sigma_7 = Q[G/S_3] - Q[G/G], evaluated one permutation model at a time
    G = dihedral_group(21)
    num, den = (reg_const_matrix(D21_THETA, rep, invariant_pairing(rep), 21)
                for rep in (perm_matrix_rep(G, "6.1"),
                            perm_matrix_rep(G, "42.1")))
    assert is_norm_from_quadratic(num / den / 27, 21)


# ---------------------------------------------------------------------------
# structural invariants


def test_multiplicative_in_theta_and_tau():
    G = dihedral_group(21)
    lat = k_relation_basis(G, 21)
    rng = random.Random(11)
    thetas = random_lattice_elements(lat, rng, count=3)
    tau1 = {"6.1": 1, "42.1": -1}
    tau2 = {"14.1": 2}
    for theta in thetas:
        a = reg_const_perm(G, theta, tau1, 21)
        b = reg_const_perm(G, theta, tau2, 21)
        both = burnside_add(tau1, tau2)
        assert reg_const_perm(G, theta, both, 21) == a * b
    t1, t2 = thetas[0], thetas[1]
    s = burnside_add(t1, t2)
    assert reg_const_perm(G, s, tau1, 21) == \
        reg_const_perm(G, t1, tau1, 21) * reg_const_perm(G, t2, tau1, 21)

    rep = perm_matrix_rep(G, "6.1")
    q = invariant_pairing(rep)
    assert reg_const_matrix(s, rep, q, 21) == \
        reg_const_matrix(t1, rep, q, 21) * reg_const_matrix(t2, rep, q, 21)


@pytest.mark.parametrize("maker,d", [
    (lambda: dihedral_group(21), 21),
    (quaternion_group, -1),
    (alternating4_group, -3),
])
def test_cyclic_perm_modules_are_norms(maker, d):
    G = maker()
    lat = k_relation_basis(G, d)
    cyclic = [c.id for c in G.subgroup_classes() if is_cyclic_class(G, c)]
    assert cyclic
    for theta in lat.basis:
        for cid in cyclic:
            assert is_norm_from_quadratic(
                reg_const_perm(G, theta, {cid: 1}, d), d)


def test_cyclic_group_everything_is_a_norm():
    C12 = cyclic_group(12)
    lat = k_relation_basis(C12, -3)
    for t in rational_irreducibles(C12):
        for theta in lat.basis:
            assert is_norm_from_quadratic(
                reg_const_rational_irr(C12, theta, t, -3), -3)


@pytest.mark.parametrize("d", [-7, 21])
def test_odd_order_everything_is_a_norm(d):
    F21 = metacyclic_group(7, 3, 2)
    lat = k_relation_basis(F21, d)
    for theta in lat.basis:
        for t in rational_irreducibles(F21):
            assert is_norm_from_quadratic(
                reg_const_rational_irr(F21, theta, t, d), d)
        for c in F21.subgroup_classes():
            assert is_norm_from_quadratic(
                reg_const_perm(F21, theta, {c.id: 1}, d), d)


@pytest.mark.parametrize("maker,d,hid,theta", [
    (lambda: dihedral_group(21), 21, "6.1", D21_THETA),
    (quaternion_group, -1, "4.1", {"1.1": 1, "2.1": -1}),
    (alternating4_group, -3, "4.1", None),
])
def test_induction_restriction_compatibility(maker, d, hid, theta):
    G = maker()
    if theta is None:
        theta = k_relation_basis(G, d).basis[0]
    hsub = subgroup_rep(G, hid)
    H, to_sub = subgroup_as_group(G, hsub)
    back = {v: k for k, v in to_sub.items()}
    res = push_to_standalone(G, hsub, H, to_sub, burnside_res(G, theta, hsub))
    for c in H.subgroup_classes():
        u_in_g = frozenset(back[x] for x in c.representative)
        lhs = reg_const_perm(G, theta, {G.classify_subgroup(u_in_g).id: 1},
                             d), d
        rhs = reg_const_perm(H, res, {c.id: 1}, d), d
        assert same_mod_norms(lhs, rhs)


def test_fixed_det_against_coset_counting():
    # H -> perm_fixed_det(G, H, D) differs from the index-times-residue
    # local count by the constant |D| on every double coset, so the ratio
    # is trivial on K-relations whenever D has a cyclic quotient
    G = dihedral_group(21)
    dsub = subgroup_rep(G, "6.1")
    isub = subgroup_rep(G, "3.1")
    fn = local_fn(G, dsub, isub, lambda e, f: e * f)
    const = local_fn(G, dsub, isub, lambda e, f: 6)

    def ratio(hrep):
        return fn(hrep) / perm_fixed_det(G, G.classify_subgroup(hrep).id,
                                         "6.1")

    for c in G.subgroup_classes():
        assert ratio(c.representative) == const(c.id)
    report = is_trivial_on_k_relations(ratio, G, 21, k_relation_basis(G, 21))
    assert report.trivial
    theta_value = eval_on_theta(ratio, G, D21_THETA)
    assert is_norm_from_quadratic(theta_value, 21)


# ---------------------------------------------------------------------------
# integral models stay exact: a Fraction-only oracle


def fraction_elements(G, images):
    """Every element's matrix, in Fractions, extended along the generators."""
    dim = len(images[0])
    imgs = [[[Fraction(x) for x in row] for row in m] for m in images]
    mats = {0: [[Fraction(i == j) for j in range(dim)] for i in range(dim)]}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(G.generator_indices, imgs):
                y = G.mul(g, x)
                if y not in mats:
                    mats[y] = [[sum((img[i][k] * mats[x][k][j]
                                     for k in range(dim)), Fraction(0))
                                for j in range(dim)] for i in range(dim)]
                    nxt.append(y)
        frontier = nxt
    return [mats[g] for g in range(G.order)]


def fraction_det(m):
    m = [list(row) for row in m]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            c = m[i][k] / m[k][k]
            m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    return det


def fraction_pairing(elements):
    """The sum of M_g^T M_g over the group, entry by entry in Fractions."""
    n = len(elements[0])
    return [[sum((Fraction(m[k][i]) * m[k][j]
                  for m in elements for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def fraction_fixed_det(elements, pairing, hrep):
    """det((1/|H|) pairing) on the fixed space of H, in the reduced echelon
    basis of that space."""
    n = len(elements[0])
    rows = [[sum((elements[h][j][i] for h in hrep), Fraction(0))
             for j in range(n)] for i in range(n)]  # the projector's columns
    basis = []
    for r in rows:
        for b in basis:
            p = next(k for k, x in enumerate(b) if x)
            r = [x - r[p] * y for x, y in zip(r, b)]
        p = next((k for k, x in enumerate(r) if x), None)
        if p is None:
            continue
        r = [x / r[p] for x in r]
        basis = [[x - b[p] * y for x, y in zip(b, r)] for b in basis] + [r]
    basis.sort(key=lambda b: next(k for k, x in enumerate(b) if x))
    if not basis:
        return Fraction(1)
    gram = [[sum((a[i] * pairing[i][j] * b[j] for i in range(n)
                  for j in range(n)), Fraction(0)) / len(hrep)
             for b in basis] for a in basis]
    return fraction_det(gram)


def dihedral_v_rep(G, e, rotation, frobenius):
    """The four-dimensional matrix model of V = 1 + eta + sigma on the
    group of a dihedral appendix spec: the reference for the permutation
    module that the 2D sweep values.

    sigma is realized by the integral rotation matrix of trace 2cos(2pi/e)
    and the swap reflection; eta is the character that is -1 exactly on the
    coset of y.  Well-definedness is checked by the MatrixRep constructor.
    """
    c = {3: -1, 4: 0, 6: 1}[e]

    def block(eta, m):
        out = [[0] * 4 for _ in range(4)]
        out[0][0] = 1
        out[1][1] = eta
        for i in range(2):
            for j in range(2):
                out[2 + i][2 + j] = m[i][j]
        return out

    by_gen = {rotation: block(1, [[0, -1], [1, c]]),
              frobenius: block(-1, [[0, 1], [1, 0]])}
    return MatrixRep(G, [by_gen[g] for g in G.generator_indices])


def dihedral_model(e, k):
    G, rotation, frobenius = build_metacyclic(MetacyclicSpec(e, k, -1))
    return dihedral_v_rep(G, e, rotation, frobenius)


INTEGRAL_MODELS = {
    "Q8": lambda: MatrixRep(quaternion_group(), [QUAT_I, QUAT_J]),
    "C3:C2-": lambda: dihedral_model(3, 1),
    "C4:C4-": lambda: dihedral_model(4, 2),
    "C6:C2-": lambda: dihedral_model(6, 1),
}


@pytest.mark.parametrize("name", sorted(INTEGRAL_MODELS))
def test_integral_models_match_a_fraction_only_oracle(name):
    rep = INTEGRAL_MODELS[name]()
    G = rep.group
    elements = [rep.at(g) for g in range(G.order)]
    assert all(type(x) is int for m in elements for row in m for x in row)
    assert elements == fraction_elements(G, rep.images)
    q = invariant_pairing(rep)
    assert all(type(x) is Fraction for row in q for x in row)
    assert q == fraction_pairing(elements)
    assert fraction_det(q)
    for c in G.subgroup_classes():
        det = matrix_fixed_det(rep, q, c.id)
        assert type(det) is Fraction
        assert det == fraction_fixed_det(elements, q, c.representative)


PAIRING_MODELS = {
    **INTEGRAL_MODELS,
    "D21/6.1": lambda: perm_matrix_rep(dihedral_group(21), "6.1"),
    "A4/3.1": lambda: perm_matrix_rep(alternating4_group(), "3.1"),
}


@pytest.mark.parametrize("name", sorted(PAIRING_MODELS))
def test_invariant_pairing_is_positive_definite(name):
    q = invariant_pairing(PAIRING_MODELS[name]())
    minors = [fraction_det([row[:k] for row in q[:k]])
              for k in range(1, len(q) + 1)]
    assert all(m > 0 for m in minors), minors


def test_matrix_entries_are_ints_or_fractions():
    for G, cid in ((dihedral_group(4), "2.1"), (alternating4_group(), "3.1"),
                   (quaternion_group(), "1.1")):
        rep = perm_matrix_rep(G, cid)
        assert all(type(x) is int for g in range(G.order)
                   for row in rep.at(g) for x in row)
    # a non-integral model keeps its non-integral entries as Fractions
    rep = MatrixRep(cyclic_group(2), [[[0, Fraction(1, 2)], [2, 0]]])
    kinds = {type(x) for g in range(2) for row in rep.at(g) for x in row}
    assert kinds == {int, Fraction}
    assert rep.at(1) == [[0, Fraction(1, 2)], [2, 0]]


# ---------------------------------------------------------------------------
# the appendix's 2D module against its matrix model


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def test_appendix_v_module_agrees_with_the_matrix_model():
    # the matrix model's trace is V of the sweep's own place, and the
    # permutation module that the sweep values agrees with the model's
    # unscaled fixed-space determinant modulo norms on every K-relation
    assert len(DIHEDRAL_SPECS) == 8
    checks = 0
    for spec in DIHEDRAL_SPECS:
        p = appendix_places("2D", spec)[0]
        G = p.group
        built, rotation, frobenius = build_metacyclic(spec)
        assert built.elements == G.elements  # so the indices agree
        rep = dihedral_v_rep(G, spec.e, rotation, frobenius)
        v = p.root_datum.v
        assert [trace(rep.at(x)) for x in range(G.order)] == \
            [v[x] for x in range(G.order)]
        pairing = invariant_pairing(rep)
        fixed_det = _v_fixed_det(p)

        def ratio(h):
            dimfix = sum(v[x] for x in h) // len(h)
            matrix = matrix_fixed_det(rep, pairing, h) * len(h) ** dimfix
            return fixed_det(h) / matrix

        for d in quadratic_probe_fields(G):
            for theta in k_relation_basis(G, d).basis:
                value = math.prod(
                    (ratio(G.subgroup_class_by_id(cid).representative) ** n
                     for cid, n in theta.items()), start=Fraction(1))
                assert is_norm_from_quadratic(value, d), (spec, d, theta)
                checks += 1
    assert checks == 604


def test_v_fixed_det_is_the_index_product_of_the_solved_module():
    # at every 2D place of order at most 32 and every subgroup class H, V's
    # determinant is the product over D of (the product over H\\G/D of
    # [H : H ∩ xDx^-1]) ** m_D, with V = sum of m_D * Q[G/D] solved from the
    # inner products on a fresh Smith form and the double cosets enumerated
    # naively; some m_D is negative, so the powers must be exact
    negative = 0
    for spec in DIHEDRAL_SPECS:
        p = appendix_places("2D", spec)[0]
        G = p.group
        v = p.root_datum.v
        cf = ClassFunction(G, tuple(v[c[0]] for c in G.conjugacy_classes()))
        target = [inner_product(chi, cf) for chi in
                  character_table(G).irreducibles]
        assert all(x.denominator == 1 for x in target)
        target = [x.numerator for x in target]
        a = G.data.multiplicity_matrix
        sol = snf_solve(a, target, smith_normal_form(a))
        assert sol.minimal_m == 1, spec
        module = [(c.representative, m)
                  for c, m in zip(G.subgroup_classes(), sol.witness) if m]
        negative += sum(m < 0 for _, m in module)
        fixed_det = _v_fixed_det(p)
        for hc in G.subgroup_classes():
            h = hc.representative
            want = Fraction(1)
            for d, m in module:
                index = math.prod(Fraction(len(h), len(local))
                                  for _, local in naive_double_cosets(G, h, d))
                want *= index ** m
            got = fixed_det(h)
            assert isinstance(got, Fraction)
            assert got == want, (spec, hc.id)
    assert negative


def test_rational_multiplicities_match_the_inner_products():
    # V's multiplicities are its pairings at the 2D places of order at most
    # 32, which have D_v = G; they agree with inner_product
    for spec in DIHEDRAL_SPECS:
        p = appendix_places("2D", spec)[0]
        G = p.group
        v = p.root_datum.v
        cf = ClassFunction(G, tuple(v[c[0]] for c in G.conjugacy_classes()))
        irrs = character_table(G).irreducibles
        got = [v_pairing(p, chi) for chi in irrs]
        assert got == [inner_product(chi, cf) for chi in irrs], spec
        assert any(got)
