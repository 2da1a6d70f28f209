import math
import random

import pytest

from krel.exactmath import factor_bounded
from krel.groups import (
    GroupTooLargeError,
    PermGroup,
    alternating4_group,
    burnside_add,
    burnside_ind,
    burnside_project,
    burnside_res,
    cyclic_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    perm_to_cycles,
    quaternion_group,
    subgroup_as_group,
)


def s3():
    return group_from_cycles(3, ["(1 2)", "(1 2 3)"], name="S3")


def s4():
    return group_from_cycles(4, ["(1 2)", "(1 2 3 4)"], name="S4")


SAMPLE = {}


def sample_groups():
    if not SAMPLE:
        SAMPLE.update({
            "S3": s3(),
            "C4": cyclic_group(4),
            "C6": cyclic_group(6),
            "Q8": quaternion_group(),
            "A4": alternating4_group(),
            "D21": dihedral_group(21),
        })
    return SAMPLE


# ---------------------------------------------------------------------------
# Oracle: permutation character by direct fixed-coset counting, no group
# machinery beyond raw multiplication.


def coset_reps(G, universe, sub):
    reps, covered = [], set()
    for x in sorted(universe):
        if x in covered:
            continue
        reps.append(x)
        covered.update(G.mul(x, h) for h in sub)
    return reps


def fixed_cosets(G, sub, g, universe=None):
    if universe is None:
        universe = range(G.order)
    count = 0
    for x in coset_reps(G, universe, sub):
        if G.mul(G.mul(G.inv(x), g), x) in sub:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Permutation plumbing


def test_perm_cycle_roundtrip():
    p = perm_from_cycles("(1 2 3)(4 5)", 6)
    assert p == (1, 2, 0, 4, 3, 5)
    assert perm_to_cycles(p) == "(1 2 3)(4 5)"
    assert perm_from_cycles("()", 4) == (0, 1, 2, 3)
    assert perm_to_cycles((0, 1)) == "()"


def test_perm_cycle_errors():
    with pytest.raises(ValueError):
        perm_from_cycles("(1 2)(2 3)", 4)
    with pytest.raises(ValueError):
        perm_from_cycles("(1 9)", 4)
    with pytest.raises(ValueError):
        perm_from_cycles("(1 2) junk", 4)


def test_perm_mul_convention():
    p = perm_from_cycles("(1 2)", 3)
    q = perm_from_cycles("(2 3)", 3)
    # q first, then p: 3 -> 2 -> 1
    assert perm_mul(p, q)[2] == 0
    assert perm_mul(p, perm_inv(p)) == (0, 1, 2)


def test_order_bound_enforced():
    with pytest.raises(GroupTooLargeError):
        PermGroup(12, [perm_from_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12),
                       perm_from_cycles("(1 2)", 12)], order_bound=100)


# ---------------------------------------------------------------------------
# Conjugacy classes


def test_s3_classes():
    G = s3()
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert G.class_labels()[0] == "1a"


def test_c4_classes_singletons():
    G = cyclic_group(4)
    assert [len(c) for c in G.conjugacy_classes()] == [1, 1, 1, 1]
    assert G.class_labels() == ["1a", "2a", "4a", "4b"]


def test_d21_class_count_and_labels():
    G = sample_groups()["D21"]
    classes = G.conjugacy_classes()
    assert len(classes) == 12
    labels = G.class_labels()
    assert labels[0] == "1a" and "2a" in labels
    assert sum(1 for lb in labels if lb.startswith("21")) == 6
    assert sum(len(c) for c in classes) == 42


def test_power_class_consistency():
    for G in sample_groups().values():
        for k, cls in enumerate(G.conjugacy_classes()):
            for j in [2, 3, 5]:
                target = G.power_class(k, j)
                for x in cls:
                    assert G.class_of(G.power(x, j)) == target


def test_exponent():
    assert sample_groups()["D21"].exponent() == 42
    assert quaternion_group().exponent() == 4
    assert cyclic_group(1).exponent() == 1


# ---------------------------------------------------------------------------
# Subgroup classification


def test_s3_subgroup_classes():
    G = s3()
    classes = G.subgroup_classes()
    assert [c.order for c in classes] == [1, 2, 3, 6]
    c2 = classes[1]
    assert len(c2.conjugates) == 3 and not c2.is_normal and c2.is_cyclic
    assert classes[2].is_normal


def test_q8_subgroup_classes():
    G = quaternion_group()
    classes = G.subgroup_classes()
    assert [c.order for c in classes] == [1, 2, 4, 4, 4, 8]
    assert all(c.is_normal for c in classes)
    assert [c.id for c in classes] == ["1.1", "2.1", "4.1", "4.2", "4.3", "8.1"]


def test_d21_subgroup_classes():
    G = sample_groups()["D21"]
    classes = G.subgroup_classes()
    assert [c.order for c in classes] == [1, 2, 3, 6, 7, 14, 21, 42]
    by_order = {c.order: c for c in classes}
    assert len(by_order[2].conjugates) == 21
    assert len(by_order[6].conjugates) == 7
    assert len(by_order[14].conjugates) == 3
    for o in (3, 7, 21, 42):
        assert by_order[o].is_normal
    assert not by_order[6].is_cyclic and by_order[21].is_cyclic
    total = sum(len(c.conjugates) for c in classes)
    assert total == 36


def test_d77_subgroup_count():
    G = dihedral_group(77)
    classes = G.subgroup_classes()
    assert [c.order for c in classes] == [1, 2, 7, 11, 14, 22, 77, 154]
    assert sum(len(c.conjugates) for c in classes) == 100


def elementary_abelian_2(k):
    gens = []
    for i in range(k):
        g = list(range(2 * k))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * k, gens, name=f"C2^{k}")


def unpruned_subgroup_classes(G):
    """Oracle: the breadth-first enumeration that closes <H, g> for every
    prime-power-order seed g outside each frontier subgroup H, with no
    coset pruning."""
    seen, orbits = set(), []

    def admit(sub):
        if sub in seen:
            return False
        orbit = G._subgroup_orbit(sub, G.generator_indices)
        orbits.append(orbit)
        seen.update(orbit)
        return True

    admit(frozenset({0}))
    seeds = [i for i in range(1, G.order)
             if len(factor_bounded(G.element_order(i))) == 1]
    frontier = []
    for i in seeds:
        sub = G.closure([i])
        if admit(sub):
            frontier.append(sub)
    while frontier:
        nxt = []
        for H in frontier:
            hgens = G.generating_indices(H)
            for g in seeds:
                if g in H:
                    continue
                K = G.closure(hgens + (g,))
                if admit(K):
                    nxt.append(K)
        frontier = nxt
    return G._label_classes(orbits)


LATTICE_GROUPS = {
    "C2^4": lambda: elementary_abelian_2(4),
    "C2^5": lambda: elementary_abelian_2(5),
    "D8": lambda: dihedral_group(8),
    "Q8": quaternion_group,
    "A4": alternating4_group,
    "S4": s4,
    "D21": lambda: dihedral_group(21),
    "D77": lambda: dihedral_group(77),
    "C4:C8": lambda: metacyclic_group(4, 8, 3),
}


@pytest.mark.parametrize("name", sorted(LATTICE_GROUPS))
def test_coset_pruned_lattice_matches_the_unpruned_enumeration(name):
    G = LATTICE_GROUPS[name]()
    got = G.subgroup_classes()
    want = unpruned_subgroup_classes(LATTICE_GROUPS[name]())
    assert got == want
    assert [c.index for c in got] == list(range(len(got)))


def test_coset_pruning_cuts_the_closures_of_c2_5(monkeypatch):
    # the unpruned walk makes 10,452 closures on a cold C2^5
    calls = [0]
    real = PermGroup.closure

    def counting(self, seeds):
        calls[0] += 1
        return real(self, seeds)
    monkeypatch.setattr(PermGroup, "closure", counting)
    G = elementary_abelian_2(5)
    assert len(G.subgroup_classes()) == 374
    assert calls[0] <= 10452 // 3
    calls[0] = 0
    assert len(unpruned_subgroup_classes(elementary_abelian_2(5))) == 374
    assert calls[0] == 10452


def test_subgroup_closure_invariant():
    for G in sample_groups().values():
        for c in G.subgroup_classes():
            orbit = set(c.conjugates)
            for g in G.generator_indices:
                assert G.conjugate_subgroup(c.representative, g) in orbit


def test_classify_subgroup():
    G = s3()
    sub = G.closure([G.element_index(perm_from_cycles("(1 3)", 3))])
    assert G.classify_subgroup(sub).id == "2.1"


def test_sub_lattice_of_s3_in_d21():
    G = sample_groups()["D21"]
    s3sub = G.subgroup_class_by_id("6.1").representative
    lat = G.sub_lattice(s3sub)
    assert [c.order for c in lat] == [1, 2, 3, 6]
    assert len(lat[1].conjugates) == 3


def test_sub_lattice_of_the_whole_group_is_its_subgroup_classes():
    for G in sample_groups().values():
        assert G.sub_lattice(frozenset(range(G.order))) \
            == G.subgroup_classes()


@pytest.mark.parametrize("name, did", [
    ("S3", "3.1"), ("Q8", "4.1"), ("A4", "4.1"), ("A4", "12.1"),
    ("D21", "6.1"), ("D21", "14.1"), ("S4", "8.1"), ("S4", "12.1")])
def test_sub_lattice_matches_the_subgroup_as_a_group(name, did):
    """The classes of D under D-conjugation, built inside G, against the
    subgroup classes of D built as a group of its own."""
    G = s4() if name == "S4" else sample_groups()[name]
    dsub = G.subgroup_class_by_id(did).representative
    S, to_sub = subgroup_as_group(G, dsub)
    lat = G.sub_lattice(dsub)
    ref = S.subgroup_classes()
    images = [S.classify_subgroup(frozenset(to_sub[x]
                                            for x in c.representative))
              for c in lat]
    assert sorted(c.index for c in images) == list(range(len(ref)))
    for c, img in zip(lat, images):
        assert (c.order, len(c.conjugates), c.is_normal, c.is_cyclic) \
            == (img.order, len(img.conjugates), img.is_normal, img.is_cyclic)
    assert [c.order for c in lat] == [c.order for c in ref]


def test_subgroup_class_by_id_reads_every_class():
    assert s3().subgroup_class_by_id("3.1").order == 3  # before the classes
    for G in sample_groups().values():
        classes = G.subgroup_classes()
        for i, c in enumerate(classes):
            assert G.subgroup_class_by_id(c.id) is classes[i]
        for unknown in (f"{G.order}.2", "0.1", "1"):
            with pytest.raises(KeyError):
                G.subgroup_class_by_id(unknown)


# ---------------------------------------------------------------------------
# Double cosets


def test_double_cosets_s3_transposition():
    G = s3()
    h = G.closure([G.element_index(perm_from_cycles("(1 2)", 3))])
    out = G.double_cosets(h, h)
    assert sorted(len(local) for _, local in out) == [1, 2]
    # the identity coset keeps all of H; the other one meets H trivially
    assert out[0] == (0, h)
    assert [local for _, local in out[1:]] == [frozenset({0})]


def test_double_cosets_trivial_cases():
    G = s3()
    full = frozenset(range(G.order))
    triv = frozenset({0})
    assert G.double_cosets(full, full) == ((0, full),)
    out = G.double_cosets(triv, triv)
    assert out == tuple((x, triv) for x in range(G.order))


def brute_local_subgroup(G, h, d, x):
    """{x^-1 k x : k in H} ∩ D from the permutations themselves."""
    px = G.elements[x]
    pxinv = perm_inv(px)
    conj = {G.element_index(perm_mul(perm_mul(pxinv, G.elements[k]), px))
            for k in h}
    return frozenset(conj) & d


def test_double_coset_mass_formula():
    rng = random.Random(5)
    for G in sample_groups().values():
        classes = G.subgroup_classes()
        for _ in range(6):
            h = rng.choice(rng.choice(classes).conjugates)
            d = rng.choice(rng.choice(classes).conjugates)
            out = G.double_cosets(h, d)
            assert [x for x, _ in out] == sorted({x for x, _ in out})
            for x, local in out:
                assert local == brute_local_subgroup(G, h, d, x)
                assert (len(h) * len(d)) % len(local) == 0
            total = sum(len(h) * len(d) // len(local) for _, local in out)
            assert total == G.order


def test_perm_group_takes_no_ad_hoc_attributes():
    G = s3()
    with pytest.raises(AttributeError):
        G.anything = 1
    q, _ = G.quotient_group(frozenset(range(G.order)))
    with pytest.raises(AttributeError):
        q.proj = ()


# ---------------------------------------------------------------------------
# Burnside operations


def test_burnside_res_c21_to_s3():
    G = sample_groups()["D21"]
    s3sub = G.subgroup_class_by_id("6.1").representative
    res = burnside_res(G, {"21.1": 1}, s3sub)
    assert res == {"3.1": 1}


def test_burnside_res_of_full_group():
    G = s3()
    sub = G.subgroup_class_by_id("3.1").representative
    assert burnside_res(G, {"6.1": 1}, sub) == {"3.1": 1}
    assert burnside_res(G, {}, sub) == {}


def test_burnside_ind():
    G = s3()
    sub = G.subgroup_class_by_id("2.1").representative
    assert burnside_ind(G, sub, {"1.1": 1}) == {"1.1": 1}
    assert burnside_ind(G, sub, {"2.1": 2}) == {"2.1": 2}
    a = burnside_ind(G, sub, {"1.1": 1, "2.1": 1})
    b = burnside_add(burnside_ind(G, sub, {"1.1": 1}),
                     burnside_ind(G, sub, {"2.1": 1}))
    assert a == b


def test_mackey_restriction_matches_fixed_points():
    """Permutation character of the restriction equals the restricted one."""
    rng = random.Random(11)
    for G in sample_groups().values():
        classes = G.subgroup_classes()
        for _ in range(4):
            hc = rng.choice(classes)
            dc = rng.choice(classes)
            dsub = dc.representative
            res = burnside_res(G, {hc.id: 1}, dsub)
            lat = {c.id: c.representative for c in G.sub_lattice(dsub)}
            for d in dsub:
                lhs = sum(coeff * fixed_cosets(G, lat[cid], d, universe=dsub)
                          for cid, coeff in res.items())
                assert lhs == fixed_cosets(G, hc.representative, d)


def test_quotient_q8_center():
    G = quaternion_group()
    center = G.subgroup_class_by_id("2.1").representative
    q, proj = G.quotient_group(center)
    assert q.order == 4
    assert q.exponent() == 2
    assert len(proj) == G.order
    assert frozenset(g for g in range(G.order) if proj[g] == 0) == center
    assert all(proj[G.mul(a, b)] == q.mul(proj[a], proj[b])
               for a in range(G.order) for b in range(G.order))


def test_quotient_extremes():
    G = s3()
    q1, proj1 = G.quotient_group(frozenset({0}))
    assert q1.order == 6
    assert sorted(proj1) == list(range(6))
    qg, projg = G.quotient_group(frozenset(range(6)))
    assert qg.order == 1
    assert projg == (0,) * 6


def test_quotient_rejects_non_normal():
    G = s3()
    with pytest.raises(ValueError):
        G.quotient_group(G.subgroup_class_by_id("2.1").representative)


def test_burnside_project_d21():
    G = sample_groups()["D21"]
    c7 = G.subgroup_class_by_id("7.1").representative
    q, image = burnside_project(G, {"21.1": 1}, c7)
    assert q.order == 6
    cid = next(iter(image))
    assert q.subgroup_class_by_id(cid).order == 3


def test_burnside_project_extremes():
    G = s3()
    q, image = burnside_project(G, {"2.1": 1, "3.1": -2}, frozenset(range(6)))
    assert q.order == 1 and image == {"1.1": -1}
    q, image = burnside_project(G, {"2.1": 1}, frozenset({0}))
    assert q.order == 6 and q.subgroup_class_by_id(next(iter(image))).order == 2


def test_project_commutes_with_perm_characters():
    """Fixed points of HN/N on G/N-cosets pull back to those of HN."""
    G = sample_groups()["D21"]
    nsub = G.subgroup_class_by_id("7.1").representative
    q, proj = G.quotient_group(nsub)
    for c in G.subgroup_classes():
        hn = G.closure(G.generating_indices(c.representative) +
                       G.generating_indices(nsub))
        image = frozenset(proj[h] for h in hn)
        for g in range(G.order):
            assert fixed_cosets(q, image, proj[g]) == fixed_cosets(G, hn, g)


# ---------------------------------------------------------------------------
# Constructors


def test_cyclic_and_dihedral():
    assert cyclic_group(7).order == 7
    assert dihedral_group(21).order == 42
    assert cyclic_group(1).order == 1


def test_metacyclic():
    F21 = metacyclic_group(7, 3, 2)
    assert F21.order == 21
    assert len(F21.conjugacy_classes()) == 5
    with pytest.raises(ValueError):
        metacyclic_group(7, 3, 3)  # 3^3 = 27 is not 1 mod 7
    D5 = metacyclic_group(5, 2, 4)
    assert D5.order == 10
    assert len([c for c in D5.conjugacy_classes()]) == 4


def test_f21_from_cycle_strings():
    G = group_from_cycles(7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"], name="F21")
    assert G.order == 21
    assert len(G.conjugacy_classes()) == 5


def test_a4():
    G = alternating4_group()
    assert G.order == 12
    assert [c.order for c in G.subgroup_classes()] == [1, 2, 3, 4, 12]


def test_element_orders_lagrange():
    for G in sample_groups().values():
        for i in range(G.order):
            assert G.order % G.element_order(i) == 0
        for c in G.subgroup_classes():
            assert G.order % c.order == 0
            assert G.order % len(c.conjugates) == 0


def test_subgroup_as_group_is_isomorphic():
    G = sample_groups()["D21"]
    cls = G.subgroup_class_by_id("6.1")
    sub, to_sub = subgroup_as_group(G, cls.representative)
    assert sub.order == 6
    rng = random.Random(7)
    elems = sorted(cls.representative)
    for _ in range(20):
        a, b = rng.choice(elems), rng.choice(elems)
        assert to_sub[G.mul(a, b)] == sub.mul(to_sub[a], to_sub[b])
    assert [c.order for c in sub.subgroup_classes()] == [1, 2, 3, 6]


def test_subgroup_as_group_trivial_and_errors():
    G = sample_groups()["C4"]
    sub, to_sub = subgroup_as_group(G, frozenset({0}))
    assert sub.order == 1
    assert to_sub == {0: 0}
    with pytest.raises(ValueError):
        subgroup_as_group(G, frozenset({1}))
