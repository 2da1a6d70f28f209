"""The multiplication table written along the Cayley graph, against the
|G|² composition table it replaced, and the order bound on generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krel.groups as groups
from krel.groups import (
    GroupTooLargeError,
    PermGroup,
    alternating4_group,
    cyclic_group,
    dihedral_group,
    group_from_cycles,
    identity_perm,
    metacyclic_group,
    perm_inv,
    perm_mul,
    perm_order,
    quaternion_group,
    subgroup_as_group,
)
from krel.harness import MetacyclicSpec, build_metacyclic

# ---------------------------------------------------------------------------
# Reference: closure of whole permutations, then every product composed


def reference_closure(degree, gens, bound):
    """The sorted elements of <gens>, or None when there are more than bound."""
    ident = identity_perm(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        if len(elems) > bound:
            return None
        frontier = nxt
    return sorted(elems)


def assert_matches_reference(G, gens):
    gens = [tuple(g) for g in gens]
    elements = reference_closure(G.degree, gens, G.order)
    assert G.elements == elements
    idx = {p: i for i, p in enumerate(elements)}
    assert G._index == idx
    assert G.generator_indices == tuple(sorted({idx[g] for g in gens}))
    assert G._mul == [[idx[perm_mul(p, q)] for q in elements]
                      for p in elements]
    assert G._inv == [idx[perm_inv(p)] for p in elements]


def generators_of(G):
    return [G.elements[g] for g in G.generator_indices]


def s4():
    return group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4")


def s5():
    return group_from_cycles(5, ["(1 2 3 4 5)", "(1 2)"], name="S5")


def metacyclic_specs(max_order):
    out = []
    for e in (2, 3, 4, 6):
        for k in range(max_order.bit_length()):
            for sign in (1, -1):
                if e << k > max_order:
                    continue
                try:
                    out.append(MetacyclicSpec(e, k, sign))
                except ValueError:
                    continue
    return out


# ---------------------------------------------------------------------------
# Named groups


@pytest.mark.parametrize("n", range(3, 41))
def test_dihedral_table_matches_reference(n):
    G = dihedral_group(n)
    assert_matches_reference(G, generators_of(G))


@pytest.mark.parametrize("n", range(1, 41))
def test_cyclic_table_matches_reference(n):
    G = cyclic_group(n)
    assert_matches_reference(G, generators_of(G))


@pytest.mark.parametrize("make", [quaternion_group, alternating4_group, s4, s5,
                                  lambda: metacyclic_group(12, 4, 5)])
def test_small_named_tables_match_reference(make):
    G = make()
    assert_matches_reference(G, generators_of(G))


def test_every_metacyclic_spec_up_to_order_32_matches_reference():
    specs = metacyclic_specs(32)
    assert len(specs) == 29
    for spec in specs:
        G, x, y = build_metacyclic(spec)
        assert G.order == spec.order
        assert_matches_reference(G, [G.elements[x], G.elements[y]])


@pytest.mark.parametrize("make", [quaternion_group, s4,
                                  lambda: dihedral_group(6),
                                  lambda: metacyclic_group(12, 4, 5)])
def test_quotients_and_subgroups_match_reference(make):
    G = make()
    for cls in G.subgroup_classes():
        sub, _ = subgroup_as_group(G, cls.representative)
        assert sub.order == cls.order
        assert_matches_reference(sub, generators_of(sub))
        if cls.is_normal:
            q, _ = G.quotient_group(cls.representative)
            assert q.order * cls.order == G.order
            assert_matches_reference(q, generators_of(q))


def test_repeated_identity_and_empty_generator_lists():
    rot = (1, 2, 3, 0)
    flip = (0, 3, 2, 1)
    ident = identity_perm(4)
    for gens in ([rot, rot], [rot, flip, rot, flip], [ident], [ident, rot],
                 [rot, ident, flip], [], [ident, ident]):
        G = PermGroup(4, gens)
        assert_matches_reference(G, gens)
    assert PermGroup(4, []).order == 1
    assert PermGroup(4, [ident]).generator_indices == (0,)
    assert PermGroup(4, [rot, flip, rot]).order == 8
    assert PermGroup(0, []).elements == [()]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.permutations(range(n)), min_size=1, max_size=3))),
       st.integers(1, 130))
def test_random_generators_match_reference_or_exceed_the_bound(drawn, bound):
    degree, gens = drawn
    gens = [tuple(g) for g in gens]
    elements = reference_closure(degree, gens, bound)
    if elements is None:
        with pytest.raises(GroupTooLargeError):
            PermGroup(degree, gens, order_bound=bound)
    else:
        assert_matches_reference(
            PermGroup(degree, gens, order_bound=bound), gens)


# ---------------------------------------------------------------------------
# Order bound


def counting_perm_mul(monkeypatch):
    calls = []

    def counted(p, q):
        calls.append(None)
        return perm_mul(p, q)

    monkeypatch.setattr(groups, "perm_mul", counted)
    return calls


def test_an_over_bound_generator_is_rejected_before_the_closure(monkeypatch):
    calls = counting_perm_mul(monkeypatch)
    for n in (20000, 100000):
        with pytest.raises(GroupTooLargeError, match=f"order {n}"):
            cyclic_group(n)
    # the order of (1 2)(3 4 5) is 6 although no cycle has length 6
    p = (1, 0, 3, 4, 2)
    assert perm_order(p) == 6
    with pytest.raises(GroupTooLargeError):
        PermGroup(5, [p], order_bound=5)
    assert calls == []
    assert PermGroup(5, [p], order_bound=6).order == 6


def test_the_order_bound_is_the_group_order():
    assert cyclic_group(512).order == 512
    gens = generators_of(s4())
    assert PermGroup(4, gens, order_bound=24).order == 24
    with pytest.raises(GroupTooLargeError):
        PermGroup(4, gens, order_bound=23)
    rot = tuple((i + 1) % 7 for i in range(7))
    assert PermGroup(7, [rot], order_bound=7).order == 7
    with pytest.raises(GroupTooLargeError):
        PermGroup(7, [rot], order_bound=6)


def test_perm_order():
    assert perm_order(()) == 1
    assert perm_order((0, 1, 2)) == 1
    assert perm_order((1, 2, 0, 4, 3)) == 6
    for n in (1, 2, 12, 97):
        assert perm_order(tuple((i + 1) % n for i in range(n))) == n


# ---------------------------------------------------------------------------
# Complexity guard


def test_table_costs_one_composition_per_element_and_generator(monkeypatch):
    calls = counting_perm_mul(monkeypatch)
    G = dihedral_group(64)
    assert G.order == 128
    # 16,640 for the composition table of all |G|² pairs plus the closure
    assert len(calls) <= G.order * 2
