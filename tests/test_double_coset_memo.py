"""The per-group memos of the H\\G/D walk and of the permutation fixed-space
determinant: their values against a naive enumeration of the double cosets
from the element sets, their sharing, and a guard that a global sweep walks
each (H, D) pair exactly once."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from krel.characters import character_table
from krel.groups import (
    PermGroup,
    alternating4_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
)
from krel.harness import synthetic_model
from krel.parity import nrt_run, theorem_main_check
from krel.regconst import perm_fixed_det
from krel.relations import k_relation_basis

GROUPS = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "A4": alternating4_group,
    "S4": lambda: group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4"),
    "D21": lambda: dihedral_group(21),
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
}


def naive_double_cosets(G, h, d):
    """(least element, D ∩ x^-1 H x) for each set H·x·D, by ascending x."""
    seen = set()
    out = []
    for x in range(G.order):
        if x in seen:
            continue
        seen |= {G.mul(G.mul(k, x), y) for k in h for y in d}
        xinv = G.inv(x)
        out.append((x, frozenset(d) & {G.mul(G.mul(xinv, k), x) for k in h}))
    return out


@pytest.mark.parametrize("name", list(GROUPS))
def test_memoised_values_match_naive_enumeration(name):
    G = GROUPS[name]()
    classes = G.subgroup_classes()
    for hc in classes:
        for dc in classes:
            h, d = hc.representative, dc.representative
            want = naive_double_cosets(G, h, d)
            got = G.double_cosets(h, d)
            assert isinstance(got, tuple)
            assert list(got) == want
            det = perm_fixed_det(G, hc.id, dc.id)
            prod = 1
            for _, local in want:
                prod *= len(local)
            assert det == Fraction(1, prod)
            # a repeated call is a lookup
            assert G.double_cosets(set(h), set(d)) is got
            assert perm_fixed_det(G, hc.id, dc.id) is det
    # the determinants are kept by the pair of class ids
    assert set(G.data.fixed_dets) == {(hc.id, dc.id) for hc in classes
                                      for dc in classes}


@pytest.mark.parametrize("name", ["S3", "S4"])
def test_groups_built_alike_share_no_memo(name):
    G1, G2 = GROUPS[name](), GROUPS[name]()
    hc, dc = G1.subgroup_classes()[1], G1.subgroup_classes()[-1]
    h, d = hc.representative, dc.representative
    first = G1.double_cosets(h, d)
    det = perm_fixed_det(G1, hc.id, dc.id)
    assert G2._double_cosets == {}
    assert G2.data.fixed_dets == {}
    again = G2.double_cosets(h, d)
    assert again == first and again is not first
    assert perm_fixed_det(G2, hc.id, dc.id) == det
    assert len(G1._double_cosets) == len(G2._double_cosets) == 1


@pytest.mark.parametrize("name", ["S4", "D21"])
def test_global_sweep_walks_each_pair_once(name, monkeypatch):
    walks = Counter()
    calls = Counter()
    walk = PermGroup._double_coset_walk
    lookup = PermGroup.double_cosets

    def counting_walk(self, hsub, dsub):
        walks[id(self), hsub, dsub] += 1
        return walk(self, hsub, dsub)

    def counting_lookup(self, hsub, dsub):
        calls[id(self), frozenset(hsub), frozenset(dsub)] += 1
        return lookup(self, hsub, dsub)

    monkeypatch.setattr(PermGroup, "_double_coset_walk", counting_walk)
    monkeypatch.setattr(PermGroup, "double_cosets", counting_lookup)
    G = GROUPS[name]()
    rng = random.Random(f"memo/{name}")
    for semistable in (True, False, False):
        model = synthetic_model(G, rng, semistable=semistable)
        for d in (-1, 2, -3, 5):
            basis = k_relation_basis(G, d).basis
            for theta in rng.sample(basis, min(3, len(basis))):
                assert theorem_main_check(model, theta, d).congruent
        for chi in character_table(G).irreducibles:
            nrt_run(model, chi)
    assert walks and set(walks.values()) == {1}
    assert set(walks) == set(calls)
    assert sum(calls.values()) > len(walks)
