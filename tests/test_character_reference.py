"""Character Galois data from the table's integer multisets and cached
Galois means, against the value-key and class-sum forms they replaced
(kept in ``character_oracles``).  Also guards that the irreducibles of the
table take their Galois means from the multisets, with no cyclotomic
mean, and that any other class function computes its means once, not on
every indicator or root-sign call."""

import random

import pytest

from krel.characters import (
    ClassFunction,
    char_field_data,
    character_table,
    fs_indicator,
    rational_irreducibles,
)
from krel.exactmath import CycNumber
from krel.groups import (
    PermGroup,
    alternating4_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
)
from krel.harness import MetacyclicSpec, build_metacyclic, synthetic_model
from krel.parity import global_root_sign

import character_oracles as oracle


def s4():
    return group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4")


def elementary_abelian_2(n):
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * n, gens, name=f"C2^{n}")


def metacyclic_specs(max_order):
    for e in (2, 3, 4, 6):
        k = 0
        while e << k <= max_order:
            for sign in (1, -1):
                if not (sign == -1 and k == 0 and e > 2):
                    yield MetacyclicSpec(e, k, sign)
            k += 1


# the nine groups of the benchmark's global workload
GROUPS = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "D6": lambda: dihedral_group(6),
    "A4": alternating4_group,
    "D21": lambda: dihedral_group(21),
    "C3:C4": lambda: metacyclic_group(3, 4, 2),
    "S4": s4,
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
}
SPECS = list(metacyclic_specs(32))
GROUPS.update({f"spec{s.e}.{s.k}.{s.sign:+d}": (lambda s=s: build_metacyclic(s)[0])
               for s in SPECS})
GROUPS.update({f"D{n}": (lambda n=n: dihedral_group(n)) for n in range(3, 41)})
GROUPS.update({f"C2^{k}": (lambda k=k: elementary_abelian_2(k))
               for k in range(1, 6)})


def test_the_group_list():
    assert len(SPECS) == 29
    # D4, D6 and D21 are global groups too
    assert len(GROUPS) == 9 + 29 + 38 + 5 - 3


def check_means_and_weights(G, irrs):
    # a copy from outside the table takes its means from its values
    assert [chi.galois_means for chi in irrs] \
        == [ClassFunction(G, chi.values).galois_means for chi in irrs]
    assert G.data.class_weights == oracle.class_weights(G)


@pytest.mark.parametrize("name", ["D77", "D128"])
def test_means_of_larger_tables_match_the_values_route(name):
    # two larger groups whose tables have many Galois orbits
    G = dihedral_group(int(name[1:]))
    check_means_and_weights(G, character_table(G).irreducibles)


@pytest.mark.parametrize("name", list(GROUPS))
def test_galois_data_matches_the_value_key_forms(name):
    G = GROUPS[name]()
    irrs = character_table(G).irreducibles
    for chi in irrs:
        assert char_field_data(chi) == oracle.char_field_data(chi)
        assert fs_indicator(chi) == oracle.fs_indicator(chi)
    got, want = rational_irreducibles(G), oracle.rational_irreducibles(G)
    weights = oracle.class_weights(G)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.label == b.label
        assert a.constituent is b.constituent
        assert a.constituent_index == b.constituent_index
        assert a.orbit_indices == b.orbit_indices
        assert a.indicator == b.indicator
        # the orbit sum is |orbit| times the constituent's Galois means
        total = oracle.orbit_sum(b)
        assert ClassFunction(G, tuple(
            len(a.orbit_indices) * m for m in a.constituent.galois_means)) \
            == total
        assert total.is_rational()
        assert oracle.rational_multiplicities(total, weights) \
            == list(G.data.orbit_target(a.constituent_index))
    check_means_and_weights(G, irrs)


def counted_galois_means(monkeypatch):
    calls = []
    plain = CycNumber.galois_mean

    def counted(self):
        calls.append(self)
        return plain(self)

    monkeypatch.setattr(CycNumber, "galois_mean", counted)
    return calls


def test_galois_means_are_computed_once_per_character(monkeypatch):
    G = s4()
    irrs = character_table(G).irreducibles
    copies = [ClassFunction(G, chi.values) for chi in irrs]
    r = len(irrs)
    model = synthetic_model(G, random.Random(3), rational_base=True)
    calls = counted_galois_means(monkeypatch)
    for _ in range(20):
        for chi in irrs:
            fs_indicator(chi)
            global_root_sign(model, chi)
    # the table's irreducibles read the multisets
    assert calls == []
    # class functions from outside the table read their values, once each
    for _ in range(20):
        for chi in copies:
            fs_indicator(chi)
            global_root_sign(model, chi)
    assert 0 < len(calls) <= r * r


@pytest.mark.parametrize("name", ["C12:C4", "D21", "spec6.2.-1", "C2^5"])
def test_fresh_group_computes_no_cyclotomic_mean(monkeypatch, name):
    G = GROUPS[name]()
    calls = counted_galois_means(monkeypatch)
    G.data.multiplicity_rows
    taus = rational_irreducibles(G)
    assert calls == []
    # the indicators were read from the multisets, and the orbit sums are
    # rational
    assert all(oracle.orbit_sum(tau).is_rational() for tau in taus)
    assert [tau.indicator for tau in taus] \
        == [oracle.fs_indicator(tau.constituent) for tau in taus]
    # the oracle reads the values, through the counter
    assert len(calls) > 0
