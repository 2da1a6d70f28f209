"""The per-group invariant record: integer multiplicity rows against the
cyclotomic inner-product oracle, the memoised permutation multiples, and
the exact checks that guard them."""

from collections import Counter

import pytest

from krel.characters import (
    ClassFunction,
    character_table,
    fs_indicator,
    inner_product,
    perm_character,
    rational_irreducibles,
)
from krel.exactmath import (
    CycNumber,
    ExactCheckError,
    hermite_row_basis,
    reduce_by_kernel,
    smith_kernel,
    smith_normal_form,
    snf_solve,
)
from krel.groups import (
    alternating4_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
)
from krel.harness import MetacyclicSpec, build_metacyclic
from krel.regconst import minimal_perm_multiple
from krel.relations import _multiplicity_rows, find_norm_relation

import character_oracles
from test_lift_and_lattice import TABLE_GROUPS, elementary_abelian_2
from test_parity import WALK_GROUPS


def metacyclic_specs(max_order):
    for e in (2, 3, 4, 6):
        k = 0
        while e << k <= max_order:
            for sign in (1, -1):
                if not (sign == -1 and k == 0 and e > 2):
                    yield MetacyclicSpec(e, k, sign)
            k += 1


GROUPS = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "A4": alternating4_group,
    "C3:C4": lambda: metacyclic_group(3, 4, 2),
    "S4": lambda: group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4"),
    "D21": lambda: dihedral_group(21),
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
}
GROUPS.update({f"spec{s.e}.{s.k}.{s.sign:+d}": (lambda s=s: build_metacyclic(s)[0])
               for s in metacyclic_specs(16)})


def indicator_oracle(chi):
    G = chi.group
    tot = CycNumber.from_rational(0)
    for i, cls in enumerate(G.conjugacy_classes()):
        tot = tot + len(cls) * chi.values[G.power_class(i, 2)]
    return tot.rational_value() / G.order


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_integer_rows_match_inner_products(name):
    G = GROUPS[name]()
    irrs = character_table(G).irreducibles
    perms = [perm_character(G, c.representative) for c in G.subgroup_classes()]
    oracle = [[inner_product(pc, chi) for chi in irrs] for pc in perms]
    assert _multiplicity_rows(G) == oracle
    weights = character_oracles.class_weights(G)
    for pc, row in zip(perms, oracle):
        assert character_oracles.rational_multiplicities(pc, weights) == row
    for chi in irrs:
        assert fs_indicator(chi) == indicator_oracle(chi)
    for tau in rational_irreducibles(G):
        assert tau.indicator == indicator_oracle(tau.constituent)


def per_entry_rows(G, weights):
    """The multiplicity rows one entry at a time: |G| mult[i][j] is the sum
    over the rational classes o of the fixed-coset count of H_i at o times
    weights[j][o]."""
    classes = G.conjugacy_classes()
    rows = []
    for cls in G.subgroup_classes():
        hits = Counter(G.class_of(h) for h in cls.representative)
        fixed = [G.order * hits[o[0]] // (len(classes[o[0]]) * cls.order)
                 for o in G.data.rational_classes]
        row = []
        for w in weights:
            total = sum(f * x for f, x in zip(fixed, w))
            assert total % G.order == 0
            row.append(total // G.order)
        rows.append(row)
    return rows


PACKED_ROW_GROUPS = dict(WALK_GROUPS,
                         **{"C2^5": lambda: elementary_abelian_2(5)})


@pytest.mark.parametrize("name", sorted(PACKED_ROW_GROUPS))
def test_packed_multiplicity_rows_match_the_per_entry_formula(name):
    G = PACKED_ROW_GROUPS[name]()
    weights = G.data.class_weights
    assert any(x < 0 for w in weights for x in w)
    assert G.data.multiplicity_rows == per_entry_rows(G, weights)
    # with every weight negated every sum is at most 0, and the slots still
    # read back: a fresh record of the same group, given the negated weights
    H = PACKED_ROW_GROUPS[name]()
    negated = [[-x for x in w] for w in weights]
    H.data.class_weights = negated
    assert H.data.multiplicity_rows == per_entry_rows(H, negated)


@pytest.mark.parametrize("name", ["Q8", "D21", "C12:C4"])
def test_memoised_multiples_are_fresh_and_agree(name):
    G = GROUPS[name]()
    data = G.data
    weights = character_oracles.class_weights(G)
    for tau in rational_irreducibles(G):
        k, rep = minimal_perm_multiple(G, tau)
        want = dict(rep)
        rep.clear()
        again = minimal_perm_multiple(G, tau)
        assert again == (k, want)
        # the solve of tau's rational class function gives the same answer
        plain = data.perm_multiple(tuple(
            int(m) for m in character_oracles.rational_multiplicities(
                character_oracles.orbit_sum(tau), weights)))
        assert plain == (k, tuple(want.get(c.id, 0)
                                  for c in G.subgroup_classes()))
        m, theta = find_norm_relation(G, tau.constituent)
        assert (m, theta) == (k, want)
        theta["1.1"] = theta.get("1.1", 0) + 7
        assert find_norm_relation(G, tau.constituent) == (k, want)
        # the cached Smith form gives what a fresh factorisation gives
        target = data.orbit_target(tau.constituent_index)
        smith = smith_normal_form(data.multiplicity_matrix)
        sol = snf_solve(data.multiplicity_matrix, target, smith)
        kernel = hermite_row_basis(smith_kernel(smith))
        x = reduce_by_kernel(sol.witness, kernel)
        assert data.perm_multiple(target) == (sol.minimal_m, tuple(x))


def test_non_integral_class_weight_raises():
    # the weights are read from the multisets at the element orders; the
    # size of a rational class is a multiple of phi(ord g), so they are
    # integers at the true orders, and an involution read as of order 3
    # gives the sign character the weight 3 * (-1/2)
    G = dihedral_group(3)
    data = G.data
    character_table(G)
    data.rational_class_orders = tuple(3 if n == 2 else n
                                       for n in data.rational_class_orders)
    with pytest.raises(ExactCheckError, match="class weight"):
        _multiplicity_rows(G)


def test_non_integral_multiplicity_raises():
    # the degree-2 character read as having the one eigenvalue 1 on an
    # involution: its multiplicity in C[S3/C2] becomes (3*2 + 1*3)/6
    G = dihedral_group(3)
    data = G.data
    table = character_table(G)
    table.multisets[-1] = tuple(
        ((0, 1),) if n == 2 else ms
        for ms, n in zip(table.multisets[-1], data.rational_class_orders))
    with pytest.raises(ExactCheckError, match="multiplicity"):
        _multiplicity_rows(G)


@pytest.mark.parametrize("name", list(TABLE_GROUPS))
def test_means_and_class_weights_match_the_all_class_formula(name):
    """Galois means are taken at the first class of each rational class
    only; the old formula took them at every class."""
    G = TABLE_GROUPS[name]()
    data = G.data
    reps = [o[0] for o in data.rational_classes]
    irrs = character_table(G).irreducibles
    old = [tuple(v.galois_mean() for v in chi.values) for chi in irrs]
    assert [chi.galois_means for chi in irrs] == old
    assert data.class_weights == [
        [s * means[c] for c, s in zip(reps, data.rational_class_sizes)]
        for means in old]


def test_irreducible_index_reads_the_table_position():
    G, H = dihedral_group(5), dihedral_group(5)
    irrs = character_table(G).irreducibles
    assert [chi.table_index for chi in irrs] == list(range(len(irrs)))
    assert [G.data.irreducible_index(chi) for chi in irrs] \
        == list(range(len(irrs)))
    # a copy from outside the table is found by value
    copy = ClassFunction(G, irrs[2].values)
    assert copy.table_index is None
    assert G.data.irreducible_index(copy) == 2
    # an irreducible of another group's table is not one of G's, though
    # it has a table index
    other = character_table(H).irreducibles[2]
    assert other.table_index == 2
    assert G.data.irreducible_index(other) is None
    # a class function whose table index is not its own is found by value
    twisted = ClassFunction(G, irrs[3].values, table_index=2)
    assert G.data.irreducible_index(twisted) == 3
