"""The witness search of ``reduce_by_kernel`` against the search it
replaced: every candidate rebuilt from x and keyed as a tuple.  Both
search the same box with the same total order, so they must agree on every
input, including every permutation-multiple target of the global groups.
``reduce_by_kernel`` takes the Hermite basis; the reference still takes any
spanning set and reduces it itself.  Each group reduces its kernel once:
``brauer_basis`` and every witness read ``GroupData.brauer_kernel``."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krel import characters, exactmath, relations
from krel.characters import rational_irreducibles
from krel.exactmath import (hermite_row_basis, reduce_by_kernel,
                            smith_kernel, snf_solve)
from krel.groups import (
    alternating4_group,
    dihedral_group,
    group_from_cycles,
    metacyclic_group,
    quaternion_group,
)
from krel.relations import brauer_basis


def reference_reduce_by_kernel(x, kernel):
    """The search as it was: rebuild each candidate in the box from x, and
    compare (L1 norm, tuple) keys; greedy sweeps above 7**rank = 20000."""
    kb = hermite_row_basis(kernel)
    if not kb:
        return list(x)

    def key(v):
        return (sum(abs(c) for c in v), tuple(v))

    best = list(x)
    if 7 ** len(kb) <= 20000:
        for combo in itertools.product(range(-3, 4), repeat=len(kb)):
            cand = list(x)
            for c, row in zip(combo, kb):
                if c:
                    cand = [a + c * b for a, b in zip(cand, row)]
            if key(cand) < key(best):
                best = cand
    else:
        improved = True
        while improved:
            improved = False
            for row in kb:
                for sign in (1, -1):
                    cand = [a + sign * b for a, b in zip(best, row)]
                    while key(cand) < key(best):
                        best = cand
                        cand = [a + sign * b for a, b in zip(best, row)]
                        improved = True
    return best


@st.composite
def systems(draw, ranks, lengths, entries=st.integers(-4, 4)):
    rank = draw(ranks)
    n = draw(st.integers(max(rank, lengths[0]), lengths[1]))
    kernel = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=rank, max_size=rank))
    x = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    return x, kernel


@settings(max_examples=40, deadline=None)
@given(systems(st.integers(0, 5), (1, 30)))
def test_box_search_matches_reference(system):
    x, kernel = system
    kb = hermite_row_basis(kernel)
    assert 7 ** len(kb) <= 20000
    assert reduce_by_kernel(x, kb) == reference_reduce_by_kernel(x, kernel)


@settings(max_examples=60, deadline=None)
@given(systems(st.integers(6, 8), (8, 16)))
def test_greedy_search_matches_reference(system):
    x, kernel = system
    kb = hermite_row_basis(kernel)
    assume(7 ** len(kb) > 20000)
    assert reduce_by_kernel(x, kb) == reference_reduce_by_kernel(x, kernel)


def test_result_is_a_fresh_list():
    x = (3, -1, 2)
    got = reduce_by_kernel(x, [[1, 0, 1]])
    assert got == reference_reduce_by_kernel(x, [[1, 0, 1]])
    assert type(got) is list
    assert reduce_by_kernel(x, []) == [3, -1, 2]


GLOBAL_GROUPS = {
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


@pytest.mark.parametrize("name", list(GLOBAL_GROUPS))
def test_every_perm_multiple_target_matches_reference(name):
    G = GLOBAL_GROUPS[name]()
    data = G.data
    for tau in rational_irreducibles(G):
        target = data.orbit_target(tau.constituent_index)
        sol = snf_solve(data.multiplicity_matrix, target,
                        data.multiplicity_smith)
        want = reference_reduce_by_kernel(
            sol.witness, smith_kernel(data.multiplicity_smith))
        assert reduce_by_kernel(sol.witness, data.brauer_kernel) == want
        assert data.perm_multiple(target) == (sol.minimal_m, tuple(want))


@pytest.mark.parametrize("name", list(GLOBAL_GROUPS))
def test_brauer_kernel_is_reduced_once_per_group(name, monkeypatch):
    calls = []

    def counted(rows):
        calls.append(1)
        return hermite_row_basis(rows)

    for module in (characters, exactmath, relations):
        monkeypatch.setattr(module, "hermite_row_basis", counted)
    G = GLOBAL_GROUPS[name]()
    data = G.data
    lat = brauer_basis(G)
    for tau in rational_irreducibles(G):
        data.perm_multiple(data.orbit_target(tau.constituent_index))
    assert brauer_basis(G).basis == lat.basis
    assert len(calls) == 1
