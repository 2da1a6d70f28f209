"""Global assembly: the main congruence on random models, and the norm
relations test's multiplier and relation."""

import random

import pytest

from krel.characters import character_table, perm_character, \
    rational_irreducibles
from krel.groups import dihedral_group, quaternion_group
from krel.harness import synthetic_model
from krel.parity import nrt_run, theorem_main_check
from krel.relations import k_relation_basis

GROUPS = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
}
FIELDS = (-1, 2, -3, 5)


def theta_character(G, theta):
    total = 0 * perm_character(G, frozenset({0}))
    for cid, coeff in theta.items():
        rep = G.subgroup_class_by_id(cid).representative
        total = total + coeff * perm_character(G, rep)
    return total


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_main_congruence_on_random_models(name):
    G = GROUPS[name]()
    rng = random.Random(f"congruence/{name}")
    lattices = {d: k_relation_basis(G, d).basis for d in FIELDS}
    for semistable in (True, False):
        for _ in range(3):
            model = synthetic_model(G, rng, semistable=semistable)
            for d, basis in lattices.items():
                for theta in rng.sample(basis, min(3, len(basis))):
                    report = theorem_main_check(model, theta, d)
                    assert report.congruent, (model.places, d, theta, report)
                    assert set(report.u_exponents) == {
                        tau.label for tau in rational_irreducibles(G)}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_nrt_relation_realises_m_times_the_orbit_sum(name):
    G = GROUPS[name]()
    rng = random.Random(f"nrt/{name}")
    taus = rational_irreducibles(G)
    for semistable in (True, False):
        model = synthetic_model(G, rng, semistable=semistable)
        for j, rho in enumerate(character_table(G).irreducibles):
            report = nrt_run(model, rho)
            tau = next(t for t in taus if j in t.orbit_indices)
            assert report.m >= 1
            assert theta_character(G, report.theta) == report.m * tau.sum_values
            failed = any(not ok for ok in report.norm_verdicts.values())
            assert report.prediction == (failed or report.square_ok is False)
            assert (report.square_ok is None) == (report.m % 2 == 1)
