"""The base case that K-relations extend: on a Brauer relation the
congruence holds modulo rational squares, place by place.

A Brauer relation beta is a K-relation for every quadratic K, and its
regulator constants C_beta(tau) are well defined modulo rational squares
(Dokchitser-Dokchitser 2009, section 2), not only modulo the norms of one
field.  So at every place v of a model the ratio

    prod_H C_v(H)^{beta_H} / prod_tau C_beta(tau)^{u_{tau,v}}

is a positive rational square, and so is the product of these ratios over
the places.  That is strictly stronger than the congruence checked at the
probe fields: 241 is a norm from Q(i), Q(sqrt 2), Q(sqrt -3) and Q(sqrt 5)
and is not a square, so a fudge factor that gains 241 at some place passes
the four-field check and fails this one wherever 241 enters to an odd
power.  The fudge product of a place that is not a bad finite place is 1.
"""

import random
from fractions import Fraction

import pytest

from krel.characters import rational_irreducibles
from krel.curvelocal import Good
from krel.exactmath import fraction_product
from krel.harness import synthetic_model
from krel.parity import _is_rational_square, global_C_product
from krel.regconst import reg_const_rational_irr
from krel.relations import brauer_basis

from test_parity import WALK_GROUPS

FIELDS = (-1, 2, -3, 5)
SEEDS = range(10)


def place_fudge(model, i, beta):
    """prod_H C_v(H)^{beta_H} at the i-th place of the model."""
    p = model.places[i]
    if not p.is_finite() or isinstance(p.reduction, Good):
        return Fraction(1)
    return fraction_product((model.fudge_product(i, cid), c)
                            for cid, c in beta.items() if c)


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
def test_brauer_relations_hold_modulo_squares_at_every_place(name):
    G = WALK_GROUPS[name]()
    taus = rational_irreducibles(G)
    basis = brauer_basis(G).basis
    assert basis
    # C_beta(tau) is one rational for every probe field
    consts = []
    for beta in basis:
        by_field = [[reg_const_rational_irr(G, beta, tau, d) for tau in taus]
                    for d in FIELDS]
        assert all(row == by_field[0] for row in by_field), (name, beta)
        consts.append(by_field[0])
    places = 0
    for seed in SEEDS:
        for semistable in (True, False):
            model = synthetic_model(
                G, random.Random(f"{name}/{seed}/{semistable}"), semistable)
            bits = [model.root_bits(tau.constituent) for tau in taus]
            for beta, const in zip(basis, consts):
                for i in range(len(model.places)):
                    ratio = place_fudge(model, i, beta) / fraction_product(
                        (c, b[i]) for c, b in zip(const, bits))
                    assert _is_rational_square(ratio), (model.places[i], beta)
                places += len(model.places)
                # the global ratio, at the exponents u_tau
                rhs = fraction_product((c, model.u_exponents[tau.label])
                                       for c, tau in zip(const, taus))
                assert _is_rational_square(
                    global_C_product(model, beta) / rhs), (model.places, beta)
    assert places > 0
