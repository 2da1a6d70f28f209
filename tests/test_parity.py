"""Global assembly: the main congruence on random models, and the norm
relations test's multiplier and relation."""

import random
import types
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from krel import characters, harness, parity
from krel.characters import character_table, fs_indicator, perm_character, \
    rational_irreducibles
from krel.curvelocal import AddPotGood, AddPotMult, Good, InvalidPlace, \
    NonsplitMult, PlaceDescriptor, SplitMult, SquareClassLocal, local_ef, \
    local_u_contribution, tamagawa, validate_place
from krel.exactmath import CycNumber
from krel.groups import (alternating4_group, cyclic_group, dihedral_group,
                         group_from_cycles, metacyclic_group,
                         quaternion_group, subgroup_rep)
from krel.harness import MetacyclicSpec, appendix_tamagawa_check, \
    synthetic_model
from krel.parity import CurveLocalModel, global_C_product, global_root_sign, \
    nrt_run, theorem_main_check
from krel.relations import k_relation_basis

from character_oracles import orbit_sum

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
            assert theta_character(G, report.theta) == report.m * orbit_sum(tau)
            failed = any(not ok for ok in report.norm_verdicts.values())
            assert report.prediction == (failed or report.square_ok is False)
            assert (report.square_ok is None) == (report.m % 2 == 1)


# ---------------------------------------------------------------------------
# Reference: the fudge product with H conjugated by each double-coset
# representative here, (e, f) from the place directly, and the differential
# exponent written out by hand.


def reference_ef(p, h):
    if not h <= p.dsub:
        raise ValueError("H must be a subgroup of D_v")
    hi = len(h & p.isub)
    e = len(p.isub) // hi
    f = len(p.dsub) * hi // (len(h) * len(p.isub))
    return e, f


def reference_fudge(p, h):
    e, f = reference_ef(p, h)
    assert local_ef(p.dsub, p.isub, h) == (e, f)
    c = Fraction(tamagawa(p, h))
    red = p.reduction
    if isinstance(red, AddPotGood):
        c *= Fraction(p.q) ** ((red.delta * e // 12) * f)
    elif isinstance(red, AddPotMult):
        c *= Fraction(p.q) ** ((e // 2) * f)
    return c


def reference_global_C_product(model, theta):
    G = model.group
    val = Fraction(1)
    for p in model.finite_places():
        if isinstance(p.reduction, Good):
            continue
        for cid, coeff in theta.items():
            if not coeff:
                continue
            hrep = G.subgroup_class_by_id(cid).representative
            for x, _ in G.double_cosets(hrep, p.dsub):
                xinv = G.inv(x)
                hx = frozenset(G.mul(G.mul(xinv, h), x) for h in hrep) & p.dsub
                val *= reference_fudge(p, hx) ** coeff
    return val


WALK_GROUPS = {
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


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
def test_global_C_product_matches_reference_walk(name):
    G = WALK_GROUPS[name]()
    rng = random.Random(f"walk/{name}")
    basis = k_relation_basis(G, -1).basis
    everything = {c.id: 1 for c in G.subgroup_classes()}
    for semistable in (True, False):
        for _ in range(3):
            model = synthetic_model(G, rng, semistable=semistable)
            thetas = rng.sample(basis, min(4, len(basis))) + [everything]
            for theta in thetas:
                assert global_C_product(model, theta) \
                    == reference_global_C_product(model, theta), \
                    (model.places, theta)


# ---------------------------------------------------------------------------
# The per-model record: u bits, fudge products and obstructions, each
# computed once per model, and equal to what a fresh model computes.


def direct_u(model, tau):
    """u_tau summed over the places directly, without the model's record."""
    chi = tau.constituent
    if fs_indicator(chi) != 1:
        return 0
    return sum(local_u_contribution(p, chi) for p in model.places) % 2


def test_nrt_constraints_hold_on_the_parity_side():
    # every constraint of the norm relations test names characters whose
    # root-number exponents sum to an odd number
    constraints = 0
    for name, maker in sorted(WALK_GROUPS.items()):
        G = maker()
        taus = rational_irreducibles(G)
        for semistable in (True, False):
            rng = random.Random(f"parity/{name}/{semistable}")
            model = synthetic_model(G, rng, semistable=semistable)
            for rho in character_table(G).irreducibles:
                report = nrt_run(model, rho)
                assert report.u_exponents == {
                    tau.label: direct_u(model, tau) for tau in taus}
                assert len(report.parity_holds) == len(report.constraints)
                for (labels, parity_bit), holds in zip(report.constraints,
                                                       report.parity_holds):
                    assert holds, (name, model.places, rho.label, labels)
                    assert sum(report.u_exponents[t] for t in labels) % 2 \
                        == parity_bit
                constraints += len(report.constraints)
    assert constraints > 0


def test_nrt_constraint_names_the_non_norm_constants():
    # D21 with one split multiplicative place, D_v = S3 and I_v = C3: for a
    # constituent of tau_5 the norm relation is 2.1 - 6.1 - 14.1 + 42.1 and
    # the fudge product 27 is no norm from Q(sqrt 21).  The regulator
    # constants of tau_1, ..., tau_5 there are 1, 1, 7, 27 and 1/189, so
    # the constraint names tau_4 and tau_5, the two that are not norms
    G = dihedral_group(21)
    place = PlaceDescriptor("v", "finite", G, 13, 13, subgroup_rep(G, "6.1"),
                            subgroup_rep(G, "3.1"), SplitMult(1))
    tau5 = next(t for t in rational_irreducibles(G) if t.label == "tau_5")
    report = nrt_run(CurveLocalModel(G, (place,)), tau5.constituent)
    assert report.theta == {"2.1": 1, "6.1": -1, "14.1": -1, "42.1": 1}
    assert report.product == 27 and report.norm_verdicts == {21: False}
    assert report.constraints == [(("tau_4", "tau_5"), 1)]
    assert report.parity_holds == [True]


def test_square_branch_needs_no_factoring():
    # m = 2 for chi_5 on Q8, and the product 1000003^4 is a square whose
    # prime lies above the factoring bound
    G = quaternion_group()
    q = 1000003
    red = AddPotGood(6, SquareClassLocal(0, True), SquareClassLocal(1, True))
    place = PlaceDescriptor("v", "finite", G, q, q, subgroup_rep(G, "4.1"),
                            subgroup_rep(G, "2.1"), red)
    rho = next(chi for chi in character_table(G).irreducibles
               if chi.label == "chi_5")
    report = nrt_run(CurveLocalModel(G, (place,)), rho)
    assert report.m == 2 and report.product == q ** 4
    assert report.square_ok is True and not report.prediction


def test_square_branch_predicts_on_a_non_square_product():
    # chi_5 on Q8 has rational character field, so no norm verdict can fail
    # and only the square test can predict.  One split multiplicative place
    # with D_v = Q8 and I_v = C4: the Tamagawa number e*n is 4 over the
    # whole field and 2 over the fixed field of the centre, so the product
    # over theta = 1.1 - 2.1 is 2, which is no rational square
    G = quaternion_group()
    place = PlaceDescriptor("v", "finite", G, 7, 7, subgroup_rep(G, "8.1"),
                            subgroup_rep(G, "4.1"), SplitMult(1))
    rho = next(chi for chi in character_table(G).irreducibles
               if chi.label == "chi_5")
    report = nrt_run(CurveLocalModel(G, (place,)), rho)
    assert report.m == 2 and report.theta == {"1.1": 1, "2.1": -1}
    assert report.product == 2
    assert report.norm_verdicts == {}
    assert report.square_ok is False
    assert report.prediction is True


# ---------------------------------------------------------------------------
# The structural obstructions of the norm relations test, on hand models.


def hand_place(G, name, dsub, isub, red, q=13):
    return PlaceDescriptor(name, "finite", G, q, q, frozenset(dsub),
                           frozenset(isub), red)


def obstruction_rules(G, places):
    return [d.rule for d in CurveLocalModel(G, tuple(places)).obstructions]


def test_nrt_obstructions_of_the_group():
    # with no places, the places' two rules hold vacuously as well
    c7c3 = metacyclic_group(7, 3, 2)
    assert c7c3.order == 21
    assert obstruction_rules(c7c3, ()) == [
        "odd-order", "good-at-ramified", "local-decomposition"]
    assert obstruction_rules(cyclic_group(6), ()) == [
        "cyclic", "good-at-ramified", "local-decomposition"]


def test_nrt_obstructions_of_the_places():
    S3 = dihedral_group(3, name="S3")
    whole, rot = frozenset(range(6)), subgroup_rep(S3, "3.1")
    split_ramified = hand_place(S3, "v", whole, rot, SplitMult(1))
    assert obstruction_rules(S3, [split_ramified]) == []
    # good at the only ramified place; the bad place is unramified, so its
    # D_v is cyclic as well
    good = hand_place(S3, "v", whole, rot, Good())
    split_unramified = hand_place(S3, "w", subgroup_rep(S3, "2.1"), {0},
                                  SplitMult(1))
    assert obstruction_rules(S3, [good, split_unramified]) == [
        "good-at-ramified", "local-decomposition"]
    # bad at a ramified place whose D_v = I_v = C3 is cyclic
    cyclic_dv = hand_place(S3, "v", rot, rot, SplitMult(1))
    assert obstruction_rules(S3, [cyclic_dv]) == ["local-decomposition"]


def test_nrt_obstructions_odd_decomposition_group():
    # a split place on D_v = C7:C3, I_v = C7 inside C7:C6 (order 42): D_v
    # is not cyclic, but its odd order alone makes the test blind
    G = metacyclic_group(7, 6, 3)
    assert G.order == 42
    dsub = next(c.representative for c in G.subgroup_classes()
                if c.order == 21)
    isub = next(c.representative for c in G.subgroup_classes()
                if c.order == 7)
    assert not G.classify_subgroup(dsub).is_cyclic
    place = hand_place(G, "v", dsub, isub, SplitMult(1))
    assert obstruction_rules(G, [place]) == ["local-decomposition"]


def record_model(G, seed):
    """A general model over G with a bad finite place and at least two
    places, drawn from a fixed seed."""
    rng = random.Random(seed)
    while True:
        model = synthetic_model(G, rng, rational_base=True)
        if any(p.is_finite() and not isinstance(p.reduction, Good)
               for p in model.places):
            return model


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_record_computes_each_bit_and_product_once(name, monkeypatch):
    G = GROUPS[name]()
    model = record_model(G, f"record/{name}")
    irrs = character_table(G).irreducibles
    u_calls, c_calls = Counter(), Counter()
    plain_u, plain_c = parity.local_u_contribution, parity.fudge_C

    def counted_u(p, chi):
        u_calls[p.name, G.data.irreducible_index(chi)] += 1
        return plain_u(p, chi)

    def counted_c(p, h):
        c_calls[p.name] += 1
        return plain_c(p, h)

    monkeypatch.setattr(parity, "local_u_contribution", counted_u)
    monkeypatch.setattr(parity, "fudge_C", counted_c)
    thetas = []
    for _ in range(2):
        for d in FIELDS:
            for theta in k_relation_basis(G, d).basis:
                theorem_main_check(model, theta, d)
                thetas.append(theta)
        for rho in irrs:
            thetas.append(nrt_run(model, rho).theta)
    orthogonal = {tau.constituent_index for tau in rational_irreducibles(G)
                  if fs_indicator(tau.constituent) == 1}
    assert u_calls == Counter({(p.name, j): 1 for p in model.places
                               for j in orthogonal})
    used = {cid for theta in thetas for cid, c in theta.items() if c}
    want = Counter()
    for p in model.finite_places():
        if not isinstance(p.reduction, Good):
            for cid in used:
                rep = G.subgroup_class_by_id(cid).representative
                want[p.name] += len(G.double_cosets(rep, p.dsub))
    assert c_calls == want and sum(want.values()) > 0


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_warm_record_matches_fresh_models_and_the_reference(name):
    G = GROUPS[name]()
    seed = f"warm/{name}"
    warm = record_model(G, seed)
    for rho in character_table(G).irreducibles:
        nrt_run(warm, rho)
    everything = {c.id: 1 for c in G.subgroup_classes()}
    for d in FIELDS:
        for theta in k_relation_basis(G, d).basis + [everything]:
            fresh = record_model(G, seed)
            assert global_C_product(warm, theta) \
                == global_C_product(fresh, theta) \
                == reference_global_C_product(record_model(G, seed), theta)
    fresh = record_model(G, seed)
    for tau in rational_irreducibles(G):
        u = global_root_sign(warm, tau.constituent)
        assert u == global_root_sign(fresh, tau.constituent)
        assert u == direct_u(record_model(G, seed), tau)


def test_u_exponents_are_read_once_per_model(monkeypatch):
    G = group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4")
    model = synthetic_model(G, random.Random("u-once/S4"))
    calls = Counter()
    plain = CurveLocalModel.root_bits

    def counted(self, chi):
        calls[G.data.irreducible_index(chi)] += 1
        return plain(self, chi)

    monkeypatch.setattr(CurveLocalModel, "root_bits", counted)
    reports = [theorem_main_check(model, theta, d) for d in FIELDS
               for theta in k_relation_basis(G, d).basis]
    reports += [nrt_run(model, rho)
                for rho in character_table(G).irreducibles]
    taus = rational_irreducibles(G)
    assert set(calls) <= {tau.constituent_index for tau in taus}
    assert max(calls.values()) == 1
    want = dict(reports[0].u_exponents)
    assert set(want) == {tau.label for tau in taus}
    for report, after in zip(reports, reports[1:]):
        assert report.u_exponents == want
        report.u_exponents.clear()
        assert after.u_exponents == want
    theta = k_relation_basis(G, -1).basis[0]
    assert theorem_main_check(model, theta, -1).u_exponents == want
    rho = character_table(G).irreducibles[0]
    assert nrt_run(model, rho).u_exponents == want


def s3_split_place(S3):
    p = hand_place(S3, "v", range(6), subgroup_rep(S3, "3.1"), SplitMult(1))
    assert validate_place(p) == []
    return p


def test_model_refuses_a_place_on_another_group():
    S3 = dihedral_group(3)
    p = s3_split_place(S3)
    with pytest.raises(ValueError, match="v: place group is not the model "
                                         "group"):
        CurveLocalModel(dihedral_group(3), [p])
    assert CurveLocalModel(S3, [p]).places == (p,)


def test_places_and_models_are_frozen():
    S3 = dihedral_group(3)
    p = s3_split_place(S3)
    model = CurveLocalModel(S3, [p], rational_base=True)
    for f in fields(PlaceDescriptor):
        with pytest.raises(FrozenInstanceError):
            setattr(p, f.name, None)
    with pytest.raises(FrozenInstanceError):
        model.places = (p,)
    assert model.places == (p, PlaceDescriptor("oo", "real"))
    assert hash(p) == hash(replace(p))


def test_a_changed_place_makes_a_new_model():
    # D_v = C2, I_v = 1 on S3, theta every subgroup class once: the model of
    # the split place keeps its values once the place is remade nonsplit
    S3 = dihedral_group(3)
    p = hand_place(S3, "v", subgroup_rep(S3, "2.1"), [0], SplitMult(3))
    theta = {c.id: 1 for c in S3.subgroup_classes()}
    split = CurveLocalModel(S3, [p])
    assert global_C_product(split, theta) == 2187
    assert list(split.u_exponents.values()) == [1, 0, 1]
    nonsplit = CurveLocalModel(S3, [replace(p, reduction=NonsplitMult(3))])
    assert global_C_product(nonsplit, theta) == 243
    assert list(nonsplit.u_exponents.values()) == [0, 1, 1]
    assert global_C_product(split, theta) == 2187
    assert list(split.u_exponents.values()) == [1, 0, 1]


def test_an_invalid_replace_raises_invalid_place():
    S3 = dihedral_group(3)
    p = s3_split_place(S3)
    with pytest.raises(InvalidPlace, match="invalid place 'v': "
                                           "quotient-cyclic") as exc:
        replace(p, isub=frozenset([0]))
    assert isinstance(exc.value, ValueError)
    assert [d.rule for d in exc.value.diagnostics] == ["quotient-cyclic"]


def test_global_root_sign_refuses_a_character_of_another_group():
    S3 = dihedral_group(3)
    model = CurveLocalModel(S3, [s3_split_place(S3)], rational_base=True)
    for G in (cyclic_group(3), cyclic_group(2), dihedral_group(3)):
        chi = character_table(G).irreducibles[-1]
        with pytest.raises(ValueError, match="not a character of the "
                                             "model's group"):
            global_root_sign(model, chi)


def test_theorem_check_refuses_a_theta_that_is_not_a_relation():
    S3 = dihedral_group(3)
    model = CurveLocalModel(S3, [s3_split_place(S3)], rational_base=True)
    # C[S3/1] holds the trivial character once: not a K-relation for Q(i)
    with pytest.raises(ValueError, match="theta is not a relation for d = -1"):
        theorem_main_check(model, {"1.1": 1}, -1)


# ---------------------------------------------------------------------------
# Characters stay integers outside the table build


def test_theorem_and_appendix_paths_use_no_cyclotomic_value(monkeypatch):
    # fresh groups, so each table is built under watch: outside
    # _compute_character_table no CycNumber is built and none is read,
    # through an attribute, a method or an operator
    building, built, seen = [], [], Counter()
    plain_build = characters._compute_character_table

    def build(G):
        building.append(G)
        built.append(G)
        try:
            return plain_build(G)
        finally:
            building.pop()

    def watched(name, plain):
        def method(self, *args):
            if not building:
                seen[name] += 1
            return plain(self, *args)
        return method

    monkeypatch.setattr(characters, "_compute_character_table", build)
    monkeypatch.setattr(CycNumber, "__getattribute__",
                        watched("__getattribute__", object.__getattribute__))
    for name, plain in list(vars(CycNumber).items()):
        if isinstance(plain, types.FunctionType):
            monkeypatch.setattr(CycNumber, name, watched(name, plain))
    v_solved = []
    plain_v = harness._v_fixed_det
    monkeypatch.setattr(harness, "_v_fixed_det",
                        lambda *a: v_solved.append(a) or plain_v(*a))
    checks = 0
    for name, make in sorted(WALK_GROUPS.items()):
        G = make()
        bases = {d: k_relation_basis(G, d).basis for d in FIELDS}
        model = synthetic_model(G, random.Random(f"integers/{name}"),
                                rational_base=True)
        for d, basis in bases.items():
            for theta in basis[:2]:
                assert theorem_main_check(model, theta, d).congruent
                checks += 1
        for rho in character_table(G).irreducibles:
            nrt_run(model, rho)
    rows = appendix_tamagawa_check("2D", MetacyclicSpec(3, 1, -1))
    assert checks == 9 * 4 * 2 and len(built) == 10 and len(v_solved) == 1
    assert rows and all(row.passed for row in rows)
    assert seen == Counter()
