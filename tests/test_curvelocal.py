"""Tests for local curve data: validation, Tamagawa numbers, fudge factors, root data."""

import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from appendix_places import DIHEDRAL_SPECS, appendix_places

from krel.characters import ClassFunction, character_table, inner_product, perm_character
from krel.curvelocal import (
    AddPotGood,
    AddPotMult,
    Good,
    InvalidPlace,
    NonsplitMult,
    PlaceDescriptor,
    SplitMult,
    SquareClassLocal,
    _with_v,
    decomposition_pair_problem,
    default_additive_lambda,
    fudge_C,
    is_square_in_ext,
    local_ef,
    local_u_contribution,
    reduction_case,
    tamagawa,
    v_pairing,
    validate_place,
)
from krel.exactmath import (ExactCheckError, is_norm_from_quadratic,
                            kronecker_symbol)
from krel.groups import (
    PermGroup,
    cyclic_group,
    dihedral_group,
    metacyclic_group,
    quaternion_group,
    subgroup_as_group,
    subgroup_rep,
)
from krel.harness import MetacyclicSpec, build_metacyclic, synthetic_model
from krel.relations import (
    eval_on_theta,
    is_trivial_on_k_relations,
    k_relation_basis,
)
from local_functions import local_fn

sq = SquareClassLocal

SQ_TRIV = sq(0, True)        # a square
SQ_UNIT = sq(0, False)       # non-square unit
SQ_UNIF = sq(1, True)        # uniformizer times a square


def finite_place(group, dsub, isub, reduction, l=13, q=13, name="v"):
    return PlaceDescriptor(name, "finite", group, l, q, dsub, isub, reduction)


def d21_split_place(n=1):
    """Split multiplicative place on the order-42 group, decomposition S_3."""
    G = metacyclic_group(21, 2, 20)
    dsub = subgroup_rep(G, "6.1")
    isub = frozenset(x for x in dsub if G.element_order(x) in (1, 3))
    return finite_place(G, dsub, isub, SplitMult(n), l=13, q=13)


def s3_split_place(n=1, q=13):
    """Split multiplicative place whose group is its own decomposition group."""
    S3 = dihedral_group(3)
    whole = frozenset(range(6))
    rot = subgroup_rep(S3, "3.1")
    return finite_place(S3, whole, rot, SplitMult(n), l=q, q=q)


def s3_dihedral_place(delta=4, q=5, dprime=frozenset([0]), lambda_override=None):
    """Potentially good place with decomposition group all of S_3 (case 2D)."""
    S3 = dihedral_group(3)
    red = AddPotGood(delta, SQ_UNIT, SQ_TRIV, lambda_override, dprime)
    return finite_place(S3, frozenset(range(6)), subgroup_rep(S3, "3.1"), red, l=q, q=q)


def d21_dihedral_place(q=5):
    """Case 2D place with decomposition group the whole order-42 group."""
    G = metacyclic_group(21, 2, 20)
    whole = frozenset(range(42))
    isub = subgroup_rep(G, "21.1")
    red = AddPotGood(4, SQ_UNIT, SQ_TRIV, None, subgroup_rep(G, "7.1"))
    return finite_place(G, whole, isub, red, l=q, q=q)


def c2_potmult_place(q=13, n=1, b=SQ_TRIV, delta=None, minus_c6=SQ_UNIF):
    """Potentially multiplicative place with D_v = I_v = C_2 (ramified
    quadratic); D' = 1 exactly when -c6 becomes a square over the top field.
    The discriminant class defaults to a square unit times pi^(n + 6)."""
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    if delta is None:
        delta = sq(n % 2, True)
    dprime = frozenset([0]) if minus_c6.unit_is_square else None
    red = AddPotMult(n, minus_c6, b, delta, dprime)
    return finite_place(C2, w, w, red, l=q, q=q)


# ---------------------------------------------------------------------------
# square classes in unramified/ramified extensions


def test_square_class_local_validates_parity():
    with pytest.raises(ValueError):
        sq(2, True)


@pytest.mark.parametrize(
    "x, e, f, expected",
    [
        (sq(1, True), 2, 1, True),    # odd valuation, ramified: becomes even
        (sq(0, False), 1, 2, True),   # non-square unit, even residue degree
        (sq(0, False), 3, 1, False),  # non-square unit survives odd extensions
        (sq(1, True), 1, 2, False),   # odd valuation stays odd unramified
        (sq(0, True), 1, 1, True),
        (sq(1, False), 2, 2, True),
    ],
)
def test_is_square_in_ext(x, e, f, expected):
    assert is_square_in_ext(x, e, f) is expected


# ---------------------------------------------------------------------------
# validation diagnostics


def test_validate_good_place():
    C2 = cyclic_group(2)
    p = PlaceDescriptor("w", "finite", C2, 5, 5, frozenset(range(2)), frozenset([0]), Good())
    assert validate_place(p) == []


def test_archimedean_place_has_no_tamagawa_number():
    real = PlaceDescriptor("oo", "real")
    for fn in (tamagawa, fudge_C):
        with pytest.raises(ValueError, match="place 'oo' is not finite"):
            fn(real, frozenset([0]))


def _rules(build, *args, **kwargs):
    """The rules that build(*args, **kwargs) breaks, as the diagnostics of
    its InvalidPlace; [] when the place it builds is valid."""
    try:
        build(*args, **kwargs)
    except InvalidPlace as exc:
        return [d.rule for d in exc.diagnostics]
    return []


def _diag_rules(*fields):
    return _rules(PlaceDescriptor, *fields)


def test_validate_archimedean_and_unknown_kind():
    for kind in ("real", "complex"):
        p = PlaceDescriptor("oo", kind)
        assert validate_place(p) == []
    assert _diag_rules("x", "padic") == ["kind"]


def test_missing_fields_flagged():
    C2 = cyclic_group(2)
    assert "incomplete" in _diag_rules("w", "finite", C2, 5, 5, None, None, None)


def test_subgroups_must_be_frozensets():
    # a list D_v or I_v would break fudge_C's subgroup test and the hash
    C2 = cyclic_group(2)
    for dsub, isub in (([0, 1], frozenset([0])), (frozenset(range(2)), [0])):
        assert _diag_rules("w", "finite", C2, 5, 5, dsub, isub,
                           Good()) == ["subgroup-type"]


def test_dprime_must_be_a_frozenset():
    # a list D' would break the root datum and the hash at a 2D place, and
    # read as the wrong index at a 2M one
    S3 = dihedral_group(3)
    rot = subgroup_rep(S3, "3.1")
    assert _diag_rules("v", "finite", S3, 5, 5, frozenset(range(6)), rot,
                       AddPotGood(4, SQ_UNIT, SQ_TRIV, None, [0])
                       ) == ["subgroup-type"]
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    assert _diag_rules("v", "finite", C2, 5, 5, w, w,
                       AddPotMult(1, SQ_UNIF, SQ_TRIV, SQ_UNIF, [0])
                       ) == ["subgroup-type"]


def test_residue_size_checks():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    assert "residue-size" in _diag_rules(
        "w", "finite", C2, 6, 6, w, frozenset([0]), Good())
    assert "residue-size" in _diag_rules(
        "w", "finite", C2, 5, 10, w, frozenset([0]), Good())


def test_decomposition_and_inertia_closure_checks():
    G = metacyclic_group(21, 2, 20)
    dsub = subgroup_rep(G, "6.1")
    isub = frozenset(x for x in dsub if G.element_order(x) in (1, 3))
    not_closed = frozenset(list(dsub)[:4])
    assert "decomposition-closed" in _diag_rules(
        "v", "finite", G, 13, 13, not_closed, isub, SplitMult(1))
    assert "inertia-subgroup" in _diag_rules(
        "v", "finite", G, 13, 13, isub, dsub, SplitMult(1))


def test_inertia_normality_check():
    S3 = dihedral_group(3)
    refl = next(x for x in range(6) if S3.element_order(x) == 2)
    assert "inertia-normality" in _diag_rules(
        "v", "finite", S3, 5, 5, frozenset(range(6)),
        frozenset([0, refl]), SplitMult(1),
    )


def test_quotient_cyclic_check():
    # D_v/I_v must be cyclic: S_3 over trivial inertia is not.
    S3 = dihedral_group(3)
    assert "quotient-cyclic" in _diag_rules(
        "v", "finite", S3, 5, 5, frozenset(range(6)), frozenset([0]), SplitMult(1)
    )


def test_failed_revalidation_clears_the_flag():
    # a place with D_v = S_3 and I_v = C_3 cannot be remade with a trivial
    # I_v: the quotient is no longer cyclic, and the old place stays usable
    p = s3_split_place()
    assert _rules(replace, p, isub=frozenset([0])) == ["quotient-cyclic"]
    assert p.isub == subgroup_rep(p.group, "3.1")
    assert fudge_C(p, frozenset([0])) == 3
    # every other early return refuses the new place too
    for field, bad, rule in [("kind", "padic", "kind"),
                             ("reduction", None, "incomplete"),
                             ("q", 10, "residue-size")]:
        assert _rules(replace, p, **{field: bad}) == [rule]


BAD_PAIRS = {
    # rule: (group, its D_v, its I_v)
    "decomposition-closed": (
        lambda: metacyclic_group(21, 2, 20),
        lambda G: frozenset(list(subgroup_rep(G, "6.1"))[:4]),
        lambda G: frozenset([0])),
    "inertia-subgroup": (
        lambda: metacyclic_group(21, 2, 20),
        lambda G: frozenset(x for x in subgroup_rep(G, "6.1")
                            if G.element_order(x) in (1, 3)),
        lambda G: subgroup_rep(G, "6.1")),
    "inertia-normality": (
        lambda: dihedral_group(3),
        lambda G: frozenset(range(6)),
        lambda G: frozenset([0, next(x for x in range(6)
                                     if G.element_order(x) == 2)])),
    "quotient-cyclic": (
        lambda: dihedral_group(3),
        lambda G: frozenset(range(6)),
        lambda G: frozenset([0])),
}


@pytest.mark.parametrize("rule", list(BAD_PAIRS))
def test_localfn_and_validate_place_reject_the_same_pairs(rule):
    make, dsub_of, isub_of = BAD_PAIRS[rule]
    G = make()
    dsub, isub = dsub_of(G), isub_of(G)
    with pytest.raises(InvalidPlace) as exc:
        PlaceDescriptor("v", "finite", G, 13, 13, dsub, isub, SplitMult(1))
    diags = exc.value.diagnostics
    assert [d.rule for d in diags] == [rule]
    assert decomposition_pair_problem(G, dsub, isub) == (rule,
                                                         diags[0].message)


def test_multiplicative_n_positive():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    assert "discriminant-valuation" in _diag_rules(
        "v", "finite", C2, 5, 5, w, frozenset([0]), SplitMult(0))


def test_additive_residue_char_check():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    red = AddPotGood(6, SQ_TRIV, SQ_TRIV)
    assert "additive-residue-char" in _diag_rules("v", "finite", C2, 3, 3, w, w, red)


def test_delta_range_check():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    assert "delta-range" in _diag_rules(
        "v", "finite", C2, 5, 5, w, w, AddPotGood(5, SQ_TRIV, SQ_TRIV))


def test_good_not_attained_check():
    # delta = 2 needs 12 | 2|I_v|, so inertia of order 3 cannot give potentially
    # good reduction with that discriminant class.
    G = metacyclic_group(21, 2, 20)
    dsub = subgroup_rep(G, "6.1")
    isub = frozenset(x for x in dsub if G.element_order(x) in (1, 3))
    assert "good-not-attained" in _diag_rules(
        "v", "finite", G, 13, 13, dsub, isub, AddPotGood(2, SQ_TRIV, SQ_TRIV)
    )


def test_lambda_override_range():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    red = AddPotGood(6, SQ_TRIV, SQ_TRIV, lambda_override=2)
    assert "lambda-range" in _diag_rules("v", "finite", C2, 5, 5, w, w, red)


def test_dihedral_dprime_required_and_checked():
    S3 = dihedral_group(3)
    whole = frozenset(range(6))
    rot = subgroup_rep(S3, "3.1")
    assert "d-prime-missing" in _diag_rules(
        "v", "finite", S3, 5, 5, whole, rot, AddPotGood(4, SQ_UNIT, SQ_TRIV)
    )

    assert "d-prime-subgroup" in _diag_rules(
        "v", "finite", S3, 5, 5, whole, rot,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, frozenset([1])),
    )

    refl = next(x for x in range(6) if S3.element_order(x) == 2)
    assert "d-prime-index" in _diag_rules(
        "v", "finite", S3, 5, 5, whole, rot,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, frozenset([0, refl])),
    )

    assert "d-prime-index" in _diag_rules(
        "v", "finite", S3, 5, 5, whole, rot,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, rot),
    )


def test_dihedral_dprime_normality_check():
    # Dihedral group of order 12, inertia the rotation C_6, D' a reflection
    # pair: right index but not normal.
    D6 = metacyclic_group(6, 2, 5)
    whole = frozenset(range(12))
    r = next(x for x in range(12) if D6.element_order(x) == 6)
    rot = D6.closure(frozenset([r]))
    y = next(x for x in range(12) if x not in rot and D6.element_order(x) == 2)
    assert "d-prime-normality" in _diag_rules(
        "v", "finite", D6, 5, 5, whole, rot,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, frozenset([0, y])),
    )


def test_dihedral_inertia_image_check():
    # Dihedral group of order 12, D' its centre: D_v/D' is S_3, but the
    # inertia <r^2, s> meets D' trivially, so it maps onto all of D_v/D'
    # and not onto the rotations.
    D6 = metacyclic_group(6, 2, 5)
    whole = frozenset(range(12))
    r = next(x for x in range(12) if D6.element_order(x) == 6)
    rot = D6.closure(frozenset([r]))
    centre = frozenset([0, D6.mul(r, D6.mul(r, r))])
    s = next(x for x in range(12) if x not in rot)
    isub = D6.closure(frozenset([D6.mul(r, r), s]))
    assert _diag_rules(
        "v", "finite", D6, 5, 5, whole, isub,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, centre),
    ) == ["inertia-image"]
    # the same D' over the rotations C_6 passes every dihedral rule
    assert _diag_rules(
        "v", "finite", D6, 5, 5, whole, rot,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, centre),
    ) == []


def test_dihedral_dprime_quotient_shape_check():
    # C_6 modulo the trivial subgroup is cyclic of order 6, never dihedral.
    C6 = cyclic_group(6)
    w6 = frozenset(range(6))
    rot = frozenset([0, 2, 4])
    assert "d-prime-quotient" in _diag_rules(
        "v", "finite", C6, 5, 5, w6, rot,
        AddPotGood(4, SQ_UNIT, SQ_TRIV, None, frozenset([0])),
    )


@pytest.mark.parametrize("make, inertia_order, delta, q", [
    (quaternion_group, 4, 3, 7),
    (lambda: metacyclic_group(3, 4, 2), 6, 2, 5),
])
def test_dicyclic_quotient_is_not_dihedral(make, inertia_order, delta, q):
    # Q8 and C3:C4 with D' = 1: the rotations I_v have index 2 and every
    # element off them inverts them, but squares to the central involution,
    # not into D'.  A Frobenius lift squares to 1 in the dihedral quotient.
    G = make()
    whole = frozenset(range(G.order))
    isub = next(c.representative for c in G.subgroup_classes()
                if c.order == inertia_order and c.is_cyclic)
    red = AddPotGood(delta, SquareClassLocal(delta % 2, True), SQ_TRIV,
                     None, frozenset([0]))
    # the case label reads only the reduction and q, so it is read off a
    # stand-in: no place with these fields can be built
    assert reduction_case(SimpleNamespace(reduction=red, q=q)) == "2D"
    assert _diag_rules("v", "finite", G, q, q, whole, isub, red) == [
        "d-prime-quotient"]


def test_cyclic_case_rejects_dprime():
    # q = 7 is 1 mod 3, so the extension is cyclic and D' has no meaning.
    C3 = cyclic_group(3)
    w = frozenset(range(3))
    assert "d-prime-not-needed" in _diag_rules(
        "v", "finite", C3, 7, 7, w, w,
        AddPotGood(4, SQ_TRIV, SQ_TRIV, None, frozenset([0])),
    )


def test_delta_square_forced():
    # A tame cyclic sextic contains the quadratic subextension cut out by the
    # square root of the discriminant, so the class must already be trivial.
    C6 = cyclic_group(6)
    w = frozenset(range(6))
    assert "delta-square-forced" in _diag_rules(
        "v", "finite", C6, 7, 7, w, w, AddPotGood(2, SQ_UNIT, SQ_TRIV)
    )


def test_not_additive_check():
    # At an I_n* place with l >= 5, v(c6) = 3: a -c6 of even valuation,
    # square or not, means multiplicative reduction, not additive.  A square
    # -c6 also asks for a D' here, since it is a square over the top field.
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    for minus_c6, rules in ((SQ_TRIV, ["not-additive", "d-prime-required"]),
                            (SQ_UNIT, ["not-additive"])):
        red = AddPotMult(1, minus_c6, SQ_TRIV, SQ_UNIF, None)
        assert _diag_rules("v", "finite", C2, 5, 5, w, w, red) == rules


def test_delta_class_parity_follows_the_discriminant_valuation():
    # D6 with delta = 2: a declared Delta of odd valuation would read c = 2
    # at the classes 2.3 and 4.1, where v(Delta) = 2 gives 1
    G, rotation, frobenius = build_metacyclic(MetacyclicSpec(6, 1, -1))
    whole = frozenset(range(G.order))
    isub = G.closure([rotation])
    dprime = G.closure([G.mul(frobenius, frobenius)])

    def place(delta_class):
        red = AddPotGood(2, delta_class, SQ_UNIF, dprime=dprime)
        return PlaceDescriptor("v", "finite", G, 5, 5, whole, isub, red)
    assert _rules(place, SQ_UNIF) == ["delta-class-parity"]
    p = place(SQ_TRIV)
    assert validate_place(p) == []
    assert [tamagawa(p, subgroup_rep(G, cid)) for cid in ("2.3", "4.1")] \
        == [1, 1]

    # I_n*: v(Delta) = n + 6
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    for n, delta_class, rules in ((1, SQ_TRIV, ["delta-class-parity"]),
                                  (1, SQ_UNIF, []),
                                  (2, SQ_UNIF, ["delta-class-parity"]),
                                  (2, SQ_UNIT, [])):
        red = AddPotMult(n, SQ_UNIF, SQ_TRIV, delta_class, frozenset([0]))
        assert _diag_rules("v", "finite", C2, 5, 5, w, w, red) == rules, (n, delta_class)


def test_potmult_dprime_rules():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    ident = frozenset([0])

    # -c6 a uniformizer times a non-square unit stays non-square in a
    # ramified quadratic with f = 1, so there is no quadratic subfield and
    # D' must not be supplied.
    red = AddPotMult(1, sq(1, False), SQ_TRIV, SQ_UNIF, ident)
    assert _diag_rules("v", "finite", C2, 5, 5, w, w, red) == ["d-prime-forbidden"]

    # Conversely, once -c6 is a square in F_w the subfield exists and D'
    # becomes mandatory.
    red = AddPotMult(1, SQ_UNIF, SQ_TRIV, SQ_UNIF, None)
    assert _diag_rules("v", "finite", C2, 5, 5, w, w, red) == ["d-prime-required"]

    # D' must have index 2.
    red = AddPotMult(1, SQ_UNIF, SQ_TRIV, SQ_UNIF, w)
    assert _diag_rules("v", "finite", C2, 5, 5, w, w, red) == ["d-prime-index"]

    # -c6 has odd valuation, so its square root is ramified: D' must not
    # contain inertia.
    C4 = cyclic_group(4)
    w4 = frozenset(range(4))
    half = frozenset([0, 2])
    red = AddPotMult(1, SQ_UNIF, SQ_TRIV, SQ_UNIF, half)
    assert _diag_rules("v", "finite", C4, 5, 5, w4, half, red) == [
        "d-prime-ramification"]


def test_potmult_dprime_index_is_checked_once_per_key(monkeypatch):
    # D' = I_v here, so the index rule's key must not meet the (D_v, I_v)
    # key of the pair rules on the same memo
    C4 = cyclic_group(4)
    w4 = frozenset(range(4))
    half = frozenset([0, 2])
    red = AddPotMult(1, SQ_UNIF, SQ_TRIV, SQ_UNIF, half)
    assert _diag_rules("v", "finite", C4, 5, 5, w4, half, red) == [
        "d-prime-ramification"]
    closures = []
    real = PermGroup.closure
    monkeypatch.setattr(PermGroup, "closure", lambda self, seeds:
                        closures.append(seeds) or real(self, seeds))
    assert _diag_rules("w", "finite", C4, 5, 5, w4, half, red) == [
        "d-prime-ramification"]
    assert closures == []


# ---------------------------------------------------------------------------
# reduction case labels


def test_reduction_case_labels():
    assert reduction_case(d21_split_place()) == "1S"
    assert reduction_case(s3_dihedral_place()) == "2D"
    assert reduction_case(c2_potmult_place()) == "2M"

    C2 = cyclic_group(2)
    w = frozenset(range(2))
    good = finite_place(C2, w, frozenset([0]), Good(), l=5, q=5)
    assert reduction_case(good) == "1G"

    ns = finite_place(cyclic_group(4), frozenset(range(4)), frozenset([0]),
                      NonsplitMult(1), l=3, q=3)
    assert reduction_case(ns) == "1NS"

    C3 = cyclic_group(3)
    w3 = frozenset(range(3))
    cyc = finite_place(C3, w3, w3, AddPotGood(4, SQ_TRIV, SQ_TRIV), l=7, q=7)
    assert reduction_case(cyc) == "2C"


# ---------------------------------------------------------------------------
# Tamagawa numbers


def test_tamagawa_split_multiplicative():
    p = d21_split_place(n=2)
    G = p.group
    # Over the base (H = D_v) nothing ramifies: c = n.
    assert tamagawa(p, p.dsub) == 2
    # The trivial subgroup sees the full e = 3 ramification: c = 3n.
    assert tamagawa(p, frozenset([0])) == 6
    # A reflection pair meets inertia trivially, so e = 3 there as well.
    refl = next(frozenset([0, x]) for x in p.dsub if G.element_order(x) == 2)
    assert tamagawa(p, refl) == 6


def test_tamagawa_nonsplit_multiplicative():
    C4 = cyclic_group(4)
    w4 = frozenset(range(4))
    p = finite_place(C4, w4, frozenset([0]), NonsplitMult(1), l=3, q=3)
    # Even residue degree turns nonsplit into split: c = en = 1.
    assert tamagawa(p, frozenset([0])) == 1       # f = 4
    assert tamagawa(p, frozenset([0, 2])) == 1    # f = 2
    # Over the base f = 1 and en = 1 is odd: c = 1.
    assert tamagawa(p, w4) == 1

    p2 = finite_place(C4, w4, frozenset([0]), NonsplitMult(2), l=3, q=3)
    assert tamagawa(p2, w4) == 2                  # f = 1, en = 2 even
    assert tamagawa(p2, frozenset([0])) == 2      # f = 4 even: c = en


def test_tamagawa_potentially_good_kodaira_ladder():
    # Fully ramified C_12 place: e(H) = 12/|H| realizes every additive type.
    C12 = cyclic_group(12)
    w = frozenset(range(12))
    by_order = {1: frozenset([0]), 2: frozenset([0, 6]), 3: frozenset([0, 4, 8]),
                4: frozenset(range(0, 12, 3)), 6: frozenset(range(0, 12, 2)),
                12: w}

    p = finite_place(C12, w, w, AddPotGood(2, SQ_TRIV, SQ_TRIV), l=13, q=13)
    # gcd(2e, 12) over e = 12/|H|: 12, 12, 4, 6, 4, 2 as |H| runs 1,2,3,4,6,12.
    # Square classes are trivial, so gcd 4 gives 3 and gcd 6 gives 1.
    expected2 = {1: 1, 2: 1, 3: 3, 4: 1, 6: 3, 12: 1}
    for k, h in by_order.items():
        assert tamagawa(p, h) == expected2[k], f"delta=2, |H|={k}"

    p3 = finite_place(C12, w, w, AddPotGood(3, SQ_UNIF, SQ_TRIV), l=13, q=13)
    # gcd(3e, 12): 12, 6, 12, 3, 6, 3.  gcd 3 gives 2, gcd 6 gives 1 here.
    expected3 = {1: 1, 2: 1, 3: 1, 4: 2, 6: 1, 12: 2}
    for k, h in by_order.items():
        assert tamagawa(p3, h) == expected3[k], f"delta=3, |H|={k}"


def test_tamagawa_type_iv_square_condition():
    C3 = cyclic_group(3)
    w3 = frozenset(range(3))
    # Over the base e = 1, gcd(4, 12) = 4: c is 3 or 1 by the b square class.
    p = finite_place(C3, w3, w3, AddPotGood(4, SQ_TRIV, SQ_TRIV), l=7, q=7)
    assert tamagawa(p, w3) == 3
    p2 = finite_place(C3, w3, w3, AddPotGood(4, SQ_TRIV, SQ_UNIT), l=7, q=7)
    assert tamagawa(p2, w3) == 1
    # Even residue degree makes the non-square unit a square again.
    C6 = cyclic_group(6)
    w6 = frozenset(range(6))
    rot = frozenset([0, 2, 4])
    p3 = finite_place(C6, w6, rot, AddPotGood(4, SQ_TRIV, SQ_UNIT), l=7, q=7)
    assert tamagawa(p3, rot) == 3  # e = 1, f = 2 at H = I_v


def test_tamagawa_type_i0star_square_condition():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    # Over the base e = 1 and gcd(6, 12) = 6: the discriminant class decides.
    p = finite_place(C2, w, w, AddPotGood(6, SQ_UNIT, SQ_TRIV), l=5, q=5)
    assert tamagawa(p, w) == 2
    p2 = finite_place(C2, w, w, AddPotGood(6, SQ_TRIV, SQ_TRIV), l=5, q=5)
    assert tamagawa(p2, w) == 1
    # After the ramified quadratic the type is I_0 again: c = 1 either way.
    assert tamagawa(p, frozenset([0])) == 1
    assert tamagawa(p2, frozenset([0])) == 1


def test_tamagawa_potentially_multiplicative():
    ident = frozenset([0])
    w = frozenset(range(2))

    # Even e: I_{ne}, split (c = en) when H lies in D', nonsplit (c = 2)
    # otherwise, and always nonsplit when there is no D'.
    p = c2_potmult_place(q=13, n=1)
    assert tamagawa(p, ident) == 2                # e = 2, H in D' = 1: en = 2
    p2 = c2_potmult_place(q=13, n=3)
    assert tamagawa(p2, ident) == 6               # e = 2, H in D' = 1: en = 6
    p3 = c2_potmult_place(q=13, n=3, minus_c6=sq(1, False))
    assert p3.reduction.dprime is None
    assert tamagawa(p3, ident) == 2               # no D': nonsplit, not en = 6

    # Odd e, odd n: the b class decides between 4 and 2.
    assert tamagawa(p, w) == 4                    # b square
    p4 = c2_potmult_place(q=13, n=1, b=SQ_UNIT)
    assert tamagawa(p4, w) == 2

    # Odd e, even n: the discriminant class decides.
    p5 = c2_potmult_place(q=13, n=2, b=SQ_UNIT, delta=SQ_TRIV)
    assert tamagawa(p5, w) == 4
    p6 = c2_potmult_place(q=13, n=2, b=SQ_UNIT, delta=SQ_UNIT)
    assert tamagawa(p6, w) == 2


def test_ramification_profile_monotone():
    # Both e and f on a larger subgroup divide their values on a smaller one.
    p = s3_split_place()
    S3, whole, rot = p.group, p.dsub, p.isub
    refl = next(frozenset([0, x]) for x in range(6) if S3.element_order(x) == 2)
    for chain in ([frozenset([0]), rot, whole], [frozenset([0]), refl, whole]):
        profiles = [local_ef(whole, rot, S3.double_cosets(h, whole)[0][1])
                    for h in chain]
        for (e_small, f_small), (e_big, f_big) in zip(profiles, profiles[1:]):
            assert e_small % e_big == 0
            assert f_small % f_big == 0


def test_tamagawa_needs_subgroup_of_decomposition():
    p = d21_split_place()
    with pytest.raises(ValueError):
        tamagawa(p, frozenset(range(42)))


# ---------------------------------------------------------------------------
# fudge factors


def test_fudge_good_is_one():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    p = finite_place(C2, w, frozenset([0]), Good(), l=5, q=5)
    assert fudge_C(p, w) == 1
    assert fudge_C(p, frozenset([0])) == 1


def test_good_place_checks_h_like_every_reduction():
    # D_v trivial: H = C2 is no subgroup of it, at a good place as at a
    # split multiplicative one
    C2 = cyclic_group(2)
    one = frozenset([0])
    for red in (Good(), SplitMult(1)):
        p = finite_place(C2, one, one, red, l=5, q=5)
        for fn in (tamagawa, fudge_C):
            assert fn(p, one) == 1
            with pytest.raises(ValueError, match="H must be a subgroup"):
                fn(p, frozenset(range(2)))


def test_fudge_multiplicative_equals_tamagawa():
    p = d21_split_place(n=2)
    for h in (frozenset([0]), p.dsub):
        assert fudge_C(p, h) == tamagawa(p, h)
    ns = finite_place(cyclic_group(4), frozenset(range(4)), frozenset([0]),
                      NonsplitMult(2), l=3, q=3)
    assert fudge_C(ns, frozenset(range(4))) == tamagawa(ns, frozenset(range(4)))


def test_fudge_additive_exponent():
    # C(H) = c(H) * q^(floor(delta * e / 12) * f) for potentially good places.
    C6 = cyclic_group(6)
    w6 = frozenset(range(6))
    p = finite_place(C6, w6, w6, AddPotGood(6, SQ_TRIV, SQ_TRIV), l=7, q=7)
    assert fudge_C(p, frozenset([0])) == tamagawa(p, frozenset([0])) * 7**3
    assert fudge_C(p, frozenset([0, 3])) == tamagawa(p, frozenset([0, 3])) * 7
    assert fudge_C(p, w6) == tamagawa(p, w6)
    # delta = 4, where floor(delta * e / 12) and floor(e / 2) differ at e = 6, 2
    p4 = finite_place(C6, w6, w6, AddPotGood(4, SQ_TRIV, SQ_TRIV), l=7, q=7)
    c3 = C6.subgroup_class_by_id("3.1").representative
    assert fudge_C(p4, frozenset([0])) == tamagawa(p4, frozenset([0])) * 7**2
    assert fudge_C(p4, c3) == tamagawa(p4, c3)


def test_fudge_potentially_multiplicative_exponent():
    p = c2_potmult_place(q=13)
    w = frozenset(range(2))
    # H = 1 sees the ramified quadratic: e = 2, f = 1, exponent 1.
    assert fudge_C(p, frozenset([0])) == tamagawa(p, frozenset([0])) * 13
    # Over the base e = 1 and floor(1/2) = 0.
    assert fudge_C(p, w) == tamagawa(p, w)


def test_fudge_matches_localfn_algebra():
    # The ratio C/c, written as a local function of (e, f), must agree
    # with fudge_C subgroup by subgroup.
    C6 = cyclic_group(6)
    w6 = frozenset(range(6))
    p = finite_place(C6, w6, w6, AddPotGood(6, SQ_TRIV, SQ_TRIV), l=7, q=7)
    fn = local_fn(C6, w6, w6, lambda e, f: 7 ** ((6 * e // 12) * f))
    for cls in C6.subgroup_classes():
        h = subgroup_rep(C6, cls.id)
        assert fudge_C(p, h) == tamagawa(p, h) * fn(h)

    pm = c2_potmult_place(q=13)
    C2 = pm.group
    w = frozenset(range(2))
    fnm = local_fn(C2, w, w, lambda e, f: 13 ** ((e // 2) * f))
    for h in (frozenset([0]), w):
        assert fudge_C(pm, h) == tamagawa(pm, h) * fnm(h)


def test_split_mult_fudge_is_e_times_n():
    p = s3_split_place(n=3)
    S3 = p.group
    fn = local_fn(S3, p.dsub, p.isub, lambda e, f: e * 3)
    for cls in S3.subgroup_classes():
        h = subgroup_rep(S3, cls.id)
        assert fudge_C(p, h) == fn(h)


def test_fudge_unit_rescale_is_invisible_to_relations():
    # Multiplying the fudge factor by u^f(H) for a unit u changes its value on
    # any norm relation by a norm from the quadratic field, so normalization
    # choices in the minimal differential never affect the predictions.
    p = d21_dihedral_place()
    G, whole, isub = p.group, p.dsub, p.isub
    d = 21

    def f_of(h):
        return local_ef(whole, isub, G.double_cosets(h, whole)[0][1])[1]

    lattice = k_relation_basis(G, d)
    for alpha in (2, 3, 5):
        report = is_trivial_on_k_relations(
            lambda h, a=alpha: Fraction(a) ** f_of(h), G, d, lattice)
        assert report.trivial, (alpha, report)
    for theta in lattice.basis:
        base = eval_on_theta(lambda h: fudge_C(p, h), G, theta)
        scaled = eval_on_theta(lambda h: fudge_C(p, h) * 2 ** f_of(h), G, theta)
        assert is_norm_from_quadratic(scaled / base, d)


# ---------------------------------------------------------------------------
# hand table: local factors under base change


def cyclic_place(reduction, order, inertia, q=13):
    """A place on C_order with D_v the whole group and I_v of order inertia."""
    G = cyclic_group(order)
    return finite_place(G, frozenset(range(order)),
                        subgroup_rep(G, f"{inertia}.1"), reduction, l=q, q=q)


POT_GOOD_2 = AddPotGood(2, SQ_TRIV, SQ_TRIV)
POT_GOOD_3 = AddPotGood(3, SQ_UNIF, SQ_TRIV)
POT_GOOD_4 = AddPotGood(4, SQ_TRIV, SQ_UNIT)
POT_MULT_1 = AddPotMult(1, SQ_UNIF, SQ_TRIV, SQ_UNIF)
# -c6 becomes a square over the top field, so D' is the C_6 of C_12; it
# holds every H with e even below, so all of them are split
POT_MULT_2 = AddPotMult(2, SQ_UNIF, SQ_TRIV, SQ_UNIT,
                        subgroup_rep(cyclic_group(12), "6.1"))
# -c6 a uniformizer times a non-square unit stays non-square over the top
# field (f = 3 is odd): no D', so every H with e even is nonsplit, c = 2
POT_MULT_2_NO_DPRIME = AddPotMult(2, sq(1, False), SQ_TRIV, SQ_UNIT)

# (reduction, |D_v| (D_v = G cyclic), |I_v|, |H|, (e, f) of the fixed field
# of H, its Tamagawa number, its fudge factor), with q = 13 throughout.
BASE_CHANGE_TABLE = [
    # split I_n: e*n, whatever f
    (SplitMult(1), 3, 3, 1, (3, 1), 3, 3),
    (SplitMult(2), 4, 2, 1, (2, 2), 4, 4),
    (SplitMult(5), 3, 1, 1, (1, 3), 5, 5),
    (SplitMult(2), 6, 3, 1, (3, 2), 6, 6),
    # nonsplit I_n: e*n for even f; for odd f, 2 or 1 by the parity of e*n
    (NonsplitMult(3), 1, 1, 1, (1, 1), 1, 1),
    (NonsplitMult(4), 1, 1, 1, (1, 1), 2, 2),
    (NonsplitMult(1), 3, 3, 1, (3, 1), 1, 1),
    (NonsplitMult(3), 6, 2, 1, (2, 3), 2, 2),
    (NonsplitMult(1), 9, 3, 1, (3, 3), 1, 1),
    (NonsplitMult(3), 2, 1, 1, (1, 2), 3, 3),
    (NonsplitMult(1), 6, 3, 1, (3, 2), 3, 3),
    (NonsplitMult(2), 8, 2, 1, (2, 4), 4, 4),
    # potentially good: c times q^(floor(delta*e/12)*f)
    (POT_GOOD_2, 12, 6, 1, (6, 2), 1, 13 ** 2),
    (POT_GOOD_2, 12, 6, 2, (3, 2), 1, 1),
    (POT_GOOD_2, 12, 6, 4, (3, 1), 1, 1),
    (POT_GOOD_2, 12, 6, 3, (2, 2), 3, 3),
    (POT_GOOD_2, 12, 6, 6, (1, 2), 1, 1),
    (POT_GOOD_3, 12, 4, 1, (4, 3), 1, 13 ** 3),
    (POT_GOOD_3, 12, 4, 2, (2, 3), 1, 1),
    (POT_GOOD_3, 12, 4, 3, (4, 1), 1, 13),
    (POT_GOOD_3, 12, 4, 4, (1, 3), 2, 2),
    (POT_GOOD_4, 6, 3, 1, (3, 2), 1, 13 ** 2),
    (POT_GOOD_4, 6, 3, 2, (3, 1), 1, 13),
    (POT_GOOD_4, 6, 3, 3, (1, 2), 3, 3),
    (POT_GOOD_4, 6, 3, 6, (1, 1), 1, 1),
    # potentially multiplicative: c times q^(floor(e/2)*f)
    (POT_MULT_1, 6, 3, 1, (3, 2), 4, 4 * 13 ** 2),
    (POT_MULT_1, 6, 3, 2, (3, 1), 4, 4 * 13),
    (POT_MULT_1, 6, 3, 3, (1, 2), 4, 4),
    (POT_MULT_2, 12, 4, 1, (4, 3), 8, 8 * 13 ** 6),
    (POT_MULT_2, 12, 4, 2, (2, 3), 4, 4 * 13 ** 3),
    (POT_MULT_2, 12, 4, 3, (4, 1), 8, 8 * 13 ** 2),
    (POT_MULT_2, 12, 4, 4, (1, 3), 2, 2),
    (POT_MULT_2, 12, 4, 6, (2, 1), 4, 4 * 13),
    (POT_MULT_2_NO_DPRIME, 12, 4, 1, (4, 3), 2, 2 * 13 ** 6),
    (POT_MULT_2_NO_DPRIME, 12, 4, 2, (2, 3), 2, 2 * 13 ** 3),
    (POT_MULT_2_NO_DPRIME, 12, 4, 3, (4, 1), 2, 2 * 13 ** 2),
    (POT_MULT_2_NO_DPRIME, 12, 4, 4, (1, 3), 2, 2),
    (POT_MULT_2_NO_DPRIME, 12, 4, 6, (2, 1), 2, 2 * 13),
]


@pytest.mark.parametrize(
    "red, order, inertia, h_order, ef, c, fudge", BASE_CHANGE_TABLE,
    ids=[f"{type(red).__name__}{getattr(red, 'n', getattr(red, 'delta', ''))}"
         f"{'-noDprime' if red is POT_MULT_2_NO_DPRIME else ''}"
         f"-D{order}-I{inertia}-H{h}"
         for red, order, inertia, h, *_ in BASE_CHANGE_TABLE])
def test_local_factors_under_base_change(red, order, inertia, h_order, ef,
                                         c, fudge):
    p = cyclic_place(red, order, inertia)
    h = subgroup_rep(p.group, f"{h_order}.1")
    assert local_ef(p.dsub, p.isub, h) == ef
    assert tamagawa(p, h) == c
    assert fudge_C(p, h) == fudge


# ---------------------------------------------------------------------------
# root data


def v_dimension(rd):
    """Dimension of the root datum's V, its value at the identity; 0 when
    there is none."""
    return 0 if rd.v is None else rd.v[0]


def test_root_datum_good_and_archimedean():
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    p = finite_place(C2, w, frozenset([0]), Good(), l=5, q=5)
    rd = p.root_datum
    assert rd.lam == 1 and rd.v is None and v_dimension(rd) == 0

    real = PlaceDescriptor("oo", "real")
    rd = real.root_datum
    assert rd.lam == -1 and rd.v is None

    cplx = PlaceDescriptor("oo'", "complex")
    assert cplx.root_datum.lam == -1


def test_root_datum_split_mult_is_trivial_character():
    p = d21_split_place()
    rd = p.root_datum
    assert rd.lam == 1
    assert rd.v is not None
    assert all(v == 1 for v in rd.v.values())
    assert v_dimension(rd) == 1
    assert set(rd.v) == p.dsub and len(p.dsub) == 6


def test_root_datum_nonsplit_mult():
    C4 = cyclic_group(4)
    w4 = frozenset(range(4))
    p = finite_place(C4, w4, frozenset([0]), NonsplitMult(1), l=3, q=3)
    rd = p.root_datum
    assert rd.lam == 1
    assert sorted(rd.v.values()) == [-1, -1, 1, 1]
    # eta is trivial exactly on the squares, the unique index-2 subgroup.
    squares = {C4.mul(x, x) for x in w4}
    for x in w4:
        expect = 1 if x in squares else -1
        assert rd.v[x] == expect

    # Odd residue degree: the quadratic twist dies on the ground field.
    C3 = cyclic_group(3)
    w3 = frozenset(range(3))
    podd = finite_place(C3, w3, frozenset([0]), NonsplitMult(1), l=2, q=2)
    rdo = podd.root_datum
    assert rdo.lam == 1 and rdo.v is None


def test_root_datum_cyclic_additive():
    C3 = cyclic_group(3)
    w3 = frozenset(range(3))
    p = finite_place(C3, w3, w3, AddPotGood(4, SQ_TRIV, SQ_TRIV), l=7, q=7)
    rd = p.root_datum
    assert rd.v is None
    assert rd.lam == kronecker_symbol(-3, 7) == 1

    p2 = finite_place(C3, w3, w3, AddPotGood(4, SQ_TRIV, SQ_TRIV, lambda_override=-1),
                      l=13, q=13)
    assert p2.root_datum.lam == -1

    # Ramification degree 2 uses the (-1 | q) sign.
    C2 = cyclic_group(2)
    w2 = frozenset(range(2))
    p3 = finite_place(C2, w2, w2, AddPotGood(6, SQ_TRIV, SQ_TRIV), l=7, q=7)
    assert p3.root_datum.lam == kronecker_symbol(-1, 7) == -1


def test_root_datum_dihedral():
    p = s3_dihedral_place(delta=4, q=5)
    rd = p.root_datum
    # The cyclic-case sign would be (-3 | 5) = -1; dihedral flips it.
    assert rd.lam == -kronecker_symbol(-3, 5) == 1
    assert v_dimension(rd) == 4
    by_order = {}
    for x in p.dsub:
        o = p.group.element_order(x)
        by_order.setdefault(o, set()).add(rd.v[x])
    # identity: 1 + 1 + 2; rotations: 1 + 1 - 1; reflections: 1 - 1 + 0.
    assert by_order == {1: {4}, 3: {1}, 2: {0}}


def v_on_standalone_dv(p, rd):
    """V as a class function of D_v built as a group of its own."""
    sub, to_sub = subgroup_as_group(p.group, p.dsub)
    back = {c: g for g, c in to_sub.items()}
    return ClassFunction(sub, tuple(rd.v[back[cls[0]]]
                                    for cls in sub.conjugacy_classes()))


def test_root_datum_dihedral_character_is_genuine():
    # V must decompose with nonnegative integral multiplicities: it is the
    # character of an actual representation, 1 + eta + sigma, on D_v.
    assert len(DIHEDRAL_SPECS) == 8
    places = [s3_dihedral_place(delta=4, q=5)]
    for spec in DIHEDRAL_SPECS:
        got = [p for p in appendix_places("2D", spec)
               if reduction_case(p) == "2D"]
        assert got, spec
        places.extend(got[:1])
    for p in places:
        rd = p.root_datum
        v = v_on_standalone_dv(p, rd)
        table = character_table(v.group)
        mults = [inner_product(v, chi) for chi in table.irreducibles]
        assert all(m.denominator == 1 and m >= 0 for m in mults)
        assert sum(m * chi.degree()
                   for m, chi in zip(mults, table.irreducibles)) == 4
        assert sorted(int(m) for m in mults if m) == [1, 1, 1]
        assert sorted(int(chi.degree()) for m, chi in
                      zip(mults, table.irreducibles) if m) == [1, 1, 2]


def test_root_datum_dihedral_factors_through_dprime():
    # With D' = C_7 inside the order-42 group, V is pulled back from the S_3
    # quotient: constant on D', and reading e, rho, s off the element order.
    p = d21_dihedral_place()
    rd = p.root_datum
    assert rd.lam == -kronecker_symbol(-3, 5) == 1
    expected = {1: 4, 7: 4, 3: 1, 21: 1, 2: 0}
    assert len(rd.v) == p.group.order == 42
    for x in p.dsub:
        o = p.group.element_order(x)
        assert rd.v[x] == expected[o]


def test_root_datum_potentially_multiplicative():
    p = c2_potmult_place(q=13)
    rd = p.root_datum
    assert rd.lam == kronecker_symbol(-1, 13) == 1
    assert sorted(rd.v.values()) == [-1, 1]

    # q = 7: the ramified lambda flips sign.
    p7 = c2_potmult_place(q=7)
    assert p7.root_datum.lam == kronecker_symbol(-1, 7) == -1

    # No D' (-c6 stays non-square in the top field): lambda is still
    # (-1 | q), and V = 0.
    p_no = c2_potmult_place(q=7, minus_c6=sq(1, False))
    rdn = p_no.root_datum
    assert rdn.lam == -1 and rdn.v is None

    # An unramified -c6 (even valuation) would give lambda = +1, but
    # v(c6) = 3 at every I_n* place with l >= 5: such a place is refused.
    C3 = cyclic_group(3)
    w3 = frozenset(range(3))
    red = AddPotMult(1, SQ_UNIT, SQ_TRIV, SQ_UNIF, None)
    assert _diag_rules("v", "finite", C3, 5, 5, w3, w3, red) == ["not-additive"]


def restricted_pairing(p, chi, rd):
    """<Res chi, V> over D_v: the sum of V(x) * chi(x) over the elements
    of D_v in cyclotomic arithmetic, divided by |D_v|.  The chi(x) are
    summed per value of V first, which saves products."""
    by_value = {}
    for x, v in rd.v.items():
        by_value.setdefault(v, []).append(chi.at_element(x))
    total = sum(v * sum(vals) for v, vals in by_value.items())
    pairing = total.rational_value() / len(p.dsub)
    assert pairing.denominator == 1 and pairing >= 0
    return int(pairing)


@pytest.mark.parametrize("make", [lambda: dihedral_group(3, name="S3"),
                                  lambda: dihedral_group(4), quaternion_group])
def test_root_datum_is_kept_on_the_place(make):
    G = make()
    rng = random.Random(7)
    places = [p for semistable in (True, False) for _ in range(8)
              for p in synthetic_model(G, rng, semistable).places]
    assert {reduction_case(p) for p in places if p.is_finite()} >= {
        "1G", "1S", "1NS"}
    irrs = character_table(G).irreducibles
    for p in places:
        rd = p.root_datum
        assert p.root_datum is rd
        if not p.is_finite():
            continue
        fresh = replace(p).root_datum  # an equal place, nothing kept
        assert fresh is not rd and fresh == rd
        for chi in irrs:
            pairing = 0 if rd.v is None else restricted_pairing(p, chi, rd)
            assert v_pairing(p, chi) == pairing
            want = pairing + int(chi.degree()) * (rd.lam == -1)
            assert local_u_contribution(p, chi) == want % 2


def test_revalidation_drops_the_kept_root_datum():
    # a nonsplit place with D_v = C2 and I_v = 1 has V = (1, -1); the place
    # remade with split reduction reads V = (1, 1), as a fresh split place
    # does, and the nonsplit place keeps its own datum
    C2 = cyclic_group(2)
    w = frozenset(range(2))
    p = finite_place(C2, w, frozenset([0]), NonsplitMult(1), l=5, q=5)
    assert p.root_datum.v == {0: 1, 1: -1}
    split = replace(p, reduction=SplitMult(1))
    fresh = finite_place(C2, w, frozenset([0]), SplitMult(1), l=5, q=5)
    assert fresh.root_datum.v == {0: 1, 1: 1}
    assert split.root_datum == fresh.root_datum
    assert split == fresh and p.root_datum.v == {0: 1, 1: -1}


@pytest.mark.parametrize("case", ["2D", "2M"])
def test_u_contribution_at_appendix_places_with_v(case):
    # the 2D places and the potentially multiplicative places with D',
    # which synthetic_model never draws; V depends on (D_v, I_v, D') alone,
    # so the pairing is summed once per spec and D'
    specs = DIHEDRAL_SPECS if case == "2D" else [
        MetacyclicSpec(e, k, sign) for e in (2, 3, 4, 6) for k in range(5)
        for sign in (1, -1) if e << k <= 32 and (sign == 1 or k or e == 2)]
    seen = 0
    for spec in specs:
        pairings = {}
        for p in appendix_places(case, spec):
            rd = p.root_datum
            if rd.v is None:
                continue
            assert reduction_case(p) == case
            irrs = character_table(p.group).irreducibles
            key = p.reduction.dprime
            if key not in pairings:
                pairings[key] = [restricted_pairing(p, chi, rd)
                                 for chi in irrs]
            for chi, pairing in zip(irrs, pairings[key]):
                assert v_pairing(p, chi) == pairing
                want = pairing + int(chi.degree()) * (rd.lam == -1)
                assert local_u_contribution(p, chi) == want % 2
            seen += 1
    assert len(specs) == (8 if case == "2D" else 29)
    assert seen == (76 if case == "2D" else 832), seen


def test_root_datum_rejects_a_v_that_is_not_rational():
    # V(x^k) = V(x) for k prime to the order of x is checked in G: a V on
    # C3 that tells a generator from its inverse is refused
    C3 = cyclic_group(3)
    w3 = frozenset(range(3))
    p = finite_place(C3, w3, frozenset([0]), SplitMult(1))
    with pytest.raises(ExactCheckError, match="not rational"):
        _with_v(p, 1, lambda x: 2 if x == 1 else 1)
    assert _with_v(p, 1, lambda x: 1) == p.root_datum


def test_default_additive_lambda_table():
    assert default_additive_lambda(2, 5, False) == kronecker_symbol(-1, 5)
    assert default_additive_lambda(3, 7, False) == kronecker_symbol(-3, 7)
    assert default_additive_lambda(4, 5, False) == kronecker_symbol(-2, 5)
    assert default_additive_lambda(6, 11, False) == kronecker_symbol(-1, 11)
    for fe, q in ((3, 5), (4, 7), (6, 11)):
        assert default_additive_lambda(fe, q, True) == -default_additive_lambda(fe, q, False)


# ---------------------------------------------------------------------------
# u-contributions


def test_u_contribution_trivial_character():
    split = d21_split_place()
    G = split.group
    triv = character_table(G).irreducibles[0]
    assert local_u_contribution(split, triv) == 1  # <1, 1> = 1, lambda = +1

    dsub = subgroup_rep(G, "6.1")
    isub = frozenset(x for x in dsub if G.element_order(x) in (1, 3))
    good = finite_place(G, dsub, isub, Good(), l=13, q=13)
    assert local_u_contribution(good, triv) == 0

    real = PlaceDescriptor("oo", "real")
    # lambda = -1 and V = 0: the contribution is dim(chi) mod 2.
    assert local_u_contribution(real, triv) == 1


def test_u_contribution_counts_twist_multiplicity():
    # At a nonsplit place the contribution of chi is <Res chi, eta> mod 2:
    # only the one character restricting to eta contributes.
    C4 = cyclic_group(4)
    w4 = frozenset(range(4))
    p = finite_place(C4, w4, frozenset([0]), NonsplitMult(1), l=3, q=3)
    table = character_table(C4)
    contribs = [local_u_contribution(p, chi) for chi in table.irreducibles]
    assert sorted(contribs) == [0, 0, 0, 1]


def test_u_contribution_additive_in_characters():
    # Permutation characters restrict with integral multiplicities and the
    # parity agrees with the sum over irreducible constituents.
    p = d21_split_place()
    G = p.group
    table = character_table(G)
    for cid in ("21.1", "14.1", "42.1"):
        chi = perm_character(G, subgroup_rep(G, cid))
        total = local_u_contribution(p, chi)
        parts = 0
        for irr in table.irreducibles:
            m = inner_product(chi, irr)
            assert m.denominator == 1
            parts += int(m) * local_u_contribution(p, irr)
        assert total == parts % 2


def test_u_contribution_nonintegral_rejected():
    p = d21_split_place()
    G = p.group
    half = ClassFunction(G, tuple(
        Fraction(1, 2) for _ in G.conjugacy_classes()))
    for fn in (v_pairing, local_u_contribution):
        with pytest.raises(ValueError, match="^character does not restrict "
                                             "integrally$"):
            fn(p, half)
