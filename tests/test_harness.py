"""The appendix sweeps and their helpers: every row of a small sweep per
reduction case passes, and the probe fields are pinned to literal tuples."""

import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from appendix_places import appendix_places

from krel import curvelocal, harness
from krel.curvelocal import local_ef, reduction_case, tamagawa
from krel.groups import (PermGroup, cyclic_group, dihedral_group,
                         metacyclic_group)
from krel.harness import (_DELTAS, MetacyclicSpec, _check_function,
                          _fine_potgood, _fine_potmult, _sqrt_field_subgroup,
                          _value_vector, appendix_differential_check,
                          appendix_tamagawa_check, build_metacyclic,
                          lemma_b3_check, quadratic_probe_fields,
                          quadratic_subfields_of_fixed_field)
from krel.parity import CurveLocalModel, theorem_main_check
from krel.relations import k_relation_basis

FIELDS = (-5, -3, -2, -1, 2, 3, 5)


# (case, spec) -> (row count, residue sizes q)
SWEEPS = {
    ("2C", MetacyclicSpec(3, 1, 1)): (168, (7, 13, 25)),
    ("2C", MetacyclicSpec(4, 1, 1)): (42, (5, 13, 25)),
    ("2D", MetacyclicSpec(3, 1, -1)): (112, (5, 11)),
    ("2D", MetacyclicSpec(4, 1, -1)): (28, (7, 11)),
    ("2M", MetacyclicSpec(2, 2, 1)): (336, (5, 7, 25)),
}


@pytest.mark.parametrize("case, spec", sorted(SWEEPS, key=repr))
def test_appendix_tamagawa_rows_all_pass(case, spec):
    rows = appendix_tamagawa_check(case, spec)
    count, qs = SWEEPS[case, spec]
    assert len(rows) == count
    assert tuple(sorted({r.q for r in rows})) == qs
    assert tuple(sorted({r.d for r in rows})) == FIELDS
    for r in rows:
        assert (r.case, r.e, r.k, r.sign) == (case, spec.e, spec.k, spec.sign)
        assert r.passed, r.detail


@pytest.mark.parametrize("spec", [MetacyclicSpec(2, 0, 1),
                                  MetacyclicSpec(3, 1, -1),
                                  MetacyclicSpec(4, 2, 1),
                                  MetacyclicSpec(6, 1, -1)])
def test_build_metacyclic_generators(spec):
    G, x, y = build_metacyclic(spec)
    assert G.order == spec.order
    assert G.element_order(x) == spec.e
    assert G.element_order(y) == 1 << spec.k
    assert G.closure([x, y]) == frozenset(range(G.order))
    # y x y^-1 = x^sign
    assert G.mul(G.mul(y, x), G.inv(y)) == G.power(x, spec.sign)
    assert G.is_normal_subgroup(G.closure([x]))


# literal tuples, so that a change in the exponent or conductor arithmetic
# shows here
PROBE_FIELDS = {
    "S3": (lambda: dihedral_group(3), (-1, -2, 2, -3, 3, -5, 5)),
    "D4": (lambda: dihedral_group(4), (-1, -2, 2, -3, 3, -5, 5)),
    "C12:C4": (lambda: metacyclic_group(12, 4, 5),
               (-1, -2, 2, -3, 3, -5, 5)),
    "D21": (lambda: dihedral_group(21),
            (-1, -2, 2, -3, 3, -5, 5, -7, 21)),
    "C40": (lambda: cyclic_group(40),
            (-1, -2, 2, -3, 3, -5, 5, -10, 10)),
    "C1": (lambda: cyclic_group(1), (-1, -2, 2, -3, 3, -5, 5)),
}


@pytest.mark.parametrize("name", sorted(PROBE_FIELDS))
def test_quadratic_probe_fields_literals(name):
    make, expected = PROBE_FIELDS[name]
    assert quadratic_probe_fields(make()) == expected


def test_quadratic_subfields_of_fixed_field():
    assert quadratic_subfields_of_fixed_field(40, 3) == (-2, -5, 10)
    assert quadratic_subfields_of_fixed_field(24, 5) == (-1, -6, 6)
    assert quadratic_subfields_of_fixed_field(21, 2) == (-7,)
    assert quadratic_subfields_of_fixed_field(60, 7) == (-3, -5, 15)


def admissible_appendix_calls(max_order):
    """Every (case, spec) that appendix_tamagawa_check accepts, over the
    metacyclic specs of order at most max_order."""
    calls = []
    for e in (2, 3, 4, 6):
        for k in range(max_order.bit_length()):
            if e << k > max_order:
                break
            for sign in (1, -1):
                if sign == -1 and k == 0 and e > 2:
                    continue
                spec = MetacyclicSpec(e, k, sign)
                for case in ("2C", "2D", "2M"):
                    if case == "2C" and sign != 1:
                        continue
                    if case == "2D" and (sign != -1 or e == 2 or k == 0):
                        continue
                    calls.append((case, spec))
    return calls


def test_every_appendix_row_of_order_at_most_32_passes():
    calls = admissible_appendix_calls(32)
    assert len(calls) == 53
    assert len({spec for _, spec in calls}) == 29
    total = 0
    for case, spec in calls:
        rows = appendix_tamagawa_check(case, spec)
        assert rows, (case, spec)
        for r in rows:
            assert r.passed, r.detail
        total += len(rows)
    assert total == 9372


def distinct_places(case, spec):
    """The places that the sweep of (case, spec) validates, one per
    reduction datum, and at 2M one per (datum, lambda): lambda = (-1 | q)
    is how q enters a potentially multiplicative one-place model."""
    return list({(p.reduction, p.root_datum.lam if case == "2M" else None): p
                 for p in appendix_places(case, spec)}.values())


def test_engine_tamagawa_numbers_match_the_oracles():
    # curvelocal.tamagawa against the sweeps' own _fine_potmult and
    # _fine_potgood at every appendix place of order at most 32 and every
    # subgroup class.  2M agrees everywhere: D' decides even e.  What is
    # left in 2C and 2D is a class of odd valuation read over an F_w with
    # e even, where (e, f) cannot tell which ramified quadratic F_w holds
    # (B at gcd(delta*e, 12) = 4, the discriminant at 6); each such
    # disagreement is counted by (case, gcd, that class's valuation, e mod 2)
    pairs, disagree = Counter(), Counter()
    for case, spec in admissible_appendix_calls(32):
        _, rotation, frobenius = build_metacyclic(spec)
        for p in distinct_places(case, spec):
            G, red = p.group, p.reduction
            du = red.delta_class.unit_is_square
            bu = red.b_class.unit_is_square
            wsub = _sqrt_field_subgroup(G, rotation, frobenius)
            for c in G.subgroup_classes():
                h = c.representative
                pairs[case] += 1
                if case == "2M":
                    oracle = _fine_potmult(G, p.isub, red.dprime, red.n, du,
                                           bu, h)
                else:
                    oracle = _fine_potgood(G, p.isub, wsub, red.delta, du, bu,
                                           reduction_case(p) == "2D", h)
                if tamagawa(p, h) == oracle:
                    continue
                if case == "2M":
                    disagree[case, spec, red, c.id] += 1
                    continue
                e, _ = local_ef(p.dsub, p.isub, h)
                g = math.gcd(red.delta * e, 12)
                read = red.b_class if g == 4 else red.delta_class
                disagree[case, g, read.val_parity, e % 2] += 1
    assert pairs == {"2C": 536, "2D": 328, "2M": 6216}
    # 50 in all, each of odd valuation over an even e
    assert disagree == {("2C", 4, 1, 0): 14, ("2C", 6, 1, 0): 12,
                        ("2D", 4, 1, 0): 12, ("2D", 6, 1, 0): 12}


def test_one_place_congruence_at_potentially_multiplicative_places():
    # the per-place theorem on CurveLocalModel(G, (p,)) at every 2M place
    # of the sweeps of order at most 8, for every K-relation basis element
    # of every probe field; its root-number side comes from V on D', not
    # from the Tamagawa numbers
    checks = 0
    for case, spec in admissible_appendix_calls(8):
        if case != "2M":
            continue
        got = distinct_places(case, spec)
        G = got[0].group
        models = [CurveLocalModel(G, (p,)) for p in got]
        for d in quadratic_probe_fields(G):
            for theta in k_relation_basis(G, d).basis:
                for model in models:
                    report = theorem_main_check(model, theta, d)
                    assert report.congruent, (spec, model.places[0], d, theta)
                    checks += 1
    assert checks == 9800


# Every admissible call of order 48 or 64.
APPENDIX_CALLS_48_64 = [
    ("2C", MetacyclicSpec(2, 5, 1)),
    ("2M", MetacyclicSpec(2, 5, 1)),
    ("2M", MetacyclicSpec(2, 5, -1)),
    ("2C", MetacyclicSpec(3, 4, 1)),
    ("2M", MetacyclicSpec(3, 4, 1)),
    ("2D", MetacyclicSpec(3, 4, -1)),
    ("2M", MetacyclicSpec(3, 4, -1)),
    ("2C", MetacyclicSpec(4, 4, 1)),
    ("2M", MetacyclicSpec(4, 4, 1)),
    ("2D", MetacyclicSpec(4, 4, -1)),
    ("2M", MetacyclicSpec(4, 4, -1)),
    ("2C", MetacyclicSpec(6, 3, 1)),
    ("2M", MetacyclicSpec(6, 3, 1)),
    ("2D", MetacyclicSpec(6, 3, -1)),
    ("2M", MetacyclicSpec(6, 3, -1)),
]


def test_every_appendix_row_of_order_48_and_64_passes():
    assert [(case, spec) for case, spec in admissible_appendix_calls(64)
            if spec.order > 32] == APPENDIX_CALLS_48_64
    total = 0
    for case, spec in APPENDIX_CALLS_48_64:
        assert spec.order in (48, 64)
        rows = appendix_tamagawa_check(case, spec)
        assert rows, (case, spec)
        for r in rows:
            assert r.passed, r.detail
        total += len(rows)
    assert total == 3006


# Every admissible call of order 96 or 128.
APPENDIX_CALLS_96_128 = [
    ("2C", MetacyclicSpec(2, 6, 1)),
    ("2M", MetacyclicSpec(2, 6, 1)),
    ("2M", MetacyclicSpec(2, 6, -1)),
    ("2C", MetacyclicSpec(3, 5, 1)),
    ("2M", MetacyclicSpec(3, 5, 1)),
    ("2D", MetacyclicSpec(3, 5, -1)),
    ("2M", MetacyclicSpec(3, 5, -1)),
    ("2C", MetacyclicSpec(4, 5, 1)),
    ("2M", MetacyclicSpec(4, 5, 1)),
    ("2D", MetacyclicSpec(4, 5, -1)),
    ("2M", MetacyclicSpec(4, 5, -1)),
    ("2C", MetacyclicSpec(6, 4, 1)),
    ("2M", MetacyclicSpec(6, 4, 1)),
    ("2D", MetacyclicSpec(6, 4, -1)),
    ("2M", MetacyclicSpec(6, 4, -1)),
]


def test_every_appendix_row_of_order_96_and_128_passes():
    assert [(case, spec) for case, spec in admissible_appendix_calls(128)
            if spec.order > 64] == APPENDIX_CALLS_96_128
    total = 0
    for case, spec in APPENDIX_CALLS_96_128:
        assert spec.order in (96, 128)
        rows = appendix_tamagawa_check(case, spec)
        assert rows, (case, spec)
        for r in rows:
            assert r.passed, r.detail
        total += len(rows)
    assert total == 3006


@pytest.mark.parametrize("d", [-1, 2, -2, 5, 13, -3, 17])
def test_lemma_b3_split_primes_are_norms(d):
    report = lemma_b3_check(d)
    assert report.tested and not report.failures
    assert report.passed


def test_lemma_b3_rejects_fields_of_other_shape():
    with pytest.raises(ValueError):
        lemma_b3_check(3)


@pytest.mark.parametrize("d, ls", [(-1, (3,)), (-1, (2,)), (-1, (9,)),
                                   (5, (11, 7))])
def test_lemma_b3_rejects_primes_that_do_not_split(d, ls):
    with pytest.raises(ValueError,
                       match=re.escape(f"l = {ls[-1]} is not split in "
                                       f"Q(sqrt {d})")):
        lemma_b3_check(d, ls=ls)
    assert lemma_b3_check(d, ls=(29,)).tested == (29,)


def test_lemma_b3_reads_a_generator_of_primes_once():
    report = lemma_b3_check(-1, ls=(l for l in (5, 13)))
    assert report.tested == (5, 13)
    assert report.passed


def test_lemma_b3_refuses_an_empty_list_of_primes():
    with pytest.raises(ValueError, match="ls is empty"):
        lemma_b3_check(-1, ls=[])


@pytest.mark.parametrize("args, message", [
    ((5, 1, 1), "e must be one of 2, 3, 4, 6, not 5"),
    ((3, -1, 1), "k must be nonnegative"),
    ((3, 1, 0), "sign must be +1 or -1"),
    ((3, 0, -1), "sign -1 with k = 0 collapses; use sign +1"),
])
def test_metacyclic_spec_refuses_bad_parameters(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MetacyclicSpec(*args)


@pytest.mark.parametrize("case, spec, message", [
    ("2X", MetacyclicSpec(3, 1, 1), "unknown case '2X'"),
    ("2C", MetacyclicSpec(3, 1, -1),
     "case 2C pairs with the trivial action, sign +1"),
    ("2D", MetacyclicSpec(3, 1, 1), "case 2D needs sign -1, e > 2 and k >= 1"),
    ("2D", MetacyclicSpec(2, 1, -1), "case 2D needs sign -1, e > 2 and k >= 1"),
    ("2D", MetacyclicSpec(2, 0, -1), "case 2D needs sign -1, e > 2 and k >= 1"),
])
def test_appendix_check_refuses_a_case_that_does_not_fit(case, spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        appendix_tamagawa_check(case, spec)


@pytest.mark.parametrize("args, message", [
    ((3, 2, 7, 7, 12), "delta = 2 does not pair with e = 3"),
    ((5, 4, 7, 7, 12), "delta = 4 does not pair with e = 5"),
    ((3, 4, 3, 3, 12), "the residue characteristic must be a prime >= 5"),
    ((3, 4, 9, 9, 12), "the residue characteristic must be a prime >= 5"),
    ((3, 4, 7, 7, 14), "q must be invertible mod r"),
])
def test_differential_check_refuses_bad_arguments(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        appendix_differential_check(*args)
    # the valid call that the refused ones are varied from is accepted
    assert appendix_differential_check(3, 4, 7, 7, 12).passed


def test_differential_check_passes_for_every_delta_and_residue_size():
    checked = 0
    for e, deltas in _DELTAS.items():
        for delta in deltas:
            for q in (5, 7, 11, 13):
                if e > 2 and q % e not in (1, e - 1):
                    continue
                r = 8 * 9 * (7 if q == 5 else 5)
                assert math.gcd(q, r) == 1
                report = appendix_differential_check(e, delta, q, q, r)
                assert report.table_ok, (e, delta, q, report.nonsquare,
                                         report.expected_nonsquare)
                assert not report.norm_failures, (e, delta, q)
                assert report.passed
                checked += 1
    # every pair (e, delta) with every q in {5, 7, 11, 13}
    assert checked == 28


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("l", [5, 7, 11, 13])
def test_differential_check_passes_at_every_power_of_l(l, j):
    # the weight is a power of q, not of l: at q = l^j each value of case 2C
    # is the j-th power of its value at q = l, and every value stays a norm
    # whether j is even or odd
    q = l ** j
    checked = 0
    for e, deltas in _DELTAS.items():
        for delta in deltas:
            for r in (8, 12, 16, 24, 36):
                report = appendix_differential_check(e, delta, l, q, r)
                assert report.passed, (e, delta, l, q, r,
                                       report.norm_failures)
                at_l = appendix_differential_check(e, delta, l, l, r)
                if report.case == at_l.case == "2C":
                    assert report.values == {
                        n: v ** j for n, v in at_l.values.items()}
                checked += 1
    assert checked == 35


def test_differential_check_rejects_residue_sizes_that_are_not_powers():
    # q = 1 = 7^0 is no residue field: the sweep refuses it as the place
    # rules do, instead of returning a failing report
    for q in (1, 5, 11):
        with pytest.raises(ValueError, match="is not a power of l = 7"):
            appendix_differential_check(3, 4, 7, q, 12)
    for q in (7, 49):
        assert appendix_differential_check(3, 4, 7, q, 12).q == q


def test_failure_detail_names_the_obstructed_places():
    G = dihedral_group(21)
    lattice = k_relation_basis(G, 21)

    def three_on_reflections(rep):
        return Fraction(3) if G.classify_subgroup(frozenset(rep)).id == "2.1" \
            else Fraction(1)

    rows = []
    _check_function("2D", MetacyclicSpec(3, 1, -1), G, 5, "flags",
                    three_on_reflections,
                    _value_vector(G, three_on_reflections), (21,),
                    {21: lattice}, {}, rows)
    (row,) = rows
    assert not row.passed
    assert "not a norm from Q(sqrt 21), with local obstruction at 3, 7;" \
        in row.detail


@pytest.mark.parametrize("case, spec", [("2D", MetacyclicSpec(4, 3, -1)),
                                        ("2M", MetacyclicSpec(4, 2, -1))])
def test_each_function_is_decided_once_per_field(monkeypatch, case, spec):
    # within one call the norm test runs once per distinct (d, values on
    # the subgroup classes), and the rows are those of a fresh memo per row
    keys = Counter()
    real_test = harness.is_trivial_on_k_relations

    def counting(f, G, d, lattice=None):
        keys[d, tuple(Fraction(f(c.representative))
                      for c in G.subgroup_classes())] += 1
        return real_test(f, G, d, lattice=lattice)
    monkeypatch.setattr(harness, "is_trivial_on_k_relations", counting)
    rows = appendix_tamagawa_check(case, spec)
    shared = Counter(keys)

    real_check = harness._check_function

    def fresh(case, spec, G, q, flags, fn, values, fields, lattices, memo,
              rows):
        for d in fields:
            real_check(case, spec, G, q, flags, fn, values, (d,), lattices,
                       {}, rows)
    monkeypatch.setattr(harness, "_check_function", fresh)
    keys.clear()
    assert appendix_tamagawa_check(case, spec) == rows
    assert sum(keys.values()) == len(rows)
    assert shared == Counter(set(keys))
    assert len(shared) < len(rows)


def test_memo_still_rejects_float_values():
    G = dihedral_group(21)
    lattices = {-3: k_relation_basis(G, -3)}
    memo, rows = {}, []
    order = lambda h: len(h)  # noqa: E731
    _check_function("2D", MetacyclicSpec(3, 1, -1), G, 5, "flags", order,
                    _value_vector(G, order), (-3,), lattices, memo, rows)
    assert len(memo) == 1 and len(rows) == 1
    with pytest.raises(TypeError):
        _value_vector(G, lambda h: float(len(h)))
    assert len(memo) == 1 and len(rows) == 1


@pytest.mark.parametrize("case, spec", [("2C", MetacyclicSpec(3, 2, 1)),
                                        ("2D", MetacyclicSpec(4, 3, -1)),
                                        ("2M", MetacyclicSpec(4, 2, -1))])
def test_value_vectors_are_built_once_per_local_function(monkeypatch, case,
                                                        spec):
    # each local function gets its value vector once, shared by every q,
    # and that vector is the function's own
    built = []
    real_vector = harness._value_vector

    def counting(G, fn):
        built.append(fn)
        return real_vector(G, fn)
    monkeypatch.setattr(harness, "_value_vector", counting)
    passed = []
    real_check = harness._check_function

    def recording(case, spec, G, q, flags, fn, values, *rest):
        passed.append((G, fn, values))
        real_check(case, spec, G, q, flags, fn, values, *rest)
    monkeypatch.setattr(harness, "_check_function", recording)
    appendix_tamagawa_check(case, spec)
    fns = {id(fn): fn for _, fn, _ in passed}
    assert len(built) == len(fns) < len(passed)
    assert {id(fn) for fn in built} == set(fns)
    for G, fn, values in passed:
        assert values == real_vector(G, fn)


def test_place_structure_is_checked_once_per_key(monkeypatch):
    # every place is still validated, but each structural rule set runs
    # once per key; the D' rules and every place's root datum read D_v in
    # G's own element indices, so no group besides G is ever built
    counts = {name: Counter() for name in ("pair", "dihedral")}
    rules, places, built = {}, [], []

    def counting(name, module, attr, key):
        real = getattr(module, attr)

        def wrapper(*args):
            counts[name][key(args)] += 1
            return real(*args)
        monkeypatch.setattr(module, attr, wrapper)
        rules[name] = wrapper

    counting("pair", curvelocal, "decomposition_pair_problem",
             lambda a: a[1:])
    counting("dihedral", curvelocal, "_dihedral_problem", lambda a: a[1:])
    real_init = PermGroup.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(PermGroup, "__init__", init)
    real_place = harness._whole_group_place

    def place(*args):
        places.append(real_place(*args))
        return places[-1]
    monkeypatch.setattr(harness, "_whole_group_place", place)

    spec = MetacyclicSpec(4, 3, -1)
    rows = appendix_tamagawa_check("2D", spec)
    assert all(r.passed for r in rows)
    assert all(p.root_datum.lam in (1, -1) for p in places)
    G = places[0].group
    assert built == [G] and all(p.group is G for p in places)
    assert len(places) * len(quadratic_probe_fields(G)) == len(rows)
    for name, counter in counts.items():
        assert counter, name
        assert set(counter.values()) == {1}, name
    assert len(places) > sum(counts["dihedral"].values())
    # the memo holds one (rule, key) entry per check and nothing else
    assert set(G.data.place_problems) == {
        (rules[name], *key) for name, counter in counts.items()
        for key in counter}
