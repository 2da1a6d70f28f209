"""The appendix sweeps and their helpers: every row of a small sweep per
reduction case passes, and the probe fields are pinned to literal tuples."""

import pytest

from krel.groups import cyclic_group, dihedral_group, metacyclic_group
from krel.harness import (MetacyclicSpec, appendix_tamagawa_check,
                          build_metacyclic, quadratic_probe_fields,
                          quadratic_subfields_of_fixed_field)

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


def test_quadratic_probe_fields_extra_and_fixed_subfields():
    assert quadratic_probe_fields(dihedral_group(3), extra=(7, -11)) == (
        -1, -2, 2, -3, 3, -5, 5, 7, -11)
    assert quadratic_subfields_of_fixed_field(40, 3) == (-2, -5, 10)
    assert quadratic_subfields_of_fixed_field(24, 5) == (-1, -6, 6)
    assert quadratic_subfields_of_fixed_field(21, 2) == (-7,)
    assert quadratic_subfields_of_fixed_field(60, 7) == (-3, -5, 15)
