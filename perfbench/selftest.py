"""Checks of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench/selftest.py

The file is named so that a plain ``pytest`` run of the repository does not
collect it; it takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from krel import regconst, relations  # noqa: E402
from krel.characters import character_table  # noqa: E402
from krel.groups import dihedral_group  # noqa: E402
from krel.relations import brauer_basis, k_relation_basis  # noqa: E402
import speedref  # noqa: E402
from speedref import SpeedRef  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402

# entry point -> workloads whose traced run must call it; this is the
# layer -> end-to-end mapping the README explains
MAPPED = {
    "groups.PermGroup.init": ("appendix", "global", "coldstart"),
    "groups.subgroup_classes": ("appendix", "global", "coldstart"),
    "groups.double_cosets": ("global",),
    "characters.character_table": ("appendix", "global", "coldstart"),
    "characters.inner_product": ("appendix", "coldstart"),
    "characters.perm_character": ("appendix", "coldstart"),
    "characters.rational_irreducibles": ("global",),
    "characters.char_field_data": ("appendix", "global", "coldstart"),
    "characters.fs_indicator": ("global",),
    "relations._multiplicity_rows": ("appendix", "global", "coldstart"),
    "relations.k_relation_basis": ("appendix", "global", "coldstart"),
    "relations.brauer_basis": ("coldstart",),
    "relations.is_k_relation": ("appendix", "global", "coldstart"),
    "relations.find_norm_relation": ("global",),
    "relations.is_trivial_on_k_relations": ("appendix",),
    "regconst.minimal_perm_multiple": ("global",),
    "regconst.reg_const_rational_irr": ("global",),
    "regconst.reg_const_perm": ("global",),
    "regconst.perm_fixed_det": ("global",),
    "regconst.matrix_fixed_det": ("appendix",),
    "curvelocal.validate_place": ("appendix", "global"),
    "curvelocal.fudge_C": ("global",),
    "curvelocal.local_u_contribution": ("global",),
    "parity.theorem_main_check": ("global",),
    "parity.nrt_run": ("global",),
    "parity.global_C_product": ("global",),
    "parity.global_root_sign": ("global",),
    "harness.appendix_tamagawa_check": ("appendix",),
    "harness.synthetic_model": ("global",),
    "exactmath.snf_solve": ("global", "coldstart"),
    "exactmath.smith_normal_form": ("global", "coldstart"),
    "exactmath.hermite_row_basis": ("appendix", "global", "coldstart"),
    "exactmath.reduce_by_kernel": ("global",),
    "exactmath.is_norm_from_quadratic": ("appendix", "global"),
}

TINY_JOBS = {
    "brauer_basis_D77": (
        lambda: brauer_basis(dihedral_group(5)),
        workloads.COLDSTART_JOBS["brauer_basis_D77"][1]),
    "k_relation_basis_C2_5": (
        lambda: k_relation_basis(workloads.elementary_abelian_2(3), -1),
        workloads.COLDSTART_JOBS["k_relation_basis_C2_5"][1]),
    "character_table_D128": (
        lambda: character_table(dihedral_group(8)), workloads._table_verdict),
    "character_table_C2_6": (
        lambda: character_table(workloads.elementary_abelian_2(3)),
        workloads._table_verdict),
}

TINY = {
    "appendix": lambda: workloads.Appendix(max_order=6),
    "global": lambda: workloads.Global(groups=("S3", "D4", "Q8")),
    "coldstart": lambda: workloads.Coldstart(jobs=TINY_JOBS),
}


@pytest.fixture(scope="module")
def runs():
    """Each tiny workload once untraced and once traced."""
    out = {}
    for name, make in TINY.items():
        wl = make()
        _, _, plain, problems = run.run_pass(wl, wl.setup(0))
        tracer = Tracer()
        tracer.install(extra=(workloads,))
        tracer.enabled = True
        try:
            _, _, traced, traced_problems = run.run_pass(wl, wl.setup(0))
        finally:
            tracer.remove()
        out[name] = plain, traced, {**problems, **traced_problems}, tracer
    return out


def test_mapping_names_every_entry_point():
    assert set(MAPPED) == set(ENTRY_POINTS)


def test_every_entry_point_is_called_on_its_workloads(runs):
    missing = [(ep, wl) for ep, wls in MAPPED.items() for wl in wls
               if runs[wl][3].calls[ep] < 1]
    assert not missing


def test_traced_digest_equals_untraced(runs):
    for name, (plain, traced, _, _) in runs.items():
        assert plain and run.digest_of(plain) == run.digest_of(traced), name


def test_tiny_runs_pass_their_known_answers(runs):
    for name, (_, _, problems, _) in runs.items():
        assert not problems, (name, problems)


def test_self_time_is_within_inclusive_time(runs):
    for _, _, _, tracer in runs.values():
        for ep in ENTRY_POINTS:
            assert 0 <= tracer.self_[ep] <= tracer.incl[ep] + 1e-9 \
                or tracer.calls[ep] == 0


def test_remove_restores_every_alias():
    original = relations._multiplicity_rows
    tracer = Tracer()
    tracer.install()
    assert regconst._multiplicity_rows is relations._multiplicity_rows
    assert relations._multiplicity_rows is not original
    tracer.remove()
    assert relations._multiplicity_rows is original
    assert regconst._multiplicity_rows is original


def test_waste_ratios(runs):
    metrics = runs["global"][3].metrics()
    assert metrics["characters.rational_irreducibles.calls_per_group"][0] > 1
    assert 0 < metrics["exactmath.smith_normal_form.repeat_frac"][0] < 1


def test_clock_leaves_out_sample_time():
    speed = SpeedRef()
    t0 = speed.clock()
    raw0 = perf_counter()
    speed.sample()
    speed.sample()
    raw = perf_counter() - raw0
    assert len(speed.samples) == 2
    assert speed.clock() - t0 == pytest.approx(raw - sum(speed.samples),
                                               abs=1e-3)
    assert speed.factor() > 0
    # both samples lie within the span; a span an hour later has none near
    assert speed.local_factor(t0, speed.clock()) == pytest.approx(
        sum(speed.samples) / 2 / speedref.NOMINAL_S)
    assert speed.local_factor(t0 + 3600, t0 + 3601) == speed.factor()


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(x) for x in range(100)])
    assert pct == 90.0 and 88.5 < value < 90.5
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_harrell_davis_median():
    assert run.hd_quantile([5.0], 0.5) == pytest.approx(5.0)
    assert run.hd_quantile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    assert run.hd_quantile([float(x) for x in range(101)], 0.5) \
        == pytest.approx(50.0)


def test_appendix_sweep_size():
    calls = workloads.appendix_calls()
    assert len(calls) == 53
    assert len({spec for _, spec in calls}) == 29


def test_reference_digests_match_their_ops():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(workloads.WORKLOADS)
    for entry in reference.values():
        assert entry["seed"] == workloads.DEFAULT_SEED
        assert run.digest_of(entry["ops"]) == entry["digest"]
