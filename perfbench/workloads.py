"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of ops.  An op is one call into
``krel`` whose result is turned into a verdict record (a JSON-able value that
is hashed into the digest) and checked against the answer the paper or plain
group theory predicts.

* ``appendix``: every admissible ``appendix_tamagawa_check(case, spec)`` for
  case 2C, 2D and 2M over all metacyclic specs of order at most 32.  Each
  call builds its group fresh.  The seed only shuffles the call order.
* ``global``: models from ``synthetic_model`` over nine small groups.  Each
  model runs ``theorem_main_check`` on up to four K-relation basis elements
  for each of four quadratic fields, and ``nrt_run`` on every irreducible.
  The groups, their character tables and K-bases are set-up.  The models
  come from a fixed generator seed; the run's seed draws the basis elements.
* ``coldstart``: four jobs, each on a freshly built large group.  The seed
  only shuffles the job order.

``sized(seconds)`` builds a workload whose run takes about ``seconds`` on a
2-vCPU Xeon: appendix and coldstart repeat their fixed op list ``passes``
times, global draws ``seconds // 14`` trials of models and makes one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

from krel.characters import character_table
from krel.groups import (PermGroup, alternating4_group, dihedral_group,
                         group_from_cycles, metacyclic_group,
                         quaternion_group)
from krel.harness import (MetacyclicSpec, appendix_tamagawa_check,
                          synthetic_model)
from krel.parity import nrt_run, theorem_main_check
from krel.relations import brauer_basis, k_relation_basis

DEFAULT_SEED = 0


def _passes(seconds: int, nominal_s: float) -> int:
    return max(1, int(seconds // nominal_s))


@dataclass
class Op:
    """One timed call.

    ``call`` does the work that is timed.  ``verdict`` turns its result into
    ``(record, problem)``: the JSON-able record that enters the digest, and
    a known-answer failure message or None.
    """

    id: str
    call: Callable[[], Any]
    verdict: Callable[[Any], tuple[Any, str | None]]


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _theta(theta: dict[str, int]) -> list:
    return sorted([k, v] for k, v in theta.items() if v)


# ---------------------------------------------------------------------------
# appendix


def appendix_calls(max_order: int = 32) -> list[tuple[str, MetacyclicSpec]]:
    """Every admissible (case, spec) with spec order at most max_order."""
    specs = []
    for e in (2, 3, 4, 6):
        k = 0
        while e << k <= max_order:
            for sign in (1, -1):
                if not (sign == -1 and k == 0 and e > 2):
                    specs.append(MetacyclicSpec(e, k, sign))
            k += 1
    calls = []
    for spec in specs:
        for case in ("2C", "2D", "2M"):
            if case == "2C" and spec.sign != 1:
                continue
            if case == "2D" and (spec.sign != -1 or spec.e == 2
                                 or spec.k == 0):
                continue
            calls.append((case, spec))
    return calls


def _appendix_verdict(rows) -> tuple[Any, str | None]:
    record = [[r.case, r.e, r.k, r.sign, r.q, r.flags, r.d, r.passed,
               r.detail] for r in rows]
    bad = [r for r in rows if not r.passed]
    problem = (f"{len(bad)} of {len(rows)} rows not passed, first: "
               f"{bad[0].detail}") if bad else None
    return record, problem


class Appendix:
    name = "appendix"
    seed_independent = True

    def __init__(self, max_order: int = 32, passes: int = 1):
        self.max_order = max_order
        self.passes = passes

    @classmethod
    def sized(cls, seconds: int) -> "Appendix":
        return cls(passes=_passes(seconds, 15.0))

    def setup(self, seed: int) -> list[tuple[str, MetacyclicSpec]]:
        calls = appendix_calls(self.max_order)
        random.Random(f"appendix/{seed}").shuffle(calls)
        # warm module-level caches (factorisations, cyclotomic tables)
        appendix_tamagawa_check("2C", MetacyclicSpec(2, 1, 1))
        return calls

    def ops(self, calls) -> Iterator[Op]:
        for case, spec in calls:
            yield Op(f"{case}/e{spec.e}/k{spec.k}/s{spec.sign:+d}",
                     lambda case=case, spec=spec:
                     appendix_tamagawa_check(case, spec),
                     _appendix_verdict)


# ---------------------------------------------------------------------------
# global


def _s4() -> PermGroup:
    return group_from_cycles(4, ["(1 2 3 4)", "(1 2)"], name="S4")


GLOBAL_GROUPS: dict[str, Callable[[], PermGroup]] = {
    "S3": lambda: dihedral_group(3, name="S3"),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "D6": lambda: dihedral_group(6),
    "A4": alternating4_group,
    "D21": lambda: dihedral_group(21),
    "C3:C4": lambda: metacyclic_group(3, 4, 2),
    "S4": _s4,
    "C12:C4": lambda: metacyclic_group(12, 4, 5),
}
GLOBAL_FIELDS = (-1, 2, -3, 5)
GLOBAL_THETAS = 4


@dataclass
class GlobalGroup:
    name: str
    group: PermGroup
    lattices: dict[int, list[dict[str, int]]]


@dataclass
class GlobalState:
    seed: int
    trials: int
    groups: list[GlobalGroup]


def _theorem_verdict(report) -> tuple[Any, str | None]:
    record = {"lhs": _frac(report.lhs), "rhs": _frac(report.rhs),
              "congruent": report.congruent,
              "u": sorted(report.u_exponents.items())}
    problem = None if report.congruent else (
        f"congruence fails: lhs {report.lhs}, rhs {report.rhs}")
    return record, problem


def _nrt_verdict(report) -> tuple[Any, str | None]:
    record = {"m": report.m, "theta": _theta(report.theta),
              "product": _frac(report.product),
              "norm_verdicts": sorted(report.norm_verdicts.items()),
              "square_ok": report.square_ok,
              "prediction": report.prediction,
              "constraints": [[list(labels), parity]
                              for labels, parity in report.constraints]}
    problem = None if report.m >= 1 else f"multiplier m = {report.m} < 1"
    return record, problem


class Global:
    name = "global"
    seed_independent = False
    passes = 1

    def __init__(self, trials: int = 1, groups=tuple(GLOBAL_GROUPS)):
        self.trials = trials
        self.groups = groups

    @classmethod
    def sized(cls, seconds: int) -> "Global":
        return cls(trials=_passes(seconds, 14.0))

    def setup(self, seed: int) -> GlobalState:
        groups = []
        for name in self.groups:
            G = GLOBAL_GROUPS[name]()
            character_table(G)
            lattices = {d: k_relation_basis(G, d).basis
                        for d in GLOBAL_FIELDS}
            groups.append(GlobalGroup(name, G, lattices))
        state = GlobalState(seed, self.trials, groups)
        # one untimed draw of every model fills the per-group subgroup
        # lattices that the model generator reads, so every pass is alike
        for _ in self._models(state):
            pass
        return state

    def _models(self, state: GlobalState):
        """Fresh models for one pass, with the basis elements to test.

        The cost of a model varies up to eightfold with its places (on
        C12:C4 from 0.9 s to 6.9 s), so models drawn from the run's seed
        made the work of a run differ twofold between seeds.  The models therefore come
        from a fixed stream, and the run's seed draws which basis elements
        each model is tested on.
        """
        for gg in state.groups:
            models = random.Random(f"global/models/{gg.name}")
            picks = random.Random(f"global/{state.seed}/{gg.name}")
            for trial in range(state.trials):
                for semistable in (True, False):
                    model = synthetic_model(gg.group, models,
                                            semistable=semistable)
                    thetas = {d: picks.sample(range(len(basis)),
                                              min(GLOBAL_THETAS, len(basis)))
                              for d, basis in gg.lattices.items()}
                    yield gg, f"{gg.name}/t{trial}/ss{semistable:d}", \
                        model, thetas

    def ops(self, state: GlobalState) -> Iterator[Op]:
        """The pass's ops in a seeded order.

        Shuffling spreads each group's ops over the whole pass, so a few
        seconds of interference from other machine tenants does not land
        on the ops of one group alone.
        """
        ops = []
        for gg, mid, model, picks in self._models(state):
            for d, idxs in picks.items():
                for i in idxs:
                    theta = gg.lattices[d][i]
                    ops.append(Op(f"{mid}/thm/d{d}/b{i}",
                                  lambda model=model, theta=theta, d=d:
                                  theorem_main_check(model, theta, d),
                                  _theorem_verdict))
            for j, chi in enumerate(character_table(gg.group).irreducibles):
                ops.append(Op(f"{mid}/nrt/chi{j}",
                              lambda model=model, chi=chi: nrt_run(model, chi),
                              _nrt_verdict))
        random.Random(f"global/order/{state.seed}").shuffle(ops)
        return iter(ops)


# ---------------------------------------------------------------------------
# coldstart


def elementary_abelian_2(n: int) -> PermGroup:
    """C2^n as n disjoint transpositions on 2n points."""
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * n, gens, name=f"C2^{n}")


def _basis_verdict(want: Callable[[PermGroup], int]):
    def verdict(lat) -> tuple[Any, str | None]:
        record = {"d": lat.d if isinstance(lat.d, int) else str(lat.d),
                  "basis": [_theta(b) for b in lat.basis]}
        rank, expected = lat.rank, want(lat.group)
        problem = None if rank == expected else (
            f"lattice rank {rank}, expected {expected}")
        return record, problem
    return verdict


def _table_verdict(table) -> tuple[Any, str | None]:
    G = table.group
    e = G.exponent()
    rows = sorted([[str(c) for c in v.raised(e).coeffs] for v in chi.values]
                  for chi in table.irreducibles)
    record = {"class_sizes": list(table.class_sizes), "irreducibles": rows}
    total = sum(chi.degree() ** 2 for chi in table.irreducibles)
    problem = None if total == G.order else (
        f"sum of squared degrees {total} != |G| = {G.order}")
    return record, problem


COLDSTART_JOBS: dict[str, tuple[Callable[[], Any], Callable]] = {
    "brauer_basis_D77": (
        lambda: brauer_basis(dihedral_group(77)),
        _basis_verdict(lambda G: sum(1 for c in G.subgroup_classes()
                                     if not c.is_cyclic))),
    "k_relation_basis_C2_5": (
        lambda: k_relation_basis(elementary_abelian_2(5), -1),
        _basis_verdict(lambda G: len(G.subgroup_classes()))),
    "character_table_D128": (
        lambda: character_table(dihedral_group(128)), _table_verdict),
    "character_table_C2_6": (
        lambda: character_table(elementary_abelian_2(6)), _table_verdict),
}


class Coldstart:
    name = "coldstart"
    seed_independent = True

    def __init__(self, jobs=COLDSTART_JOBS, passes: int = 1):
        self.jobs = jobs
        self.passes = passes

    @classmethod
    def sized(cls, seconds: int) -> "Coldstart":
        return cls(passes=_passes(seconds, 30.0))

    def setup(self, seed: int) -> list[str]:
        jobs = list(self.jobs)
        random.Random(f"coldstart/{seed}").shuffle(jobs)
        # the same calls on small groups warm module-level caches only
        brauer_basis(dihedral_group(5))
        k_relation_basis(elementary_abelian_2(2), -1)
        character_table(dihedral_group(8))
        return jobs

    def ops(self, jobs) -> Iterator[Op]:
        for name in jobs:
            call, verdict = self.jobs[name]
            yield Op(name, call, verdict)


WORKLOADS = {w.name: w for w in (Appendix, Global, Coldstart)}
