#!/usr/bin/env python3
"""Time cold character tables on the large groups of the roadmap, and the
four cold jobs of the benchmark's ``coldstart`` workload, layer by layer.

    python3 scripts/cold_tables.py

Run from the root of a checkout; ``krel`` is imported from its ``src/``.
Each row builds its group fresh REPEATS times and runs its steps in order
on each build, timing every step apart: a later step reuses what the
earlier ones left on the group, so its time is what it adds.  A table row
times ``character_table(G)``, then ``G.data.field_data``.  A job row
times the subgroup classes, the table and the multiplicity rows before the
job itself (``brauer_basis(D77)``, ``k_relation_basis(C2^5, -1)``).  The
script prints the median of each step and of their total.  The first build
of the run also warms module-level caches, which the median leaves out.
Standard library only.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from krel.characters import character_table  # noqa: E402
from krel.groups import (  # noqa: E402
    PermGroup, cyclic_group, dihedral_group, metacyclic_group)
from krel.relations import brauer_basis, k_relation_basis  # noqa: E402

REPEATS = 5


def elementary_abelian_2(n: int) -> PermGroup:
    """C2^n as n disjoint transpositions on 2n points."""
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * n, gens, name=f"C2^{n}")


TABLE_STEPS = (("table", character_table),
               ("field_data", lambda G: G.data.field_data))
LAYERS = (("subgroups", lambda G: G.subgroup_classes()),
          ("table", character_table),
          ("mult_rows", lambda G: G.data.multiplicity_rows))

# label -> (group maker, steps)
ROWS = {
    "D77": (lambda: dihedral_group(77), TABLE_STEPS),
    "D128": (lambda: dihedral_group(128), TABLE_STEPS),
    "D256": (lambda: dihedral_group(256), TABLE_STEPS),
    "C512": (lambda: cyclic_group(512), TABLE_STEPS),
    "C2^6": (lambda: elementary_abelian_2(6), TABLE_STEPS),
    "C16:C32": (lambda: metacyclic_group(16, 32, 3), TABLE_STEPS),
    "brauer_basis(D77)": (lambda: dihedral_group(77),
                          LAYERS + (("job", brauer_basis),)),
    "k_relation_basis(C2^5, -1)": (
        lambda: elementary_abelian_2(5),
        LAYERS + (("job", lambda G: k_relation_basis(G, -1)),)),
}


def main() -> None:
    for label, (make, steps) in ROWS.items():
        times: dict[str, list[float]] = {name: [] for name, _ in steps}
        totals = []
        for _ in range(REPEATS):
            G = make()
            total = 0.0
            for name, step in steps:
                start = time.perf_counter()
                step(G)
                took = time.perf_counter() - start
                times[name].append(took)
                total += took
            totals.append(total)
        cells = "  ".join(f"{name} {statistics.median(ts):.3f}"
                          for name, ts in times.items())
        print(f"{label:26} order {G.order:>3}  {cells}  "
              f"total {statistics.median(totals):.3f} s")


if __name__ == "__main__":
    main()
