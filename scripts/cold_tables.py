#!/usr/bin/env python3
"""Time cold character tables on the large groups of the roadmap.

    python3 scripts/cold_tables.py

Run from the root of a checkout; ``krel`` is imported from its ``src/``.
Each group is built fresh REPEATS times.  For each build the script times
``character_table(G)``, then ``G.data.field_data``, and it prints the
median of each: the table alone, and the table plus the field data.  The
first build of the run also warms module-level caches, which the median
leaves out.  Standard library only.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from krel.characters import character_table  # noqa: E402
from krel.groups import PermGroup, cyclic_group, dihedral_group  # noqa: E402

REPEATS = 5


def elementary_abelian_2(n: int) -> PermGroup:
    """C2^n as n disjoint transpositions on 2n points."""
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return PermGroup(2 * n, gens, name=f"C2^{n}")


GROUPS = {
    "D77": lambda: dihedral_group(77),
    "D128": lambda: dihedral_group(128),
    "D256": lambda: dihedral_group(256),
    "C512": lambda: cyclic_group(512),
    "C2^6": lambda: elementary_abelian_2(6),
}


def main() -> None:
    print(f"{'group':6} {'order':>5} {'table s':>8} {'+ field_data s':>15}")
    for name, make in GROUPS.items():
        table_s, total_s = [], []
        for _ in range(REPEATS):
            G = make()
            start = time.perf_counter()
            character_table(G)
            mid = time.perf_counter()
            G.data.field_data
            end = time.perf_counter()
            table_s.append(mid - start)
            total_s.append(end - start)
        print(f"{name:6} {G.order:>5} {statistics.median(table_s):8.3f} "
              f"{statistics.median(total_s):15.3f}")


if __name__ == "__main__":
    main()
