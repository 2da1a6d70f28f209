#!/usr/bin/env python3
"""Time the benchmark's ``global`` pass by op kind and by group.

    python3 scripts/global_ops.py

Run from the root of a checkout; ``krel`` is imported from its ``src/`` and
the workload from ``perfbench/workloads.py``, which is only read.  Each
repeat does a fresh set-up of the workload at seed 0 and makes two passes
over its ops: the cold pass, the one the benchmark times, and a warm
repeat on the same groups (with fresh models, as every pass draws them).
Each op is timed apart and filed under its group and its kind, ``thm``
for ``theorem_main_check`` and ``nrt`` for ``nrt_run``.  For every (group,
kind) and for each kind over all groups the script prints the op count,
the summed op time of each pass and the median op of each pass, all as
medians over the repeats.  The first repeat also warms module-level
caches, which the median leaves out.  Standard library only.
"""

import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import Global  # noqa: E402

REPEATS = 7
PASSES = ("cold", "warm")


def timed_pass(workload: Global, state) -> dict[tuple[str, str], list[float]]:
    """Op times in seconds, keyed by (group, kind); ids read group/.../kind."""
    out = defaultdict(list)
    for op in workload.ops(state):
        start = time.perf_counter()
        op.call()
        took = time.perf_counter() - start
        parts = op.id.split("/")
        out[parts[0], parts[3]].append(took)
        out["all", parts[3]].append(took)
    return out


def main() -> None:
    workload = Global()
    # (pass, group, kind) -> per repeat: (summed op time, median op)
    runs = defaultdict(list)
    counts = {}
    for _ in range(REPEATS):
        state = workload.setup(0)
        for name in PASSES:
            for key, times in timed_pass(workload, state).items():
                runs[(name,) + key].append((sum(times),
                                            statistics.median(times)))
                counts[key] = len(times)
    print(f"{'group':8} {'kind':4} {'ops':>4}  "
          + "  ".join(f"{name}_sum_ms {name}_p50_ms" for name in PASSES))
    for key in sorted(counts, key=lambda k: (k[0] == "all", k)):
        cells = []
        for name in PASSES:
            got = runs[(name,) + key]
            cells.append(
                f"{1e3 * statistics.median(s for s, _ in got):11.2f} "
                f"{1e3 * statistics.median(p for _, p in got):11.4f}")
        print(f"{key[0]:8} {key[1]:4} {counts[key]:>4}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
