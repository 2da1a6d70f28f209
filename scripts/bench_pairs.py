#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload appendix \\
        [--workload global ...] --seed 0 --pairs 10 --out BENCH_<n>.json \\
        [--change TEXT]

PARENT and CHANGE are the roots of two checkouts, say a ``git archive`` of
the parent commit and a copy of the working tree.  For each workload the
script runs ``python3 perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` from the root of each checkout, once per side per pair, the
parent first in even pairs and the change first in odd ones.  Before each
run it deletes every ``__pycache__`` in both checkouts, and it runs with
``PYTHONDONTWRITEBYTECODE=1``, so no run reads bytecode another left.

The output file has, per workload, the median and quartiles (inclusive
method) of each side for every end-to-end metric, ``change_wins`` (the
pairs where the change's value is lower), a verdict per metric, the
digests, reference verdicts and failure counts of each side, and every
run.  Each metric's bound, a fraction of the parent's median, and its
better direction are read from ``BENCHMARK.json`` at the root of this
script's checkout; :func:`verdict` says how they are used.  The exit
status is 1 when a run fails an operation or the two sides' digests
differ.  Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20  # the run_seconds of BENCHMARK.json
SIDES = ("parent", "change")
# BENCHMARK.json's end-to-end metrics by name, each with its bound and
# better direction
END_TO_END = {m["name"]: m for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _clean(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)


def _run(roots: dict[str, Path], side: str, workload: str,
         seed: int) -> tuple[dict, dict]:
    """One benchmark run from the root of side's checkout, with no
    ``__pycache__`` in either checkout: its (detail, result) lines."""
    for root in roots.values():
        _clean(root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=roots[side], env=env, capture_output=True, text=True, check=True)
    detail, result = got.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarize(runs: dict[str, list[dict[str, float]]]) -> dict[str, dict]:
    """Per metric, the quartiles of each side and the pairs the change
    wins; runs[side][i] maps each metric to its value in pair i, and each
    side has at least two runs."""
    out = {}
    for metric in runs["parent"][0]:
        sides = {s: [r[metric] for r in runs[s]] for s in SIDES}
        out[metric] = {s: _quartiles(sides[s]) for s in SIDES}
        out[metric]["change_wins"] = sum(
            c < p for p, c in zip(sides["parent"], sides["change"]))
    return out


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> str:
    """``regressed``, ``gain``, ``unresolved`` or ``unchanged`` for one
    metric, from the runs of each side in pair order.

    With values signed so that lower is better, and the spread the
    distance between the parent's quartiles: ``regressed`` when the
    change's median is worse than the parent's by more than ``bound``
    times the parent's median; ``gain`` when the change wins at least
    nine tenths of the pairs, ties for neither, and its median is better
    by more than the spread; ``unresolved`` when the spread is wider than
    the bound, unless every run of the change is better than every run of
    the parent; ``unchanged`` otherwise.
    """
    sign = 1 if better == "lower" else -1
    p = [sign * x for x in parent]
    c = [sign * x for x in change]
    q1, pm, q3 = statistics.quantiles(p, n=4, method="inclusive")
    cm = statistics.median(c)
    limit = bound * abs(pm)
    if cm - pm > limit:
        return "regressed"
    wins = sum(y < x for x, y in zip(p, c))
    if 10 * wins >= 9 * len(p) and pm - cm > q3 - q1:
        return "gain"
    if q3 - q1 > limit and not max(c) < min(p):
        return "unresolved"
    return "unchanged"


def verdicts(runs: dict[str, list[dict[str, float]]],
             end_to_end: dict[str, dict]) -> dict[str, str]:
    """The :func:`verdict` of each metric of ``end_to_end``, the entries
    of BENCHMARK.json's ``end_to_end`` list by name."""
    return {name: verdict([r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]],
                          spec["bound"], spec["better"])
            for name, spec in end_to_end.items()}


def _workload(roots: dict[str, Path], workload: str, seed: int,
              pairs: int) -> tuple[dict, dict]:
    runs = {s: [] for s in SIDES}
    digests = {s: [] for s in SIDES}
    references = {s: [] for s in SIDES}
    failed = {s: 0 for s in SIDES}
    env = None
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            detail, result = _run(roots, side, workload, seed)
            env = env or detail["env"]
            runs[side].append({k: round(v["value"], 4)
                               for k, v in result["metrics"].items()})
            failed[side] += result["failed"]
            for seen, new in ((digests[side], detail["digest"]),
                              (references[side], detail["reference"])):
                if new not in seen:
                    seen.append(new)
            print(f"{workload} pair {i} {side}: {runs[side][-1]}",
                  file=sys.stderr, flush=True)
    return {
        "seed": seed, "pairs": pairs,
        "command": (f"python3 perfbench/run.py --workload {workload} "
                    f"--seed {seed} --seconds {SECONDS} --trace 0"),
        "metrics": summarize(runs),
        "verdicts": verdicts(runs, END_TO_END),
        "digest": digests, "reference": references, "failed": failed,
        "runs": runs,
    }, env


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change", dest="note", default="")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"change": args.note, "host": None, "method": (
        "alternating parent/change pairs per workload (the parent first in "
        "even pairs), each run a fresh process from the root of its own "
        "checkout, PYTHONDONTWRITEBYTECODE=1 and no __pycache__ in either "
        "checkout before each run; medians and quartiles (inclusive "
        "method) of each side; change_wins counts pairs where the "
        "change's value is lower; verdicts as scripts/bench_pairs.py's "
        "verdict() defines them"), "workloads": {}}
    bad = []
    for workload in args.workload:
        got, env = _workload(roots, workload, args.seed, args.pairs)
        print(f"{workload} verdicts: {got['verdicts']}", file=sys.stderr)
        report["host"] = report["host"] or env
        report["workloads"][workload] = got
        if any(got["failed"].values()):
            bad.append(f"{workload}: failed operations {got['failed']}")
        if got["digest"]["parent"] != got["digest"]["change"]:
            bad.append(f"{workload}: digests differ {got['digest']}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
