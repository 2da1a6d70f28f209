"""The summary of scripts/bench_pairs.py on fixed numbers: inclusive
quartiles of each side, and the pairs the change wins, ties for neither."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_reads_inclusive_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 3.0, 6.0, 1.0]
    runs = {"parent": [{"wall_s": v, "setup_s": 10 * v} for v in parent],
            "change": [{"wall_s": v, "setup_s": 10 * v} for v in change]}
    got = bench_pairs.summarize(runs)
    assert list(got) == ["wall_s", "setup_s"]
    assert got["wall_s"] == {
        "parent": {"median": 3.0, "q1": 2.0, "q3": 4.0},
        "change": {"median": 2.5, "q1": 1.0, "q3": 3.0},
        "change_wins": 2}
    assert got["setup_s"]["change"] == {"median": 25.0, "q1": 10.0,
                                        "q3": 30.0}
    # the inclusive method interpolates between the middle runs
    two = bench_pairs.summarize({"parent": [{"m": 1.0}, {"m": 2.0}],
                                 "change": [{"m": 1.0}, {"m": 1.0}]})
    assert two["m"]["parent"] == {"median": 1.5, "q1": 1.25, "q3": 1.75}
    assert two["m"]["change_wins"] == 1

