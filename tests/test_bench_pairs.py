"""The summary of scripts/bench_pairs.py on fixed numbers: inclusive
quartiles of each side, the pairs the change wins, ties for neither, and
each metric's verdict against its bound."""

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


BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_verdicts_follow_the_bound_the_wins_and_the_spread():
    verdict = bench_pairs.verdict
    # the parent's quartiles are 0.99 and 1.01: a spread of 0.02
    assert verdict(BASE, [1.3 * x for x in BASE], 0.25, "lower") == "regressed"
    assert verdict(BASE, [1.2 * x for x in BASE], 0.25, "lower") == "unchanged"
    assert verdict(BASE, [0.9 * x for x in BASE], 0.25, "lower") == "gain"
    # better by less than the spread, or in too few pairs: no gain
    assert verdict(BASE, [x - 0.01 for x in BASE], 0.25, "lower") \
        == "unchanged"
    assert verdict(BASE, [0.9 * x for x in BASE[:8]] + BASE[8:], 0.25,
                   "lower") == "unchanged"
    # a spread wider than the bound leaves it unresolved, unless every
    # run of the change beats every run of the parent
    wide = [1.0, 2.0] * 5
    assert verdict(wide, wide[::-1], 0.25, "lower") == "unresolved"
    assert verdict(wide, [0.9] * 10, 0.25, "lower") == "unchanged"
    # a higher-is-better metric reads the other way round
    assert verdict(BASE, [0.7 * x for x in BASE], 0.25, "higher") \
        == "regressed"
    assert verdict(BASE, [1.1 * x for x in BASE], 0.25, "higher") == "gain"


def test_verdicts_read_each_end_to_end_metric_with_its_bound():
    end_to_end = {"wall_s": {"name": "wall_s", "bound": 0.25,
                             "better": "lower"},
                  "peak_rss_mb": {"name": "peak_rss_mb", "bound": 0.15,
                                  "better": "lower"}}
    runs = {"parent": [{"wall_s": x, "peak_rss_mb": 10 * x} for x in BASE],
            "change": [{"wall_s": 1.2 * x, "peak_rss_mb": 12 * x}
                       for x in BASE]}
    assert bench_pairs.verdicts(runs, end_to_end) == {
        "wall_s": "unchanged", "peak_rss_mb": "regressed"}
