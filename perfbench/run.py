#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload appendix --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ``krel`` is imported from ``src/``.  A run
is one process and one workload.  ``--seconds`` sizes the work (see
``workloads.py``), so both sides of a comparison do the same work.  The run
sets the workload up three times (the median is ``setup_s``), then makes its
passes over the op list.  Every op's verdict is hashed; the digest is
compared with ``reference.json`` and repeated passes must agree.

With ``--trace 0`` the end-to-end metrics are printed.  Meanwhile a timer
samples the host's speed, and the times are reported at a fixed reference
speed (see ``speedref.py``).  With ``--trace 1`` nothing samples the speed:
the run makes one untraced pass, installs the tracer, sets up again and
makes one traced pass, and prints the per-layer metrics; the difference of
the two pass times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the digest, sample counts, failures, the environment and, in a traced
run, the tracing overhead.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPS = 3
IMPORT_REPS = 3


def digest_of(hashes: dict[str, str]) -> str:
    text = "\n".join(f"{k} {hashes[k]}" for k in sorted(hashes))
    return hashlib.sha256(text.encode()).hexdigest()


def record_hash(op_id: str, record) -> str:
    text = json.dumps([op_id, record], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(wl, state, clock=perf_counter, spans=None):
    """One pass over the workload's ops, timed by ``clock``.

    Returns the pass wall time (without the bench's own verdict hashing),
    the per-op latencies, the per-op verdict hashes and the known-answer
    failures.  Each op's (start, end) on ``clock`` goes into ``spans``.
    """
    start = clock()
    bench_time = 0.0
    latencies: dict[str, float] = {}
    hashes: dict[str, str] = {}
    problems: dict[str, str] = {}
    for op in wl.ops(state):
        t0 = clock()
        try:
            raw, error = op.call(), None
        except Exception as exc:  # an op that raises is a failed op
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        latencies[op.id] = t1 - t0
        if spans is not None:
            spans[op.id] = (t0, t1)
        if error is None:
            record, problem = op.verdict(raw)
        else:
            record, problem = {"error": error}, error
        del raw
        hashes[op.id] = record_hash(op.id, record)
        if problem is not None:
            problems[op.id] = problem
        bench_time += clock() - t1
    return clock() - start - bench_time, latencies, hashes, problems


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of the samples.

    A mean of all order statistics, each weighted by the mass that the
    Beta((n+1)q, (n+1)(1-q)) density puts on its share of [0, 1].  Unlike a
    single order statistic it does not jump when the samples near the
    quantile are sparse, as they are among the 53 appendix ops.
    """
    s = sorted(samples)
    n = len(s)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule inside each order statistic's share
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        xs = [(i * steps + j + 0.5) * h for j in range(steps)]
        weights.append(h * sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                     - log_beta) for x in xs))
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile), the value as a Harrell-Davis estimate.
    Below eleven samples no percentile has ten beyond it, and the slowest
    sample is reported as the 100th.
    """
    n = len(samples)
    if n < 11:
        return max(samples), 100.0
    return hd_quantile(samples, (n - 10) / n), 100.0 * (n - 10) / n


def child_import_s() -> float:
    """Time of the run's imports in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import argparse, "
            "hashlib, json, os, platform, resource, statistics, sys; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import workloads; print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def environment() -> dict:
    import sympy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def differing(a: dict[str, str], b: dict[str, str], ids) -> set[str]:
    return {k for k in ids if a.get(k) != b.get(k)}


def compare(wl, seed: int, hashes: dict[str, str], reference: dict):
    """Op ids whose verdict differs from the reference, or None when the
    reference does not apply to this seed.

    Ops that only one side has are compared when the workload's op list does
    not depend on the run's size (appendix, coldstart); a global run with
    more or fewer trials than the reference is compared on the shared ops.
    """
    ref = reference.get(wl.name)
    if ref is None or not (wl.seed_independent or seed == ref["seed"]):
        return None
    ops = ref["ops"]
    ids = ops.keys() | hashes.keys() if wl.seed_independent \
        else ops.keys() & hashes.keys()
    return differing(ops, hashes, ids)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's verdicts as the reference")
    args = ap.parse_args(argv)

    if not (SRC / "krel" / "__init__.py").is_file():
        print(f"error: no krel package under {SRC}; run from the root of a "
              "checkout that holds src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload].sized(args.seconds)
    import_s = perf_counter() - _START
    from speedref import SpeedRef
    speed = SpeedRef()
    clock = speed.clock

    setup_runs = []
    walls, latencies, problems = [], [], {}
    spans: list[tuple[float, float]] = []
    first_hashes: dict[str, str] = {}
    repeat_mismatch: set[str] = set()
    passes = 1 if args.trace else wl.passes
    if not args.trace:  # a traced run compares raw pass times
        speed.start()
    try:
        for _ in range(1 if args.trace else SETUP_REPS):
            t0 = clock()
            state = wl.setup(args.seed)
            setup_runs.append((t0, clock()))
        for _ in range(passes):
            pass_spans: dict[str, tuple[float, float]] = {}
            wall, lat, hashes, probs = run_pass(wl, state, clock, pass_spans)
            walls.append(wall)
            latencies.extend(lat.values())
            spans.extend(pass_spans.values())
            problems.update(probs)
            if not first_hashes:
                first_hashes = hashes
                op_walls = lat
            else:
                repeat_mismatch |= differing(
                    first_hashes, hashes, first_hashes.keys() | hashes.keys())
    finally:
        speed.stop()
    # each op's time at the reference speed, by the samples taken next to it
    scaled = [(t1 - t0) / speed.local_factor(t0, t1) for t0, t1 in spans]
    setups = [(t1 - t0) / speed.local_factor(t0, t1) for t0, t1 in setup_runs]
    # the imports are part of set-up; fresh interpreters repeat them, each
    # one between speed samples that scale it
    import_runs = []
    for _ in range(IMPORT_REPS):
        speed.sample()
        t0 = clock()
        raw = child_import_s()
        t1 = clock()
        speed.sample()
        import_runs.append(raw / speed.local_factor(t0, t1))

    detail = {"workload": wl.name, "seed": args.seed, "passes": passes,
              "ops_per_pass": len(first_hashes)}
    attempted = len(latencies)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(extra=(workloads,))
        tracer.enabled = True
        state = wl.setup(args.seed)
        traced_wall, _, traced_hashes, probs = run_pass(wl, state)
        tracer.enabled = False
        tracer.remove()
        problems.update(probs)
        attempted += len(traced_hashes)
        repeat_mismatch |= differing(first_hashes, traced_hashes,
                                     first_hashes.keys()
                                     | traced_hashes.keys())
        overhead = traced_wall - walls[0]
        detail.update(untraced_wall_s=walls[0], traced_wall_s=traced_wall,
                      trace_overhead_s=overhead)

    digest = digest_of(first_hashes)
    reference = load_reference()
    if args.write_reference:
        reference[wl.name] = {"seed": args.seed, "digest": digest,
                              "ops": dict(sorted(first_hashes.items()))}
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    mismatch = compare(wl, args.seed, first_hashes, reference)
    failed_ids = set(problems) | repeat_mismatch | (mismatch or set())
    failed = len(failed_ids)
    tail_value, tail_pct = tail(scaled)
    detail.update(
        digest=digest,
        reference=("not compared" if mismatch is None
                   else "match" if not mismatch else "mismatch"),
        reference_digest=reference.get(wl.name, {}).get("digest"),
        failed_frac=failed / attempted,
        failures=[f"{k}: {problems.get(k, 'verdict differs')}"
                  for k in sorted(failed_ids)[:10]],
        op_samples=len(latencies), op_tail_percentile=tail_pct,
        pass_wall_s=walls, import_s=import_s, setup_runs_s=setups,
        import_runs_s=import_runs,
        speed_factor=speed.factor(), speed_samples=len(speed.samples),
        env=environment())

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (overhead, "s")
        for name in workloads.COLDSTART_JOBS:
            metrics[f"coldstart.job.{name}.wall_s"] = (
                op_walls.get(name, 0.0), "s")
    else:
        # times at the reference host speed; see speedref.py
        f = speed.factor()
        metrics = {
            "wall_s": (statistics.median(walls) / f, "s"),
            "op_p50_ms": (hd_quantile(scaled, 0.5) * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "setup_s": (statistics.median(import_runs)
                        + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
