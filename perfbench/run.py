"""The asmref benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload tables-cold [--seed 1729] [--seconds 30] [--trace 0|1]

Run from the root of a checkout.  Prints every metric by name with its unit,
then, as the last line, a JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from child import SpeedProbe
from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 175.0
SETUP_RUNS = 5

#: Children must not pick up a user's cache, and string hashing is pinned so
#: that dict and set layouts repeat from run to run.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "ASMREF_CACHE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, passes: int, deadline: float, *extra: str) -> dict:
    """One child run, in a fresh cache directory for tables-warm."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=WORK) if workload == "tables-warm" else None
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--passes", str(passes), *extra]
    if cache:
        argv += ["--cache-dir", cache]
    try:
        started = time.monotonic()
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} child ran past the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if cache:
            shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = []
    for _ in range(SETUP_RUNS):
        probe = run_child(workload, seed, 1, deadline, "--setup-only")
        setups.append(probe["setup_s"] * SpeedProbe.REFERENCE_S / probe["probe_s"])
    run = run_child(workload, seed, workloads.passes_for(workload, seconds), deadline)
    metrics = {
        "wall_s": (run["wall_s"], "s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_tail_ms": (run["op_tail_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"{run['ops']} ops: {run['passes']} passes of {run['distinct_ops']} distinct ops, "
        f"each repeated until {workloads.REPEAT_S} s (at most {workloads.MAX_REPEATS} times)",
        f"an op's latency is the median of its samples, scaled to the reference CPU speed by "
        f"{run['probes']} speed probes; wall_s sums them ({run['raw_wall_s']:.4f} s unscaled)",
        f"op_tail_ms is p{run['op_tail_percentile']:.1f} of the {run['distinct_ops']} op latencies"
        " (10 ops above it)",
        f"setup_s is the median of {len(setups)} set-ups in processes of their own, "
        "each scaled by the speed probes that follow it",
    ]
    return run, metrics, notes, True


def traced(workload: str, seed: int, seconds: float, deadline: float):
    # a traced warm-up pass, then untraced and traced passes in turn, at least
    # two of each, in the time of an untraced run
    passes = max(2, workloads.passes_for(workload, seconds / 2))
    spans_file = WORK / f"spans-{workload}.csv.gz"
    run = run_child(workload, seed, passes, deadline, "--slow-ops", "--trace", str(spans_file))
    trace = run["trace"]
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    module_s = {m: 0.0 for m in MODULES}
    module_spans = {m: 0 for m in MODULES}
    for name, value in self_s.items():
        module_s[name.split(".")[0]] += value
        module_spans[name.split(".")[0]] += calls[name]
    hits = counters.get("documents.load.hits", 0)
    misses = counters.get("documents.load.misses", 0)

    def s(name):
        return (self_s.get(name, 0.0), "s")

    def n(name):
        return (calls.get(name, 0), "count")

    def count(value):
        return (value, "count")

    metrics = {
        "triangles.s": (module_s["triangles"], "s"),
        "triangles.build_table.s": s("triangles.build_table"),
        "triangles.build_table.calls": n("triangles.build_table"),
        "triangles.alpha_count.s": s("triangles.alpha_count"),
        "triangles.alpha_count.calls": n("triangles.alpha_count"),
        "triangles.refined_count.calls": n("triangles.refined_count"),
        "triangles.enumerate_asms.s": s("triangles.enumerate_asms"),
        "triangles.memo_entries": count(trace["memo_entries"]),
        "polynomials.s": (module_s["polynomials"], "s"),
        "polynomials.alpha_polynomial.s": s("polynomials.alpha_polynomial"),
        "polynomials.evaluate.s": s("polynomials.evaluate"),
        "polynomials.evaluate.calls": n("polynomials.evaluate"),
        "polynomials.gn_poly.s": s("polynomials.gn_poly"),
        "polynomials.gn_poly.calls": n("polynomials.gn_poly"),
        "polynomials.expand.s": s("polynomials.expand"),
        "polynomials.identities.s": s("polynomials.identities"),
        "linalg.s": (module_s["linalg"], "s"),
        "linalg.solve.s": s("linalg.solve"),
        "linalg.solve.unknowns": count(counters.get("linalg.solve.unknowns", 0)),
        "linalg.invert.s": s("linalg.invert"),
        "linalg.invert.calls": n("linalg.invert"),
        "extension.s": (module_s["extension"], "s"),
        "extension.extend_matrix.s": s("extension.extend_matrix"),
        "extension.verify.s": s("extension.verify"),
        "extension.explicit_formula.calls": n("extension.explicit_formula"),
        "extension.solve_sufficiency.s": s("extension.solve_sufficiency"),
        "combinat.s": (module_s["combinat"], "s"),
        "combinat.binom.calls": n("combinat.binom"),
        "documents.s": (module_s["documents"], "s"),
        "documents.load.s": s("documents.load"),
        "documents.load.hits": count(hits),
        "documents.load.misses": count(misses),
        "documents.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "documents.store.s": s("documents.store"),
        "documents.store.bytes": (counters.get("documents.store.bytes", 0), "B"),
        "cli.self_s": (module_s["cli"], "s"),
        "trace.passes": count(passes + 1),
        "trace.spans": count(trace["spans"]),
        "trace.bindings": count(trace["bindings"]),
        "trace.wall_s": (trace["wall_s"], "s"),
        "trace.untraced_wall_s": (run["wall_s"], "s"),
        "trace.overhead_s": (trace["wall_s"] - run["wall_s"], "s"),
    }
    missing = [m for m in workloads.COVERAGE[workload] if module_spans[m] == 0]
    slow = workloads.SLOW_OPS.get(workload, ())
    notes = [
        f"layer values are totals over {passes + 1} traced passes, each op once per pass"
        + (f" and once: {', '.join(t.format(seed=seed) for t in slow)}" if slow else "")
        + "; .s values are self time",
        "spans per module: " + ", ".join(f"{m} {module_spans[m]}" for m in MODULES),
        "coverage: " + (f"FAILED, no spans from {', '.join(missing)}" if missing else
                        f"ok ({', '.join(workloads.COVERAGE[workload])} all traced)"),
        f"tracing overhead: {trace['wall_s'] - run['wall_s']:+.4f} s per pass "
        f"({trace['wall_s']:.4f} s traced, {run['wall_s']:.4f} s untraced, "
        f"{passes} passes each, alternating)",
        f"spans written to {spans_file.relative_to(ROOT)}",
    ]
    return run, metrics, notes, not missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1729,
                        help="passed as --seed to the identity claims (default 1729)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="intended length of one run; fixes the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run (default 0)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)

    measure = traced if args.trace else end_to_end
    try:
        run, metrics, notes, covered = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = run["ops"], run["failed"]
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          "one client, ops back to back in one process")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6f} {unit}" if isinstance(value, float)
              else f"  {name:<{width}}  {value:>14d} {unit}")
    print(f"  {'ops_failed':<{width}}  {failed:>14d} of {attempted} ops")
    for note in notes:
        print(f"  {note}")
    correct = failed == 0 and covered
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
