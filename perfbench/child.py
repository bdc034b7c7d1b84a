"""One workload run in a process of its own; started by run.py.

Set-up (interpreter start, ``import asmref``, building the parser and preparing
the op list) ends at the ``ready`` timestamp.  Then each pass runs the op list
once.  Before every op ``asmref.clear_caches()`` empties the counting and
interpolation memos, as a fresh ``asmref`` process would find them; the
``lru_cache``s of ``asmref.combinat`` are not cleared by it and stay warm from
the first op on.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_asmref():
    """asmref from this checkout's src/, never from anywhere else."""
    if not (SRC / "asmref" / "__init__.py").is_file():
        sys.exit(f"error: no asmref package under {SRC}")
    sys.path.insert(0, str(SRC))
    import asmref
    import asmref.cli

    if Path(asmref.__file__).resolve().parent != SRC / "asmref":
        sys.exit(f"error: imported asmref from {asmref.__file__}, not {SRC}")
    return asmref


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values above it, and its value."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


_rng = random.Random(0)
_PROBE_TABLE = {tuple(_rng.randrange(16) for _ in range(6)): i for i in range(8192)}


def probe_work() -> int:
    """A fixed slice of Python work: integer arithmetic, then tuple building and
    lookups in a dict of 8192 tuple keys, as the counting kernel does."""
    x = 0
    for i in range(5000):
        x += i * i
    for i in range(400):
        x += _PROBE_TABLE.get(tuple((i * j) & 15 for j in range(6)), 1)
    return x


class SpeedProbe:
    """Times probe_work every PROBE_EVERY_S of wall time, from a SIGALRM handler.

    The CPU speed this benchmark sees drifts by up to 2x within seconds and from
    minute to minute with the load of other tenants on a shared host.  An op's
    latency is therefore scaled by REFERENCE_S over the median probe time seen
    within WINDOW_S of the op, and reads as its latency at the reference
    speed.  The handler runs inside the op it interrupts, so its own time is
    taken out of the op's latency before scaling.
    """

    REFERENCE_S = 0.0006  # probe_work's best time on a 2-vCPU Xeon, Python 3.11
    PROBE_EVERY_S = 0.04
    WINDOW_S = 0.1

    def __init__(self):
        self.times = array("d")
        self.durations = array("d")
        self.spent = 0.0

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_EVERY_S, self.PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        return self.REFERENCE_S / statistics.median(self.durations[lo:hi])


class Runner:
    """Runs ops, checks each one and keeps the latency samples of every op."""

    def __init__(self, asmref, expected: dict, seed: int, cache: str | None):
        self.asmref = asmref
        self.expected = expected
        self.seed = seed
        self.cache = cache
        self.tracer = None
        self.traced = False
        self.memo = getattr(asmref.triangles, "_alpha_memo", {})
        self.probe = SpeedProbe()
        # one entry per op run, in flat arrays so that their memory stays small
        self.op_ids: dict[tuple[str, bool], int] = {}
        self.sample_op = array("i")
        self.sample_start = array("d")
        self.sample_end = array("d")
        self.sample_latency = array("d")
        self.first_out: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.memo_entries = 0

    def run(self, template: str) -> float:
        """One op; returns its latency in seconds."""
        self.asmref.clear_caches()
        argv = workloads.argv_for(template, self.seed, self.cache)
        out, err = io.StringIO(), io.StringIO()
        if self.traced:
            self.tracer.current_op = self.attempted
        crash = None
        probed = self.probe.spent
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.asmref.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crashed op is failed, never lost
            crash = exc
        t1 = time.perf_counter()
        latency = t1 - t0 - (self.probe.spent - probed)
        self.sample_op.append(self.op_ids.setdefault((template, self.traced), len(self.op_ids)))
        self.sample_start.append(t0)
        self.sample_end.append(t1)
        self.sample_latency.append(latency)
        self.attempted += 1
        self.memo_entries = max(self.memo_entries, len(self.memo))

        text = out.getvalue()
        if crash is None:
            problems = workloads.check_output(template, code, text, self.expected)
        else:
            problems = [f"raised {crash!r}"]
        # in tables-warm every output after the first comes from a cache hit
        if self.first_out.setdefault(template, text) != text:
            problems.append("output differs from the first run of the op")
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                stderr = f" (stderr: {err.getvalue().strip()})" if err.getvalue() else ""
                self.failures.append(f"`{template}`: " + "; ".join(problems) + stderr)
        return latency

    def forget_samples(self) -> None:
        for samples in (self.sample_op, self.sample_start, self.sample_end, self.sample_latency):
            del samples[:]

    def set_traced(self, traced: bool) -> None:
        self.traced = traced
        (self.tracer.enable if traced else self.tracer.disable)()

    def latencies(self, traced: bool) -> tuple[dict[str, float], dict[str, float]]:
        """Median raw and median scaled latency of every op run traced or not."""
        keys = list(self.op_ids)
        raw, scaled = defaultdict(list), defaultdict(list)
        for op, t0, t1, latency in zip(
            self.sample_op, self.sample_start, self.sample_end, self.sample_latency
        ):
            template, op_traced = keys[op]
            if op_traced == traced:
                raw[template].append(latency)
                scaled[template].append(latency * self.probe.scale(t0, t1))
        return (
            {t: statistics.median(v) for t, v in raw.items()},
            {t: statistics.median(v) for t, v in scaled.items()},
        )

    def run_repeated(self, template: str) -> None:
        spent = 0.0
        for _ in range(workloads.MAX_REPEATS):
            spent += self.run(template)
            if spent >= workloads.REPEAT_S:
                break


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--slow-ops", action="store_true", help="also run the slow ops, once")
    parser.add_argument("--trace", default=None, metavar="SPANS_FILE")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    asmref = import_asmref()
    asmref.cli.build_parser()
    templates = workloads.op_templates(args.workload)
    slow = workloads.SLOW_OPS.get(args.workload, ()) if args.slow_ops else ()
    runner = Runner(asmref, workloads.load_expected(), args.seed, args.cache_dir)
    ready = time.monotonic()
    if args.setup_only:
        # the probe times right after set-up scale it to the reference speed
        durations = []
        for _ in range(30):
            t0 = time.perf_counter()
            probe_work()
            durations.append(time.perf_counter() - t0)
        print(json.dumps({"ready": ready, "probe_s": statistics.median(durations)}))
        return 0

    # A traced run starts with one traced pass whose latencies are dropped: it
    # warms up (in tables-warm it fills the cache).  Then untraced and traced
    # passes alternate, so that both see the same load on the host and their
    # difference is the tracing overhead.  Each op runs once per pass, so the
    # per-layer counts repeat exactly from run to run.
    modes, step = (False,), runner.run_repeated
    if args.trace:
        from tracer import Tracer

        runner.tracer = Tracer()
        bindings = runner.tracer.install()
        modes, step = (False, True), runner.run
        runner.set_traced(True)
        for template in templates:
            runner.run(template)
        runner.forget_samples()
    origin = time.perf_counter()
    runner.probe.start()
    try:
        for _ in range(args.passes):
            for traced in modes:
                if args.trace:
                    runner.set_traced(traced)
                for template in templates:
                    step(template)
        for template in slow:
            runner.run(template)
        # the probes after the last op belong to its window
        time.sleep(SpeedProbe.WINDOW_S)
    finally:
        runner.probe.stop()

    raw, scaled = runner.latencies(traced=False)
    percentile, tail_s = tail(list(scaled.values()))
    summary = {
        "ops": runner.attempted,
        "distinct_ops": len(scaled),
        "failed": runner.failed,
        "failures": runner.failures,
        "passes": args.passes,
        "wall_s": sum(scaled.values()),
        "raw_wall_s": sum(raw.values()),
        "op_p50_ms": 1000 * statistics.median(scaled.values()),
        "op_tail_ms": 1000 * tail_s,
        "op_tail_percentile": percentile,
        "probes": len(runner.probe.durations),
        # ru_maxrss is in KiB on Linux; RUSAGE_SELF covers this process alone
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ready": ready,
    }
    if runner.tracer:
        self_s, calls = runner.tracer.totals()
        traced = runner.latencies(traced=True)[1]
        summary["trace"] = {
            "wall_s": sum(traced[t] for t in scaled),
            "self_s": self_s,
            "calls": dict(calls),
            "counters": dict(runner.tracer.counters),
            "memo_entries": runner.memo_entries,
            "bindings": bindings,
            "spans": len(runner.tracer.start),
        }
        runner.tracer.write(Path(args.trace), origin)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
