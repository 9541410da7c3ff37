#!/usr/bin/env python3
"""Benchmark of gmalg: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 times the workload untraced: set-up over several fresh builds,
one untimed warm-up operation, whole rounds of operations for at least S
seconds (each output checked as it comes), then set-up again.  --trace 1
runs one set-up and a fixed number of whole rounds twice, untraced and
traced, and reports the per-layer metrics of the traced section and the
tracing overhead.  See README.md.
"""

from __future__ import annotations

import os

# pin every thread pool to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def environment() -> dict:
    import numpy
    from gmalg import backend

    return {
        "active_backend": backend.ACTIVE_BACKEND,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def timed_setups(wl):
    """Time `wl.setup_repeats` fresh set-ups; returns the last state and the times."""
    times = []
    state = None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
    return state, times


class Runner:
    """Runs operations, checking each output as soon as its timing is taken.

    Outputs are dropped once checked, so memory does not grow with the run;
    the first few (input, output) pairs are kept for the checker self-test.
    """

    keep = 5

    def __init__(self, wl, state):
        self.wl = wl
        self.state = state
        self.pairs = []
        self.latencies = []
        self.failed = 0
        self.errors = []

    def op(self, inp):
        t0 = time.perf_counter()
        try:
            out = self.wl.run(self.state, inp)
        except Exception as e:  # a crash is a failed operation, not a stopped run
            self.latencies.append(time.perf_counter() - t0)
            self.failed += 1
            print(f"operation failed: {type(e).__name__}: {e}", file=sys.stderr)
            return
        self.latencies.append(time.perf_counter() - t0)
        err = self.wl.check(self.state, inp, out)
        if err:
            self.errors.append(err)
        if len(self.pairs) < self.keep:
            self.pairs.append((inp, out))

    def rounds(self, count=None, seconds=None):
        """Whole rounds, either `count` of them or until `seconds` have passed."""
        t0 = time.perf_counter()
        r = 0
        while True:
            for inp in self.wl.round_inputs(r):
                self.op(inp)
            r += 1
            if count is not None and r >= count:
                return
            if seconds is not None and time.perf_counter() - t0 >= seconds:
                return


def tail_line(latencies) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 40:
        return f"tail: {n} samples, too few for a tail beyond the median"
    pct = int(100 * (n - 10) / n)
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return f"tail: p{pct}={value:.6f} s over {n} samples"


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "gmalg" / "__init__.py").is_file():
        print(f"error: no gmalg sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload](args.seed)

    state, setup_times = timed_setups(wl)
    runner = Runner(wl, state)
    runner.errors += wl.check_setup(state)
    runner.op(wl.warmup_input())
    runner.latencies = []

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        from tracing import Tracer

        gc.collect()
        t0 = time.perf_counter()
        runner.state = wl.setup()
        runner.rounds(count=wl.trace_rounds)
        untraced_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        gc.collect()
        t0 = time.perf_counter()
        try:
            runner.state = wl.setup()
            runner.rounds(count=wl.trace_rounds)
        finally:
            tracer.uninstall()
        traced_s = time.perf_counter() - t0
        layer = tracer.metrics()
        layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["sections_s"] = {"untraced": untraced_s, "traced": traced_s}
        record["spans"] = tracer.span_dump()
    else:
        gc.collect()
        runner.rounds(seconds=args.seconds)
        lat = runner.latencies
        # set-up is timed again after the timed phase: the machine's speed
        # drifts over tens of seconds, and one window would catch one state
        setup_times += timed_setups(wl)[1]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
        print(tail_line(lat))
        record["latencies_s"] = lat

    errors = runner.errors + wl.self_test(runner.state, runner.pairs)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": 1 + len(runner.latencies),
        "failed": runner.failed,
        "metrics": metrics,
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
