"""Run one albv benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload betti_slices --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the workload's operation cycle runs in a closed loop, one
operation at a time, for ``--seconds`` and the end-to-end metrics are
reported; the set-ups timed for ``setup_s`` are spread over the same
seconds, between operations and outside the timed loop's wall time.  With
``--trace 1`` it alternates an untraced and a traced pass over the first
``pass_len`` operations and reports the per-layer metrics.  Every
operation is checked against a known answer.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's metadata.  The metric names and units are those of
BENCHMARK.json.  albv is imported from ``src/`` next to this directory;
without it, or without BENCHMARK.json, the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, assert_untraced
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
SETUP_REPS = 25
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it


def metric_units(spec, trace):
    """Metric name -> unit from BENCHMARK.json, in the order they are reported."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Tally:
    """Attempted and failed operations, with per-operation latencies."""

    def __init__(self):
        self.latencies = []
        self.by_name = {}  # operation name -> [latencies, failures]
        self.attempted = 0
        self.failed = 0

    def attempt(self, op):
        """Run one operation and check its answer; a raise is a failure."""
        self.attempted += 1
        elapsed = None
        start = time.perf_counter()
        try:
            result = op.run()
            elapsed = time.perf_counter() - start
            ok = bool(op.check(result))
        except Exception:
            if elapsed is None:
                elapsed = time.perf_counter() - start
            ok = False
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
        row = self.by_name.setdefault(op.name, [[], 0])
        if not ok:
            if not self.failed:
                print("operation failed: %s" % op.name, file=sys.stderr)
            self.failed += 1
            row[1] += 1
        self.latencies.append(elapsed)
        row[0].append(elapsed)

    def check_untimed(self, results):
        """Count the pass/fail results of checks run outside the timed loop."""
        for ok in results:
            self.attempted += 1
            self.failed += not ok


def albv_modules():
    return {n: m for n, m in sys.modules.items() if n == "albv" or n.startswith("albv.")}


def fresh_setup(workload, workdir):
    """Time one import of albv and build of the workload, in a fresh
    generation of albv modules.

    The generation the operations use is put back in sys.modules afterwards
    and the fresh one is freed, so the run goes on as before.
    """
    live = albv_modules()
    for name in live:
        del sys.modules[name]
    try:
        start = time.perf_counter()
        importlib.import_module("albv")
        workload.build(workdir)
        return time.perf_counter() - start
    finally:
        for name in albv_modules():
            del sys.modules[name]
        sys.modules.update(live)
        gc.collect()


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND operations above it.

    Nearest-rank on the sorted sample: index n - 1 - TAIL_BEYOND (clamped to
    0 for small samples), which is percentile 100 * (index + 1) / n.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def run_timed(ops, mix, seconds, tally, setup):
    """Closed loop over the cycle for ``seconds``, ending on a whole mix (at
    least one) so every kind of operation is equally represented.

    The loop also calls ``setup`` SETUP_REPS times, evenly over the
    seconds, at the first operation boundary each call is due (and the rest
    after the loop).  Its time is left out of the returned wall time.
    Returns the wall time and the list of ``setup()`` results.
    """
    setups = []
    due = 0.0
    paused = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        tally.attempt(ops[i % len(ops)])
        i += 1
        elapsed = time.perf_counter() - start - paused
        if len(setups) < SETUP_REPS and elapsed >= due:
            t0 = time.perf_counter()
            setups.append(setup())
            paused += time.perf_counter() - t0
            due += seconds / SETUP_REPS
        if i % mix == 0 and elapsed >= seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(setup())
    return elapsed, setups


def end_to_end(setup_s, wall, tally):
    """End-to-end metrics; ``tally`` holds the timed operations' latencies
    and every checked operation, the untimed end-of-run checks included."""
    value, pct, beyond = tail(tally.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(tally.latencies) / wall,
        "op_p50_ms": 1000.0 * statistics.median(tally.latencies),
        "op_tail_ms": 1000.0 * value,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    meta = {
        "samples": len(tally.latencies),
        "wall_s": wall,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "fail_ratio": tally.failed / tally.attempted,
        "per_operation": {
            name: {"samples": len(lat), "failed": failed, "p50_ms": 1000.0 * statistics.median(lat)}
            for name, (lat, failed) in sorted(tally.by_name.items())
        },
    }
    return metrics, meta


def run_traced(ops, pass_len, seconds, tally, units):
    """Alternate untraced and traced passes; returns per-layer metrics.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; times are medians over the traced passes.
    """
    pass_ops = [ops[i % len(ops)] for i in range(pass_len)]
    rounds = []
    start = time.perf_counter()
    while True:
        assert_untraced()
        t0 = time.perf_counter()
        for op in pass_ops:
            tally.attempt(op)
        untraced = time.perf_counter() - t0
        with Tracer() as tracer:
            t0 = time.perf_counter()
            for op in pass_ops:
                tally.attempt(op)
            traced = time.perf_counter() - t0
        rounds.append((untraced, traced, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    first = rounds[0][2]
    slices = first.counters["slices"]
    rank_calls = first.stats["linalg.rank"][0]
    metrics = {
        "homology.rank_calls_per_slice": rank_calls / slices if slices else 0.0,
        "linalg.rank.cells": first.counters["rank.cells"],
        "linalg.rank.nnz": first.counters["rank.nnz"],
        "linalg.rank.max_dim": first.counters["rank.max_dim"],
        "trace.overhead_ratio": statistics.median(r[1] for r in rounds)
        / statistics.median(r[0] for r in rounds),
    }
    for name in units:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = first.stats[layer][0]
        elif kind == "self_s":
            metrics[name] = statistics.median(r[2].stats[layer][1] for r in rounds)
    meta = {"rounds": len(rounds), "pass_len": pass_len, "slices": slices}
    return metrics, meta


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    for needed in (SRC / "albv" / "__init__.py", SPEC):
        if not needed.is_file():
            print("error: %s not found" % needed, file=sys.stderr)
            return 2
    units = metric_units(json.loads(SPEC.read_text()), args.trace)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        workdir = Path(workdir)
        importlib.import_module("albv")
        ops = workload.operations(workload.build(workdir), args.seed)
        if args.trace:
            metrics, meta = run_traced(ops, workload.pass_len, args.seconds, tally, units)
            tally.check_untimed(workload.finish())
        else:
            assert_untraced()
            wall, setups = run_timed(
                ops, workload.mix, args.seconds, tally, lambda: fresh_setup(workload, workdir)
            )
            tally.check_untimed(workload.finish())
            metrics, meta = end_to_end(statistics.median(setups), wall, tally)
    meta.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        setup_reps=SETUP_REPS,
    )
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
