"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 bench/collect.py                      # every workload, 10 seeds
    python3 bench/collect.py --runs 5 --first-seed 100
    python3 bench/collect.py --trace 1 --runs 2   # per-layer metrics
    python3 bench/collect.py --out bench/baseline.json

Each run is ``bench/run.py`` in its own process, one after another, with the
``command`` and ``run_seconds`` of BENCHMARK.json.  For every workload and
metric it prints the median, the quartiles and the spread (interquartile
distance over the median), next to the metric's bound for end-to-end
metrics.  Exits 1 if a run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every value and the summary to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        values, samples, percentiles = {}, [], []
        for seed in record["seeds"]:
            meta, result = run_once(spec, workload, seed, args.trace)
            if not result["correct"] or result["failed"]:
                failed = True
                print("%s seed %d: %d of %d operations failed"
                      % (workload, seed, result["failed"], result["attempted"]))
            samples.append(result["attempted"])
            percentiles.append(meta.get("tail_percentile"))
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print("%s  (samples per run %s)" % (workload, samples))
        entry = {"samples": samples, "tail_percentile": percentiles, "metrics": {}}
        for name, (unit, vals) in values.items():
            summary = summarise(vals)
            summary["unit"] = unit
            entry["metrics"][name] = summary
            bound = bounds.get(name)
            flag = ""
            if bound is not None and summary["spread"] > bound / 3:
                flag = "  spread above a third of the bound"
            print(
                "  %-34s %-11s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s%s"
                % (name, unit, summary["median"], summary["q1"], summary["q3"],
                   summary["spread"], "" if bound is None else "  bound %g" % bound, flag)
            )
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
