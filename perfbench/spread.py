#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload check_wan --seeds 1-10 [--seconds 20] [--trace 0]
    python3 perfbench/spread.py --workload all --seeds 1

`--workload all` runs every workload in BENCHMARK.json. Every run makes all of
its correctness checks; a failed run stops the script with exit code 1. Each
run's stderr is kept in .bench_build/perfbench-out/logs.
For every metric it prints the median over the runs, the quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share of
the median, next to the metric's bound from BENCHMARK.json. A metric is
steady when its spread is under a third of its bound. The last line of stdout
is the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOG_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out", "logs")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(workload, seeds, seconds, trace, bounds):
    """Runs `workload` once per seed; returns {metric: summary} or None on failure."""
    values = {}
    units = {}
    for seed in seeds:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", trace]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        os.makedirs(LOG_DIR, exist_ok=True)
        with open(os.path.join(LOG_DIR, f"{workload}-{seed}-trace{trace}.err"), "w") as log:
            log.write(run.stderr)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"{workload} seed {seed}: FAILED (exit {run.returncode})\n"
                  f"{run.stderr[-2000:]}", file=sys.stderr)
            return None
        print(f"{workload} seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in sorted(result["metrics"].items())),
              file=sys.stderr, flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, vals in sorted(values.items()):
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": share}
        verdict = "" if bound is None else (" steady" if share < bound / 3 else " UNSTEADY")
        print(f"{workload:10s} {name:32s} {units[name]:6s} median={median:<14.6g} "
              f"q1={q1:<12.6g} q3={q3:<12.6g} spread={share:.3f}"
              + ("" if bound is None else f" bound={bound}") + verdict)
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])

    report = {}
    for workload in workloads:
        summary = spread(workload, seed_list(args.seeds), seconds, args.trace, bounds)
        if summary is None:
            return 1
        report[workload] = summary
    print(json.dumps({"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
                      "workloads": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
