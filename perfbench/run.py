#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload learn_wan|check_wan|serve_edge \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is compiled (RelWithDebInfo) into
.bench_build/perfbench on first use and rebuilt incrementally after that. The
last line of stdout is the JSON result; build logs, the environment
fingerprint, correctness details and the traced per-layer table go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "concord_perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")


def log(message):
    print(message, file=sys.stderr, flush=True)


def quiet(command):
    """Runs a build step; its output goes to stderr only when it fails."""
    run = subprocess.run(command, capture_output=True, text=True)
    if run.returncode != 0:
        log(run.stdout + run.stderr)
    return run.returncode == 0


def build():
    """Configures (once) and builds the program; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if not quiet(configure):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    started = time.monotonic()
    if not quiet(["cmake", "--build", BUILD_DIR, "--target", "concord_perfbench",
                  "-j", BUILD_JOBS]):
        return False
    if os.path.getmtime(BINARY) != before:
        # A new build invalidates the cross-run identity digests of the old one.
        shutil.rmtree(os.path.join(OUT_DIR, "digests"), ignore_errors=True)
        log(f"perfbench: built in {time.monotonic() - started:.1f}s")
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True)
    return result.stdout.strip() or "unknown"


def recorded_localized(seed):
    """The planted faults check_wan localized for `seed` on the commit that
    introduced the benchmark, or None for a seed with no record."""
    with open(BASELINE) as f:
        return json.load(f)["localized_faults"].get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["learn_wan", "check_wan", "serve_edge"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    log(f"perfbench: git_sha={git_sha()}")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               # Relative to the root, which keeps the socket path short.
               "--out-dir", os.path.relpath(OUT_DIR, ROOT)]
    if args.workload == "check_wan" and recorded_localized(args.seed) is not None:
        # The count may not fall below the record.
        command += ["--min-localized", str(recorded_localized(args.seed))]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S}s")
        return 3
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
