#!/usr/bin/env python3
"""Touch-to-answer benchmark entry point.

Builds the benchmark driver from the checkout's sources (CMake, Release) on
first use, then runs one workload and relays its result. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload wire_paced --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR if
set, else .bench_build/; spill files and trace dumps go to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_paced", "mem_flood", "disk_paced")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    path = os.path.join(out, "perfbench_driver")
    return path if os.path.exists(path) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        cmd = [driver, "--selftest", "--out", out_dir]
    else:
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: driver failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
