#!/usr/bin/env python3
"""Steadiness check of the touch-to-answer benchmark.

Runs every workload of BENCHMARK.json `--runs` times per set, each run with
its own seed, for `--sets` sets. For every end-to-end metric it prints the
median, the quartiles and the spread (quartile distance / median) of each
set, and fails (exit 1) when

  - a spread, except that of setup_s, exceeds the metric's bound;
  - a later set's median is worse than the first set's by more than the
    bound (every metric, setup_s included);
  - the share of failed operations differs between sets, or any run
    reports correct=false.

With --overhead it also makes one traced run per workload and prints the
tracing overhead: traced answer_p50_us minus the first set's median.

    python3 perfbench/steady.py --runs 10 --sets 2 --overhead
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, later):
    """Relative change of `later` against `first` in the bad direction."""
    if first == 0:
        return 0.0
    delta = (later - first) / first
    return delta if metric["better"] == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for j in range(args.runs):
                seed = args.first_seed + 1000 * s + j
                result = run_once(spec, workload, seed, 0)
                if not result["correct"]:
                    print("FAIL %s seed %d: correct=false" % (workload, seed))
                    ok = False
                runs.append(result)
            sets.append(runs)
        print("== %s (%d runs x %d sets)" % (workload, args.runs, args.sets))
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets]
        print("  failed share per set: %s" % shares)
        if len(set(shares)) > 1:
            print("  FAIL failed share differs between sets")
            ok = False
        first_medians = {}
        for m in metrics:
            name = m["name"]
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = ""
                if name != "setup_s" and spread > m["bound"]:
                    verdict = " FAIL spread > bound %.3f" % m["bound"]
                    ok = False
                if s == 0:
                    first_medians[name] = med
                else:
                    worse = worse_by(m, first_medians[name], med)
                    if worse > m["bound"]:
                        verdict += " FAIL median worse by %.3f" % worse
                        ok = False
                print("  %-16s set %d median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.4f (bound %.2f, third %.4f)%s"
                      % (name, s, med, q1, q3, spread, m["bound"],
                         m["bound"] / 3, verdict))
                print("    runs: %s" % " ".join("%.4g" % v for v in values))
        if args.overhead:
            traced = run_once(spec, workload, args.first_seed, 1)
            t50 = traced["metrics"]["client.traced_answer_p50_us"]["value"]
            print("  tracing overhead: traced answer_p50 %.1f us vs %.1f us "
                  "untraced median (%+.1f us)"
                  % (t50, first_medians["answer_p50_us"],
                     t50 - first_medians["answer_p50_us"]))
        sys.stdout.flush()
    print("steady: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
