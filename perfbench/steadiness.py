#!/usr/bin/env python3
"""Steadiness report for the verdict benchmark.

    python3 perfbench/steadiness.py [--sets 2] [--runs 10]
                                    [--workloads a,b] [--seconds N]

Runs every workload --runs times per set, each run with its own seed:
a set runs the workloads one after another, each --runs times in a
row, and the second set starts when the first has ended. For each
workload x end-to-end metric it prints, per set, the
median, the quartiles (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median against the metric's bound, and the change of the
second set's median from the first in the metric's worse direction.
A row is flagged when a spread exceeds the bound or the median
worsens by more than the bound. Exit status 1 when any row is flagged. Every
run's metrics are kept in .bench_run/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-3000:])
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    # samples[workload][set] = list of metric dicts
    samples = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i
                samples[w][s].append(run_once(w, seed, args.seconds))
                print("%-17s set %d run %2d seed %d done" % (w, s, i, seed),
                      file=sys.stderr, flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "steadiness.json"), "w") as f:
        json.dump(samples, f)

    flagged = 0
    print("%-17s %-13s %4s %12s %12s %12s %7s %6s %8s" %
          ("workload", "metric", "set", "q1", "median", "q3", "spread",
           "bound", "shift"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                q1, q2, q3 = spread([r[name] for r in samples[w][s]])
                rel = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                shift = ""
                bad = rel > bound
                if s > 0:
                    worse = (q2 - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    shift = "%+.4f" % worse
                    bad = bad or worse > bound
                flagged += bad
                print("%-17s %-13s %4d %12.5g %12.5g %12.5g %7.4f %6.3f %8s%s"
                      % (w, name, s, q1, q2, q3, rel, bound, shift,
                         "  <-- over bound" if bad else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
