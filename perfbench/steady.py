"""Steadiness check: two sets of benchmark runs of the same checkout.

    python3 perfbench/steady.py --runs 10 [--workloads classify,extend]

Set A uses seeds 1..runs and set B seeds runs+1..2*runs; the runs alternate
between the sets and each lasts run_seconds from BENCHMARK.json.  For every
workload and end-to-end metric it prints each set's median and quartiles, the
spread (q3 - q1) / median of each set, and whether the medians agree within
the bound in BENCHMARK.json and the spreads stay below it.  The failed share
must be identical in both sets.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        for k in range(args.runs):
            for label, offset in (("A", 1), ("B", args.runs + 1)):
                result = run_once(root, workload, offset + k, seconds)
                all_ok = all_ok and result["correct"]
                sets[label].append(result)
                print(f"# {workload} set {label} seed {offset + k}: "
                      + json.dumps(result), file=sys.stderr, flush=True)
        shares = {label: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for label, runs in sets.items()}
        same_share = shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1]
        all_ok = all_ok and same_share
        print(f"\n{workload}: failed/attempted A {shares['A'][0]}/{shares['A'][1]}, "
              f"B {shares['B'][0]}/{shares['B'][1]}, {'same share' if same_share else 'DIFFER'}")
        print(f"  {'metric':12s} {'bound':>5s}  {'A median [q1, q3]':>30s} {'spread':>6s}"
              f"  {'B median [q1, q3]':>30s} {'spread':>6s}  {'B vs A':>7s}  verdict")
        for name, m in bounds.items():
            a = summary([r["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["metrics"][name]["value"] for r in sets["B"]])
            shift = (b[0] - a[0]) / a[0]
            ok = abs(shift) <= m["bound"] and a[3] <= m["bound"] and b[3] <= m["bound"]
            all_ok = all_ok and ok
            print(f"  {name:12s} {m['bound']:5.2f}  {a[0]:12.4f} [{a[1]:.4f}, {a[2]:.4f}] {a[3]:6.3f}"
                  f"  {b[0]:12.4f} [{b[1]:.4f}, {b[2]:.4f}] {b[3]:6.3f}  {shift:+7.3f}  "
                  f"{'agree' if ok else 'DISAGREE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
