#!/usr/bin/env python3
"""Runs one benchmark workload repeatedly in fresh processes and reports how
steady its end-to-end metrics are.

Run from the repository root:

    python3 searchbench/steady.py --workload gossip --runs 10 --first-seed 1

Each run uses its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric in BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles with n=4), and the spread — the distance between the
quartiles as a share of the median — against the metric's bound. A spread
under a third of the bound is marked "ok"; under the bound, "near"; above
it, "WIDE". Exits non-zero when a run fails or a spread is wide.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="also write every run's result line to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = []
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append({"seed": seed, "wall_s": wall, "result": result})
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        figures = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: {wall:5.1f} s wall, attempted {result['attempted']}, failed {result['failed']}: {figures}",
              file=sys.stderr)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": results}, f, indent=1)

    status = 0
    print(f"{args.workload}: {args.runs} runs of {seconds} s; failed share {sorted(set(shares))}")
    print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if spread < m["bound"] / 3:
            verdict = "ok"
        elif spread <= m["bound"]:
            verdict = "near"
        else:
            verdict = "WIDE"
            status = 1
        print(f"{m['name']:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.2f} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
