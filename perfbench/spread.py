#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py                       # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads catalog --seeds 5

Run it from the repository root. Exits 1 if a run fails, reports
correct=false, or a spread is not below its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace=0, extra=()):
    """One benchmark run; returns (result dict, stdout)."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        results = []
        for seed in range(1, args.seeds + 1):
            r, _ = run_once(bench["command"], w, seed, args.seconds)
            results.append(r)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}")
        print(f"{w}: {len(results)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < bound else "TOO WIDE"
            if spread >= bound:
                ok = False
            print(f"  {name:<14} median {med:>14.6f}  spread {spread:7.2%}  "
                  f"bound {bound:5.0%}  (a third: {bound / 3:5.1%})  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
