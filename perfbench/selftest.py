#!/usr/bin/env python3
"""Self-test: the benchmark must catch an injected slowdown and blame it.

Spins a calibrated delay inside the benchmark's own timing
ResponseTimeModel wrapper (the `anneal.predict` layer of cold-policy,
`--inject-delay-us`), sized so that it adds twice cold-policy's
op_ms_p50 bound to each op. Then it checks that

  1. cold-policy's op_ms_p50 moves beyond its bound,
  2. no other workload's op_ms_p50 moves beyond its bound, and
  3. a traced cold-policy run blames the wrapped layer: of all layers'
     self times per op, `anneal.predict` grows the most.

Last, it checks that the host-speed reference does not depend on the op
before it: a catalog run with `--inject-footprint-mb 64` sweeps 64 MiB
before every other probe of the reference kernel, as an op with a much
larger memory footprint would, and

  4. the kernel's median after a sweep stays within a quarter of the
     op_ms_p50 bound of its median after none.

    python3 perfbench/selftest.py                 # 3 runs a side, 10 s each
    python3 perfbench/selftest.py --runs 5 --seconds 20

Run it from the repository root. Exit code 0 iff all four hold.
"""

import argparse
import json
import re
import statistics
import sys

from spread import run_once

CANDIDATES = 150  # predictions per cold-policy op (AnnealingConfig::default)


def self_times(metrics):
    """Self time per op of each cold-policy layer, from a traced run."""
    v = {k: m["value"] for k, m in metrics.items()}
    inner = v["forest.infer_ms"] + v["qsim.trace_ms"] + v["qsim.engine_ms"]
    return {
        "testbed.profile": v["testbed.profile_ms"],
        "calibrate": v["calibrate.ms"],
        "forest.train": v["forest.train_ms"],
        "anneal.search": v["anneal.ms"] - v["anneal.predict_ms"],
        "anneal.predict": v["anneal.predict_ms"] - inner,
        "forest.infer": v["forest.infer_ms"],
        "qsim.trace": v["qsim.trace_ms"],
        "qsim.engine": v["qsim.engine_ms"],
        "residual": v["residual_ms"],
    }


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    cmd = bench["command"]
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["op_ms_p50"]
    p50 = lambda r: r["metrics"]["op_ms_p50"]["value"]

    base = {}
    for w in [w["name"] for w in bench["workloads"]]:
        base[w] = [p50(run_once(cmd, w, s, args.seconds)[0]) for s in range(1, args.runs + 1)]
    added_ms = 2 * bound * statistics.median(base["cold-policy"])
    delay_us = added_ms * 1e3 / CANDIDATES
    print(f"injecting {delay_us:.1f} us per prediction in the cold-policy wrapper "
          f"(+{added_ms:.1f} ms per op, twice the {bound:.0%} op_ms_p50 bound)")

    ok = True
    inject = ["--inject-delay-us", f"{delay_us:.3f}"]
    for w, before in base.items():
        after = []
        for s in range(1, args.runs + 1):
            after.append(p50(run_once(cmd, w, s, args.seconds, extra=inject)[0]))
        change = statistics.median(after) / statistics.median(before) - 1
        flagged = change > bound
        expect = w == "cold-policy"
        ok &= flagged == expect
        print(f"  {w:<14} op_ms_p50 {statistics.median(before):10.3f} -> "
              f"{statistics.median(after):10.3f} ms ({change:+.1%}): "
              f"{'FLAGGED' if flagged else 'unchanged'}"
              f"{'' if flagged == expect else '  <-- WRONG'}")

    traced = {}
    for label, extra in (("baseline", []), ("injected", inject)):
        r, _ = run_once(cmd, "cold-policy", 1, args.seconds, trace=1, extra=extra)
        traced[label] = self_times(r["metrics"])
    deltas = {k: traced["injected"][k] - traced["baseline"][k] for k in traced["baseline"]}
    blamed = max(deltas, key=deltas.get)
    print("  cold-policy layer self time per op (traced), ms:")
    for k, d in sorted(deltas.items(), key=lambda kv: -kv[1]):
        print(f"    {k:<16} {traced['baseline'][k]:10.3f} -> {traced['injected'][k]:10.3f}  ({d:+.3f})")
    ok &= blamed == "anneal.predict"
    print(f"  blamed layer: {blamed}{'' if blamed == 'anneal.predict' else '  <-- WRONG'}")

    _, stdout = run_once(cmd, "catalog", 1, 2 * args.seconds, extra=["--inject-footprint-mb", "64"])
    line = next(l for l in stdout.splitlines() if "footprint self-test" in l)
    ratio = float(re.search(r"ratio ([0-9.]+)", line).group(1))
    steady = abs(ratio - 1) < bound / 4
    ok &= steady
    print(f"  {line.strip()}: {'independent of the op' if steady else 'DEPENDS ON THE OP  <-- WRONG'}")
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
