#!/usr/bin/env python3
"""Run the benchmark on several seeds and check each end-to-end metric
against its bound in BENCHMARK.json.

For each set of runs and each workload, the spread of a metric is the
distance between the first and third quartile of the runs' values
(statistics.quantiles(values, n=4)) as a share of their median; it must
stay within the metric's bound. With --sets 2, the second set's median
must also not be worse than the first set's by more than the bound.
Simulated metrics (the DR speedups) must be bit-identical across every
run.

    python3 clogbench/spread.py [--runs 10] [--sets 2]
                                [--workloads clog8,serve_round]
                                [--seconds S] [--bin path/to/clogbench]

Run from the repository root. Without --bin it runs BENCHMARK.json's
command, which builds the benchmark first. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SIMULATED = {"dr_gpu_speedup", "dr_cpu_speedup"}


def run_set(command, workload, seeds, seconds, names):
    """Values of each metric in `names` over one run per seed, or None
    when a run fails its output check."""
    values = {name: [] for name in names}
    correct = True
    for seed in seeds:
        t = time.time()
        out = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
            correct = False
        for name in names:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed} ({time.time() - t:.0f} s): "
              + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    return values, correct


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--bin", help="a built clogbench binary to run instead of the command")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    command = [args.bin] if args.bin else bench["command"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    # sets[k][workload][metric] = the k-th set's values
    sets = []
    for k in range(args.sets):
        sets.append({})
        for workload in args.workloads.split(","):
            first = args.first_seed + k * args.runs
            values, correct = run_set(command, workload, range(first, first + args.runs),
                                      args.seconds, metrics)
            ok &= correct
            sets[k][workload] = values
    for k, by_workload in enumerate(sets):
        print(f"set {k + 1}: spread = (q3 - q1) / median over {args.runs} runs")
        for workload, values in by_workload.items():
            for name, xs in values.items():
                bound = metrics[name]["bound"]
                if name in SIMULATED:
                    same = len(set(xs)) == 1
                    verdict = "identical" if same else "DIFFERS"
                    ok &= same
                else:
                    s = spread(xs)
                    verdict = "ok" if s <= bound / 3 else (
                        "within bound" if s <= bound else "TOO WIDE")
                    ok &= s <= bound
                print(f"  {workload:13} {name:18} median {statistics.median(xs):<12.6g}"
                      f" spread {spread(xs):7.4f}  bound {bound:<5} {verdict}")
    for k in range(1, len(sets)):
        print(f"set {k + 1} against set 1: median change, + is worse")
        for workload, values in sets[k].items():
            for name, xs in values.items():
                m = metrics[name]
                before = statistics.median(sets[0][workload][name])
                after = statistics.median(xs)
                worse = (after - before) / before
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok &= worse <= m["bound"]
                print(f"  {workload:13} {name:18} {before:<12.6g} -> {after:<12.6g}"
                      f" {worse:+8.4f}  bound {m['bound']:<5} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
