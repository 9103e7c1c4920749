#!/usr/bin/env python3
"""Compare two built perfbench binaries over interleaved A/B pairs.

    perfbench_pairs.py BASE CHANGE --workload <name> [--workload <name> ...]
        [--seed 7] [--seconds 25] [--pairs 10]

Host speed drifts between runs minutes apart, so a before/after claim needs
both sides measured in turns on one machine.  For each --workload (repeat
the flag for several, or pass "all" for every workload BENCHMARK.json
declares, in its order), this script runs --pairs pairs of untraced
(--trace 0) runs of the two binaries on that workload and seed, alternating
which side goes first (pair 1 runs BASE then CHANGE, pair 2 CHANGE then
BASE, ...), then prints one block: for each end-to-end metric the runs
report, every pair's values, each side's median and quartiles, the ratio of
medians and how many pairs the change won.  Each block is printed as soon
as its workload's pairs are done.  "Won" follows the
metric's direction in BENCHMARK.json (higher or lower is better); a tie
wins for neither side.  Metrics without a direction (not in BENCHMARK.json)
are listed without a win count.

Build the two binaries first, e.g. with
    cmake -S perfbench -B <dir> -DCMAKE_BUILD_TYPE=Release && \\
        cmake --build <dir>
in a checkout of each commit.  Each run's result is the last line of its
standard output (perfbench's JSON); the script fails (exit 1) when a run
exits non-zero or reports correct=false or failed requests, and prints
failures to standard error.  Only the Python standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions():
    """Metric name -> "higher"/"lower" from BENCHMARK.json's end_to_end."""
    return {m["name"]: m["better"] for m in benchmark_spec()["end_to_end"]}


def expand_workloads(names):
    """The --workload values in order, "all" replaced by every declared
    workload, each workload once."""
    declared = [w["name"] for w in benchmark_spec()["workloads"]]
    workloads = []
    for name in names:
        for workload in declared if name == "all" else [name]:
            if workload not in workloads:
                workloads.append(workload)
    return workloads


def run_once(binary, workload, seed, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench_pairs: {binary} exited "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"perfbench_pairs: {binary} run incorrect: "
                         f"correct={result['correct']} "
                         f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def fmt(value):
    return f"{value:.6g}"


def measure(args, workload):
    """Run the pairs for one workload: {"base": [metrics...], "change": ...}."""
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            binary = args.base if side == "base" else args.change
            runs[side].append(run_once(binary, workload, args.seed,
                                       args.seconds))
        print(f"{workload}: pair {pair + 1}/{args.pairs} done "
              f"({order[0]} first)", file=sys.stderr, flush=True)
    return runs


def report(args, workload, runs, better):
    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{args.pairs} pairs (alternating order, --trace 0)")
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        ratio = cmed / bmed if bmed else float("nan")
        line = (f"{name}: base median {fmt(bmed)} (Q1 {fmt(bq1)}, "
                f"Q3 {fmt(bq3)}) -> change median {fmt(cmed)} "
                f"(Q1 {fmt(cq1)}, Q3 {fmt(cq3)}), ratio {ratio:.3f}")
        direction = better.get(name)
        if direction is not None:
            wins = sum((c > b) if direction == "higher" else (c < b)
                       for b, c in zip(base, change))
            line += f", change better in {wins}/{args.pairs} pairs"
        print(line)
        print("  pairs (base, change): " +
              ", ".join(f"({fmt(b)}, {fmt(c)})" for b, c in zip(base, change)))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="parent perfbench binary")
    parser.add_argument("change", type=Path, help="changed perfbench binary")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to measure; repeat for several, or "
                             "'all' for every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for binary in (args.base, args.change):
        if not binary.is_file():
            parser.error(f"no binary at {binary}")

    better = directions()
    for index, workload in enumerate(expand_workloads(args.workload)):
        if index > 0:
            print()
        report(args, workload, measure(args, workload), better)


if __name__ == "__main__":
    main()
