#!/usr/bin/env python3
"""Gate a bench --json artifact against a checked-in baseline snapshot.

The experiment benches (bench/bench_*.cpp) print deterministic result
tables and, with `--json <path>`, record the same metrics as one flat JSON
object (see docs/BENCHMARKS.md).  Because the simulation is deterministic,
those numbers only move when the *simulated system* changes — so CI can
diff a freshly generated artifact against a snapshot committed under
bench/baselines/ and fail the job when a metric drifts, instead of
silently shipping the drift inside an uploaded artifact.

Usage:
    check_bench.py BASELINE CANDIDATE [--rel-tol R] [--abs-tol A]

Comparison rules, chosen by the JSON type of the BASELINE's value:
  * floats pass when |cand - base| <= abs_tol + rel_tol * |base|
    (default rel-tol 0.02: the simulation is deterministic, but the trace
    generators draw exponentials through libm, so a different libm/compiler
    may move arrival times by a few ULPs; 2% absorbs that while any real
    behavioural regression — hit rates, hidden-reconfig time, makespan,
    batch amortization — moves metrics far more);
  * integers and strings (counts, digests, labels) must match exactly,
    type included: they do not pass through libm, so any change is real;
  * a key missing from the candidate, or present only in the candidate,
    FAILS: a bench gaining or losing metrics must regenerate its baseline
    (see docs/BENCHMARKS.md, "Regenerating the baselines").

Exit status: 0 all metrics within tolerance, 1 drift detected, 2 usage or
I/O error.  Only the Python standard library is used.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"check_bench: {path} is not a flat JSON object", file=sys.stderr)
        sys.exit(2)
    return data


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same_exactly(base_value, cand_value):
    return type(base_value) is type(cand_value) and base_value == cand_value


def group_of(key):
    """Metric-group prefix: the first two '_'-separated tokens.

    The benches name metrics `<experiment>_<metric>_<cell>` (e.g.
    fleet_hit_rate_cards4, prefetch_rps_bursty_on), so the first two tokens
    identify the metric family the per-group summary lines report on.
    """
    parts = key.split("_")
    return "_".join(parts[:2]) if len(parts) > 1 else key


def main():
    parser = argparse.ArgumentParser(
        description="Diff a bench --json artifact against its baseline."
    )
    parser.add_argument("baseline", help="checked-in snapshot (bench/baselines/*.json)")
    parser.add_argument("candidate", help="freshly generated --json artifact")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.02,
        help="relative tolerance for float metrics (default: %(default)s)",
    )
    parser.add_argument(
        "--abs-tol",
        type=float,
        default=1e-9,
        help="absolute tolerance floor, for near-zero floats (default: %(default)s)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    failures = []
    for key, base_value in base.items():
        if key not in cand:
            failures.append((key, base_value, "<missing>", "metric disappeared"))
            continue
        cand_value = cand[key]
        if not isinstance(base_value, float) or not is_number(cand_value):
            if not same_exactly(base_value, cand_value):
                failures.append((key, base_value, cand_value, "value changed"))
            continue
        bound = args.abs_tol + args.rel_tol * abs(base_value)
        drift = abs(cand_value - base_value)
        if drift > bound:
            rel = drift / abs(base_value) if base_value else float("inf")
            failures.append(
                (key, base_value, cand_value, f"drift {rel:+.1%} (> {args.rel_tol:.1%})")
            )
    for key, cand_value in cand.items():
        if key not in base:
            failures.append((key, "<missing>", cand_value, "new metric not in baseline"))

    checked = len(base)
    if failures:
        print(
            f"check_bench: {len(failures)} metric(s) out of tolerance "
            f"against {args.baseline}:"
        )
        width = max(len(key) for key, *_ in failures)
        for key, base_value, cand_value, reason in failures:
            print(f"  {key:<{width}}  baseline={base_value}  candidate={cand_value}  [{reason}]")
        print(
            "If this change is intentionally perf-visible, regenerate the "
            "baseline snapshot (docs/BENCHMARKS.md, 'Regenerating the "
            "baselines') and quote the diff in the PR."
        )
        return 1
    # One PASS line per metric group so a green CI log still shows what was
    # actually covered.
    groups = {}
    for key in base:
        groups[group_of(key)] = groups.get(group_of(key), 0) + 1
    width = max(len(g) for g in groups)
    for group in sorted(groups):
        print(f"check_bench: PASS {group:<{width}}  {groups[group]} metric(s)")
    print(
        f"check_bench: OK — {checked} metric(s) match {args.baseline} "
        f"(integers and strings exactly, floats within rel-tol {args.rel_tol})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
