#!/usr/bin/env bash
# Run every bench smoke + regression gate from scripts/bench_gates.manifest.
#
# Each manifest entry is `name|smoke|gate`: the smoke command runs inside
# the build directory (regenerating the bench's deterministic --json
# artifact or --trace export), the gate command runs at the repo root
# (diffing against bench/baselines/ via check_bench.py, or validating the
# trace via check_trace.py).  Both see the build directory's absolute path
# as $BUILD_DIR, so a gate always reads the artifact its own smoke just
# wrote — never a stale one from some other build tree.  Adding a gate is
# one manifest line.
#
# All entries run even after a failure so one drifted baseline does not
# hide another; the exit status is non-zero when any smoke or gate failed.
#
# Usage: run_bench_gates.sh [BUILD_DIR]   (default: <repo>/build)
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
manifest="$repo/scripts/bench_gates.manifest"

if [ ! -d "$build" ]; then
  echo "run_bench_gates: build directory $build does not exist" >&2
  exit 2
fi
BUILD_DIR="$(cd "$build" && pwd)"
export BUILD_DIR

failed=()
while IFS='|' read -r name smoke gate; do
  case "$name" in ''|\#*) continue ;; esac
  echo "::group::bench gate: $name"
  ok=1
  if ! (cd "$BUILD_DIR" && eval "$smoke"); then
    echo "run_bench_gates: FAIL($name): smoke run" >&2
    ok=0
  elif ! (cd "$repo" && eval "$gate"); then
    echo "run_bench_gates: FAIL($name): gate" >&2
    ok=0
  fi
  echo "::endgroup::"
  [ "$ok" -eq 1 ] || failed+=("$name")
done < "$manifest"

if [ "${#failed[@]}" -gt 0 ]; then
  echo "run_bench_gates: ${#failed[@]} gate(s) failed: ${failed[*]}" >&2
  exit 1
fi
echo "run_bench_gates: all gates passed"
