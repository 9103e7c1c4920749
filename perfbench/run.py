#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that compiles the simulator sources under src/;
it is configured and built in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) before every run, which is a no-op once built.  Build
output goes to standard error, so the result JSON stays the last line of
standard output.  Exits non-zero without a result when the simulator sources
are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quietly(cmd):
    """Run a build step with its output on stderr; fail the run if it fails."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = ROOT / target / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quietly(configure)
    run_quietly(["cmake", "--build", str(build_dir), "-j", "4"])
    return build_dir / "perfbench"


def main():
    binary = build()
    try:
        done = subprocess.run([str(binary)] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
