#!/usr/bin/env python3
"""Check that two builds print byte-identical bench and example tables.

    compare_outputs.py BASE_BUILD CHANGE_BUILD

Every simulated number this repository prints is deterministic, so a change
meant to keep behaviour (a refactor, a host-speed optimisation) must leave
the default standard output of every experiment bench and example
unchanged.  This script finds every `bench_*` executable in BASE_BUILD and
every example named by the repository's examples/*.cpp, keeps those present
in both build directories, runs each with no arguments in a fresh temporary
working directory, and compares the two standard outputs byte for byte.

On the first difference it prints a short unified diff and exits 1.  A run
that exits non-zero, or runs past TIMEOUT seconds, is also a failure
(exit 1).  Exit 2 means the arguments were wrong or the two builds share no
executable.  Executables built in only one directory are listed and skipped.
Only the Python standard library is used.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIFF_LINES = 40
TIMEOUT = 600  # seconds per run; the whole set takes about 10 s


def executables(build):
    """Names of the bench and example executables built in `build`."""
    examples = {p.stem for p in (ROOT / "examples").glob("*.cpp")}
    names = set()
    for path in build.iterdir():
        if not path.is_file() or not os.access(path, os.X_OK):
            continue
        if path.name.startswith("bench_") or path.name in examples:
            names.add(path.name)
    return names


def run(binary):
    """The standard output of `binary` run with no arguments, or raise
    RuntimeError when it fails."""
    with tempfile.TemporaryDirectory() as cwd:
        try:
            proc = subprocess.run([str(binary)], cwd=cwd, capture_output=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{binary} timed out after {TIMEOUT} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} exited {proc.returncode}:\n"
                           + proc.stderr.decode(errors="replace")[-2000:])
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="the reference build directory")
    parser.add_argument("change", type=Path, help="the build to check")
    args = parser.parse_args()
    for build in (args.base, args.change):
        if not build.is_dir():
            parser.error(f"{build} is not a directory")
    # Each run gets its own working directory, so resolve the builds now.
    args.base, args.change = args.base.resolve(), args.change.resolve()

    base, change = executables(args.base), executables(args.change)
    for name in sorted(base ^ change):
        where = args.base if name in base else args.change
        print(f"skip {name}: built only in {where}")
    common = sorted(base & change)
    if not common:
        print("no bench or example executable in both builds",
              file=sys.stderr)
        return 2

    for name in common:
        try:
            before = run(args.base / name)
            after = run(args.change / name)
        except RuntimeError as error:
            print(f"FAIL {name}: {error}", file=sys.stderr)
            return 1
        if before == after:
            print(f"same {name} ({len(after)} bytes)")
            continue
        diff = list(difflib.unified_diff(
            before.decode(errors="replace").splitlines(),
            after.decode(errors="replace").splitlines(),
            fromfile=str(args.base / name), tofile=str(args.change / name),
            lineterm=""))
        print(f"DIFF {name}:")
        print("\n".join(diff[:DIFF_LINES]))
        if len(diff) > DIFF_LINES:
            print(f"... ({len(diff) - DIFF_LINES} more diff lines)")
        return 1
    print(f"all {len(common)} outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
