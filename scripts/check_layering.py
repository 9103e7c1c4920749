#!/usr/bin/env python3
"""Check that every library under src/ includes only what it links.

    check_layering.py

CMakeLists.txt declares one static library per src/ subdirectory with
`aad_library(<name> <dependency>...)`.  Every library exports the same
public src/ include directory, so the compiler accepts any
`#include "<lib>/..."` from anywhere; this script enforces the declared
graph instead.  Each `#include "<lib>/..."` in a file under src/<x>/ must
name <x> itself or a library in <x>'s transitive dependencies, and every
src/ subdirectory must be declared.  Violations are listed one per line,
with file and line, and the exit status is 1; a clean tree prints a
one-line summary and exits 0.  Only the Python standard library is used.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = re.compile(r"^\s*aad_library\(([^)]*)\)", re.MULTILINE)
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/[^"]+"')


def declared_libraries(cmake_text):
    """Direct dependencies of every aad_library(...) in CMakeLists.txt."""
    graph = {}
    for match in LIBRARY.finditer(cmake_text):
        name, *deps = match.group(1).split()
        graph[name] = set(deps)
    return graph


def transitive(graph, name):
    """`name` plus everything it reaches through `graph`."""
    seen, stack = {name}, [name]
    while stack:
        for dep in graph.get(stack.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def main():
    if len(sys.argv) != 1:
        print("usage: check_layering.py (takes no arguments)", file=sys.stderr)
        return 2
    graph = declared_libraries(
        (ROOT / "CMakeLists.txt").read_text(encoding="utf-8"))
    violations = []
    includes = 0
    for directory in sorted(p for p in (ROOT / "src").iterdir() if p.is_dir()):
        lib = directory.name
        if lib not in graph:
            violations.append(f"src/{lib}/: no aad_library({lib} ...) "
                              "in CMakeLists.txt")
            continue
        allowed = transitive(graph, lib)
        for path in sorted(directory.rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                match = INCLUDE.match(line)
                if not match:
                    continue
                includes += 1
                target = match.group(1)
                if target not in allowed:
                    rel = path.relative_to(ROOT)
                    violations.append(
                        f"{rel}:{number}: includes {target}/, which "
                        f"aad_library({lib}) does not depend on")
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} layering violation(s)")
        return 1
    print(f"layering ok: {includes} includes across {len(graph)} libraries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
