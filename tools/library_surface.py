#!/usr/bin/env python3
"""Library-surface check: no library function may be reached only by tests.

Builds the quartz libraries, tests, benches and examples, and the
perfbench program (from perfbench/CMakeLists.txt, into its own build
directory), at -O0 with one section per function and --gc-sections.  At
-O0 nothing is inlined, so each binary keeps exactly the library
functions it can reach, whatever the compiler.  Then nm lists the
global functions each quartz library defines and the functions each
binary kept.  A library function that test binaries keep but no bench,
example or perfbench binary does, or that no binary keeps at all, must
be listed in the allowlist with its reason; otherwise the check fails.
An allowlist entry that no longer names such a function fails it too.

Usage: python3 tools/library_surface.py [BUILD_DIR]   (default: build-surface)
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "library_surface_allowlist.txt"

CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    subprocess.run(cmd, check=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    perf_dir = build_dir / "perfbench"
    run(["cmake", "-S", str(ROOT), "-B", str(build_dir), *CMAKE_FLAGS])
    run(["cmake", "--build", str(build_dir), "-j", jobs])
    run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(perf_dir), *CMAKE_FLAGS])
    run(["cmake", "--build", str(perf_dir), "-j", jobs, "--target", "perfbench"])
    return perf_dir / "perfbench"


def functions(path, kinds):
    """Demangled names of the defined symbols of `path` whose nm type is in `kinds`."""
    out = subprocess.run(["nm", "--defined-only", "-C", str(path)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(parts[2])
    return names


def executables(directory):
    return sorted(p for p in directory.rglob("*")
                  if p.is_file() and os.access(p, os.X_OK) and "CMakeFiles" not in p.parts
                  and p.suffix not in (".a", ".so", ".py", ".sh"))


def read_allowlist():
    allowed = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOWLIST}:{number}: entry needs ' # <reason>'")
        allowed[name.strip()] = reason.strip()
    return allowed


def main():
    build_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "build-surface").resolve()
    perfbench = build(build_dir)

    # Strong text symbols only: inline and template functions are weak,
    # owned by their headers rather than by one library's object file.
    library = set()
    for archive in sorted((build_dir / "src").rglob("libquartz_*.a")):
        library |= functions(archive, {"T"})

    tests, others = set(), set()
    for binary in executables(build_dir / "tests"):
        tests |= functions(binary, {"T", "t", "W", "w"})
    for binary in [*executables(build_dir / "bench"), *executables(build_dir / "examples"),
                   perfbench]:
        others |= functions(binary, {"T", "t", "W", "w"})

    test_only = sorted(f for f in library if f in tests and f not in others)
    unreached = sorted(f for f in library if f not in tests and f not in others)
    allowed = read_allowlist()
    failures = 0
    for label, names in (("reached only by tests", test_only), ("reached by no binary", unreached)):
        for name in names:
            if name not in allowed:
                print(f"{label}: {name}")
                failures += 1
    flagged = set(test_only) | set(unreached)
    for name in sorted(allowed):
        if name not in flagged:
            print(f"stale allowlist entry (no longer test-only): {name}")
            failures += 1
    print(f"{len(library)} library functions: {len(test_only)} reached only by tests, "
          f"{len(unreached)} by no binary, {len(allowed)} allowlisted, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
