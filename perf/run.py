#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

Run from the repository root:

    python3 perf/run.py --workload paper_grid --seed 3 --seconds 20 --trace 0

The build (CMake, Release) goes to $CARGO_TARGET_DIR, or .bench_build
when that is unset; its output goes to stderr.  Every argument is passed
on to the ldpr_perf binary, whose last stdout line is the result JSON
(see perf/METRICS.md).  Exits non-zero, without a result, when the
repository sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    """Configures (once) and builds ldpr_perf; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perf"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ldpr_perf", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ldpr_perf")


def main():
    os.chdir(ROOT)
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(needed):
            print("perf/run.py: %s is missing; run from a full checkout"
                  % needed, file=sys.stderr)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perf/run.py: build failed: %s" % err, file=sys.stderr)
        return 1
    command = [binary] + sys.argv[1:] + [
        "--reference", os.path.join("perf", "reference"),
        "--out", os.path.join(build_dir, "results")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
