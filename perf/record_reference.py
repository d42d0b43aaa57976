#!/usr/bin/env python3
"""Records the reference result trees the benchmark checks its rows against.

Run from the repository root after a deliberate change to the numbers:

    python3 perf/record_reference.py

For every workload (as `ldpr_perf --list` reports them) and every
reference seed k it runs `ldpr_bench --scenario <ids> --seed <base + k>
--scale <scale> --trials <trials>
--out perf/reference/<workload>/full/seed-<k>`,
plus seed 0 at the smoke scale into .../smoke/seed-0.  The trees are
what `ldpr_diff --exact` reads; the CSV copies are dropped.  Builds
ldpr_bench and ldpr_perf into $CARGO_TARGET_DIR (or .bench_build).
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(bench, workload, seed_index, scale, out):
    if os.path.exists(out):
        shutil.rmtree(out)
    seed = workload["scenario_seed_base"] + seed_index
    subprocess.run(
        [bench, "--scenario", ",".join(workload["scenarios"]),
         "--seed", str(seed), "--scale", repr(scale),
         "--trials", str(workload["trials"]), "--out", out],
        stdout=subprocess.DEVNULL, check=True)
    for scenario in workload["scenarios"]:
        os.remove(os.path.join(out, scenario, "results.csv"))
    print("recorded", out, file=sys.stderr)


def main():
    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    subprocess.run([sys.executable, "perf/run.py", "--list"],
                   stdout=subprocess.DEVNULL, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ldpr_bench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    listing = subprocess.run(
        [os.path.join(build_dir, "ldpr_perf"), "--list"],
        capture_output=True, text=True, check=True).stdout
    bench = os.path.join(build_dir, "ldpr", "ldpr_bench")
    for line in listing.splitlines():
        workload = json.loads(line)
        base = os.path.join("perf", "reference", workload["name"])
        for k in range(workload["reference_seeds"]):
            record(bench, workload, k, workload["scale"],
                   os.path.join(base, "full", "seed-%d" % k))
        record(bench, workload, 0, workload["smoke_scale"],
               os.path.join(base, "smoke", "seed-0"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
