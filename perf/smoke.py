#!/usr/bin/env python3
"""The benchmark's own smoke test: every workload at the smoke scale.

Run from the repository root:

    python3 perf/smoke.py

For each workload in BENCHMARK.json it runs one untraced and one traced
pass (`perf/run.py --smoke --seed 0 --seconds 0`) and checks that

  * every metric BENCHMARK.json declares is emitted, with its unit;
  * the rows match the smoke reference tree (failed = 0, fail_frac = 0);
  * the traced replay matches the untraced run (sim.replay_mismatch = 0).

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("%s trace=%d exited %d:\n%s"
                         % (workload, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        raise SystemExit("FAIL: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = run(name, trace)
            check(result["correct"], "%s trace=%d: not correct" % (name, trace))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s trace=%d: %d of %d rows failed"
                  % (name, trace, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for metric in declared:
                got = metrics.get(metric["name"])
                check(got is not None,
                      "%s trace=%d: %s missing" % (name, trace, metric["name"]))
                check(got["unit"] == metric["unit"],
                      "%s trace=%d: %s unit %s, declared %s"
                      % (name, trace, metric["name"], got["unit"],
                         metric["unit"]))
            if trace == 1:
                check(metrics["fail_frac"]["value"] == 0,
                      "%s: fail_frac != 0" % name)
                check(metrics["sim.replay_mismatch"]["value"] == 0,
                      "%s: sim.replay_mismatch != 0" % name)
        print("ok", name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
