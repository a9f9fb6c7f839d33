#!/usr/bin/env python3
"""Exact-count performance gate over the bench/suite workloads.

  python3 tools/check_counts.py
      Runs every workload of bench/suite/run.py for one traced second and
      compares its machine-independent counts with tools/counts_baseline.json.
      Prints the fresh counts as baseline JSON on stdout; exits non-zero,
      naming each differing row and workload on stderr, unless every gated
      row equals the baseline exactly.
  python3 tools/check_counts.py > tools/counts_baseline.json
      Re-records the baseline after an intended change of counts.

Gated rows: every `*.calls_per_kreq` row (calls per 1000 requests of each
traced layer) and `service.commits_per_kreq`. They depend only on the seed,
not on the run length, the core count or the host's speed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "tools", "counts_baseline.json")
WORKLOADS = ["steady", "churn", "service", "replay"]


def gated(name):
    return name.endswith(".calls_per_kreq") or name == "service.commits_per_kreq"


def run_counts(workload):
    """The gated rows of one traced run, or an error message."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "suite", "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "run exited with %d" % proc.returncode
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, "run not correct (%d failed)" % result["failed"]
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if gated(name)}, None


def main():
    with open(BASELINE) as f:
        baseline = json.load(f)
    fresh, failures = {}, []
    for workload in WORKLOADS:
        counts, error = run_counts(workload)
        if error:
            failures.append("%s: %s" % (workload, error))
            continue
        fresh[workload] = counts
        expected = baseline.get(workload, {})
        for name in sorted(set(counts) | set(expected)):
            if counts.get(name) != expected.get(name):
                failures.append("%s: %s = %r, baseline %r" % (
                    workload, name, counts.get(name), expected.get(name)))
    print(json.dumps(fresh, indent=2, sort_keys=True))
    for failure in failures:
        print("FAILED: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
