#!/usr/bin/env python3
"""Builds and runs the Pronghorn benchmark (see README.md).

  python3 bench/suite/run.py
      Builds, runs every workload untraced and then traced, checks the
      outputs across runs and prints every metric by name with its unit.
  python3 bench/suite/run.py --repeat 5
      Five such rounds, alternating the workload order; prints each metric's
      median and quartiles and its spread against the bound in
      BENCHMARK.json.
  python3 bench/suite/run.py --workload steady --seed 3 --seconds 8 --trace 0
      One run of one workload. The last line of stdout is the result:
      {"correct", "attempted", "failed", "metrics"}, with the end-to-end
      metrics (--trace 0) or the per-layer metrics (--trace 1).

The build goes to .bench_build/ at the root of the checkout (Release, from
src/ and bench/suite/ only); traced runs write their Chrome trace there too.
Exits non-zero when the build or a run fails, or when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pronghorn_bench")
WORKLOADS = ["steady", "churn", "service", "replay"]
# A run measures `seconds`, plus a few seconds of set-up and checking.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds (a no-op when up to date); output to stderr."""
    steps = [["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, traced):
    """Runs one workload in its own process; returns its JSON or None."""
    command = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%g" % seconds]
    if traced:
        command.append("--trace=" + os.path.join(BUILD, "trace_%s.json" % workload))
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s: exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def print_metrics(metrics):
    for name, metric in metrics.items():
        print("  %-44s %16.6g %s" % (name, metric["value"], metric["unit"]))


def run_one(args):
    result = run_binary(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return 1
    print("%s seed=%d traced=%d correct=%s" % (args.workload, args.seed, args.trace,
                                              result["correct"]))
    print_metrics(result["metrics"])
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def run_suite(args):
    """Rounds of every workload, untraced then traced, with cross-run checks."""
    runs = {}  # (workload, traced) -> list of results
    failures = []
    for round_index in range(args.repeat):
        order = WORKLOADS if round_index % 2 == 0 else WORKLOADS[::-1]
        for traced in (False, True):
            for workload in order:
                log("round %d: %s%s" % (round_index + 1, workload,
                                        " (traced)" if traced else ""))
                result = run_binary(workload, args.seed, args.seconds, traced)
                if result is None:
                    failures.append("%s traced=%s: no result" % (workload, traced))
                    continue
                runs.setdefault((workload, traced), []).append(result)

    # Outputs must not depend on tracing, on the service or on the run:
    # one outcome digest per workload (service serves the steady fleet), and
    # seed-determined simulated latencies and call counts.
    digests = {}
    for (workload, traced), results in runs.items():
        for result in results:
            label = "%s traced=%s" % (workload, traced)
            if not result["correct"]:
                failures.append("%s: checks %s" % (label, result["checks"]))
            key = "steady" if workload == "service" else workload
            for field, digest in result["info"].items():
                if field.endswith("_digest") and digests.setdefault(key, digest) != digest:
                    failures.append("%s: %s %s != %s" % (label, field, digest, digests[key]))
    for (workload, traced), results in runs.items():
        exact = [name for name in results[0]["metrics"]
                 if name.startswith("sim_") or name.endswith(".calls_per_kreq")]
        for name in exact:
            values = {r["metrics"][name]["value"] for r in results}
            if len(values) > 1:
                failures.append("%s traced=%s: %s differs across runs: %s" %
                                (workload, traced, name, sorted(values)))

    bounds = load_bounds()
    for (workload, traced), results in sorted(runs.items(), key=lambda kv: kv[0][1]):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["attempted"] if not r["correct"] else r["failed"] for r in results)
        print("\n%s%s: %d run(s), digest %s, error_rate %.6g (%d/%d)" % (
            workload, " traced" if traced else "", len(results),
            digests.get("steady" if workload == "service" else workload),
            failed / attempted if attempted else 1.0, failed, attempted))
        if not traced:
            print("  traffic: " + ", ".join(
                "%s=%.6g" % kv for kv in results[-1]["info"].get("traffic", {}).items()))
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                print("  %-44s %16.6g %s" % (name, values[0], unit))
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            note = ""
            if name in bounds and not traced:
                note = "  bound %.0f%%%s" % (100 * bounds[name],
                                             "" if spread < bounds[name] / 3 else "  WIDE")
            print("  %-44s %16.6g %s  [q1 %.6g, q3 %.6g, spread %.2f%%]%s" % (
                name, median, unit, q1, q3, 100 * spread, note))

    for failure in failures:
        log("FAILED: " + failure)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload and print its result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if args.seconds < 1 or args.repeat < 1:
        parser.error("--seconds and --repeat must be at least 1")
    if not build():
        return 1
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
