#!/usr/bin/env python3
"""Compare a BENCH_perf_suite.json run against a committed baseline.

Direction-aware, noise-aware perf gate:

  bench_compare.py --baseline BENCH_perf_suite.json \\
                   --current  build/BENCH_perf_suite.json \\
                   --budget   0.10

For every metric present in the baseline, the relative regression is

    direction "higher":  (baseline - current) / baseline
    direction "lower":   (current - baseline) / baseline

and the run FAILS if any metric regresses by more than the budget plus the
measured noise floor (the larger spread_pct of the two runs). Improvements
never fail. Metrics only in the current run are reported as new; metrics
only in the baseline fail the run (a silently dropped metric is how a
regression hides).

The two files must agree on schema_version: metrics of different schemas
need not mean the same thing, so a mismatch fails the run outright.

When the two files were produced on machines with different hardware thread
counts, absolute comparison is meaningless; the tool then only checks that
every baseline metric still exists and that determinism_ok holds, and says so
loudly. This keeps the committed single-core baseline from failing CI's
multi-core runners while still gating on coverage and correctness.

`--self-test` proves the gate actually trips: it synthesizes a 20% regression
of every metric from the baseline and asserts the comparison fails, asserts
that a copy with a different schema_version fails, then re-compares the
baseline against itself and asserts it passes.
"""

import argparse
import copy
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("benchmark") != "perf_suite":
        raise SystemExit(f"{path}: not a perf_suite JSON (benchmark={doc.get('benchmark')!r})")
    return doc


def metric_map(doc):
    return {m["name"]: m for m in doc.get("metrics", [])}


def compare(baseline, current, budget):
    """Returns (failures, report_lines)."""
    failures = []
    lines = []

    if not current.get("determinism_ok", True):
        failures.append("determinism_ok is false in the current run")

    base_schema = baseline.get("schema_version")
    cur_schema = current.get("schema_version")
    if base_schema != cur_schema:
        failures.append(
            f"schema_version differs: baseline {base_schema!r}, current {cur_schema!r}"
        )

    base_metrics = metric_map(baseline)
    cur_metrics = metric_map(current)

    base_machine = baseline.get("machine", {})
    cur_machine = current.get("machine", {})
    same_machine_class = base_machine.get("hardware_threads") == cur_machine.get(
        "hardware_threads"
    )
    if not same_machine_class:
        lines.append(
            "NOTE: baseline ran on %s hardware threads, current on %s -- "
            "absolute values are incomparable; gating on metric coverage and "
            "determinism only."
            % (
                base_machine.get("hardware_threads", "?"),
                cur_machine.get("hardware_threads", "?"),
            )
        )

    for name, base in sorted(base_metrics.items()):
        cur = cur_metrics.get(name)
        if cur is None:
            failures.append(f"metric '{name}' present in baseline but missing from current run")
            continue
        base_value = float(base["value"])
        cur_value = float(cur["value"])
        direction = base.get("direction", "higher")
        if base_value == 0:
            lines.append(f"  {name}: baseline is 0, skipping ratio")
            continue
        if direction == "higher":
            regression = (base_value - cur_value) / abs(base_value)
        else:
            regression = (cur_value - base_value) / abs(base_value)
        noise = max(float(base.get("spread_pct", 0)), float(cur.get("spread_pct", 0))) / 100.0
        allowed = budget + noise
        verdict = "ok"
        if regression > allowed:
            verdict = "REGRESSION"
        elif regression < -0.005:
            verdict = "improved"
        lines.append(
            f"  {name}: {base_value:.3f} -> {cur_value:.3f} "
            f"({-regression * 100.0:+.1f}%, allowed -{allowed * 100.0:.1f}%) {verdict}"
        )
        if same_machine_class and regression > allowed:
            failures.append(
                f"metric '{name}' regressed {regression * 100.0:.1f}% "
                f"(budget {budget * 100.0:.0f}% + noise {noise * 100.0:.1f}%)"
            )

    for name in sorted(set(cur_metrics) - set(base_metrics)):
        lines.append(f"  {name}: new metric (not in baseline), not gated")

    return failures, lines


def self_test(baseline_path, budget):
    baseline = load(baseline_path)

    # A 20% uniform slowdown must trip a 10% gate even after the noise
    # allowance -- unless the measured noise already swallows it, which would
    # mean the baseline itself is too noisy to gate on. Surface that too.
    degraded = copy.deepcopy(baseline)
    for metric in degraded.get("metrics", []):
        if metric.get("direction", "higher") == "higher":
            metric["value"] = float(metric["value"]) * 0.80
        else:
            metric["value"] = float(metric["value"]) * 1.25
    failures, _ = compare(baseline, degraded, budget)
    if not failures:
        print("self-test FAILED: a synthetic 20% regression passed the gate", file=sys.stderr)
        return 1

    other_schema = copy.deepcopy(baseline)
    other_schema["schema_version"] = baseline.get("schema_version", 0) + 1
    schema_failures, _ = compare(baseline, other_schema, budget)
    if not any("schema_version" in failure for failure in schema_failures):
        print("self-test FAILED: a schema_version mismatch passed the gate", file=sys.stderr)
        return 1

    identical_failures, _ = compare(baseline, copy.deepcopy(baseline), budget)
    if identical_failures:
        print("self-test FAILED: a baseline compared against itself did not pass:", file=sys.stderr)
        for failure in identical_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    print(
        f"self-test OK: synthetic 20% regression trips the {budget * 100.0:.0f}% gate "
        f"({len(failures)} metrics flagged); a schema_version mismatch fails; "
        "identity comparison passes"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed BENCH_perf_suite.json")
    parser.add_argument("--current", help="freshly produced BENCH_perf_suite.json")
    parser.add_argument(
        "--budget",
        type=float,
        default=0.10,
        help="allowed relative regression per metric before noise (default 0.10)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate trips on a synthetic 20%% regression of the baseline",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.baseline, args.budget)

    if not args.current:
        parser.error("--current is required unless --self-test")

    baseline = load(args.baseline)
    current = load(args.current)
    failures, lines = compare(baseline, current, args.budget)

    print(f"perf comparison (budget {args.budget * 100.0:.0f}% per metric):")
    for line in lines:
        print(line)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nPASS: no metric regressed beyond budget + noise")
    return 0


if __name__ == "__main__":
    sys.exit(main())
