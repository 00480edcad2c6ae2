#!/usr/bin/env python3
"""Self-check of the benchmark at tiny input sizes; runs in seconds.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

For every workload it runs run.py untraced and traced at --scale tiny and
asserts that:
  - the last stdout line has exactly the keys correct/attempted/failed/metrics,
    with correct true and failed 0 (fail_frac 0);
  - every metric BENCHMARK.json names is emitted with its unit and a finite
    value (end-to-end untraced, per-layer traced), and no other metric is;
  - the tracer found every function it wraps and could read every count;
  - in the span file of the traced run, every child span lies inside its
    parent, no self time is negative, and the layers' self times add up to
    the root spans' durations.
Exits 1 and lists the failures if any assertion fails.
"""
import json
import math
import os
import subprocess
import sys

from common import HERE, WORKLOADS

ROOT = os.getcwd()


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, expected: dict) -> list:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            errors.append(f"{label}: {name} unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
    return errors


def check_spans(label: str, path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    spans = table["spans"]
    errors = []
    child_time = [0.0] * len(spans)
    roots = 0.0
    for _, start, end, parent in spans:
        if end < start:
            errors.append(f"{label}: span ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                errors.append(f"{label}: span outside its parent")
            child_time[parent] += end - start
        else:
            roots += end - start
    self_total = 0.0
    for slot, (_, start, end, _) in enumerate(spans):
        own = end - start - child_time[slot]
        if own < -1e-9:
            errors.append(f"{label}: negative self time {own}")
        self_total += own
    if abs(self_total - roots) > 1e-6 * max(1.0, roots):
        errors.append(f"{label}: layer self times sum to {self_total}, root spans to {roots}")
    if not any(table["names"][s[0]] in ("cli.main", "synth.run_comparison") for s in spans):
        errors.append(f"{label}: no span for the workload's main call")
    return errors[:10]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for workload in WORKLOADS:
        errors += check_result(f"{workload} untraced", run(workload, 0), end_to_end)
        errors += check_result(f"{workload} traced", run(workload, 1), per_layer)
        with open(os.path.join(HERE, "results", f"{workload}-tiny-seed0-trace1.json"),
                  encoding="utf-8") as fh:
            details = json.load(fh)["details"]
        if details["missing_spans"] or details["hook_failures"]:
            errors.append(f"{workload} traced: spans missing {details['missing_spans']}, "
                          f"counts lost {details['hook_failures']}")
        errors += check_spans(f"{workload} spans",
                              os.path.join(HERE, "results", f"spans-{workload}-tiny.json"))
        print(f"{workload}: checked", file=sys.stderr)
    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
