#!/usr/bin/env python3
"""Schema self-test of the InFrame benchmark.

Runs every workload BENCHMARK.json names at its shortest length
(--seconds 1: the warm-up and the fewest timed repetitions), untraced and
traced, and checks each result
line: exactly the keys correct, attempted, failed and metrics; a correct
run with no failed repetition; and every metric BENCHMARK.json lists for
that mode, and no other, present with its unit and a finite value. It
checks the schema, not the timings.

    python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(workload, trace, expected):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=1200)
    if run.returncode != 0:
        return [f"exit status {run.returncode}: {run.stderr.strip()[-500:]}"]
    try:
        result = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not JSON"]

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted {attempted!r}")
    if failed != 0:
        problems.append(f"failed {failed!r}")
    metrics = result.get("metrics", {})
    for spec in expected:
        metric = metrics.get(spec["name"])
        if metric is None:
            problems.append(f"{spec['name']} missing")
            continue
        if set(metric) != {"value", "unit"}:
            problems.append(f"{spec['name']} keys {sorted(metric)}")
        if metric.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']} unit {metric.get('unit')!r}, expected {spec['unit']!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']} value {value!r}")
    extra = sorted(set(metrics) - {spec["name"] for spec in expected})
    if extra:
        problems.append(f"unlisted metrics {extra}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload["name"], trace, spec[key])
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload['name']} --trace {trace}", flush=True)
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
