#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, at a tiny size, prints every
named metric with its unit as a finite value, end-to-end and traced.

Run from the repository root:

    python3 layerbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def declared():
    """Metric names and units BENCHMARK.json declares, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    spec = declared()
    if spec is not None:
        assert spec[0] == bench.END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
        assert spec[1] == bench.PER_LAYER, "BENCHMARK.json per_layer differs from run.py"
    for workload in bench.WORKLOADS:
        for trace, names in [(0, bench.END_TO_END), (1, bench.PER_LAYER)]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, f"{workload} trace {trace}: {done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] is True, f"{workload} trace {trace}: not correct"
            assert result["attempted"] >= 1 and result["failed"] >= 0
            assert set(result["metrics"]) == set(names), f"{workload} trace {trace}: names"
            for name, unit in names.items():
                metric = result["metrics"][name]
                assert metric["unit"] == unit, f"{workload}: {name} unit {metric['unit']}"
                assert math.isfinite(metric["value"]), f"{workload}: {name} not finite"
            print(f"ok  {workload:10} trace {trace}: {len(names)} metrics")
    print("smoke test passed")


if __name__ == "__main__":
    main()
