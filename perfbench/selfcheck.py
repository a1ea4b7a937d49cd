"""Fast self-check: the benchmark command runs and emits every named metric.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Runs ``run.py --size tiny`` on every workload of BENCHMARK.json, untraced
and traced, and checks that each run exits 0, reports a correct result
and emits exactly the metrics BENCHMARK.json names, with their units.
Takes about a minute; exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "42",
                                     "--seconds", "0", "--trace", str(trace),
                                     "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            where = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                print(f"FAIL {where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                print(f"FAIL {where}: result not correct")
                return 1
            if got != want[trace]:
                print(f"FAIL {where}: emitted {sorted(got.items())}, "
                      f"want {sorted(want[trace].items())}")
                return 1
            print(f"ok {where}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
