"""Smoke check: every workload at a tiny scale, traced and untraced.

Usage (from the repository root): ``python3 perfbench/smoke.py``.

Asserts that each run exits 0 with ``"correct": true`` and prints exactly
the metric names ``BENCHMARK.json`` declares.  Takes three to four
minutes (the tiny ``paper-cell`` and ``transfer-store`` still train their
models).
Deliberately not named ``test_*.py``, so the tier-1 ``pytest`` run does
not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    # paper-cell is not in BENCHMARK.json but must still run and check.
    for workload in [w["name"] for w in bench["workloads"]] + ["paper-cell"]:
        for trace in 0, 1:
            cmd = [
                sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
                print(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = list(result["metrics"])
            if not result["correct"] or names != expected[trace]:
                missing = set(expected[trace]) ^ set(names)
                print(f"FAIL {workload} trace={trace}: correct={result['correct']} names {missing}")
                return 1
            print(f"ok {workload} trace={trace}: {len(names)} metrics")
    print("perfbench smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
