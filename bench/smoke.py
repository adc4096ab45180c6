"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload (pde-fine too, which BENCHMARK.json does not gate) at
minimal length (one repetition each), untraced and traced, and checks that
the result line is well formed, that the run was correct, and that every
metric BENCHMARK.json names is present with its unit.  Takes a few
minutes; it is not part of the pytest suite because it spawns the
benchmark's worker processes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
                continue
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: correct={line['correct']} attempted={line['attempted']} "
                                f"failed={line['failed']}")
            for metric in spec[section]:
                got = line["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: missing {metric['name']}")
                elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{where}: {metric['name']} = {got}")
            print(f"{where}: {len(line['metrics'])} metrics, attempted {line['attempted']}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
