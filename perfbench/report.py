"""Run every workload untraced and traced, and print all metrics as a table.

usage, from the root of a checkout (about five minutes on 2 CPUs):

    python3 perfbench/report.py [--seed N] [--seconds S]

Each line is ``workload  metric  value  unit``; failed operations and
reproducibility problems are printed as run.py reports them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            for line in lines[1:-1]:
                print(f"{workload}  {line}")
            result = json.loads(lines[-1])
            print(f"{workload}  correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} (trace {trace})")
            for name, metric in result["metrics"].items():
                print(f"{workload}  {name}  {metric['value']:.6g}  {metric['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
