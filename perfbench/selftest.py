"""Self-test of the benchmark at tiny scale (about a minute on 2 CPUs).

usage, from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
* seed 0 gives exactly the shipped preset inputs;
* every workload runs at tiny scale and prints, as its last line, one
  JSON object with exactly the keys correct/attempted/failed/metrics,
  whose metric names and units are the end_to_end ones of BENCHMARK.json;
* a second run of the same seed repeats every digest and counter;
* one traced run completes, prints exactly the per_layer metrics of
  BENCHMARK.json, and its layer self times account for at least
  ACCOUNTED_SHARE of the traced wall time;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.

Exits 0 when all of these hold; otherwise prints what failed and exits 1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ACCOUNTED_SHARE = 0.95
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, trace: int, seed: int = 0):
    argv = [sys.executable, str(HERE.relative_to(HERE.parent) / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_result(label, proc, result, spec, problems):
    if proc.returncode != 0 or not isinstance(result, dict):
        problems.append(f"{label}: exit {proc.returncode}, no result line\n{proc.stderr[-2000:]}")
        return
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"]:
        problems.append(f"{label}: correct is false\n{proc.stdout[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} value {m.get('value')!r} is not a number")


def check_seed0_inputs(root: Path, problems):
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads
    from curvedheat.config import PRESETS, parse_config

    sweep = workloads.make_inputs("exp-sweep", 0)["configs"]["sweep"]
    if parse_config(sweep).sweep.cells != parse_config(PRESETS[workloads.SWEEP_PRESET]).sweep.cells:
        problems.append("seed 0 sweep cells differ from the preset's")
    if workloads.make_inputs("gamma3-global", 0)["configs"]["gamma3"] != PRESETS[workloads.GAMMA3_PRESET]:
        problems.append("seed 0 gamma3 config differs from the preset")
    radii = workloads.make_inputs("spectral-bracket", 0)["radii"]
    if radii != {"h3": [10.0, 20.0, 40.0, 80.0], "gamma3": [4.0, 8.0, 16.0]}:
        problems.append(f"seed 0 spectral radii {radii}")
    for workload in workloads.WORKLOADS:
        if workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 7):
            problems.append(f"{workload}: seed 7 inputs do not repeat")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    check_seed0_inputs(root, problems)

    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        proc, result = bench(root, workload, 0)
        check_result(f"{workload} --trace 0", proc, result, spec["end_to_end"], problems)
    proc, result = bench(root, names[0], 0)
    check_result(f"{names[0]} --trace 0, second run", proc, result, spec["end_to_end"], problems)

    proc, result = bench(root, names[0], 1)
    check_result(f"{names[0]} --trace 1", proc, result, spec["per_layer"], problems)
    if isinstance(result, dict) and "trace.accounted_share" in result.get("metrics", {}):
        share = result["metrics"]["trace.accounted_share"]["value"]
        if share < ACCOUNTED_SHARE:
            problems.append(f"layer self times account for {share:.3f} of the traced wall time")

    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(root / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = bench(bare, names[0], 0)
        if proc.returncode == 0 or result is not None:
            problems.append(f"without the program: exit {proc.returncode}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
