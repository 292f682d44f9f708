"""curvedheat benchmark: run one workload, check its outputs, print its metrics.

usage, from the root of a checkout:

    python3 perfbench/run.py --workload exp-sweep --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``exp-sweep``,
``gamma3-global``, ``spectral-bracket``.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; earlier
lines name the environment and every failed operation.

--trace 0 runs the workload's operations in a fresh interpreter
(``ops.py``), back to back while another pass still fits in --seconds
and at least once, and reports the end-to-end metrics: the median pass
wall time, set-up time (median of five fresh interpreters that parse
the config and build the manifold), the share of operations that
passed, the worst relative error against the workload's oracle, and
the peak resident memory of the pass with its pool workers.

--trace 1 runs the operations once, serially, under ``tracer.Tracer``
and reports the per-layer metrics.  For exp-sweep it first runs one
untraced pooled pass, which the pool efficiency is measured against.

Every child runs with BLAS/OpenMP threads pinned to 1.  Artifact
digests and work counters must repeat exactly between passes and
between runs of the same code on the same seed; the record of earlier
runs lives in ``.perfbench/record.json`` and a mismatch makes the run
incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_PINS)  # before anything imports numpy

HERE = Path(__file__).resolve().parent
STATE_DIR = ".perfbench"  # in the checkout; ignored by git
SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import sys\n"
    "from curvedheat.config import parse_config\n"
    "from curvedheat.experiments import build_manifold\n"
    "for path in sys.argv[1:]:\n"
    "    build_manifold(parse_config(open(path).read()))\n"
)

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pass_share": "ratio",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "evolution.steps_accepted": "count",
    "evolution.banded_solves": "count",
    "evolution.solves_per_step": "solves/step",
    "evolution.banded_s": "s",
    "evolution.self_s": "s",
    "evolution.us_per_step": "us",
    "evolution.dt_min": "t_model",
    "evolution.dt_max": "t_model",
    "evolution.solve_s.blowup": "s",
    "evolution.solve_s.global": "s",
    "evolution.solve_s.undecided": "s",
    "evolution.envelope_s": "s",
    "spectral.lambda1_calls": "count",
    "spectral.iterations": "count",
    "spectral.us_per_iteration": "us",
    "spectral.converged_ratio": "ratio",
    "spectral.lambda1_s": "s",
    "spectral.banded_s": "s",
    "spectral.self_s": "s",
    "geometry.table_build_s": "s",
    "geometry.table_nodes": "count",
    "geometry.drift_calls": "count",
    "geometry.drift_s": "s",
    "geometry.self_s": "s",
    "operators.assemble_calls": "count",
    "operators.assemble_s": "s",
    "operators.self_s": "s",
    "barriers.construct_s": "s",
    "barriers.verify_s": "s",
    "barriers.nodes_checked": "count",
    "barriers.self_s": "s",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.artifact_bytes": "bytes",
    "experiments.pool_efficiency": "ratio",
    "config.parse_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_s": "s",
    "trace.calls": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot run or its child crashed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, log: Path):
    """Run argv to completion; return (exit code, wall seconds, peak RSS in MB).

    The peak covers the child and every descendant it waited for, such
    as the sweep's pool workers.
    """
    with open(log, "ab") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "thread_pins": THREAD_PINS,
    }


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources, keying the run record."""
    h = hashlib.sha256()
    for path in sorted(list((root / "src").rglob("*.py")) + list(HERE.rglob("*.py"))):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workspace:
    """Scratch files of one run, under .perfbench/ in the checkout."""

    def __init__(self, root: Path):
        self.state = root / STATE_DIR
        self.dir = self.state / f"work-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(root)
        self.log = self.dir / "children.log"
        self.passes = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def child_error(self, what, code) -> BenchError:
        tail = self.log.read_text(errors="replace")[-3000:]
        return BenchError(f"{what} child exited {code}:\n{tail}")

    def setup_seconds(self, inputs, repeats: int) -> float:
        paths = []
        for name, text in inputs["configs"].items():
            path = self.dir / f"setup-{name}.ini"
            path.write_text(text)
            paths.append(path)
        argv = [sys.executable, "-c", SETUP_SNIPPET, *paths]
        times = []
        for i in range(repeats + 1):  # the first one warms file and bytecode caches
            code, wall, _ = run_child(argv, self.env, self.log)
            if code != 0:
                raise self.child_error("set-up", code)
            if i:
                times.append(wall)
        return statistics.median(times)

    def run_ops(self, inputs, trace: bool = False):
        """One pass of the workload in a fresh interpreter: (result, wall, rss)."""
        self.passes += 1
        tag = f"pass{self.passes}"
        inputs_path = self.dir / f"{tag}-inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        result_path = self.dir / f"{tag}-result.json"
        out = self.dir / tag
        argv = [sys.executable, HERE / "ops.py", inputs_path, out, result_path]
        if trace:
            argv += ["--trace", self.dir / f"{tag}-spans.json"]
        code, wall, rss = run_child(argv, self.env, self.log)
        if code != 0 or not result_path.is_file():
            raise self.child_error("workload", code)
        result = json.loads(result_path.read_text())
        shutil.rmtree(out, ignore_errors=True)
        if trace:
            spans = self.state / f"trace-{inputs['workload']}-seed{inputs['seed']}.json"
            shutil.move(str(self.dir / f"{tag}-spans.json"), spans)
        return result, wall - result["check_s"], rss


def check_repeats(root: Path, key: str, results) -> list:
    """Digests and counters that differ between passes or from the run record."""
    record_path = root / STATE_DIR / "record.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    seen = record.get(key, {})
    problems = []
    for result in results:
        for kind in ("digests", "counters"):
            for name, value in result[kind].items():
                ref = seen.setdefault(f"{kind}:{name}", value)
                if ref != value:
                    problems.append(f"{kind} {name}: {value!r} != earlier {ref!r}")
    record[key] = seen
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(record_path)
    return problems


def summarize(result) -> tuple:
    ops = result["ops"]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"failed: {op['name']}: {op['note']}")
    return len(ops), len(failed), not any(op["wrong"] for op in ops)


def timed_run(ws: Workspace, inputs, seconds: float, setup_repeats: int) -> dict:
    setup_s = ws.setup_seconds(inputs, setup_repeats)
    results, walls, rss = [], [], []
    t0 = perf_counter()
    while True:
        result, wall, peak = ws.run_ops(inputs)
        results.append(result)
        walls.append(wall)
        rss.append(peak)
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(walls) > seconds:
            break
    attempted, failed, correct = summarize(results[0])
    return {
        "results": results,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "pass_share": (attempted - failed) / attempted,
            "max_rel_err": results[0]["max_rel_err"],
            "peak_rss_mb": statistics.median(rss),
        },
    }


def traced_run(ws: Workspace, inputs) -> dict:
    results = []
    pooled_sweep_s = None
    if inputs.get("threads", 1) > 1:
        pooled, _, _ = ws.run_ops(inputs)
        results.append(pooled)
        pooled_sweep_s = pooled["sweep_s"]
    traced, _, _ = ws.run_ops(inputs, trace=True)
    results.append(traced)
    layers = traced["layers"]
    # serial cell time over the time two workers took for the same cells
    layers["experiments.pool_efficiency"] = (
        sum(traced["cell_s"]) / (inputs["threads"] * pooled_sweep_s) if pooled_sweep_s else 0.0
    )
    attempted, failed, correct = summarize(traced)
    return {"results": results, "attempted": attempted, "failed": failed,
            "correct": correct, "metrics": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "curvedheat" / "__init__.py").is_file():
        print(f"error: no curvedheat sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    print("environment: " + json.dumps(environment()))

    ws = Workspace(root)
    try:
        if args.trace:
            run = traced_run(ws, inputs)
            units = LAYER_UNITS
        else:
            repeats = SETUP_REPEATS if args.scale == "full" else 1
            run = timed_run(ws, inputs, args.seconds, repeats)
            units = E2E_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ws.close()

    key = f"{args.workload}|seed={args.seed}|scale={args.scale}|code={code_digest(root)}"
    problems = check_repeats(root, key, run["results"])
    for problem in problems:
        print(f"not reproducible: {problem}")
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": run["correct"] and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
