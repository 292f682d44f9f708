"""Run one workload's operations in this process and write what happened as JSON.

usage: python3 perfbench/ops.py INPUTS_JSON OUT_DIR RESULT_JSON [--trace SPANS_JSON]

``run.py`` starts this in a fresh interpreter with BLAS threads pinned
to 1.  An operation is one sweep cell, one simulate or barrier run, one
oracle run or one ball eigenvalue.  Each is caught on its own, so one
that raises does not abort the others, and each is checked:

* ``ok`` false: it raised, ended `undecided`, exited nonzero under
  --strict, or missed its oracle or bracket check (a counted failure);
* ``wrong`` true: it gave a definite answer that theory rules out (the
  run is then not correct).

With --trace the program runs serially under ``tracer.Tracer`` and the
result also holds the per-layer metrics; the checks run after the
wrappers are removed, so they cost no layer any time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from curvedheat import cli, config, evolution, experiments, operators, spectral

import tracer as tracing

VERDICT_BUCKETS = {
    evolution.VERDICT_BLOWUP: "blowup",
    evolution.VERDICT_GLOBAL: "global",
    evolution.VERDICT_UNDECIDED: "undecided",
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _op(name, ok, note="", wrong=False):
    return {"name": name, "ok": bool(ok), "wrong": bool(wrong), "note": note}


def _call(fn, *args, **kwargs):
    """(result, None) or (None, 'ExcType: message'), timed by the caller."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # an operation's failure is data, not a crash
        traceback.print_exc()
        return None, f"{type(exc).__name__}: {exc}"


def _cli(argv):
    """Exit code of the command line, or the exception text if it raised."""
    code, err = _call(cli.main, argv)
    return err if err else code


def _read_kv(path: Path) -> dict:
    with open(path) as fh:
        return {row["quantity"]: row["value"] for row in csv.DictReader(fh)}


# -- exp-sweep ---------------------------------------------------------------


def _heat_oracle(cfg):
    """Linear heat flow from u0 = sin(pi r/R)/sinh r on the sweep's ball.

    On H^3 (k = 1) this is the first Dirichlet mode: sup|u| decays like
    exp(-(1 + pi^2/R^2) t).
    """
    grid = operators.RadialGrid(cfg.grid.R, cfg.grid.N)
    r = grid.nodes
    vals = np.empty_like(r)
    vals[0] = math.pi / grid.R
    vals[1:] = np.sin(math.pi * r[1:] / grid.R) / np.sinh(r[1:])
    vals[-1] = 0.0
    M = experiments.build_manifold(cfg)
    return evolution.solve_on_ball(
        M, grid.R, operators.RadialField(grid, vals), cfg.forcing, cfg.p, cfg.controls,
        reaction=lambda u, t: np.zeros_like(u),
    )


def run_sweep(inputs, out: Path, threads: int) -> dict:
    cfg_path = out / "sweep.ini"
    cfg_path.write_text(inputs["configs"]["sweep"])
    t0 = perf_counter()
    code = _cli(["sweep", "--config", str(cfg_path), "--out", str(out / "sweep"),
                 "--threads", str(threads), "--strict"])
    sweep_s = perf_counter() - t0
    oracle, oracle_err = _call(_heat_oracle, config.parse_config(inputs["configs"]["sweep"]))
    return {"code": code, "sweep_s": sweep_s, "oracle": oracle, "oracle_err": oracle_err}


def check_sweep(inputs, out: Path, raw) -> dict:
    cfg = config.parse_config(inputs["configs"]["sweep"])
    assert cfg.manifold.kind == "hyperbolic" and cfg.manifold.n == 3
    R = cfg.grid.R
    lam_ball = cfg.manifold.k**2 + (math.pi / R) ** 2  # first Dirichlet mode on a ball of H^3
    sigma = cfg.forcing.sigma
    cells = [values["p"] for _, values in cfg.sweep.cells]
    ops, digests = [], {}
    csv_path = out / "sweep" / "sweep.csv"
    rows = []
    if isinstance(raw["code"], int) and csv_path.is_file():
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        digests["sweep.csv"] = _digest(csv_path)
    if len(rows) != len(cells):
        note = raw["code"] if isinstance(raw["code"], str) else "sweep.csv missing or short"
        ops += [_op(f"p={p:.4f}", False, note) for p in cells]
    else:
        for p, row in zip(cells, rows):
            name = f"p={p:.4f}"
            verdict = row["verdict"]
            certified = row["amplitude_limit"] != "" and float(row["ctilde"]) < float(row["amplitude_limit"])
            forced = sigma / (p - 1.0) > lam_ball
            if float(row["p"]) != p:
                ops.append(_op(name, False, f"row holds p = {row['p']}", wrong=True))
            elif verdict == evolution.VERDICT_UNDECIDED:
                ops.append(_op(name, False, "undecided"))
            elif certified and verdict == evolution.VERDICT_BLOWUP:
                ops.append(_op(name, False, "blow-up of certified small data", wrong=True))
            elif certified and row["envelope_pass"] != "true":
                ops.append(_op(name, False, "envelope check failed under --strict"))
            elif forced and verdict != evolution.VERDICT_BLOWUP:
                ops.append(_op(name, False, f"{verdict} although sigma/(p-1) > lambda1(B_R)"))
            else:
                ops.append(_op(name, True, verdict))

    oracle = raw["oracle"]
    err = 1.0  # no answer counts as a 100 % error
    if oracle is None:
        ops.append(_op("heat-oracle", False, raw["oracle_err"]))
    else:
        t_end = cfg.controls.t_end
        exact = (math.pi / R) * math.exp(-lam_ball * t_end)
        err = abs(float(oracle.history[-1, 1]) - exact) / exact
        ok = oracle.verdict == evolution.VERDICT_GLOBAL and err <= inputs["oracle_tol"]
        ops.append(_op("heat-oracle", ok, f"{oracle.verdict}, rel err {err:.4g} at t = {t_end:g}"))
        digests["oracle.history"] = hashlib.sha256(oracle.history.tobytes()).hexdigest()
    return {"ops": ops, "max_rel_err": err, "digests": digests,
            "counters": {"oracle.steps": len(oracle.history) - 1} if oracle is not None else {},
            "sweep_s": raw["sweep_s"]}


# -- gamma3-global -----------------------------------------------------------


def run_gamma3(inputs, out: Path, threads: int) -> dict:
    cfg_path = out / "gamma3.ini"
    cfg_path.write_text(inputs["configs"]["gamma3"])
    barrier = _cli(["barrier", "--config", str(cfg_path), "--out", str(out / "barrier"), "--strict"])
    simulate = _cli(["simulate", "--config", str(cfg_path), "--out", str(out / "simulate"), "--strict"])
    return {"barrier": barrier, "simulate": simulate}


def _decay_rate(history: np.ndarray) -> float:
    """-d log sup|u| / dt over the second half of the run."""
    t, sup = history[:, 0], history[:, 1]
    i = int(np.searchsorted(t, 0.5 * t[-1]))
    return -(math.log(sup[-1]) - math.log(sup[i])) / (t[-1] - t[i])


def check_gamma3(inputs, out: Path, raw) -> dict:
    ops, digests, counters = [], {}, {}
    check_path = out / "barrier" / "barrier_check.csv"
    if raw["barrier"] == 0 and check_path.is_file():
        verdict = _read_kv(check_path)["verdict"]
        ops.append(_op("barrier", verdict == "PASS", f"residual check {verdict}"))
        digests["barrier_check.csv"] = _digest(check_path)
    else:
        ops.append(_op("barrier", False, f"exit {raw['barrier']}"))

    sim = out / "simulate"
    err = 1.0  # no answer counts as a 100 % error
    if not (sim / "run_summary.csv").is_file():
        ops.append(_op("simulate", False, f"exit {raw['simulate']}"))
    else:
        summary = _read_kv(sim / "run_summary.csv")
        history = np.loadtxt(sim / "history.csv", delimiter=",", skiprows=1)
        for name in ("history.csv", "final_field.csv", "run_summary.csv"):
            digests[name] = _digest(sim / name)
        counters["simulate.steps"] = len(history) - 1
        cfg = config.parse_config(inputs["configs"]["gamma3"])
        ref, ref_err = _call(
            spectral.dirichlet_lambda1, experiments.build_manifold(cfg), cfg.grid.R, cfg.grid.N
        )
        if ref is not None:
            err = abs(_decay_rate(history) - ref.lambda1_ball) / ref.lambda1_ball
        verdict = summary["verdict"]
        note = (f"{verdict}, envelope_pass {summary.get('envelope_pass')}, "
                f"decay-rate rel err {err:.4g}{'' if ref else ' (no reference: ' + ref_err + ')'}")
        ok = (raw["simulate"] == 0 and verdict == evolution.VERDICT_GLOBAL
              and summary.get("envelope_pass") == "true" and ref is not None
              and err <= inputs["rate_tol"])
        # the data is certified small, so theory rules out blow-up
        ops.append(_op("simulate", ok, note, wrong=verdict == evolution.VERDICT_BLOWUP))
    return {"ops": ops, "max_rel_err": err, "digests": digests, "counters": counters}


# -- spectral-bracket --------------------------------------------------------


def run_spectral(inputs, out: Path, threads: int) -> dict:
    kwargs = {"maxiter": inputs["maxiter"]} if inputs["maxiter"] else {}
    results = {}
    for family, text in inputs["configs"].items():
        M = experiments.build_manifold(config.parse_config(text))
        for R in inputs["radii"][family]:
            N = int(round(R / inputs["dr"])) - 1
            results[(family, R)] = _call(spectral.dirichlet_lambda1, M, R, N, **kwargs)
    return {"results": results}


def check_spectral(inputs, out: Path, raw) -> dict:
    ops, digests, counters = [], {}, {}
    errors = []
    for family, text in inputs["configs"].items():
        man = config.parse_config(text).manifold
        k = man.k if man.kind == "hyperbolic" else math.sqrt(man.c0)
        lower = (man.n - 1) ** 2 * k**2 / 4.0  # McKean bound under pinching -k^2
        prev = math.inf
        for R in inputs["radii"][family]:
            name = f"{family} R={R:g}"
            est, err = raw["results"][(family, R)]
            if est is None:
                ops.append(_op(name, False, err))
                digests[name] = err
                continue
            lam = est.lambda1_ball
            digests[name] = f"{lam!r} {est.iterations}"
            counters[f"{name} iterations"] = est.iterations
            problems = []
            if not lam >= lower:
                problems.append(f"below the McKean bound {lower:g}")
            if not lam < prev + 1e-10:
                problems.append("not decreasing in R")
            if man.kind == "hyperbolic" and man.n == 3:
                exact = k**2 + (math.pi / R) ** 2
                rel = abs(lam - exact) / exact
                errors.append(rel)
                if not rel <= inputs["h3_tol"]:
                    problems.append(f"rel err {rel:.3g} against 1 + pi^2/R^2")
            ops.append(_op(name, not problems, "; ".join(problems) or f"lambda1 = {lam:.10g}"))
            prev = lam
    # no H^3 answer counts as a 100 % error
    return {"ops": ops, "max_rel_err": max(errors, default=1.0), "digests": digests, "counters": counters}


WORKLOADS = {
    "exp-sweep": (run_sweep, check_sweep),
    "gamma3-global": (run_gamma3, check_gamma3),
    "spectral-bracket": (run_spectral, check_spectral),
}


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tr: tracing.Tracer, span_cost: float, aggregate_cost: float) -> dict:
    """Per-layer metrics of one traced run (pool efficiency is added by run.py)."""
    solve_s = {"blowup": 0.0, "global": 0.0, "undecided": 0.0}
    steps = 0
    dts = []
    for dur, outcome, _ in tr.results["evolution.solve_on_ball"]:
        if isinstance(outcome, evolution.RunOutcome):
            solve_s[VERDICT_BUCKETS[outcome.verdict]] += dur
            steps += len(outcome.history) - 1
            dts.append(outcome.history[1:, 2])
        else:
            solve_s["undecided"] += dur
    dts = np.concatenate(dts) if dts else np.zeros(0)
    eigen = tr.results["spectral.dirichlet_lambda1"]
    iterations = tr.calls["spectral.banded"]
    solves = tr.calls["evolution.banded"]
    lambda1_s = tr.inclusive["spectral.dirichlet_lambda1"]
    nodes_checked = sum(
        args[3].nodes.size - 1 for _, _, args in tr.results["barriers.verify_supersolution"]
    )
    table_nodes = sum(
        M.psi.r.size for _, M, _ in tr.results["geometry.make_gamma_model"] if hasattr(M, "psi")
    )
    wall = tr.wall_s
    return {
        "evolution.steps_accepted": steps,
        "evolution.banded_solves": solves,
        "evolution.solves_per_step": solves / steps if steps else 0.0,
        "evolution.banded_s": tr.self_s["evolution.banded"],
        "evolution.self_s": tr.self_s["evolution"],
        "evolution.us_per_step": 1e6 * tr.inclusive["evolution.solve_on_ball"] / steps if steps else 0.0,
        "evolution.dt_min": float(dts.min()) if dts.size else 0.0,
        "evolution.dt_max": float(dts.max()) if dts.size else 0.0,
        "evolution.solve_s.blowup": solve_s["blowup"],
        "evolution.solve_s.global": solve_s["global"],
        "evolution.solve_s.undecided": solve_s["undecided"],
        "evolution.envelope_s": tr.tag_s["envelope"],
        "spectral.lambda1_calls": len(eigen),
        "spectral.iterations": iterations,
        "spectral.us_per_iteration": 1e6 * lambda1_s / iterations if iterations else 0.0,
        "spectral.converged_ratio": (
            sum(not isinstance(res, Exception) for _, res, _ in eigen) / len(eigen) if eigen else 0.0
        ),
        "spectral.lambda1_s": lambda1_s,
        "spectral.banded_s": tr.self_s["spectral.banded"],
        "spectral.self_s": tr.self_s["spectral"],
        "geometry.table_build_s": tr.tag_s["table"],
        "geometry.table_nodes": table_nodes,
        "geometry.drift_calls": tr.calls["geometry.drift"],
        "geometry.drift_s": tr.inclusive["geometry.drift"],
        "geometry.self_s": tr.self_s["geometry"],
        "operators.assemble_calls": tr.calls["operators.laplacian_tridiag"],
        "operators.assemble_s": tr.tag_s["assemble"],
        "operators.self_s": tr.self_s["operators"],
        "barriers.construct_s": tr.tag_s["construct"],
        "barriers.verify_s": tr.tag_s["verify"],
        "barriers.nodes_checked": nodes_checked,
        "barriers.self_s": tr.self_s["barriers"],
        "experiments.self_s": tr.self_s["experiments"],
        "experiments.write_s": tr.self_s["experiments.write"],
        "config.parse_s": tr.self_s["config"],
        "trace.wall_s": wall,
        "trace.accounted_share": 1.0 - tr.self_s["harness"] / wall,
        "trace.overhead_s": tr.span_calls * span_cost + tr.aggregate_calls * aggregate_cost,
        "trace.calls": tr.span_calls + tr.aggregate_calls,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", type=Path, help="write spans here and report per-layer metrics")
    args = parser.parse_args(argv)
    inputs = json.loads(args.inputs.read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    execute, check = WORKLOADS[inputs["workload"]]

    tr = None
    if args.trace:
        span_cost, aggregate_cost = tracing.calibrate()
        tr = tracing.Tracer()
        tr.install()
        tr.start()
        raw = execute(inputs, args.out, 1)
        tr.stop()
        tr.uninstall()
    else:
        raw = execute(inputs, args.out, inputs.get("threads", 1))
    t0 = perf_counter()
    result = check(inputs, args.out, raw)
    result["check_s"] = perf_counter() - t0
    result["artifact_bytes"] = sum(p.stat().st_size for p in args.out.rglob("*") if p.is_file())
    if tr is not None:
        result["layers"] = layer_metrics(tr, span_cost, aggregate_cost)
        result["layers"]["experiments.artifact_bytes"] = result["artifact_bytes"]
        result["cell_s"] = [dur for dur, _, _ in tr.results["experiments._sweep_cell"]]
        for name in ("evolution.steps_accepted", "evolution.banded_solves", "spectral.iterations",
                     "spectral.lambda1_calls", "geometry.table_nodes", "geometry.drift_calls",
                     "operators.assemble_calls", "barriers.nodes_checked",
                     "evolution.dt_min", "evolution.dt_max"):
            result["counters"][name] = result["layers"][name]
        args.trace.write_text(json.dumps(tr.span_records()))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
