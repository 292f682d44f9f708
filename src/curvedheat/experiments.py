"""Turn parsed experiment configs into runs and deterministic artifacts.

One function per CLI subcommand.  Each makes ``out_dir`` once it has computed its
CSV (and advisory SVG) outputs, so a refused config leaves none, writes them there
and returns (ok, lines): ``ok`` feeds the --strict exit status, ``lines`` are
human-readable summary rows for stdout.  Outputs are byte-reproducible: fixed
iteration orders, fixed float formatting, no wall-clock content.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

import numpy as np

from . import svg
from .barriers import (
    ExpBarrier,
    amplitude_limit,
    dump_barrier_kv,
    exp_rate_window,
    fast_decay_rate,
    glued_barrier,
    power_tail_barrier,
    slow_decay_params,
    time_envelope,
    verify_supersolution,
)
from .config import ExperimentConfig, _admissible, divergence_gamma, pinch_constant
from .errors import ConfigError
from .evolution import (
    barrier_profile,
    bump_profile,
    compare_with_envelope,
    exhaustion_solve,
    nested_grids,
    power_tail_profile,
    save_history_csv,
    solve_batch,
    solve_on_ball,
)
from .geometry import (
    ModelManifold,
    check_curvature_bounds,
    drift,
    drift_lower_constant,
    make_euclidean,
    make_gamma_model,
    make_hyperbolic,
    save_warping_csv,
)
from .operators import RadialField, RadialGrid, load_lapack, save_field_csv
from .spectral import dirichlet_lambda1, eigen_le, lambda1_estimate, mckean_bound, save_eigen_csv

VERDICT_COLORS = {
    "blow-up": "#c0392b",
    "global-up-to-horizon": "#2471a3",
    "global-certified": "#1e8449",
    "undecided": "#aaaaaa",
}

# the keys of a run's record (``_sweep_cell``) that each table prints, in order
# the work a run did: its counters and the range of its accepted step sizes
WORK_KEYS = (
    "steps", "rejected_error", "rejected_nonfinite", "factor_sets", "solves", "sample_steps", "dt_accepted_min",
    "dt_accepted_max",
)
SWEEP_KEYS = (
    "verdict", "t_star", "sup_final", "ctilde", "amplitude_limit", "envelope_pass",
    "dr", "dt_init", "horizon", *WORK_KEYS,
)
SUMMARY_KEYS = (
    "verdict", "t_star", "threshold", "sup_final", "dr", "dt_init", "rel_tol", "horizon",
    "forcing", "p", *WORK_KEYS, "note",
)
ENVELOPE_SUMMARY_KEYS = (
    "lambda", "ctilde", "amplitude_limit", "envelope_violation", "envelope_tol", "envelope_pass",
)
# envelope_check.csv: (quantity, record key)
ENVELOPE_ROWS = (
    ("max_violation", "envelope_violation"), ("min_value", "envelope_min"),
    ("tol", "envelope_tol"), ("passed", "envelope_pass"),
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def build_manifold(cfg: ExperimentConfig) -> ModelManifold:
    """The configured model; ``ManifoldSpec`` has refused every inadmissible parameter."""
    m = cfg.manifold
    if m.kind == "euclidean":
        return make_euclidean(m.n)
    if m.kind == "hyperbolic":
        return make_hyperbolic(m.n, m.k)
    return make_gamma_model(m.n, m.c0, m.gamma, m.r_max, m.dr)


def resolve_lambda(cfg: ExperimentConfig, M: ModelManifold):
    """Spectral parameter per policy; returns (lam, provenance)."""
    if cfg.lambda_policy == "explicit":
        return cfg.lambda_value, "explicit"
    if cfg.lambda_policy == "mckean":
        k = pinch_constant(cfg.manifold)
        if k is None:
            raise ConfigError(
                "lambda_policy = mckean needs a pinched-curvature model "
                "(flat space has spectral bottom 0)"
            )
        return mckean_bound(cfg.manifold.n, k), f"mckean(n={cfg.manifold.n}, k={k:g})"
    est = dirichlet_lambda1(M, cfg.grid.R, cfg.grid.N)
    return est.lambda1_ball, f"eigen(R={cfg.grid.R:g}, N={cfg.grid.N})"


def build_barrier(cfg: ExperimentConfig, M: ModelManifold):
    """Construct the configured barrier; returns (barrier, lam, meta)."""
    spec = cfg.barrier
    n = cfg.manifold.n
    gamma = divergence_gamma(cfg.manifold)
    grid = RadialGrid(cfg.grid.R, cfg.grid.N)

    def measured_c():
        if spec.c_lower is not None:
            return spec.c_lower, "configured"
        return drift_lower_constant(M, grid.nodes[1:], gamma), "measured"

    if spec.kind == "exp":
        lam, origin = resolve_lambda(cfg, M)
        return ExpBarrier(spec.alpha, spec.beta), lam, {"lambda_origin": origin}

    if spec.kind == "exp-linear":
        k = pinch_constant(cfg.manifold)
        if k is None:
            raise ConfigError(
                "exp-linear barrier needs a pinched-curvature model: the rate window "
                "requires a positive curvature bound k"
            )
        lam, origin = resolve_lambda(cfg, M)
        lam_cap = mckean_bound(n, k)
        if lam > lam_cap:
            raise ConfigError(
                f"rate window needs lambda <= (n-1)^2 k^2/4 = {lam_cap:.12g}, got {lam:.12g}"
            )
        lo, hi = exp_rate_window(n, k, lam)
        beta = {"lo": lo, "mid": 0.5 * (lo + hi), "hi": hi}[spec.beta_policy]
        return ExpBarrier(1.0, beta), lam, {"lambda_origin": origin}

    if spec.kind == "exp-slow":
        lam, origin = resolve_lambda(cfg, M)
        c, c_origin = measured_c()
        alpha, beta = _admissible("barrier", slow_decay_params, n, c, gamma, lam)
        return ExpBarrier(alpha, beta), lam, {
            "lambda_origin": origin, "c_lower": c, "c_origin": c_origin,
        }

    if spec.kind == "exp-fast":
        lam, origin = resolve_lambda(cfg, M)
        c, c_origin = measured_c()
        beta = _admissible("barrier", fast_decay_rate, n, c, gamma, lam, spec.alpha)
        return ExpBarrier(spec.alpha, beta), lam, {
            "lambda_origin": origin, "c_lower": c, "c_origin": c_origin,
        }

    if spec.kind == "power-tail":
        k = pinch_constant(cfg.manifold)
        c, c_origin = measured_c()
        barrier, lam_star = _admissible("barrier", power_tail_barrier, n, k, c, gamma, spec.alpha)
        lam = spec.lambda_fraction * lam_star
        return barrier, lam, {
            "lambda_origin": f"power-tail({spec.lambda_fraction:g} x lam* = {lam_star:.6g})",
            "lam_star": lam_star, "c_lower": c, "c_origin": c_origin,
        }

    if spec.kind == "glued":
        lam, origin = resolve_lambda(cfg, M)
        barrier = _admissible(
            "barrier", glued_barrier,
            M, lam, spec.alpha, spec.beta, spec.r0, spec.r1, spec.r2, cfg.grid.R, cfg.grid.N,
        )
        return barrier, lam, {"lambda_origin": origin, "c": barrier.c}


# ---------------------------------------------------------------------------
# subcommands


def run_geometry(cfg: ExperimentConfig, out_dir: Path):
    M = build_manifold(cfg)
    check = cfg.check
    r = np.linspace(check.r_min, check.r_max, check.nodes)
    report = check_curvature_bounds(M, check.k, check.c0, check.gamma, r)
    floor = drift_lower_constant(M, r, check.gamma)
    rows = [
        ("manifold", cfg.manifold.kind),
        ("n", cfg.manifold.n),
        ("r_min", report.r_min),
        ("r_max", report.r_max),
        ("n_nodes", report.n_nodes),
        ("max_radial_curvature", report.max_radial_curvature),
        ("max_sphere_curvature", report.max_sphere_curvature),
        ("pinch_k", report.pinch_k),
        ("pinch_holds", report.pinch_holds),
        ("divergence_c0", report.divergence_c0),
        ("divergence_gamma", report.divergence_gamma),
        ("divergence_holds", report.divergence_holds),
        ("drift_floor_measured", floor),
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "curvature_report.csv", ("quantity", "value"), rows)
    write_csv(out_dir / "drift.csv", ("r", "F"), zip(r, drift(M, r)))
    if cfg.manifold.kind == "gamma":
        save_warping_csv(M.psi, out_dir / "warping.csv")
    svg.line_plot(
        out_dir / "drift.svg",
        [(r, drift(M, r), "drift F(r)")],
        title=f"radial drift, {cfg.manifold.kind} n={cfg.manifold.n}",
        xlabel="r", ylabel="F",
    )
    ok = report.pinch_holds and report.divergence_holds
    lines = [
        f"pinch (K <= -k^2, k={check.k:g}): {'PASS' if report.pinch_holds else 'FAIL'}",
        f"divergence (K_rad <= -c0(1+r^gamma), c0={check.c0:g}, gamma={check.gamma:g}): "
        f"{'PASS' if report.divergence_holds else 'FAIL'}",
        f"measured drift floor constant: {floor:.6g}",
    ]
    return ok, lines


def run_eigen(cfg: ExperimentConfig, out_dir: Path):
    M = build_manifold(cfg)
    radii = cfg.grid.R_list or (cfg.grid.R,)
    dr = cfg.grid.R / (cfg.grid.N + 1) if cfg.grid.dr is None else cfg.grid.dr
    report = _admissible("grid", lambda1_estimate, M, radii, dr_target=dr)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_eigen_csv(report.estimates, out_dir / "eigen.csv")
    k = pinch_constant(cfg.manifold)
    lower = mckean_bound(cfg.manifold.n, k) if k is not None else 0.0
    rows = [
        ("limit", report.limit),
        ("error_bar", report.error_bar),
        ("monotone", report.monotone),
        ("lower_bound", lower),
        ("bracket_lo", lower),
        ("bracket_hi", report.limit),
    ]
    write_csv(out_dir / "eigen_summary.csv", ("quantity", "value"), rows)
    svg.line_plot(
        out_dir / "eigen.svg",
        [(report.radii, report.values, "lambda1(B_R)"),
         (report.radii, [lower] * len(report.radii), "curvature lower bound")],
        title=f"Dirichlet spectral bottom, {cfg.manifold.kind} n={cfg.manifold.n}",
        xlabel="R", ylabel="lambda1",
    )
    ok = report.monotone and all(eigen_le(lower, est.lambda1_ball, est.band_norm) for est in report.estimates)
    lines = [
        f"lambda1 estimates: {', '.join(f'{v:.8g}' for v in report.values)}",
        f"bracket: [{lower:.8g}, {report.limit:.8g}]  monotone: {report.monotone}",
    ]
    return ok, lines


def run_barrier(cfg: ExperimentConfig, out_dir: Path):
    M = build_manifold(cfg)
    barrier, lam, meta = build_barrier(cfg, M)
    grid = RadialGrid(cfg.grid.R, cfg.grid.N)
    check = verify_supersolution(M, barrier, lam, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "barrier.kv", "w") as fh:
        fh.write(dump_barrier_kv(barrier, lam) + "\n")
    vals = barrier.eval(grid.nodes)
    save_field_csv(RadialField(grid, vals), out_dir / "barrier_profile.csv")
    rows = [
        ("kind", cfg.barrier.kind),
        ("lambda", lam),
        ("lambda_origin", meta.get("lambda_origin", "")),
        ("sup", barrier.sup),
        ("max_residual", check.max_residual),
        ("max_relative", check.max_relative),
        ("worst_r", check.worst_r),
        ("kink_ok", check.kink_ok),
        ("tol", check.tol),
        ("verdict", "PASS" if check.passed else "FAIL"),
    ]
    for key in ("c_lower", "c_origin", "lam_star", "c"):
        if key in meta:
            rows.append((key, meta[key]))
    write_csv(out_dir / "barrier_check.csv", ("quantity", "value"), rows)
    svg.line_plot(
        out_dir / "barrier.svg",
        [(grid.nodes[1:], vals[1:], f"{cfg.barrier.kind} barrier")],
        title=f"barrier profile (lambda = {lam:.4g})",
        xlabel="r", ylabel="w", logy=True,
    )
    lines = [
        f"barrier {cfg.barrier.kind}: lambda = {lam:.8g} ({meta.get('lambda_origin', '')})",
        f"residual max = {check.max_residual:.3e} at r = {check.worst_r:.4g}, "
        f"kinks {'ok' if check.kink_ok else 'BAD'} -> {'PASS' if check.passed else 'FAIL'}",
    ]
    return check.passed, lines


def _initial_field(cfg: ExperimentConfig, M: ModelManifold, grid: RadialGrid):
    """The configured data on ``grid``, zero at its boundary node; returns (u0, barrier, lam, envelope, meta)."""
    u0 = cfg.u0
    barrier = lam = envelope = None
    meta = {}
    if u0.kind == "zero":
        profile = np.zeros_like
    elif u0.kind == "bump":
        profile = bump_profile(1.0 if u0.amplitude is None else u0.amplitude, u0.width)
    elif u0.kind == "power-tail":
        profile = power_tail_profile(1.0 if u0.amplitude is None else u0.amplitude, u0.alpha)
    else:  # scaled barrier
        barrier, lam, meta = build_barrier(cfg, M)
        limit = amplitude_limit(cfg.forcing, lam, cfg.p, barrier.sup)
        if limit is None:
            ctilde = 1.0 if u0.amplitude is None else u0.amplitude  # an O(1) multiple: blow-up at resolvable times
        else:
            ctilde = u0.factor * limit if u0.amplitude is None else u0.amplitude
            envelope = time_envelope(cfg.forcing, lam, cfg.p, barrier.sup, ctilde)
        meta = dict(meta, ctilde=ctilde, amplitude_limit=limit)
        profile = barrier_profile(barrier, ctilde)
    vals = np.asarray(profile(grid.nodes), dtype=float)
    vals[-1] = 0.0
    return RadialField(grid, vals), barrier, lam, envelope, meta


def _envelope_line(label: str, record) -> str:
    verdict = "PASS" if record["envelope_pass"] else "FAIL"
    return (
        f"{label}: violation {record['envelope_violation']:.3e} "
        f"(tol {record['envelope_tol']:.1e}) -> {verdict}"
    )


def run_simulate(cfg: ExperimentConfig, out_dir: Path):
    M = build_manifold(cfg)
    if cfg.grid.R_list:
        if cfg.grid.dr is None:
            raise ConfigError("[grid] exhaustion runs need a shared grid spacing: set dr")
        # eigen takes any spacing; nested balls need radii that are multiples of it
        grids = _admissible("grid", nested_grids, cfg.grid.R_list, cfg.grid.dr)
        u0, *data = _initial_field(cfg, M, grids[-1])
        report = exhaustion_solve(M, u0, cfg.grid.R_list, cfg.forcing, cfg.p, cfg.controls)
        records = [_sweep_cell(cfg, outcome, *data) for outcome in report.outcomes]
        rows = []
        out_dir.mkdir(parents=True, exist_ok=True)
        for R, outcome, record, gap in zip(
            report.radii, report.outcomes, records, [float("nan")] + list(report.gaps)
        ):
            save_history_csv(outcome, out_dir / f"history_R{R:g}.csv")
            save_field_csv(outcome.final, out_dir / f"final_field_R{R:g}.csv")
            rows.append((R, record["verdict"], record["t_star"], gap))
        write_csv(out_dir / "exhaustion.csv", ("R", "verdict", "t_star", "gap_to_previous"), rows)
        svg.line_plot(
            out_dir / "exhaustion.svg",
            [
                (o.history[:, 0], o.history[:, 1], f"R={R:g}")
                for R, o in zip(report.radii, report.outcomes)
            ],
            title="sup norm on nested balls", xlabel="t", ylabel="sup |u|", logy=True,
        )
        lines = [
            f"exhaustion over R = {list(report.radii)}: verdicts "
            + ", ".join(record["verdict"] for record in records),
            f"nesting violation max = {report.max_violation:.3e} (tol {report.tol:.1e}), "
            f"gaps = {[f'{g:.3e}' for g in report.gaps]}, blow-up times nonincreasing: {report.blowup_nonincreasing}",
        ]
        lines += [
            _envelope_line(f"envelope R={R:g}", record)
            for R, record in zip(report.radii, records) if record["envelope_pass"] is not None
        ]
        ok = report.monotone_ok and report.blowup_nonincreasing is not False
        ok = ok and all(record["envelope_pass"] is not False for record in records)
        return ok, lines

    u0, *data = _initial_field(cfg, M, RadialGrid(cfg.grid.R, cfg.grid.N))
    outcome = solve_on_ball(M, u0.grid.R, u0, cfg.forcing, cfg.p, cfg.controls)
    record = _sweep_cell(cfg, outcome, *data)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_history_csv(outcome, out_dir / "history.csv")
    save_field_csv(outcome.final, out_dir / "final_field.csv")
    keys = SUMMARY_KEYS
    t_star = record["t_star"]
    lines = [f"verdict: {record['verdict']}" + (f" at t* = {t_star:.6g}" if t_star else "")]
    if record["envelope_pass"] is not None:
        keys += ENVELOPE_SUMMARY_KEYS
        write_csv(
            out_dir / "envelope_check.csv", ("quantity", "value"),
            [(quantity, record[key]) for quantity, key in ENVELOPE_ROWS],
        )
        lines.append(_envelope_line("envelope", record))
    write_csv(out_dir / "run_summary.csv", ("quantity", "value"), [(key, record[key]) for key in keys])
    svg.line_plot(
        out_dir / "history.svg",
        [(outcome.history[:, 0], outcome.history[:, 1], "sup |u|")],
        title=f"{cfg.forcing.label()}, p = {cfg.p:g}: {outcome.verdict}",
        xlabel="t", ylabel="sup |u|", logy=True,
    )
    return record["envelope_pass"] is not False, lines


def _sweep_cell(cfg: ExperimentConfig, outcome, barrier, lam, envelope, meta):
    """The record of one run: every quantity that simulate and sweep print or judge.

    ``sweep.csv``, ``run_summary.csv``, ``envelope_check.csv``, the
    stdout lines and the --strict status of every command that runs the
    evolution read a run from this record.  The envelope is compared
    whenever the data has one, whatever the verdict; without one the
    envelope keys are None.  The name is older than its use outside
    the sweep; perfbench's tracer wraps the function by it.
    """
    grid = outcome.final.grid
    dts = outcome.history[1:, 2]  # the accepted steps
    record = {
        "verdict": outcome.verdict,
        "t_star": outcome.t_star,
        "threshold": outcome.threshold,
        "sup_final": float(np.max(np.abs(outcome.final.values))),
        "note": outcome.note,
        "dr": grid.dr,
        "dt_init": cfg.controls.dt_init,
        "rel_tol": cfg.controls.rel_tol,
        "horizon": cfg.controls.t_end,
        "forcing": cfg.forcing.label(),
        "p": cfg.p,
        "steps": dts.size,
        "rejected_error": outcome.rejected_error,
        "rejected_nonfinite": outcome.rejected_nonfinite,
        "factor_sets": outcome.factor_sets,
        "solves": outcome.solves,
        "sample_steps": outcome.sample_steps,
        "dt_accepted_min": float(dts.min()) if dts.size else None,
        "dt_accepted_max": float(dts.max()) if dts.size else None,
        "lambda": lam,
        "ctilde": meta.get("ctilde"),
        "amplitude_limit": meta.get("amplitude_limit"),
        "envelope_violation": None,
        "envelope_min": None,
        "envelope_tol": None,
        "envelope_pass": None,
    }
    if envelope is not None:
        cmp = compare_with_envelope(outcome, barrier.eval(grid.nodes), envelope)
        record.update(
            envelope_violation=cmp.max_violation, envelope_min=cmp.min_value,
            envelope_tol=cmp.tol, envelope_pass=cmp.passed,
        )
    return record


def _sweep_batch(cfgs):
    """The records of sweep cells that differ only in their data and p, their runs in lockstep."""
    base = cfgs[0]
    M = build_manifold(base)
    cells = [_initial_field(cfg, M, RadialGrid(cfg.grid.R, cfg.grid.N)) for cfg in cfgs]
    outcomes = solve_batch(M, [u0 for u0, *_ in cells], base.forcing, [cfg.p for cfg in cfgs], base.controls)
    return [_sweep_cell(cfg, outcome, *rest) for cfg, outcome, (_, *rest) in zip(cfgs, outcomes, cells)]


def _sweep_jobs(configs, threads: int) -> list:
    """The cells' indices in batches, the units of work that the workers are dealt.

    Cells that share manifold, ball, forcing and controls form a group,
    and each group is dealt into at most ``threads`` interleaved batches.
    """
    groups: dict = {}
    for i, cfg in enumerate(configs):
        key = repr((cfg.manifold, cfg.grid, cfg.forcing, cfg.controls))
        groups.setdefault(key, []).append(i)
    jobs = []
    for group in groups.values():
        parts = min(threads, len(group))
        jobs += [group[w::parts] for w in range(parts)]
    return jobs


def _forked_batches(batches, workers: int) -> list:
    """``_sweep_batch`` of each batch, the batches dealt round-robin over ``workers`` forked children.

    A child runs its batches in order, pickles its rows (or the exception a
    batch raised) to its pipe and leaves by ``os._exit``, so it runs none of
    the parent's atexit handlers and flushes none of its buffers.  The parent
    closes each write end before the next fork and reads every pipe to EOF
    before it reaps the children, so no reply can block on a full pipe.
    """
    children = []  # (pid, read end) per worker
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        reply = [_sweep_batch(batch) for batch in batches[w::workers]]
                    except Exception as exc:
                        reply = exc
                    with open(write_fd, "wb") as fh:
                        pickle.dump(reply, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        replies = [reader.read() for _, reader in children]
    finally:
        statuses = []
        for pid, reader in children:
            reader.close()
            statuses.append(os.waitpid(pid, 0)[1])
    rows_of = [None] * len(batches)
    for w, ((pid, _), status, data) in enumerate(zip(children, statuses, replies)):
        if status:
            raise RuntimeError(f"sweep worker {pid} ended without a reply (wait status {status})")
        reply = pickle.loads(data)
        if isinstance(reply, Exception):
            raise reply
        rows_of[w::workers] = reply
    return rows_of


def run_sweep(cfg: ExperimentConfig, out_dir: Path, threads: int = 1):
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a [sweep] section")
    spec = cfg.sweep
    cells = spec.cells
    jobs = _sweep_jobs(spec.configs, threads)
    batches = [[spec.configs[i] for i in job] for job in jobs]
    # no more workers than batches, each a forked child; the parent runs no
    # batch itself, so its memory peak is not a worker's on top of its own
    workers = min(threads, len(batches))
    if workers > 1 and hasattr(os, "fork"):
        load_lapack()  # the forked workers inherit the binding instead of each loading LAPACK again
        rows_of = _forked_batches(batches, workers)
    else:
        rows_of = [_sweep_batch(batch) for batch in batches]
    results = [None] * len(spec.configs)
    for job, rows in zip(jobs, rows_of):
        for i, res in zip(job, rows):
            results[i] = res

    axis_names = (spec.axis,) if spec.axis2 is None else (spec.axis, spec.axis2)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "sweep.csv", axis_names + SWEEP_KEYS,
        [coords + tuple(res[key] for key in SWEEP_KEYS) for (coords, _), res in zip(cells, results)],
    )

    xs = list(spec.values)
    ys = list(spec.values2) if spec.axis2 else [0.0]
    cells_grid = [[None] * len(xs) for _ in ys]
    for idx, res in enumerate(results):
        i = idx % len(xs)
        j = idx // len(xs)
        # display-only refinement: global cells whose envelope held get their own shade
        key = res["verdict"]
        if key == "global-up-to-horizon" and res["envelope_pass"]:
            key = "global-certified"
        cells_grid[j][i] = key
    svg.heatmap(
        out_dir / "sweep.svg", xs, ys, cells_grid, VERDICT_COLORS,
        title=f"verdict map ({cfg.forcing.label()})",
        xlabel=spec.axis, ylabel=spec.axis2 or "",
    )
    ok = all(res["envelope_pass"] is not False for res in results)
    counts: dict = {}
    for res in results:
        counts[res["verdict"]] = counts.get(res["verdict"], 0) + 1
    lines = [
        f"{len(results)} cells: " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())),
    ]
    return ok, lines
