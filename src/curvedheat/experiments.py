"""Turn parsed experiment configs into runs and deterministic artifacts.

One function per CLI subcommand.  Every function writes its CSV (and
advisory SVG) outputs under ``out_dir`` and returns (ok, lines): ``ok``
feeds the --strict exit status, ``lines`` are human-readable summary
rows for stdout.  Outputs are byte-reproducible: fixed iteration
orders, fixed float formatting, no wall-clock content.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
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
from .config import ExperimentConfig, _admissible
from .errors import ConfigError
from .evolution import (
    VERDICT_BLOWUP,
    barrier_profile,
    bump_profile,
    compare_with_envelope,
    exhaustion_solve,
    power_tail_profile,
    save_history_csv,
    solve_on_ball,
)
from .forcing import Forcing
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
from .operators import RadialField, RadialGrid, save_field_csv
from .spectral import dirichlet_lambda1, lambda1_estimate, mckean_bound, save_eigen_csv

VERDICT_COLORS = {
    "blow-up": "#c0392b",
    "global-up-to-horizon": "#2471a3",
    "global-certified": "#1e8449",
    "undecided": "#aaaaaa",
}


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
    """The configured model; an inadmissible parameter is a ConfigError."""
    m = cfg.manifold
    try:
        if m.kind == "euclidean":
            return make_euclidean(m.n)
        if m.kind == "hyperbolic":
            return make_hyperbolic(m.n, m.k)
        return make_gamma_model(m.n, m.c0, m.gamma, m.r_max, m.dr)
    except ValueError as exc:
        raise ConfigError(f"[manifold] {exc}") from exc


def pinch_constant(cfg: ExperimentConfig) -> float | None:
    """Curvature pinching constant k of the configured model, if any."""
    if cfg.manifold.kind == "hyperbolic":
        return cfg.manifold.k
    if cfg.manifold.kind == "gamma":
        return math.sqrt(cfg.manifold.c0)
    return None


def divergence_gamma(cfg: ExperimentConfig) -> float:
    return cfg.manifold.gamma if cfg.manifold.kind == "gamma" else 0.0


def resolve_lambda(cfg: ExperimentConfig, M: ModelManifold):
    """Spectral parameter per policy; returns (lam, provenance)."""
    if cfg.lambda_policy == "explicit":
        return cfg.lambda_value, "explicit"
    if cfg.lambda_policy == "mckean":
        k = pinch_constant(cfg)
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
    gamma = divergence_gamma(cfg)
    grid = RadialGrid(cfg.grid.R, cfg.grid.N)

    def measured_c():
        if spec.c_lower is not None:
            return spec.c_lower, "configured"
        return drift_lower_constant(M, grid.nodes[1:], gamma), "measured"

    if spec.kind == "exp":
        if spec.alpha is None or spec.beta is None:
            raise ConfigError("barrier kind exp needs explicit alpha and beta")
        lam, origin = resolve_lambda(cfg, M)
        return ExpBarrier(spec.alpha, spec.beta), lam, {"lambda_origin": origin}

    if spec.kind == "exp-linear":
        k = pinch_constant(cfg)
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
        if spec.alpha is None:
            raise ConfigError("barrier kind exp-fast needs an explicit alpha")
        lam, origin = resolve_lambda(cfg, M)
        c, c_origin = measured_c()
        beta = _admissible("barrier", fast_decay_rate, n, c, gamma, lam, spec.alpha)
        return ExpBarrier(spec.alpha, beta), lam, {
            "lambda_origin": origin, "c_lower": c, "c_origin": c_origin,
        }

    if spec.kind == "power-tail":
        if spec.alpha is None:
            raise ConfigError("barrier kind power-tail needs an explicit alpha")
        k = pinch_constant(cfg)
        c, c_origin = measured_c()
        barrier, lam_star = _admissible("barrier", power_tail_barrier, n, k, c, gamma, spec.alpha)
        lam = spec.lambda_fraction * lam_star
        return barrier, lam, {
            "lambda_origin": f"power-tail({spec.lambda_fraction:g} x lam* = {lam_star:.6g})",
            "lam_star": lam_star, "c_lower": c, "c_origin": c_origin,
        }

    if spec.kind == "glued":
        if spec.alpha is None or spec.beta is None:
            raise ConfigError("barrier kind glued needs explicit alpha and beta")
        if None in (spec.r0, spec.r1, spec.r2):
            raise ConfigError("barrier kind glued needs r0, r1, r2")
        lam, origin = resolve_lambda(cfg, M)
        barrier = _admissible(
            "barrier", glued_barrier,
            M, lam, spec.alpha, spec.beta, spec.r0, spec.r1, spec.r2, cfg.grid.R, cfg.grid.N,
        )
        return barrier, lam, {"lambda_origin": origin, "c": barrier.c}

    raise ConfigError(f"unknown barrier kind {spec.kind!r}")


def scaled_barrier_data(cfg: ExperimentConfig, forcing: Forcing, lam: float, p: float, barrier):
    """Amplitude for u0 = ctilde * barrier; certified when below the limit."""
    limit = amplitude_limit(forcing, lam, p, barrier.sup)
    if cfg.u0.amplitude is not None:
        ctilde = cfg.u0.amplitude
    elif limit is not None:
        ctilde = cfg.u0.factor * limit
    else:
        ctilde = 1.0  # no limit: an O(1) multiple, so blow-up comes at resolvable times
    certified = limit is not None and ctilde < limit
    return ctilde, limit, certified


# ---------------------------------------------------------------------------
# subcommands


def run_geometry(cfg: ExperimentConfig, out_dir: Path):
    M = build_manifold(cfg)
    check = cfg.check
    if check.k is None:
        check = replace(check, k=pinch_constant(cfg) or cfg.manifold.k)
    if check.gamma is None:
        check = replace(check, gamma=divergence_gamma(cfg))
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
    save_eigen_csv(report.estimates, out_dir / "eigen.csv")
    k = pinch_constant(cfg)
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
    ok = report.monotone and all(v >= lower - 1e-10 for v in report.values)
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


def _build_u0_profile(cfg: ExperimentConfig, M: ModelManifold):
    """Returns (profile callable, barrier, lam, envelope, meta)."""
    u0 = cfg.u0
    if u0.kind == "zero":
        return (lambda r: np.zeros_like(np.asarray(r, dtype=float))), None, None, None, {}
    if u0.kind == "bump":
        amp = u0.amplitude if u0.amplitude is not None else 1.0
        return bump_profile(amp, u0.width), None, None, None, {}
    if u0.kind == "power-tail":
        amp = u0.amplitude if u0.amplitude is not None else 1.0
        return power_tail_profile(amp, u0.alpha), None, None, None, {}
    # scaled barrier
    barrier, lam, meta = build_barrier(cfg, M)
    ctilde, limit, certified = scaled_barrier_data(cfg, cfg.forcing, lam, cfg.p, barrier)
    envelope = None
    if limit is not None:
        envelope = time_envelope(cfg.forcing, lam, cfg.p, barrier.sup, ctilde=ctilde)
    meta = dict(meta)
    meta.update({"ctilde": ctilde, "amplitude_limit": limit, "certified": certified})
    return barrier_profile(barrier, ctilde), barrier, lam, envelope, meta


def _solve_single_ball(cfg: ExperimentConfig, M: ModelManifold):
    """Evolve the configured data on the configured ball.

    Returns (outcome, barrier, lam, envelope, meta) as _build_u0_profile,
    with the run's outcome in place of the data profile; the run's grid
    is ``outcome.final.grid``.
    """
    profile, barrier, lam, envelope, meta = _build_u0_profile(cfg, M)
    grid = RadialGrid(cfg.grid.R, cfg.grid.N)
    vals = np.asarray(profile(grid.nodes), dtype=float)
    vals[-1] = 0.0
    outcome = solve_on_ball(
        M, grid.R, RadialField(grid, vals), cfg.forcing, cfg.p, cfg.controls,
        n_snapshots=cfg.snapshots,
    )
    return outcome, barrier, lam, envelope, meta


def run_simulate(cfg: ExperimentConfig, out_dir: Path):
    M = build_manifold(cfg)
    if cfg.grid.R_list:
        profile, barrier, lam, envelope, meta = _build_u0_profile(cfg, M)
        if cfg.grid.dr is None:
            raise ConfigError("exhaustion runs need a shared grid spacing: set grid.dr")
        report = exhaustion_solve(
            M, cfg.grid.R_list, profile, cfg.forcing, cfg.p, cfg.controls, cfg.grid.dr,
            n_snapshots=cfg.snapshots,
        )
        rows = []
        for R, outcome, gap in zip(
            report.radii, report.outcomes, [float("nan")] + list(report.gaps)
        ):
            save_history_csv(outcome, out_dir / f"history_R{R:g}.csv")
            save_field_csv(outcome.final, out_dir / f"final_field_R{R:g}.csv")
            rows.append((R, outcome.verdict, outcome.t_star, gap))
        write_csv(out_dir / "exhaustion.csv", ("R", "verdict", "t_star", "gap_to_previous"), rows)
        svg.line_plot(
            out_dir / "exhaustion.svg",
            [
                (o.history[:, 0], o.history[:, 1], f"R={R:g}")
                for R, o in zip(report.radii, report.outcomes)
            ],
            title="sup norm on nested balls", xlabel="t", ylabel="sup |u|", logy=True,
        )
        ok = report.monotone_ok
        lines = [
            f"exhaustion over R = {list(report.radii)}: verdicts "
            + ", ".join(o.verdict for o in report.outcomes),
            f"nesting violation max = {report.max_violation:.3e} (tol {report.tol:.1e}), "
            f"gaps = {[f'{g:.3e}' for g in report.gaps]}",
        ]
        if envelope is not None:
            for R, outcome in zip(report.radii, report.outcomes):
                w_vals = barrier.eval(outcome.final.grid.nodes)
                cmp = compare_with_envelope(outcome, w_vals, envelope)
                ok = ok and cmp.passed
                lines.append(
                    f"envelope R={R:g}: violation {cmp.max_violation:.3e} "
                    f"(tol {cmp.tol:.1e}) -> {'PASS' if cmp.passed else 'FAIL'}"
                )
        return ok, lines

    outcome, barrier, lam, envelope, meta = _solve_single_ball(cfg, M)
    grid = outcome.final.grid
    save_history_csv(outcome, out_dir / "history.csv")
    save_field_csv(outcome.final, out_dir / "final_field.csv")
    rows = [
        ("verdict", outcome.verdict),
        ("t_star", outcome.t_star),
        ("threshold", outcome.threshold),
        ("sup_final", float(np.max(np.abs(outcome.final.values)))),
        ("dr", grid.dr),
        ("dt_init", cfg.controls.dt_init),
        ("rel_tol", cfg.controls.rel_tol),
        ("horizon", cfg.controls.t_end),
        ("forcing", cfg.forcing.label()),
        ("p", cfg.p),
        ("note", outcome.note),
    ]
    ok = True
    lines = [f"verdict: {outcome.verdict}" + (f" at t* = {outcome.t_star:.6g}" if outcome.t_star else "")]
    if envelope is not None:
        cmp = compare_with_envelope(outcome, barrier.eval(grid.nodes), envelope)
        rows += [
            ("lambda", lam),
            ("ctilde", meta["ctilde"]),
            ("amplitude_limit", meta["amplitude_limit"]),
            ("envelope_violation", cmp.max_violation),
            ("envelope_tol", cmp.tol),
            ("envelope_pass", cmp.passed),
        ]
        write_csv(
            out_dir / "envelope_check.csv",
            ("quantity", "value"),
            [
                ("max_violation", cmp.max_violation),
                ("min_value", cmp.min_value),
                ("tol", cmp.tol),
                ("passed", cmp.passed),
            ],
        )
        ok = cmp.passed
        lines.append(
            f"envelope: violation {cmp.max_violation:.3e} (tol {cmp.tol:.1e}) -> "
            f"{'PASS' if cmp.passed else 'FAIL'}"
        )
    write_csv(out_dir / "run_summary.csv", ("quantity", "value"), rows)
    svg.line_plot(
        out_dir / "history.svg",
        [(outcome.history[:, 0], outcome.history[:, 1], "sup |u|")],
        title=f"{cfg.forcing.label()}, p = {cfg.p:g}: {outcome.verdict}",
        xlabel="t", ylabel="sup |u|", logy=True,
    )
    return ok, lines


def _cell_config(cfg: ExperimentConfig, axis_values: dict) -> ExperimentConfig:
    """The sweep's base config with one cell's axis values put in."""
    changes = {}
    for axis, value in axis_values.items():
        if axis == "p":
            changes["p"] = value
        elif axis == "sigma":
            changes["forcing"] = Forcing.exponential(value)
        elif axis == "amplitude":
            changes["u0"] = replace(cfg.u0, amplitude=value)
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}")
    return replace(cfg, **changes)


def _sweep_cell(cfg: ExperimentConfig):
    M = build_manifold(cfg)
    outcome, barrier, lam, envelope, meta = _solve_single_ball(cfg, M)
    grid = outcome.final.grid
    env_pass = None
    if envelope is not None and outcome.verdict != VERDICT_BLOWUP:
        env_pass = compare_with_envelope(outcome, barrier.eval(grid.nodes), envelope).passed
    return {
        "verdict": outcome.verdict,
        "t_star": outcome.t_star,
        "sup_final": float(np.max(np.abs(outcome.final.values))),
        "ctilde": meta.get("ctilde"),
        "amplitude_limit": meta.get("amplitude_limit"),
        "certified": meta.get("certified", False),
        "envelope_pass": env_pass,
        "dr": grid.dr,
        "dt_init": cfg.controls.dt_init,
        "horizon": cfg.controls.t_end,
    }


def run_sweep(cfg: ExperimentConfig, out_dir: Path, threads: int = 1):
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a [sweep] section")
    spec = cfg.sweep
    cells = spec.cells
    jobs = [_cell_config(cfg, axis_values) for _, axis_values in cells]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_cell, jobs))
    else:
        results = [_sweep_cell(job) for job in jobs]

    axis_names = (spec.axis,) if spec.axis2 is None else (spec.axis, spec.axis2)
    header = axis_names + (
        "verdict", "t_star", "sup_final", "ctilde", "amplitude_limit",
        "envelope_pass", "dr", "dt_init", "horizon",
    )
    rows = []
    for (coords, _), res in zip(cells, results):
        rows.append(
            coords + (
                res["verdict"], res["t_star"], res["sup_final"], res["ctilde"],
                res["amplitude_limit"], res["envelope_pass"], res["dr"],
                res["dt_init"], res["horizon"],
            )
        )
    write_csv(out_dir / "sweep.csv", header, rows)

    xs = list(spec.values)
    ys = list(spec.values2) if spec.axis2 else [0.0]
    cells_grid = [[None] * len(xs) for _ in ys]
    for idx, ((coords, _), res) in enumerate(zip(cells, results)):
        i = idx % len(xs)
        j = idx // len(xs)
        # display-only refinement: certified global cells get their own shade
        key = res["verdict"]
        if key == "global-up-to-horizon" and res["envelope_pass"]:
            key = "global-certified"
        cells_grid[j][i] = key
    svg.heatmap(
        out_dir / "sweep.svg", xs, ys, cells_grid, VERDICT_COLORS,
        title=f"verdict map ({cfg.forcing.label()})",
        xlabel=spec.axis, ylabel=spec.axis2 or "",
    )
    # strict: every certified claim must have held up
    ok = all(
        (res["envelope_pass"] is not False) for res in results if res["certified"]
    )
    counts: dict = {}
    for res in results:
        counts[res["verdict"]] = counts.get(res["verdict"], 0) + 1
    lines = [
        f"{len(results)} cells: " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())),
    ]
    return ok, lines
