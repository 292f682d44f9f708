"""Semilinear evolution u_t = Delta u + h(t) u^p on exhaustion balls.

Time stepping is IMEX: diffusion implicitly through a tridiagonal solve
of (I - dt*Delta_h), the reaction h(t) u^p explicitly.  The implicit
matrix is inverse-positive and the explicit term is nonnegative, so
nonnegative data stays nonnegative (up to rounding).  Step size adapts
by step doubling; near blow-up the explicit reaction drives the
estimator up, dt collapses, and that collapse doubles as the detector:
a blow-up verdict requires both the sup norm exceeding the threshold
and the accepted dt falling below dt_min.  Numerics cannot certify
global existence, so the complementary verdict is only
"global up to the horizon".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .forcing import Forcing
from .geometry import ModelManifold
from .operators import RadialField, RadialGrid, laplacian_tridiag, sup_norm, tridiag_band

__all__ = [
    "VERDICT_GLOBAL",
    "VERDICT_BLOWUP",
    "VERDICT_UNDECIDED",
    "EvolutionControls",
    "RunOutcome",
    "ExhaustionReport",
    "EnvelopeComparison",
    "solve_on_ball",
    "exhaustion_solve",
    "compare_with_envelope",
    "blowup_criterion",
    "bump_profile",
    "power_tail_profile",
    "barrier_profile",
    "save_history_csv",
]

VERDICT_GLOBAL = "global-up-to-horizon"
VERDICT_BLOWUP = "blow-up"
VERDICT_UNDECIDED = "undecided"

_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class EvolutionControls:
    """Step-control knobs; rel_tol = 0 disables adaptivity (fixed dt_init)."""

    t_end: float
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.25
    rel_tol: float = 1e-5
    blowup_threshold: float | None = None  # default: 1e8 * ||u0||_inf

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (self.dt_min < self.dt_init <= self.dt_max):
            raise ValueError(
                f"need dt_min < dt_init <= dt_max, got ({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if self.rel_tol < 0:
            raise ValueError(f"rel_tol must be >= 0, got {self.rel_tol}")
        if self.blowup_threshold is not None and not math.isfinite(self.blowup_threshold):
            raise ValueError("blowup_threshold must be finite when given")


@dataclass
class RunOutcome:
    verdict: str
    t_star: float | None
    history: np.ndarray  # rows (t, sup_norm, dt)
    snapshots: list  # (t, full node values) at fixed sample times
    final: RadialField
    threshold: float
    note: str = ""


@dataclass
class ExhaustionReport:
    radii: list
    outcomes: list
    gaps: list  # per consecutive radius pair, max |u_next - u_prev| at shared nodes
    max_violation: float  # max u_prev - u_next (positive = monotonicity breach)
    monotone_ok: bool
    blowup_times: list
    blowup_nonincreasing: bool | None
    tol: float


@dataclass
class EnvelopeComparison:
    max_violation: float
    min_value: float
    tol: float
    passed: bool


def _step_factory(M: ModelManifold, grid: RadialGrid, forcing: Forcing, p: float, reaction):
    band = tridiag_band(*laplacian_tridiag(M, grid))

    def react(u, t):
        if reaction is not None:
            return reaction(u, t)
        return float(forcing.h(t)) * np.maximum(u, 0.0) ** p

    def step(u, t, dt):
        rhs = u + dt * react(u, t)
        ab = -dt * band  # I - dt*Delta_h
        ab[1] += 1.0
        return solve_banded((1, 1), ab, rhs)

    return step


def solve_on_ball(
    M: ModelManifold,
    R: float,
    u0: RadialField,
    forcing: Forcing,
    p: float,
    controls: EvolutionControls,
    *,
    reaction=None,
    n_snapshots: int = 33,
) -> RunOutcome:
    """Evolve u0 on the ball of radius R with zero Dirichlet data.

    Parameters
    ----------
    M : ModelManifold
    R : float
        Ball radius; must match u0's grid.
    u0 : RadialField
        Nonnegative, finite, zero at the boundary node.
    forcing : Forcing
        Time factor h(t) multiplying the reaction.
    p : float
        Reaction exponent, > 1.
    controls : EvolutionControls
        Step-size and verdict knobs; rel_tol = 0 runs fixed steps.
    reaction : callable(u, t) -> array, optional
        Replaces h(t) u^p (test hook, e.g. the linear term lam*u).
    n_snapshots : int
        Field snapshots at equispaced times via linear interpolation in
        t, so runs with different step sequences stay comparable.

    Returns
    -------
    RunOutcome
        Verdict, detected blow-up time, per-step (t, sup, dt) history,
        snapshots, and the final field.
    """
    grid = u0.grid
    if abs(grid.R - R) > 1e-9 * max(1.0, R):
        raise ValueError(f"u0 lives on a grid with R = {grid.R}, not {R}")
    if p <= 1:
        raise ValueError(f"reaction exponent must satisfy p > 1, got {p}")
    vals = u0.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("u0 has non-finite values")
    if np.any(vals < 0.0):
        raise ValueError("u0 must be nonnegative")
    if vals[-1] != 0.0:
        raise ValueError("u0 must vanish at the Dirichlet boundary node")

    step = _step_factory(M, grid, forcing, p, reaction)
    sup0 = sup_norm(u0)
    if controls.blowup_threshold is not None:
        threshold = controls.blowup_threshold
    else:
        threshold = 1e8 * sup0 if sup0 > 0.0 else math.inf

    sample_times = np.linspace(0.0, controls.t_end, n_snapshots)
    snapshots = [(0.0, vals.copy())]
    next_sample = 1

    u = vals[:-1].copy()
    t = 0.0
    dt = controls.dt_init
    adaptive = controls.rel_tol > 0.0
    history = [(0.0, sup0, 0.0)]
    t_cross = None
    verdict = None
    note = ""

    def take_snapshots(t_old, u_old, t_new, u_new):
        nonlocal next_sample
        while next_sample < sample_times.size and sample_times[next_sample] <= t_new + 1e-14:
            ts = sample_times[next_sample]
            w = 0.0 if t_new == t_old else (ts - t_old) / (t_new - t_old)
            ui = u_old + w * (u_new - u_old)
            snapshots.append((float(ts), np.concatenate((ui, [0.0]))))
            next_sample += 1

    for _ in range(_MAX_STEPS):
        remaining = controls.t_end - t
        if remaining <= max(controls.dt_min, 1e-12 * controls.t_end):
            # horizon reached to within the step-size floor
            verdict = VERDICT_GLOBAL
            break
        dt = min(dt, controls.dt_max, remaining)
        if adaptive:
            u_big = step(u, t, dt)
            u_half = step(u, t, 0.5 * dt)
            u_new = step(u_half, t + 0.5 * dt, 0.5 * dt)
            finite = np.all(np.isfinite(u_big)) and np.all(np.isfinite(u_new))
            if finite:
                est = float(np.max(np.abs(u_new - u_big)))
                scale = max(float(np.max(np.abs(u_new))), float(np.max(np.abs(u))), 1e-300)
                accept = est <= controls.rel_tol * scale
            else:
                est, scale, accept = math.inf, 1.0, False
        else:
            u_new = step(u, t, dt)
            finite = np.all(np.isfinite(u_new))
            accept = finite

        if accept:
            t_old, u_old = t, u
            t = t + dt
            u = u_new
            s = float(np.max(np.abs(u)))
            history.append((t, s, dt))
            take_snapshots(t_old, u_old, t, u)
            if s >= threshold and t_cross is None:
                t_cross = t
            if t_cross is not None:
                # threshold crossed: force the step size down so the
                # dt-collapse half of the blow-up verdict is reached
                dt = 0.5 * dt
            elif adaptive:
                if est <= 0.04 * controls.rel_tol * scale:
                    grow = 5.0  # estimator has bottomed out
                else:
                    grow = 0.9 * math.sqrt(controls.rel_tol * scale / est)
                dt = dt * min(5.0, max(0.2, grow))
        else:
            if not finite:
                dt = 0.25 * dt
            else:
                dt = dt * max(0.2, 0.9 * math.sqrt(controls.rel_tol * scale / est))
        if dt < controls.dt_min:
            if t_cross is not None:
                verdict = VERDICT_BLOWUP
            else:
                verdict = VERDICT_UNDECIDED
                note = (
                    f"step size collapsed below dt_min = {controls.dt_min:g} at t = {t:.6g} "
                    "without the sup norm reaching the blow-up threshold"
                )
            break
        if not finite and not adaptive:
            verdict = VERDICT_BLOWUP if t_cross is not None else VERDICT_UNDECIDED
            if verdict == VERDICT_UNDECIDED:
                note = f"non-finite values at t = {t:.6g} in fixed-step mode"
            break
    else:
        verdict = VERDICT_UNDECIDED
        note = f"step budget ({_MAX_STEPS}) exhausted at t = {t:.6g}"

    final = RadialField(grid, np.concatenate((u, [0.0])))
    return RunOutcome(
        verdict=verdict,
        t_star=t_cross if verdict == VERDICT_BLOWUP else None,
        history=np.asarray(history),
        snapshots=snapshots,
        final=final,
        threshold=threshold,
        note=note,
    )


def exhaustion_solve(
    M: ModelManifold,
    R_list,
    u0_profile,
    forcing: Forcing,
    p: float,
    controls: EvolutionControls,
    dr: float,
    *,
    reaction=None,
    n_snapshots: int = 26,
    tol: float | None = None,
) -> ExhaustionReport:
    """Solve on nested balls sharing one node spacing and compare them.

    ``u0_profile`` maps node radii to data values; each ball uses its
    restriction with the boundary node zeroed (Dirichlet truncation).
    Solutions on larger balls should dominate smaller ones at shared
    nodes and sampled times; the report carries the worst violation and
    the shrinking truncation gaps.
    """
    radii = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("R_list must be strictly increasing")
    outcomes = []
    for R in radii:
        steps = R / dr
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"R = {R} is not a multiple of dr = {dr}; shared nodes need one")
        grid = RadialGrid(R, int(round(steps)) - 1)
        vals = np.asarray(u0_profile(grid.nodes), dtype=float)
        vals = vals.copy()
        vals[-1] = 0.0
        u0 = RadialField(grid, vals)
        outcomes.append(
            solve_on_ball(M, R, u0, forcing, p, controls, reaction=reaction, n_snapshots=n_snapshots)
        )

    if tol is None:
        tol = 1e-3 * max(sup_norm(RadialField(o.final.grid, o.snapshots[0][1])) for o in outcomes) + 1e-12

    gaps = []
    worst = 0.0
    for small, big in zip(outcomes, outcomes[1:]):
        n_shared = small.final.grid.N + 2
        n_times = min(len(small.snapshots), len(big.snapshots))
        gap = 0.0
        for (ts, us), (tb, ub) in zip(small.snapshots[:n_times], big.snapshots[:n_times]):
            diff = us - ub[:n_shared]
            worst = max(worst, float(np.max(diff)))
            gap = max(gap, float(np.max(np.abs(diff))))
        gaps.append(gap)

    blowup_times = [o.t_star for o in outcomes]
    stars = [ts for ts in blowup_times if ts is not None]
    nonincreasing = None
    if len(stars) == len(outcomes) and len(stars) > 1:
        nonincreasing = all(b <= a + 1e-9 for a, b in zip(stars, stars[1:]))
    return ExhaustionReport(
        radii=radii,
        outcomes=outcomes,
        gaps=gaps,
        max_violation=worst,
        monotone_ok=worst <= tol,
        blowup_times=blowup_times,
        blowup_nonincreasing=nonincreasing,
        tol=tol,
    )


def compare_with_envelope(outcome: RunOutcome, w_values, envelope, tol: float | None = None) -> EnvelopeComparison:
    """Check u <= e^{-lam t} growth(t) * ctilde * w pointwise at snapshots.

    ``w_values`` are the unscaled barrier values on the run's grid; the
    envelope's own amplitude scales them.  The default tolerance budgets
    the spatial and temporal discretization error as 1e-3 * ||u0||_inf.
    """
    w = w_values.values if isinstance(w_values, RadialField) else np.asarray(w_values, dtype=float)
    u0 = outcome.snapshots[0][1]
    if w.shape != u0.shape:
        raise ValueError("barrier values and run fields live on different grids")
    if tol is None:
        tol = 1e-3 * float(np.max(np.abs(u0)))
    wt = envelope.ctilde * w
    worst = -math.inf
    low = math.inf
    for t, u in outcome.snapshots:
        bound = math.exp(-envelope.lam * t) * float(envelope.growth(t)) * wt
        worst = max(worst, float(np.max(u - bound)))
        low = min(low, float(np.min(u)))
    return EnvelopeComparison(
        max_violation=worst, min_value=low, tol=tol, passed=(worst <= tol and low >= -tol)
    )


def blowup_criterion(forcing: Forcing, p: float, lambda1: float, epsilon: float) -> bool:
    """Does H(t)^{1/(p-1)} outgrow e^{(lambda1+eps) t}?  Closed-form limit.

    True means every nontrivial solution blows up in finite time.  Only
    exponential forcing can satisfy it: the limit exponent is
    sigma/(p-1) - lambda1 - eps; constant and power-law H are
    polynomial and always lose.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    if not (0.0 < epsilon < lambda1):
        raise ValueError(f"epsilon must lie in (0, lambda1) = (0, {lambda1:g}), got {epsilon}")
    if forcing.kind in ("one", "power"):
        return False
    if forcing.kind == "exp":
        return forcing.sigma / (p - 1.0) > lambda1 + epsilon
    raise ValueError(f"unknown forcing kind {forcing.kind!r}")


# ---------------------------------------------------------------------------
# initial-data profiles


def bump_profile(amplitude: float, width: float):
    """Gaussian bump of given height centered at the pole."""
    return lambda r: amplitude * np.exp(-((np.asarray(r, dtype=float) / width) ** 2))


def power_tail_profile(amplitude: float, alpha: float):
    """amplitude * min(1, r^{-alpha}); bounded, slowly decaying."""

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        mask = r > 1.0
        out[mask] = r[mask] ** -alpha
        return amplitude * out

    return profile


def barrier_profile(barrier, scale: float):
    """scale * barrier(r); works for any barrier exposing eval."""
    return lambda r: scale * barrier.eval(r)


def save_history_csv(outcome: RunOutcome, path):
    with open(path, "w") as fh:
        fh.write("t,sup_norm,dt\n")
        for t, s, dt in outcome.history:
            fh.write(f"{t:.17g},{s:.17g},{dt:.17g}\n")
