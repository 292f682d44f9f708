"""Semilinear evolution u_t = Delta u + h(t) u^p on exhaustion balls.

The basic step is IMEX Euler: diffusion implicitly through a tridiagonal
solve of (I - dt*Delta_h), the reaction h(t) u^p explicitly.  Its matrix
is inverse-positive and the explicit term is nonnegative, so a fixed-step
run (rel_tol = 0) keeps nonnegative data nonnegative (up to rounding)
and is first order in time.

Adaptive runs extrapolate that step over the harmonic sequence 1, 2, 3
(Hairer & Wanner, Solving ODEs II, IV.9; Constantinescu & Sandu 2010):
T_j1 takes j substeps of length dt/j, the three first substeps share one
reaction evaluation, and the accepted value is the top entry of the
extrapolation table, T33 = T32 + d with T32 = 3 T31 - 2 T21,
T22 = 2 T21 - T11 and d = (T32 - T22) / 2; it is third order.  |d|
estimates the local error of T32, the second-order entry below it, and
dt follows the cube root of tolerance over that estimate.  The
extrapolated combination is not monotone: on a stiff diffusion mode of
dt*eigenvalue mu the amplification of T33,
4.5 (1 + mu/3)^-3 - 4 (1 + mu/2)^-2 + 0.5 (1 + mu)^-1, is negative only
for mu in (4.51, 18.8), down to -0.0136, so adaptive runs stay
nonnegative only up to the tolerance.

Each adaptive attempt solves with three matrices, I - (dt/j)*Delta_h for
j = 1, 2, 3.  Their LU factors are computed once per step size and
reused while dt stays put; dt moves after a rejection, after a
threshold crossing, at the clamp of the last step to the horizon, and
when the controller rescales it.  As in RADAU5's strategy (Hairer &
Wanner, Solving ODEs II, IV.8), an accepted step whose controller
proposes growth by a factor between 1 and 1.2 keeps dt as it is, so
that its factors serve the next step too; every step still passes the
tolerance test.  A fixed-step run factors once, and once more if its
last step is clamped.

Near blow-up the explicit reaction drives the estimator up, dt
collapses, and that collapse doubles as the detector: a blow-up verdict
requires both the sup norm exceeding the threshold and the accepted dt
falling below dt_min.  A trial step that overflows is rejected (or, at
fixed step size, ends the run with a verdict); it never raises.
Numerics cannot certify global existence, so the complementary verdict
is only "global up to the horizon".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forcing import Forcing
from .geometry import ModelManifold
from .operators import RadialField, RadialGrid, factor_banded, laplacian_tridiag, solve_banded, sup_norm

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
# an accepted step whose controller proposes growth by a factor in
# [1, _DT_HOLD] keeps dt, and with it the LU factors of its IMEX matrices
_DT_HOLD = 1.2


@dataclass(frozen=True)
class EvolutionControls:
    """Step-control knobs.

    rel_tol bounds, relative to the sup norm, the estimated local error
    of T32, the second-order entry below the accepted third-order T33;
    rel_tol = 0 disables adaptivity and runs IMEX Euler at the fixed
    step dt_init.  An adaptive dt moves only when the controller asks
    for a factor below 1 or above 1.2 (the dead band of Hairer & Wanner,
    Solving ODEs II, IV.8, which lets the LU factors of the IMEX
    matrices serve consecutive steps).
    """

    t_end: float
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.25
    rel_tol: float = 1e-5
    blowup_threshold: float | None = None  # default: 1e8 * ||u0||_inf

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (self.dt_min < self.dt_init <= self.dt_max):
            raise ValueError(
                f"need dt_min < dt_init <= dt_max, got ({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not self.rel_tol >= 0:
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


def _imex_parts(M: ModelManifold, grid: RadialGrid, forcing: Forcing, p: float, reaction, substeps):
    """Return react(u, t), the reaction term, and imex(dt), the LU factors of I - (dt/j)*Delta_h per j in substeps.

    imex keeps the factors of the last dt it was given and factors again
    only when dt changes.
    """
    sub, diag, sup = laplacian_tridiag(M, grid)
    kept_dt, kept = None, None

    def react(u, t):
        if reaction is not None:
            return reaction(u, t)
        return float(forcing.h(t)) * np.maximum(u, 0.0) ** p

    def imex(dt):
        nonlocal kept_dt, kept
        if dt != kept_dt:
            kept = [factor_banded(-h * sub, 1.0 - h * diag, -h * sup) for h in (dt / j for j in substeps)]
            kept_dt = dt
        return kept

    return react, imex


def _step_factor(est: float, tol: float) -> float:
    """dt multiplier for a local error est ~ dt^3 against the target tol."""
    if est == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * (tol / est) ** (1.0 / 3.0)))


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
        Replaces h(t) u^p (test hook, e.g. the linear term lam*u).  It
        must be a pure function of (u, t): an adaptive attempt calls it
        four times, at t (shared by the three first substeps), t + dt/2,
        t + dt/3 and t + 2 dt/3; a fixed step calls it once.  It runs
        under ``np.errstate(over="ignore")``: overflow to inf is a
        rejected trial, never a warning.
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
    if not p > 1:
        raise ValueError(f"reaction exponent must satisfy p > 1, got {p}")
    vals = u0.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("u0 has non-finite values")
    if np.any(vals < 0.0):
        raise ValueError("u0 must be nonnegative")
    if vals[-1] != 0.0:
        raise ValueError("u0 must vanish at the Dirichlet boundary node")

    sup0 = sup_norm(u0)
    if controls.blowup_threshold is not None:
        threshold = controls.blowup_threshold
    else:
        threshold = 1e8 * sup0 if sup0 > 0.0 else math.inf

    sample_times = np.linspace(0.0, controls.t_end, n_snapshots)
    snapshots = [(0.0, vals.copy())]
    next_sample = 1

    u = vals[:-1].copy()
    s = sup0  # sup norm of u
    t = 0.0
    dt = controls.dt_init
    adaptive = controls.rel_tol > 0.0
    react, imex = _imex_parts(M, grid, forcing, p, reaction, (1, 2, 3) if adaptive else (1,))
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

    # overflow to inf is an outcome the step controller handles
    with np.errstate(over="ignore"):
        for _ in range(_MAX_STEPS):
            remaining = controls.t_end - t
            if remaining <= max(controls.dt_min, 1e-12 * controls.t_end):
                # horizon reached to within the step-size floor
                verdict = VERDICT_GLOBAL
                break
            dt = min(dt, controls.dt_max, remaining)
            if adaptive:
                # harmonic-sequence extrapolation of the IMEX Euler substep:
                # T_j1 takes j substeps of dt/j, and the first substeps share r
                lu1, lu2, lu3 = imex(dt)
                r = react(u, t)
                t11 = solve_banded(lu1, u + dt * r)
                h = 0.5 * dt
                v = solve_banded(lu2, u + h * r)
                t21 = solve_banded(lu2, v + h * react(v, t + h))
                h = dt / 3.0
                v = solve_banded(lu3, u + h * r)
                v = solve_banded(lu3, v + h * react(v, t + h))
                t31 = solve_banded(lu3, v + h * react(v, t + 2.0 * h))
                t32 = 3.0 * t31 - 2.0 * t21
                # T33 = T32 + d with d = (T32 - T22) / 2 and T22 = 2 T21 - T11;
                # est = |d| is nan or inf when any trial is, so it doubles as the finiteness test
                d = 0.5 * (t32 - 2.0 * t21 + t11)
                u_new = t32 + d
                est = float(np.max(np.abs(d)))
                s_new = float(np.max(np.abs(u_new)))
                scale = max(s_new, s, 1e-300)
                finite = math.isfinite(est)
                accept = finite and est <= controls.rel_tol * scale
            else:
                (lu1,) = imex(dt)
                u_new = solve_banded(lu1, u + dt * react(u, t))
                s_new = float(np.max(np.abs(u_new)))
                finite = accept = math.isfinite(s_new)

            if accept:
                t_old, u_old = t, u
                t = t + dt
                u, s = u_new, s_new
                history.append((t, s, dt))
                take_snapshots(t_old, u_old, t, u)
                if s >= threshold and t_cross is None:
                    t_cross = t
                if t_cross is not None:
                    # threshold crossed: force the step size down so the
                    # dt-collapse half of the blow-up verdict is reached
                    dt = 0.5 * dt
                elif adaptive:
                    grow = _step_factor(est, controls.rel_tol * scale)
                    if not 1.0 <= grow <= _DT_HOLD:
                        dt = dt * grow
            elif not finite:
                dt = 0.25 * dt
            else:
                dt = dt * _step_factor(est, controls.rel_tol * scale)
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
    w = np.asarray(w_values, dtype=float)
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
    if not width > 0:
        raise ValueError(f"bump width must be positive, got {width}")
    return lambda r: amplitude * np.exp(-((np.asarray(r, dtype=float) / width) ** 2))


def power_tail_profile(amplitude: float, alpha: float):
    """amplitude * min(1, r^{-alpha}); bounded, slowly decaying."""
    if not alpha > 0:
        raise ValueError(f"power-tail decay exponent must be positive, got {alpha}")

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
