"""Semilinear evolution u_t = Delta u + h(t) u^p on exhaustion balls.

The basic step is IMEX Euler: diffusion implicitly through a tridiagonal
solve of (I - dt*Delta_h), the reaction h(t) u^p explicitly.  Delta_h is
self-adjoint in its volume weight w, so with s = sqrt(w) and
S = diag(s) the matrix S (I - dt*Delta_h) S^-1 is symmetric positive
definite with eigenvalues >= 1.  The step solves it by LDL^T without
pivoting (LAPACK ?pttrf/?pttrs): x = S^-1 ?pttrs(S b).  s is computed
once per run in the log domain, from the band alone, with s = 1 at the
pole.  Where s spans too many nats for S b to stay finite below the
blow-up threshold (on steeply curved models and large balls), or a
coupling of the band is one-sided, the run keeps the pivoting LU
(?gttrf/?gttrs) instead.  The matrix is an M-matrix and the explicit
term is nonnegative, so a fixed-step run (rel_tol = 0) is first order in
time and keeps nonnegative data nonnegative: on the LDL^T branch
exactly, since every term of that solve is nonnegative; on the LU
branch up to rounding.

Adaptive runs extrapolate that step over the harmonic sequence
1, 2, ..., 6 (Hairer & Wanner, Solving ODEs II, IV.9; Deuflhard 1985,
SIAM Rev. 27): row j of the table starts from T_j1, which takes j
substeps of length dt/j.  The Aitken-Neville rule
T_j,k+1 = T_jk + (T_jk - T_j-1,k) / (j/(j-k) - 1)
fills the table, and the accepted value is its top entry T66, of order
six; |T66 - T65| estimates the local error of the fifth-order T65 below
it.  The extrapolated combination T66 = sum_j c_j T_j1 with
c_j = (-1)^(6-j) j^6 / (j! (6-j)!) is not monotone: on a stiff diffusion
mode of dt*eigenvalue mu its amplification sum_j c_j (1 + mu/j)^-j is
negative for mu > 13.97, down to -3.8e-4 near mu = 22.7, and tends to 0
like -1/(120 mu), so adaptive runs stay nonnegative only up to the
tolerance.

The six rows run in lockstep.  Their matrices I - (dt/j)*Delta_h,
stacked as the blocks of one block-diagonal tridiagonal band in the
order j = 6, ..., 1 (s restarts at 1 at the pole of each block), are
factored once per step size; substep i solves the leading 6 - i
blocks, the rows still running, in one call and evaluates the reaction
once on them, at the per-row times t + i dt/j (substep 0 shares the
reaction at (u, t)).  So an attempt makes 6 solves and 6 reaction
evaluations, with the arithmetic of six separate rows: elimination
never crosses a block boundary.  The table is then filled column by
column over the rows.

The factors are reused while dt stays put; dt moves after a rejection,
after a threshold crossing, at the clamp of the last step to the
horizon, and when the controller rescales it.  As in RADAU5's strategy
(Hairer & Wanner, Solving ODEs II, IV.8), an accepted step whose
controller proposes growth by a factor between 1 and 1.2 keeps dt as it
is, so that its factors serve the next step too; every step still
passes the tolerance test.  With err the estimate over the tolerance,
a rejected step scales dt by 0.9 err^(-1/6); an accepted one by the
smaller of that and Gustafsson's predictive factor
0.9 (dt/dt_acc) (err_acc/err^2)^(1/6), where dt_acc and
err_acc = max(err, 0.01) belong to the previous accepted step (ACM TOMS
20, 1994; the controller of RADAU5).  The second factor reads the trend
of err: where it grows from step to step, as before blow-up, dt shrinks
ahead of it instead of every accepted step being followed by a
rejected attempt.  A fixed-step run factors once, and once more if its
last step is clamped.

Near blow-up the explicit reaction drives the estimator up, dt
collapses, and that collapse doubles as the detector: a blow-up verdict
requires both the sup norm exceeding the threshold and the accepted dt
falling below dt_min.  A trial step that overflows is rejected (or, at
fixed step size, ends the run with a verdict); it never raises.
Numerics cannot certify global existence, so the complementary verdict
is only "global up to the horizon", and only for a run whose sup norm
never reached the threshold: a crossing that the horizon cuts off
before dt collapses ends "undecided".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forcing import Forcing
from .geometry import ModelManifold
from .operators import (
    RadialField,
    RadialGrid,
    factor_banded,
    laplacian_tridiag,
    log_symmetrizer,
    solve_banded,
    sup_norm,
)

__all__ = [
    "VERDICT_GLOBAL",
    "VERDICT_BLOWUP",
    "VERDICT_UNDECIDED",
    "EvolutionControls",
    "RunOutcome",
    "ExhaustionReport",
    "EnvelopeComparison",
    "solve_on_ball",
    "nested_grids",
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
# rows of the extrapolation table of an adaptive step; row j takes j substeps
_ROWS = 6
# an accepted step whose controller proposes growth by a factor in
# [1, _DT_HOLD] keeps dt, and with it the factors of its IMEX matrices.
# The band stays for accuracy more than speed: at 1.0 (no band) the
# power-tail-gamma3 run takes 280 steps instead of 328 in about the same
# wall time, and its late-time decay rate misses lambda1 by 8.890e-6
# relative instead of 5.388e-6
_DT_HOLD = 1.2
# the IMEX band is solved in its symmetric form when S b stays finite for
# every |b| below the blow-up threshold: log s may span at most
# _LOG_FLOAT_MAX - log(threshold) - _SOLVE_HEADROOM, where the headroom
# covers the growth inside the solve, at most ||I - h Delta_h||_inf
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_SOLVE_HEADROOM = 64.0


@dataclass(frozen=True)
class EvolutionControls:
    """Step-control knobs.

    rel_tol bounds, relative to the sup norm, the estimated local error
    of T65, the fifth-order entry below the accepted sixth-order T66;
    rel_tol = 0 disables adaptivity and runs IMEX Euler at the fixed
    step dt_init.  An adaptive dt moves only when the controller asks
    for a factor below 1 or above 1.2 (the dead band of Hairer & Wanner,
    Solving ODEs II, IV.8, which lets the factors of the IMEX
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
    min_value: float  # min of u over u0 and every accepted step
    rejected_error: int  # attempts rejected by the error test
    rejected_nonfinite: int  # attempts rejected for non-finite values
    factor_sets: int  # factorizations of the IMEX band, one per new dt
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


def _imex_parts(M: ModelManifold, grid: RadialGrid, react, rows: int, threshold: float):
    """Return factor(dt) and column(u, t, factors), the lockstep IMEX Euler rows of one attempt.

    factor(dt) stacks the matrices I - (dt/j)*Delta_h for j = rows, ..., 1
    into one block-diagonal tridiagonal band (zero couplings between the
    blocks) and returns its factors with the column of substep lengths
    dt/j: LDL^T of the band symmetrized by s, which restarts at 1 at the
    pole of each block, when |b| < threshold keeps S b finite; LU
    otherwise.  column(u, t, factors) advances row j by j substeps of
    dt/j, all rows in lockstep: substep i solves the leading rows - i
    blocks, the rows still running, with one solve and one call
    react(v, times) on the block v of those rows and the column of their
    times t + i*dt/j; substep 0 shares the reaction at (u, t).  Row a of
    the result is row j = rows - a.
    """
    sub, diag, sup = laplacian_tridiag(M, grid)
    n = diag.size
    substeps = np.arange(rows, 0, -1)[:, None]
    log_s = log_symmetrizer(sub, sup)
    # nan or inf where a coupling is one-sided, which fails the test too
    span = log_s.max() - log_s.min()
    s = None
    if span <= _LOG_FLOAT_MAX - math.log(max(threshold, 1.0)) - _SOLVE_HEADROOM:
        s = np.tile(np.exp(log_s), rows)

    def factor(dt):
        h = dt / substeps
        band_sub, band_sup = (-h * sub).ravel(), (-h * sup).ravel()
        band_sub[::n] = 0.0
        band_sup[n - 1 :: n] = 0.0
        return factor_banded(band_sub, (1.0 - h * diag).ravel(), band_sup, s), h

    def column(u, t, factors):
        band_factors, h = factors
        out = np.empty((rows, n))
        v = u[None]
        for i in range(rows):
            m = rows - i
            rhs = v + h[:m] * react(v, t + i * h[: len(v)])
            v = solve_banded(band_factors, rhs.ravel()).reshape(m, n)
            out[m - 1] = v[-1]  # row i + 1 has taken its i + 1 substeps
            v = v[:-1]
        return out

    return factor, column


# divisors of the Aitken-Neville rule per new column k + 1, rows _ROWS, ..., k + 1
_NEVILLE = [np.array([[j / (j - k) - 1.0] for j in range(_ROWS, k, -1)]) for k in range(1, _ROWS)]


def _extrapolate(col):
    """Top two entries T_kk and T_k,k-1 of the table over col, the rows k, ..., 1 of column 1."""
    for div in _NEVILLE:
        below, col = col, col[:-1] + (col[:-1] - col[1:]) / div
    return col[0], below[0]


def _step_factor(est: float, tol: float) -> float:
    """dt multiplier for a local error est ~ dt^_ROWS against the target tol."""
    if est == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * (tol / est) ** (1.0 / _ROWS)))


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
        must be a pure, elementwise function of (u, t), with u an m x n
        block whose rows are the extrapolation rows still running (n
        the nodes but the boundary one) and t the m x 1 column of their
        times; it returns an m x n block.  An adaptive attempt calls it
        6 times: once on the 1 x n block of u at t, shared by the first
        substeps of the six rows, then once per substep i = 1, ..., 5
        on the rows j > i at their times t + i dt/j.  A fixed step
        calls it once.  It runs under ``np.errstate(over="ignore",
        invalid="ignore")``: overflow to inf, and the nan that inf - inf
        makes in the table, is a rejected trial, never a warning.
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
    low = float(np.min(vals))  # running minimum of u
    t = 0.0
    dt = controls.dt_init
    adaptive = controls.rel_tol > 0.0
    if reaction is None:
        reaction = lambda v, times: forcing.h(times) * np.maximum(v, 0.0) ** p
    factor, column = _imex_parts(M, grid, reaction, _ROWS if adaptive else 1, threshold)
    factors, factors_dt = None, None
    dt_acc = err_acc = None  # dt and error of the previous accepted step
    history = [(0.0, sup0, 0.0)]
    t_cross = None
    verdict = None
    note = ""
    rejected_error = rejected_nonfinite = factor_sets = 0

    def take_snapshots(t_old, u_old, t_new, u_new):
        nonlocal next_sample
        while next_sample < sample_times.size and sample_times[next_sample] <= t_new + 1e-14:
            ts = sample_times[next_sample]
            w = 0.0 if t_new == t_old else (ts - t_old) / (t_new - t_old)
            ui = u_old + w * (u_new - u_old)
            snapshots.append((float(ts), np.concatenate((ui, [0.0]))))
            next_sample += 1

    # overflow to inf, and nan from inf - inf, are outcomes the step controller handles
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            remaining = controls.t_end - t
            if remaining <= max(controls.dt_min, 1e-12 * controls.t_end):
                # horizon reached to within the step-size floor; a crossing
                # without the dt collapse is neither verdict
                if t_cross is None:
                    verdict = VERDICT_GLOBAL
                else:
                    verdict = VERDICT_UNDECIDED
                    note = (
                        f"sup norm crossed the blow-up threshold at t = {t_cross:.6g}; "
                        "the horizon came before the step size collapsed below dt_min"
                    )
                break
            dt = min(dt, controls.dt_max, remaining)
            if dt != factors_dt:
                factors, factors_dt = factor(dt), dt
                factor_sets += 1
            col = column(u, t, factors)
            if adaptive:
                u_new, below = _extrapolate(col)
                # est is nan or inf when any trial is, so it doubles as the finiteness test
                est = float(np.max(np.abs(u_new - below)))
                s_new = float(np.max(np.abs(u_new)))
                tol = controls.rel_tol * max(s_new, s, 1e-300)
                finite = math.isfinite(est)
                accept = finite and est <= tol
            else:
                u_new = col[0]
                s_new = float(np.max(np.abs(u_new)))
                finite = accept = math.isfinite(s_new)

            if accept:
                t_old, u_old = t, u
                t = t + dt
                u, s = u_new, s_new
                low = min(low, float(np.min(u)))
                history.append((t, s, dt))
                take_snapshots(t_old, u_old, t, u)
                if s >= threshold and t_cross is None:
                    t_cross = t
                if t_cross is not None:
                    # threshold crossed: force the step size down so the
                    # dt-collapse half of the blow-up verdict is reached
                    dt = 0.5 * dt
                elif adaptive:
                    grow = _step_factor(est, tol)
                    err = est / tol
                    if dt_acc is not None and err > 0.0:
                        # Gustafsson's predictive control (Hairer & Wanner II,
                        # IV.8): an error growing from step to step, as near
                        # blow-up, shrinks dt before a rejection does
                        grow = min(grow, max(0.2, 0.9 * (dt / dt_acc) * (err_acc / err / err) ** (1.0 / _ROWS)))
                    dt_acc, err_acc = dt, max(1e-2, err)
                    if not 1.0 <= grow <= _DT_HOLD:
                        dt = dt * grow
            elif not finite:
                rejected_nonfinite += 1
                dt = 0.25 * dt
            else:
                rejected_error += 1
                dt = dt * _step_factor(est, tol)
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
        min_value=low,
        rejected_error=rejected_error,
        rejected_nonfinite=rejected_nonfinite,
        factor_sets=factor_sets,
        note=note,
    )


def nested_grids(R_list, dr: float) -> list:
    """The grids of node spacing dr on the balls of radii R_list.

    The radii must increase strictly and be multiples of dr, so that
    every smaller ball's nodes are nodes of the larger ones.
    """
    radii = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("R_list must be strictly increasing")
    grids = []
    for R in radii:
        steps = R / dr
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"R = {R:g} is not a multiple of dr = {dr:g}; shared nodes need one")
        grids.append(RadialGrid(R, int(round(steps)) - 1))
    return grids


def exhaustion_solve(
    M: ModelManifold,
    R_list,
    u0_profile,
    forcing: Forcing,
    p: float,
    controls: EvolutionControls,
    dr: float,
    *,
    n_snapshots: int = 26,
) -> ExhaustionReport:
    """Solve on nested balls sharing one node spacing and compare them.

    ``u0_profile`` maps node radii to data values; each ball uses its
    restriction with the boundary node zeroed (Dirichlet truncation).
    Solutions on larger balls should dominate smaller ones at shared
    nodes and sampled times, up to 1e-3 of the largest data sup; the
    report carries the worst violation and the shrinking truncation gaps.
    """
    grids = nested_grids(R_list, dr)
    radii = [grid.R for grid in grids]
    outcomes = []
    for grid in grids:
        vals = np.asarray(u0_profile(grid.nodes), dtype=float)
        vals = vals.copy()
        vals[-1] = 0.0
        u0 = RadialField(grid, vals)
        outcomes.append(
            solve_on_ball(M, grid.R, u0, forcing, p, controls, n_snapshots=n_snapshots)
        )

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


def compare_with_envelope(outcome: RunOutcome, w_values, envelope) -> EnvelopeComparison:
    """Check u <= e^{-lam t} growth(t) * ctilde * w pointwise at snapshots, and u >= 0.

    ``w_values`` are the unscaled barrier values on the run's grid; the
    envelope's own amplitude scales them.  The lower side reads the
    run's minimum over every accepted step, so it does not depend on
    the snapshot count.  The tolerance budgets the spatial and temporal
    discretization error as 1e-3 * ||u0||_inf.
    """
    w = np.asarray(w_values, dtype=float)
    u0 = outcome.snapshots[0][1]
    if w.shape != u0.shape:
        raise ValueError("barrier values and run fields live on different grids")
    tol = 1e-3 * float(np.max(np.abs(u0)))
    wt = envelope.ctilde * w
    worst = -math.inf
    for t, u in outcome.snapshots:
        bound = math.exp(-envelope.lam * t) * float(envelope.growth(t)) * wt
        worst = max(worst, float(np.max(u - bound)))
    low = outcome.min_value
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
