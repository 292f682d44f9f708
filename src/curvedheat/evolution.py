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

Runs go in lockstep the same way.  solve_batch advances K runs that
share the manifold, the node spacing, the forcing, the controls and the
solver branch, each with its own data, p and ball: an attempt stacks
the six blocks of every run still going in (row, run) order, so substep
i solves the leading (6 - i) K blocks in one call and evaluates the
reaction once on them, u^p with each run's own scalar p.  A block spans
the largest ball; a run on a smaller ball B_rho has the couplings of
its boundary node N_rho + 1 cut and zero data beyond it, so its leading
block is B_rho's own band.  dt, controller, history and verdict stay
per run (an exhaustion ladder shares one error test).  The stack is
factored whole, in one call with each run's blocks at its own dt, when
it is new or has just lost a run and whenever any run's dt moves; a run
that ends leaves it.  Elimination never crosses a block boundary or a
cut, so each run's arithmetic is the one it does alone, bit for bit,
while its values are finite; inf * 0 at a block boundary is nan, so an
attempt that comes out non-finite in the stack is made again by its run
alone.  solve_on_ball is the batch of one.

With err the estimate over the tolerance, a rejected step proposes dt
scaled by 0.9 err^(-1/6); an accepted one the smaller of that and
Gustafsson's predictive factor 0.9 (dt/dt_acc) (err_acc/err^2)^(1/6),
where dt_acc and err_acc = max(err, 0.01) belong to the previous
accepted step (ACM TOMS 20, 1994; the controller of RADAU5).  The
second factor reads the trend of err: where it grows from step to
step, as before blow-up, dt shrinks ahead of it instead of every
accepted step being followed by a rejected attempt.  The new dt is the
largest level dt_max 2^(-j/8), j >= 0 an integer, at or below the
proposal.  A level is computed from j alone, so equal levels are equal
floats, whose factors serve every step taken at them, and a proposal
moved by rounding keeps its level.  dt also moves at a threshold
crossing (halved) and at the clamp of the last step to the horizon; a
fixed-step run factors once, once more if its last step is clamped,
and again after each sample step (below).

A run given an envelope, the bound e^{-lam t} growth(t) ctilde w of
data ctilde w under a barrier w, checks its upper side as it goes: the
largest u_i - e^{-lam t} growth(t) ctilde w_i over the run's nodes, on u0
and on every accepted state, with the running maximum kept; no state is
stored for it.

Sampling is opt-in (controls.snapshots), and only an exhaustion ladder
asks for it, for its nesting check.  A sample time t_s strictly inside
an accepted step [t, t + dt] takes the value of a partial step of length
t_s - t from (t, u) by the run's own method (the six-row attempt, its
estimate unread, or one IMEX Euler step), so no sample needs dt held
small.  The run goes on from its accepted state: sampling never moves
the accepted steps.  A partial step is factored at its own length and
counted in sample_steps, not in factor_sets.  In a stack, round i stacks
the i-th partial step of every run that has one into one factorization
and one column, retaking a non-finite one alone, so a batch stays bit
for bit its runs alone.  The rounds drop the stack's factors, which the
next attempt factors again, so no more than one factor set is held at a
time.

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
from functools import lru_cache

import numpy as np

from .forcing import Forcing
from .geometry import ModelManifold
from .operators import (
    RadialField,
    RadialGrid,
    factor_banded,
    laplacian_tridiag,
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
    "solve_batch",
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
# the share of t_end within which a run reads its time as the horizon or a
# sample time as reached, and two blow-up times as one
_TIME_RESOLUTION = 1e-12
# rows of the extrapolation table of an adaptive step; row j takes j substeps
_ROWS = 6
# an adaptive dt is a level dt_max 2^(-j/_LEVELS), j >= 0 an integer
_LEVELS = 8
_LEVEL_FACTORS = tuple(2.0 ** (-i / _LEVELS) for i in range(_LEVELS))
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
    step dt_init.  An adaptive run attempts dt_init first, then the largest
    level dt_max 2^(-j/8), j >= 0, at or below the controller's proposal.
    A run given ``snapshots`` >= 2 samples its field at that many
    equispaced times of [0, t_end], so runs with different step sequences
    stay comparable; a sample time inside an accepted step is reached by
    a partial step of the run's own method from the step's start, so no
    sample needs dt_max small.  None, the default, takes no samples: an
    exhaustion ladder needs them for its nesting check, and no other
    check reads them.
    """

    t_end: float
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 2.0
    rel_tol: float = 1e-5
    snapshots: int | None = None
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
        # fewer than 2 keep t = 0 alone, which an exhaustion ladder cannot compare
        if self.snapshots is not None and self.snapshots < 2:
            raise ValueError(f"snapshots must be >= 2, got {self.snapshots}")
        if self.blowup_threshold is not None and not math.isfinite(self.blowup_threshold):
            raise ValueError("blowup_threshold must be finite when given")


@dataclass
class RunOutcome:
    verdict: str
    t_star: float | None
    history: np.ndarray  # rows (t, sup_norm, dt)
    snapshots: list  # (t, full node values) at the sample times; empty without controls.snapshots
    final: RadialField
    threshold: float
    min_value: float  # min of u over u0 and every accepted step
    envelope_excess: float | None  # max of u - envelope over u0 and every accepted step; None without an envelope
    rejected_error: int  # attempts rejected by the error test
    rejected_nonfinite: int  # attempts rejected for non-finite values
    factor_sets: int  # the run's new step sizes, each factored with the stack it runs in; sample steps not counted
    solves: int  # banded solves: 6 per adaptive attempt or sample step, 1 per fixed or sample step
    sample_steps: int  # partial steps to the sample times strictly inside accepted steps, each factored in its round
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


def _imex_parts(band, rows: int, s):
    """Return factor(dts, ids) and column(U, ts, dts, factors, react), the lockstep IMEX rows of several runs.

    Row k of each of band = (sub, diag, sup), of shape (K, n), is Delta_h
    on the n unknowns of run k.  factor(dts, ids) stacks the matrices
    I - (dt/j)*Delta_h for j = rows, ..., 1 of the runs ids at their step
    sizes dts, in (row, run) order, into one block-diagonal tridiagonal
    band (zero couplings between the blocks) and returns its factors:
    LDL^T of the band symmetrized by the rows s[ids], or LU if s is None.
    column(U, ts, dts, factors, react) advances row j of run k by j
    substeps of dts[k]/j from U[k] at time ts[k], all rows of all runs
    in lockstep: substep i solves the leading (rows - i) K blocks, the
    rows still running, with one solve and one call react(v, times) on
    the block v of those rows and the block of their times
    ts[k] + i dts[k]/j, of shapes (rows - i, K, n) and (rows - i, K, 1);
    substep 0 shares the reaction at (U, ts).  Entry [a, k] of the
    result is row j = rows - a of run k.
    """
    sub, diag, sup = band
    n = diag.shape[1]
    substeps = np.arange(rows, 0, -1)[:, None]

    def lengths(dts):
        return (dts / substeps)[:, :, None]

    @lru_cache(maxsize=2)  # built per stack, not per factorization; 2: the stack and a run retaken alone or a sample round
    def stacked(ids):
        ids = list(ids)
        return sub[ids], diag[ids], sup[ids], None if s is None else np.tile(s[ids], (rows, 1)).ravel()

    def factor(dts, ids):
        sub_k, diag_k, sup_k, s_band = stacked(tuple(ids))
        h = lengths(dts)
        band_sub, band_sup = (-h * sub_k).ravel(), (-h * sup_k).ravel()
        band_sub[::n] = 0.0
        band_sup[n - 1 :: n] = 0.0
        return factor_banded(band_sub, (1.0 - h * diag_k).ravel(), band_sup, s_band)

    def column(U, ts, dts, factors, react):
        k = ts.size
        h = lengths(dts)
        out = np.empty((rows, k, n))
        v = U[None]
        t = ts[:, None]
        for i in range(rows):
            m = rows - i
            rhs = h[:m] * react(v, t + i * h[: len(v)])
            rhs += v
            v = solve_banded(factors, rhs.ravel()).reshape(m, k, n)
            out[m - 1] = v[-1]  # row i + 1 has taken its i + 1 substeps
            v = v[:-1]
        return out

    return factor, column


# divisors of the Aitken-Neville rule per new column k + 1, rows _ROWS, ..., k + 1
_NEVILLE = [np.array([j / (j - k) - 1.0 for j in range(_ROWS, k, -1)])[:, None, None] for k in range(1, _ROWS)]


def _extrapolate(col):
    """Top two entries T_kk and T_k,k-1 of the tables over col, the rows k, ..., 1 of column 1 of each run."""
    for div in _NEVILLE:
        below, col = col, col[:-1] - col[1:]
        col /= div
        col += below[:-1]
    return col[0], below[0]


def _level_at(j: int, dt_max: float) -> float:
    """Level j, ldexp of dt_max times a factor: level j + _LEVELS is exactly half of level j."""
    return math.ldexp(dt_max * _LEVEL_FACTORS[j % _LEVELS], -(j // _LEVELS))


def _level(x: float, dt_max: float) -> float:
    """The largest level at or below x > 0, which is dt_max when x >= dt_max."""
    # from one level above log2's estimate, which rounding may put one level off
    j = max(0, math.ceil(-_LEVELS * math.log2(x / dt_max)) - 1)
    while _level_at(j, dt_max) > x:
        j += 1
    return _level_at(j, dt_max)


def _step_factor(est: float, tol: float) -> float:
    """dt multiplier for a local error est ~ dt^_ROWS against the target tol."""
    return 5.0 if est == 0.0 else min(5.0, max(0.2, 0.9 * (tol / est) ** (1.0 / _ROWS)))


class _Run:
    """One run's state in the lockstep engine, and its step controller."""

    def __init__(self, u0: RadialField, p: float, controls: EvolutionControls, n: int, envelope=None):
        vals = u0.values
        self.grid = u0.grid
        self.p = p
        self.controls = controls
        self.s = sup_norm(u0)  # sup norm of u
        if controls.blowup_threshold is not None:
            self.threshold = controls.blowup_threshold
        else:
            self.threshold = 1e8 * self.s if self.s > 0.0 else math.inf
        self.u = np.concatenate((vals[:-1], np.zeros(n + 1 - vals.size)))  # zero beyond the run's own unknowns
        self.low = float(np.min(vals))  # running minimum of u
        self.t = 0.0
        self.dt = controls.dt_init
        self.factors_dt = None
        self.dt_acc = self.err_acc = None  # dt and error of the previous accepted step
        self.history = [(0.0, self.s, 0.0)]
        samples = controls.snapshots or 0
        self.sample_times = np.linspace(0.0, controls.t_end, samples)
        self.snapshots = [(0.0, vals.copy())] + [None] * (samples - 1) if samples else []
        self.next_sample = 1 if samples else 0
        self.bound = self.excess = None
        if envelope is not None:
            w, env = envelope
            self.bound = env, env.ctilde * np.asarray(w(self.grid.nodes), dtype=float)
            self.field = np.zeros(vals.size)  # the run's nodes and its zero boundary node
            self.excess = -math.inf
            self.check_envelope(0.0, vals[:-1])
        self.t_cross = None
        self.verdict = None
        self.note = ""
        self.rejected_error = self.rejected_nonfinite = self.factor_sets = self.solves = self.sample_steps = 0

    def reach_horizon(self) -> bool:
        """End the run if it has reached the horizon; otherwise clamp dt to it."""
        controls = self.controls
        remaining = controls.t_end - self.t
        if remaining <= max(controls.dt_min, _TIME_RESOLUTION * controls.t_end):
            # horizon reached to within the step-size floor; a crossing
            # without the dt collapse is neither verdict
            if self.t_cross is None:
                self.verdict = VERDICT_GLOBAL
            else:
                self.verdict = VERDICT_UNDECIDED
                self.note = (
                    f"sup norm crossed the blow-up threshold at t = {self.t_cross:.6g}; "
                    "the horizon came before the step size collapsed below dt_min"
                )
            return True
        self.dt = min(self.dt, controls.dt_max, remaining)
        return False

    def advance(self, u_new, est: float, tol: float, s_new: float, low: float, rows: int) -> bool:
        """Accept or reject the attempt of step dt from (t, u); return whether it was accepted.

        u_new is the attempt's value, low its minimum and s_new its sup
        norm; est estimates its local error and tol bounds it (adaptive only).
        """
        controls = self.controls
        adaptive = rows > 1
        self.solves += rows
        dt = self.dt
        if adaptive:
            # est is nan or inf when any trial is, so it doubles as the finiteness test
            finite = math.isfinite(est)
            accept = finite and est <= tol
        else:
            finite = accept = math.isfinite(s_new)

        if accept:
            self.t = self.t + dt
            self.u, self.s = u_new, s_new
            self.low = min(self.low, low)
            if self.bound is not None:
                self.check_envelope(self.t, u_new)
            self.history.append((self.t, self.s, dt))
            if self.s >= self.threshold and self.t_cross is None:
                self.t_cross = self.t
            if self.t_cross is not None:
                # threshold crossed: halve dt toward the dt-collapse half of the blow-up verdict
                dt = 0.5 * dt
            elif adaptive:
                grow = _step_factor(est, tol)
                err = est / tol
                if self.dt_acc is not None and err > 0.0:
                    # Gustafsson's predictive factor: an error growing from step to step shrinks dt
                    grow = min(grow, max(0.2, 0.9 * (dt / self.dt_acc) * (self.err_acc / err / err) ** (1.0 / _ROWS)))
                self.dt_acc, self.err_acc = dt, max(1e-2, err)
                dt = _level(dt * grow, controls.dt_max)
        elif not finite:
            self.rejected_nonfinite += 1
            dt = 0.25 * dt
        else:
            self.rejected_error += 1
            dt = _level(dt * _step_factor(est, tol), controls.dt_max)
        self.dt = dt

        if dt < controls.dt_min:
            if self.t_cross is not None:
                self.verdict = VERDICT_BLOWUP
            else:
                self.verdict = VERDICT_UNDECIDED
                self.note = (
                    f"step size collapsed below dt_min = {controls.dt_min:g} at t = {self.t:.6g} "
                    "without the sup norm reaching the blow-up threshold"
                )
        elif not finite and not adaptive:
            self.verdict = VERDICT_BLOWUP if self.t_cross is not None else VERDICT_UNDECIDED
            if self.verdict == VERDICT_UNDECIDED:
                self.note = f"non-finite values at t = {self.t:.6g} in fixed-step mode"
        return accept

    def check_envelope(self, t: float, u) -> None:
        """Raise the running maximum of u - e^{-lam t} growth(t) ctilde w by the state (t, u), u from the pole on."""
        env, wt = self.bound
        self.field[:-1] = u[: self.grid.N + 1]
        self.excess = max(self.excess, float(np.max(self.field - math.exp(-env.lam * t) * float(env.growth(t)) * wt)))

    def due_samples(self) -> list:
        """Indices of the sample times strictly inside the step just accepted; one at its end is sampled here."""
        res = _TIME_RESOLUTION * self.controls.t_end
        first = self.next_sample
        while self.next_sample < self.sample_times.size and self.sample_times[self.next_sample] <= self.t + res:
            self.next_sample += 1
        due = list(range(first, self.next_sample))
        if due and self.sample_times[due[-1]] >= self.t - res:
            self.sample(due.pop(), self.u)
        return due

    def sample(self, j: int, u) -> None:
        self.snapshots[j] = (float(self.sample_times[j]), np.concatenate((u[: self.grid.N + 1], [0.0])))

    def outcome(self) -> RunOutcome:
        return RunOutcome(
            verdict=self.verdict,
            t_star=self.t_cross if self.verdict == VERDICT_BLOWUP else None,
            history=np.asarray(self.history),
            snapshots=self.snapshots[: self.next_sample],
            final=RadialField(self.grid, np.concatenate((self.u[: self.grid.N + 1], [0.0]))),
            threshold=self.threshold,
            min_value=self.low,
            envelope_excess=self.excess,
            rejected_error=self.rejected_error,
            rejected_nonfinite=self.rejected_nonfinite,
            factor_sets=self.factor_sets,
            solves=self.solves,
            sample_steps=self.sample_steps,
            note=self.note,
        )


def _lockstep(band, runs, forcing: Forcing, controls: EvolutionControls, reaction, s, ladder: bool):
    """Advance ``runs`` to their verdicts in lockstep, every attempt one stacked column.

    Run k goes on row k of the band rows and of the symmetrizer rows s
    (None: the LU branch); reaction, if given, replaces the power
    reaction of the one run.  A run's dt, controller, history and
    verdict are its own (on a ladder every error test reads the runs'
    largest estimate and tolerance), and a run that ends leaves the
    stack.  The whole stack is factored in one call when it is new or
    has just lost a run, and whenever any run's dt differs from the dt
    its blocks were last factored at; a run's factor_sets counts its own
    new step sizes.  Where the controls ask for samples, the runs sample
    after each attempt the times their accepted steps reached, in rounds
    of stacked partial steps.
    """
    adaptive = controls.rel_tol > 0.0
    rows = _ROWS if adaptive else 1
    factor, column = _imex_parts(band, rows, s)

    def react(v, times, going):
        if reaction is not None:
            return reaction(v[:, 0], times[:, 0])[:, None]
        pos = np.maximum(v, 0.0)
        # one scalar exponent per run keeps numpy's special cases, such
        # as squaring at p = 2, that an array of exponents loses
        for k, run in enumerate(going):
            pos[:, k] **= run.p
        return np.multiply(forcing.h(times), pos, out=pos)

    def attempt(ids, U, t0, dts, factors):
        """(value, local error estimate, sup norm) of the step of each run of ids from (t0, U); the estimate is nan at a fixed step."""
        going = [runs[k] for k in ids]
        col = column(U, t0, dts, factors, lambda v, times: react(v, times, going))
        if not adaptive:
            u_new = col[0]
            return u_new, np.full(len(ids), np.nan), np.max(np.abs(u_new), axis=1)
        u_new, below = _extrapolate(col)
        return u_new, np.max(np.abs(u_new - below), axis=1), np.max(np.abs(u_new), axis=1)

    def step(ids, U, t0, dts, factors):
        """attempt, with each run whose step is not finite retaken alone."""
        u_new, est, s_new = attempt(ids, U, t0, dts, factors)
        if len(ids) > 1:
            # the stacked solve carries a non-finite value into the other
            # runs' blocks (inf * 0 across a block boundary)
            for k in np.flatnonzero(~np.isfinite(est if adaptive else s_new)):
                one = slice(k, k + 1)
                u_new[k], est[k], s_new[k] = (
                    x[0] for x in attempt(ids[one], U[one], t0[one], dts[one], factor(dts[one], ids[one]))
                )
        return u_new, est, s_new

    def take_samples(ids, U, t0):
        """Sample the runs ids at the times their accepted steps from (t0, U) reached.

        A time strictly inside a step takes a partial step to it from
        (t0, U); round i stacks the i-th such time of every run.
        """
        nonlocal factors
        going = [runs[k] for k in ids]
        due = [run.due_samples() for run in going]
        if any(due):
            factors = None  # one factor set at a time; the next attempt factors the stack again
        for i in range(max(map(len, due))):
            sel = [k for k, js in enumerate(due) if len(js) > i]
            dts = np.array([going[k].sample_times[due[k][i]] for k in sel]) - t0[sel]
            round_ids = [ids[k] for k in sel]
            u_s, _, _ = step(round_ids, U[sel], t0[sel], dts, factor(dts, round_ids))
            for k, u in zip(sel, u_s):
                going[k].sample(due[k][i], u)
                going[k].sample_steps += 1
                going[k].solves += rows

    live = list(range(len(runs)))  # the ids of the runs still going
    U = np.stack([run.u for run in runs])
    factors = None
    # overflow to inf, and nan from inf - inf, are outcomes the step controller handles
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            ending = [runs[k].verdict is not None or runs[k].reach_horizon() for k in live]
            if any(ending):
                live = [k for k, end in zip(live, ending) if not end]
                if not live:
                    break
                U = U[np.logical_not(ending)]
                factors = None
            going = [runs[k] for k in live]
            t0 = np.array([run.t for run in going])
            dts = np.array([run.dt for run in going])
            stale = [run for run in going if run.dt != run.factors_dt]
            for run in stale:
                run.factors_dt = run.dt
                run.factor_sets += 1
            if factors is None or stale:
                factors = factor(dts, live)

            u_new, est, s_new = step(live, U, t0, dts, factors)
            low = np.min(u_new, axis=1)
            tol = controls.rel_tol * np.maximum(np.maximum(s_new, [run.s for run in going]), 1e-300)
            if ladder:
                # the ladder is one state: one error test, and with it one dt, for all its balls
                est[:], tol[:] = np.max(est), np.max(tol)
            accepted = [
                run.advance(u_new[k], float(est[k]), float(tol[k]), float(s_new[k]), float(low[k]), rows)
                for k, run in enumerate(going)
            ]
            if controls.snapshots:
                take_samples(live, U, t0)
            U = np.where(np.array(accepted)[:, None], u_new, U)
        else:
            for k in live:
                if runs[k].verdict is None:
                    runs[k].verdict = VERDICT_UNDECIDED
                    runs[k].note = f"step budget ({_MAX_STEPS}) exhausted at t = {runs[k].t:.6g}"


def _check_run(grid: RadialGrid, u0: RadialField, p: float):
    if abs(u0.grid.dr - grid.dr) > 1e-9 * grid.dr:
        raise ValueError(f"the runs of a batch must share one node spacing, got dr = {u0.grid.dr} and {grid.dr}")
    if not p > 1:
        raise ValueError(f"reaction exponent must satisfy p > 1, got {p}")
    vals = u0.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("u0 has non-finite values")
    if np.any(vals < 0.0):
        raise ValueError("u0 must be nonnegative")
    if vals[-1] != 0.0:
        raise ValueError("u0 must vanish at the Dirichlet boundary node")


def _symmetrizer(log_s, cut: int, threshold: float):
    """s of a run on the first ``cut`` unknowns of log_s's band (1 beyond), or None (the LU branch) where S b may overflow below the threshold."""
    own = log_s[:cut]
    # nan or inf where a coupling is one-sided, which fails the test too
    if own.max() - own.min() <= _LOG_FLOAT_MAX - math.log(max(threshold, 1.0)) - _SOLVE_HEADROOM:
        return np.concatenate((np.exp(own), np.ones(log_s.size - cut)))
    return None


def _solve(M, u0s, forcing, ps, controls, reaction, envelopes, ladder=False) -> list:
    """The outcomes of the runs (u0, p, envelope), in lockstep per solver branch on the largest ball's band, each cut at its ball."""
    if not u0s or len(u0s) != len(ps):
        raise ValueError(f"need one exponent per run and at least one run, got {len(u0s)} runs and {len(ps)} exponents")
    if envelopes is None:
        envelopes = [None] * len(u0s)
    elif len(envelopes) != len(u0s):
        raise ValueError(f"need one envelope (or None) per run, got {len(envelopes)} for {len(u0s)} runs")
    grid = max((u0.grid for u0 in u0s), key=lambda g: g.N)
    for u0, p in zip(u0s, ps):
        _check_run(grid, u0, p)
    runs = [_Run(u0, p, controls, grid.N + 1, envelope) for u0, p, envelope in zip(u0s, ps, envelopes)]
    band = laplacian_tridiag(M, grid)
    log_s = band.log_s()
    sub, _, sup = band = [np.tile(x, (len(runs), 1)) for x in band]
    for k, run in enumerate(runs):
        m = run.grid.N + 1  # the run's boundary node
        sub[k, m : m + 1] = sup[k, m - 1] = 0.0
    branches = [_symmetrizer(log_s, run.grid.N + 1, run.threshold) for run in runs]
    if ladder and any(s is None for s in branches):
        branches = [None] * len(runs)  # one stack, so one step sequence
    for lu in (False, True):
        group = [k for k, s in enumerate(branches) if (s is None) == lu]
        if group:
            s = None if lu else np.stack([branches[k] for k in group])
            _lockstep([x[group] for x in band], [runs[k] for k in group], forcing, controls, reaction, s, ladder)
    return [run.outcome() for run in runs]


def solve_batch(
    M: ModelManifold,
    u0s,
    forcing: Forcing,
    ps,
    controls: EvolutionControls,
    envelopes=None,
) -> list:
    """Evolve each u0 of ``u0s`` with its reaction exponent in ``ps``, all in lockstep.

    The runs share the manifold, the node spacing, the forcing and the
    controls; each runs on its own ball (its u0's grid) as a cut of the
    largest ball's band, and where the spacings agree bit for bit its
    outcome is the one ``solve_on_ball`` returns for it alone.  Every
    attempt stacks the IMEX blocks of all runs still going, so substep i
    is one banded solve and one reaction evaluation for all of them,
    while dt, controller, history, counters and verdict stay per run;
    the whole stack is factored afresh whenever any run's dt moves.
    Runs on different solver branches (LDL^T or LU, by their blow-up
    thresholds) go in separate stacks.  ``envelopes``, if given, holds
    each run's envelope as ``solve_on_ball`` takes it, or None.
    """
    return _solve(M, list(u0s), forcing, list(ps), controls, None, envelopes)


def solve_on_ball(
    M: ModelManifold,
    R: float,
    u0: RadialField,
    forcing: Forcing,
    p: float,
    controls: EvolutionControls,
    *,
    reaction=None,
    envelope=None,
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
        Step-size, snapshot and verdict knobs; rel_tol = 0 runs fixed steps.
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
    envelope : (w, TimeEnvelope), optional
        A barrier w, a function of r, and the envelope of data ctilde w
        (``barriers.time_envelope``): the run checks u against
        e^{-lam t} growth(t) ctilde w on u0 and every accepted state, for
        ``compare_with_envelope``.

    Returns
    -------
    RunOutcome
        Verdict, detected blow-up time, per-step (t, sup, dt) history,
        snapshots, and the final field.  It is ``solve_batch``'s batch
        of one.
    """
    if abs(u0.grid.R - R) > 1e-9 * max(1.0, R):
        raise ValueError(f"u0 lives on a grid with R = {u0.grid.R}, not {R}")
    return _solve(M, [u0], forcing, [p], controls, reaction, [envelope])[0]


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


def _nesting_tol(data_sup: float) -> float:
    """How far a larger ball's solution may fall below a smaller one's: 1e-3 of the largest data's sup norm.

    Zero data gives zero solutions on every ball, so the bound has no absolute part.
    """
    return 1e-3 * data_sup


def _blowup_order_holds(stars, t_end: float) -> bool:
    """Is each blow-up time of ``stars`` at most the one before it, up to _TIME_RESOLUTION t_end?"""
    return all(b <= a + _TIME_RESOLUTION * t_end for a, b in zip(stars, stars[1:]))


def exhaustion_solve(
    M: ModelManifold,
    u0: RadialField,
    R_list,
    forcing: Forcing,
    p: float,
    controls: EvolutionControls,
    *,
    envelope=None,
) -> ExhaustionReport:
    """Solve on nested balls sharing one node spacing and compare them.

    u0 is the data on the largest ball, the last of R_list; each smaller
    ball takes its restriction with the boundary node zeroed (Dirichlet
    truncation).  The balls run in one stack (see solve_batch) under one
    error test, the ladder's largest estimate against its largest
    tolerance, so they share one step sequence until a ball crosses its
    blow-up threshold.  Solutions on larger balls should dominate
    smaller ones at shared nodes and sampled times, up to 1e-3 of the
    largest data sup; the report carries the worst violation and the
    shrinking truncation gaps.  The balls are compared at the
    ``controls.snapshots`` sample times, which must be set; an envelope,
    as ``solve_on_ball`` takes it, is checked on every ball.
    """
    if controls.snapshots is None:
        raise ValueError("an exhaustion ladder compares its balls at sample times: set controls.snapshots")
    grids = nested_grids(R_list, u0.grid.dr)
    if grids[-1] != u0.grid:
        raise ValueError(f"u0 lives on the ball of radius {u0.grid.R:g}, not on the largest of R_list")
    u0s = [RadialField(grid, np.append(u0.values[: grid.N + 1], 0.0)) for grid in grids]
    outcomes = _solve(M, u0s, forcing, [p] * len(grids), controls, None, [envelope] * len(grids), ladder=True)
    radii = [grid.R for grid in grids]

    tol = _nesting_tol(sup_norm(u0s[-1]))

    gaps = []
    worst = 0.0
    for small, big in zip(outcomes, outcomes[1:]):
        gap = 0.0
        for (_, us), (_, ub) in zip(small.snapshots, big.snapshots):
            diff = us - ub[: us.size]
            worst = max(worst, float(np.max(diff)))
            gap = max(gap, float(np.max(np.abs(diff))))
        gaps.append(gap)

    blowup_times = [o.t_star for o in outcomes]
    stars = [ts for ts in blowup_times if ts is not None]
    nonincreasing = None
    if len(stars) == len(outcomes) and len(stars) > 1:
        nonincreasing = _blowup_order_holds(stars, controls.t_end)
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


def compare_with_envelope(outcome: RunOutcome) -> EnvelopeComparison:
    """Check u <= e^{-lam t} growth(t) * ctilde * w, and u >= 0, for a run given an envelope.

    The upper side reads the run's largest u_i - e^{-lam t} growth(t)
    ctilde w_i over its nodes, on u0 and on every accepted state, and
    the lower side its minimum over the same states; so a run that
    leaves the envelope at any accepted step fails.  The tolerance
    budgets the spatial and temporal discretization error as
    1e-3 * ||u0||_inf.
    """
    if outcome.envelope_excess is None:
        raise ValueError("the run was given no envelope to compare with")
    tol = 1e-3 * float(outcome.history[0, 1])
    worst, low = outcome.envelope_excess, outcome.min_value
    return EnvelopeComparison(
        max_violation=worst, min_value=low, tol=tol, passed=(worst <= tol and low >= -tol)
    )


def blowup_criterion(forcing: Forcing, p: float, lambda1: float, epsilon: float) -> bool:
    """Does H(t)^{1/(p-1)}, H the integral of h over [0, t], outgrow e^{(lambda1+eps) t}?  Closed-form limit.

    True means every nontrivial solution blows up in finite time.  Only
    exponential forcing can satisfy it: the limit exponent is
    sigma/(p-1) - lambda1 - eps, and constant and power-law H, with
    sigma = 0, are polynomial and always lose.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    if not (0.0 < epsilon < lambda1):
        raise ValueError(f"epsilon must lie in (0, lambda1) = (0, {lambda1:g}), got {epsilon}")
    return forcing.sigma / (p - 1.0) > lambda1 + epsilon


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
