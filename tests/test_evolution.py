import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import curvedheat.evolution
from curvedheat import (
    VERDICT_BLOWUP,
    VERDICT_GLOBAL,
    VERDICT_UNDECIDED,
    EvolutionControls,
    ExpBarrier,
    Forcing,
    RadialField,
    RadialGrid,
    barrier_profile,
    blowup_criterion,
    bump_profile,
    compare_with_envelope,
    dirichlet_lambda1,
    exhaustion_solve,
    make_euclidean,
    make_hyperbolic,
    power_tail_profile,
    save_history_csv,
    solve_batch,
    solve_on_ball,
    sup_norm,
    time_envelope,
)
from curvedheat.config import parse_config, preset_text
from curvedheat.evolution import (
    _blowup_order_holds,
    _extrapolate,
    _imex_parts,
    _level,
    _level_at,
    _nesting_tol,
    _symmetrizer,
)
from curvedheat.experiments import _initial_field, build_manifold
from curvedheat.geometry import ModelManifold, TabulatedWarping
from curvedheat.operators import laplacian_tridiag


def make_u0(grid, profile):
    vals = np.asarray(profile(grid.nodes), dtype=float)
    vals[-1] = 0.0
    return RadialField(grid, vals)


# --- forcing families -------------------------------------------------------


def test_forcing_closed_forms():
    # the damped integral D(m, t) of h = 1 and h = e^{sigma t}, sigma below, at and above m
    m = 0.7
    for forcing in (Forcing.one(), Forcing.exponential(0.3), Forcing.exponential(0.7), Forcing.exponential(1.9)):
        for ti in (0.5, 2.0):
            oracle, _ = quad(lambda s: float(forcing.h(s)) * math.exp(-m * s), 0, ti)
            assert float(forcing.damped_integral(m, ti)) == pytest.approx(oracle, rel=1e-12)
    assert float(Forcing.exponential(0.3).damped_integral(m, math.inf)) == pytest.approx(1.0 / 0.4, rel=1e-12)


@pytest.mark.parametrize("forcing", [Forcing.one(), Forcing.power_law(0.37), Forcing.exponential(0.71)])
def test_forcing_scalar_and_array_agree_bit_for_bit(forcing):
    # an adaptive step evaluates h at one time or at one time per row
    t = np.random.default_rng(3).uniform(0.0, 12.0, 2000)
    assert np.array_equal([forcing.h(s) for s in t], forcing.h(t))


def test_forcing_validation():
    with pytest.raises(ValueError):
        Forcing.power_law(-1.0)
    with pytest.raises(ValueError):
        Forcing.exponential(0.0)
    assert np.all(Forcing.power_law(-0.5).h(np.linspace(0, 10, 50)) > 0)


# --- basic solver contracts -------------------------------------------------


def test_zero_data_stays_zero(euclid3):
    g = RadialGrid(10.0, 200)
    u0 = RadialField(g, np.zeros(g.N + 2))
    out = solve_on_ball(euclid3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=2.0))
    assert out.verdict == VERDICT_GLOBAL
    assert sup_norm(out.final) == 0.0


def test_input_validation(euclid3):
    g = RadialGrid(10.0, 100)
    good = make_u0(g, bump_profile(1.0, 2.0))
    ctl = EvolutionControls(t_end=1.0)
    with pytest.raises(ValueError):
        solve_on_ball(euclid3, 10.0, RadialField(g, -good.values), Forcing.one(), 2.0, ctl)
    with pytest.raises(ValueError):
        bad = good.copy()
        bad.values[-1] = 0.5
        solve_on_ball(euclid3, 10.0, bad, Forcing.one(), 2.0, ctl)
    with pytest.raises(ValueError):
        solve_on_ball(euclid3, 10.0, good, Forcing.one(), 1.0, ctl)
    with pytest.raises(ValueError):
        EvolutionControls(t_end=1.0, dt_init=1.0, dt_max=0.5)


def test_nan_knobs_are_refused(euclid3):
    # a NaN horizon is never reached and an infinite one counts as reached
    # at t = 0; every guard is written so that NaN fails it
    for t_end in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            EvolutionControls(t_end=t_end)
    with pytest.raises(ValueError, match="rel_tol must be >= 0"):
        EvolutionControls(t_end=1.0, rel_tol=math.nan)
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, bump_profile(1.0, 2.0))
    with pytest.raises(ValueError, match="p > 1"):
        solve_on_ball(euclid3, 10.0, u0, Forcing.one(), math.nan, EvolutionControls(t_end=1.0))


def test_nonnegativity_preserved(hyp3):
    g = RadialGrid(10.0, 200)
    u0 = make_u0(g, bump_profile(1.0, 2.0))
    out = solve_on_ball(
        hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=5.0, snapshots=21)
    )
    assert out.verdict == VERDICT_GLOBAL
    for _, snap in out.snapshots:
        assert snap.min() >= -1e-12
    assert out.final.values.min() >= -1e-12


def bump_run_minimum(M, R, N, amplitude, width, p, forcing):
    """Smallest snapshot or final value of a default adaptive run, over its largest sup."""
    g = RadialGrid(R, N)
    out = solve_on_ball(
        M, R, make_u0(g, bump_profile(amplitude, width)), forcing, p,
        EvolutionControls(t_end=2.0, snapshots=41),
    )
    low = min(min(float(snap.min()) for _, snap in out.snapshots), float(out.final.values.min()))
    return low / float(np.max(out.history[:, 1]))


@settings(max_examples=100, deadline=None)
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5)),
    ),
    k=st.sampled_from([0.5, 1.0, 2.0]),
    R=st.floats(1.0, 20.0),
    N=st.integers(9, 200),
    amplitude=st.floats(0.01, 10.0),
    width=st.floats(0.05, 5.0),
    p=st.floats(1.2, 4.0),
    forcing=st.sampled_from([Forcing.one(), Forcing.exponential(1.0)]),
)
def test_adaptive_runs_stay_nonnegative(model, k, R, N, amplitude, width, p, forcing):
    # the extrapolated step is not monotone on stiff modes, so adaptive runs
    # are nonnegative only up to rel_tol relative to the run's size
    kind, n = model
    M = make_euclidean(n) if kind == "euclidean" else make_hyperbolic(n, k)
    assert bump_run_minimum(M, R, N, amplitude, width, p, forcing) >= -EvolutionControls.rel_tol


@pytest.mark.parametrize(
    "M, R, N, amplitude, width, p",
    [
        pytest.param(make_euclidean(7), 10.0, 35, 5.06, 0.119, 1.27, id="euclidean-n7"),
        pytest.param(make_hyperbolic(3, 1.0), 8.0, 17, 0.4, 0.17, 1.9, id="hyperbolic-n3"),
    ],
)
def test_adaptive_run_nonnegative_near_pole(M, R, N, amplitude, width, p):
    # a pole spike narrower than dr on a coarse grid
    assert bump_run_minimum(M, R, N, amplitude, width, p, Forcing.one()) >= -EvolutionControls.rel_tol


def linear_oracle_run(M, R, N, lam, controls):
    """(relative error of sup u at t_end, accepted steps) for reaction lam*u.

    With the discrete eigenfunction as data the semidiscrete solution is
    exactly e^{(lam - lam1) t} u0.
    """
    est = dirichlet_lambda1(M, R, N)
    out = solve_on_ball(
        M, R, est.eigenfunction, Forcing.one(), 2.0, controls, reaction=lambda u, t: lam * u
    )
    expect = math.exp((lam - est.lambda1_ball) * controls.t_end)
    return abs(sup_norm(out.final) / expect - 1.0), len(out.history) - 1


@pytest.mark.parametrize(
    "R, N, lam, controls, tol",
    [
        pytest.param(
            10.0, 500, 0.5, EvolutionControls(t_end=1.0, dt_init=1e-4, dt_max=1e-4, rel_tol=0.0),
            1e-4, id="fixed-short",
        ),
        pytest.param(20.0, 399, 0.0, EvolutionControls(t_end=40.0), 1e-3, id="adaptive-long-heat"),
        pytest.param(20.0, 399, 0.5, EvolutionControls(t_end=40.0), 1e-3, id="adaptive-long-linear"),
    ],
)
def test_linear_reaction_exactness_oracle(hyp3, R, N, lam, controls, tol):
    error, _ = linear_oracle_run(hyp3, R, N, lam, controls)
    assert error < tol


@pytest.mark.parametrize(
    "rel_tol, steps, low, high",
    [
        pytest.param(1.0, (0.4, 0.2, 0.1), 2.0**5, math.inf, id="adaptive"),
        pytest.param(0.0, (0.1, 0.05, 0.025), 1.9, 2.1, id="fixed"),
    ],
)
def test_time_order_on_linear_oracle(hyp3, rel_tol, steps, low, high):
    # every adaptive attempt is accepted at rel_tol = 1, so both modes take
    # t_end / h steps: the extrapolated step is of order six (five is
    # asserted), IMEX Euler first; the adaptive steps are coarser, so that
    # the error stays above the oracle's own floor of about 2e-11
    errors = []
    for h in steps:
        ctl = EvolutionControls(t_end=2.0, dt_init=h, dt_max=h, rel_tol=rel_tol)
        error, taken = linear_oracle_run(hyp3, 10.0, 500, 0.5, ctl)
        assert taken == round(2.0 / h)
        errors.append(error)
    for coarse, fine in zip(errors, errors[1:]):
        assert low <= coarse / fine <= high


def test_step_halving_convergence(hyp3):
    g = RadialGrid(10.0, 200)
    u0 = make_u0(g, bump_profile(0.5, 2.0))
    sups = []
    for rtol in (1e-4, 5e-5):
        out = solve_on_ball(
            hyp3, 10.0, u0, Forcing.one(), 2.0,
            EvolutionControls(t_end=5.0, rel_tol=rtol, snapshots=11),
        )
        sups.append(np.array([np.max(np.abs(s)) for _, s in out.snapshots]))
    assert np.max(np.abs(sups[0] - sups[1])) < 1e-4 * np.max(sups[0]) * 10


def test_snapshots_are_exact_to_their_steps_accuracy(hyp3):
    # zero reaction from the discrete first eigenvector phi of the run's own
    # band: the semi-discrete solution is exactly e^(-lam_h t) phi, sup 1 at t = 0
    R, N = 20.0, 399
    est = dirichlet_lambda1(hyp3, R, N)
    phi, lam = est.eigenfunction.values, est.lambda1_ball
    ctl = EvolutionControls(t_end=40.0, snapshots=33)
    assert ctl.dt_max == 2.0
    out = solve_on_ball(hyp3, R, est.eigenfunction, Forcing.one(), 2.0, ctl, reaction=lambda u, t: np.zeros_like(u))
    assert out.sample_steps > 0
    t, sup = out.history[:, 0], out.history[:, 1]
    step_err = np.abs(sup * np.exp(lam * t) - 1.0)  # relative error of each accepted value
    ts = np.array([s for s, _ in out.snapshots])
    assert np.array_equal(ts, np.linspace(0.0, ctl.t_end, ctl.snapshots))
    # the accepted steps at or before each sample time and after it
    before = np.searchsorted(t, ts * (1.0 + 1e-12), side="right") - 1
    after = np.minimum(before + 1, t.size - 1)
    allowed = np.maximum(step_err[before], step_err[after]) + 2.0 * ctl.rel_tol
    snap_err = np.array([np.max(np.abs(u * math.exp(lam * s) - phi)) for s, u in out.snapshots])
    assert np.all(snap_err <= allowed)
    # linear interpolation in t between the accepted values misses by
    # thousands of rel_tol where a step spans a large share of a decay time
    linear = np.interp(ts, t, sup)
    assert np.max(np.abs(linear * np.exp(lam * ts) - 1.0) - allowed) > 1e3 * ctl.rel_tol


def test_an_error_limited_run_keeps_its_steps_under_any_larger_dt_max(hyp3):
    # every accepted dt of this run stays below 0.25, and levels below
    # 0.25 are the same floats for dt_max = 0.25 2^k
    g = RadialGrid(10.0, 99)
    u0 = make_u0(g, bump_profile(0.5, 2.0))
    runs = [
        solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=3.0, dt_max=0.25 * 2**k, rel_tol=1e-8))
        for k in (0, 2, 3)
    ]
    assert runs[0].verdict == VERDICT_GLOBAL and np.max(runs[0].history[:, 2]) < 0.25
    for out in runs[1:]:
        assert out.history.tobytes() == runs[0].history.tobytes()
        assert out.final.values.tobytes() == runs[0].final.values.tobytes()
        assert [u.tobytes() for _, u in out.snapshots] == [u.tobytes() for _, u in runs[0].snapshots]


def test_blowup_detector_soundness(euclid3):
    g = RadialGrid(20.0, 400)
    u0 = make_u0(g, bump_profile(1.0, 3.0))
    out = solve_on_ball(
        euclid3, 20.0, u0, Forcing.one(), 1.5, EvolutionControls(t_end=100.0)
    )
    assert out.verdict == VERDICT_BLOWUP
    assert out.t_star is not None
    # verdict invariant: sup exceeded the threshold and dt collapsed
    assert np.max(out.history[:, 1]) >= out.threshold
    assert out.history[-1, 2] < 1e-6
    # history is time-ordered with positive steps
    assert np.all(np.diff(out.history[:, 0]) > 0)


def overflowing_run(euclid3, controls):
    # sup u0 = 50, p = 5: u' = u^p blows up at t = 4e-8, so longer IMEX steps overflow
    g = RadialGrid(2.0, 49)
    u0 = make_u0(g, bump_profile(50.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is handled, not reported
        return solve_on_ball(euclid3, 2.0, u0, Forcing.one(), 5.0, controls)


def overflowing_fixed_step_run(euclid3, threshold):
    # h u^p overflows on the fourth step
    ctl = EvolutionControls(t_end=1.0, dt_init=0.05, rel_tol=0.0, blowup_threshold=threshold)
    return overflowing_run(euclid3, ctl)


def test_fixed_step_overflow_after_threshold_is_blowup(euclid3):
    out = overflowing_fixed_step_run(euclid3, None)
    assert out.verdict == VERDICT_BLOWUP
    assert out.t_star == pytest.approx(0.1)
    assert np.all(np.isfinite(out.history))


def test_fixed_step_overflow_below_threshold_is_undecided(euclid3):
    out = overflowing_fixed_step_run(euclid3, 1e300)
    assert out.verdict == VERDICT_UNDECIDED
    assert out.t_star is None
    assert "non-finite values" in out.note
    assert out.note.endswith("in fixed-step mode")
    assert np.all(np.isfinite(out.final.values))


def test_adaptive_overflow_is_a_rejected_trial(euclid3):
    # an overflowing trial fills the extrapolation table with inf - inf;
    # the attempt is rejected without a warning and never enters the history
    out = overflowing_run(euclid3, EvolutionControls(t_end=1.0))
    assert np.all(np.isfinite(out.history))
    assert np.all(np.isfinite(out.final.values))
    assert out.rejected_nonfinite > 0


def test_blowup_run_does_not_cycle_between_accepted_and_rejected_steps(euclid3):
    # without memory of the previous error the controller follows each
    # accepted step near blow-up with a rejected one (58 against 88)
    g = RadialGrid(10.0, 100)
    out = solve_on_ball(euclid3, 10.0, make_u0(g, bump_profile(3.0, 2.0)), Forcing.one(), 1.5, EvolutionControls(t_end=60.0))
    assert out.verdict == VERDICT_BLOWUP
    assert out.rejected_error <= 0.05 * (len(out.history) - 1)


@pytest.mark.parametrize("fraction", [0.3, 0.9])
def test_threshold_crossing_cut_off_by_the_horizon_is_undecided(fraction):
    # the preset's p = 1.1 cell, its horizon moved to within one accepted
    # step of the crossing: the sup norm is past the threshold at t_end,
    # but dt never collapsed
    cfg = parse_config(preset_text("exp-forcing-hyperbolic")).sweep.configs[0]
    M = build_manifold(cfg)
    u0, *_ = _initial_field(cfg, M, RadialGrid(cfg.grid.R, cfg.grid.N))

    def run(controls):
        return solve_on_ball(M, cfg.grid.R, u0, cfg.forcing, cfg.p, controls)

    full = run(cfg.controls)
    assert full.verdict == VERDICT_BLOWUP
    crossing = full.history[np.argmax(full.history[:, 1] >= full.threshold)]
    assert crossing[0] == full.t_star
    t_end = full.t_star + fraction * crossing[2]
    out = run(replace(cfg.controls, t_end=t_end))
    assert out.history[-1, 0] == t_end
    assert out.history[-1, 1] > out.threshold
    assert out.verdict == VERDICT_UNDECIDED
    assert out.t_star is None
    assert f"crossed the blow-up threshold at t = {full.t_star:.6g}" in out.note


def test_adaptive_run_on_the_smallest_grid(hyp3):
    # N = 1: each row of the stacked IMEX band is a block of 2 unknowns
    g = RadialGrid(1.0, 1)
    out = solve_on_ball(hyp3, 1.0, make_u0(g, bump_profile(0.5, 2.0)), Forcing.one(), 2.0, EvolutionControls(t_end=1.0))
    assert out.verdict == VERDICT_GLOBAL
    assert 0.0 < sup_norm(out.final) < 0.5


def grid_symmetrizer(M, grid):
    """s with s = 1 at the pole that symmetrizes Delta_h's band on grid: one block's worth."""
    return np.exp(laplacian_tridiag(M, grid).log_s())


def reference_solve(sub, diag, sup, s, b):
    """S^-1 dpttrs(S b) for the leading len(b) rows of the band, factored afresh by scipy's dpttrf."""
    k = b.size
    sub, diag, sup, s = sub[:k], diag[:k], sup[:k], s[:k]
    d, e, info = scipy.linalg.lapack.dpttrf(diag, np.copysign(np.sqrt(sub[1:] * sup[:-1]), sup[:-1]))
    assert info == 0
    return scipy.linalg.lapack.dpttrs(d, e, s * b)[0] / s


def power_reaction(forcing, p):
    """h(t) u^p on a block u of rows and the block t of their times."""
    return lambda u, t: forcing.h(t) * np.maximum(u, 0.0) ** p


def row_by_row_attempt(M, grid, forcing, p, u, t, dt):
    """T66 and T65 of one adaptive attempt, one row and one substep at a time."""
    sub, diag, sup = laplacian_tridiag(M, grid)
    sym = grid_symmetrizer(M, grid)

    def react(v, s):
        return float(forcing.h(s)) * np.maximum(v, 0.0) ** p

    r = react(u, t)
    for j in range(1, 7):
        h = dt / j
        band = (-h * sub, 1.0 - h * diag, -h * sup, sym)
        v = reference_solve(*band, u + h * r)
        for i in range(1, j):
            v = reference_solve(*band, v + h * react(v, t + i * h))
        row = [v]
        for k in range(1, j):
            row.append(row[k - 1] + (row[k - 1] - above[k - 1]) / (j / (j - k) - 1.0))
        above = row
    return row[-1], row[-2]


@settings(max_examples=60, deadline=None)
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5)),
    ),
    R=st.floats(1.0, 20.0),
    N=st.integers(1, 120),
    forcing=st.one_of(
        st.just(Forcing.one()),
        st.floats(-0.9, 3.0).map(Forcing.power_law),
        st.floats(0.05, 2.0).map(Forcing.exponential),
    ),
    p=st.floats(1.05, 4.0),
    t=st.floats(0.0, 10.0),
    dt=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_attempt_equals_row_by_row_table(model, R, N, forcing, p, t, dt, seed):
    kind, n = model
    M = make_euclidean(n) if kind == "euclidean" else make_hyperbolic(n, 1.0)
    g = RadialGrid(R, N)
    u = 3.0 * np.random.default_rng(seed).random(N + 1)
    sub, diag, sup = band = laplacian_tridiag(M, g)
    s = _symmetrizer(band.log_s(), N + 1, 3e8)
    assert s is not None  # LDL^T
    factor, column = _imex_parts((sub[None], diag[None], sup[None]), 6, s[None])
    dts = np.array([dt])
    factors = factor(dts, [0])
    with np.errstate(over="ignore", invalid="ignore"):
        top, below = _extrapolate(column(u[None], np.array([t]), dts, factors, power_reaction(forcing, p)))
        want_top, want_below = row_by_row_attempt(M, g, forcing, p, u, t, dt)
    assert np.array_equal(top[0], want_top, equal_nan=True)
    assert np.array_equal(below[0], want_below, equal_nan=True)


def band_weighted_norm(M, grid):
    """u -> sqrt(sum w u^2) with the weights w that make Delta_h self-adjoint.

    The band alone gives them: w = s^2, w_{i+1} / w_i = sup_i / sub_{i+1}.
    """
    log_w = 2.0 * laplacian_tridiag(M, grid).log_s()
    w = np.exp(log_w - log_w.max())
    return lambda u: math.sqrt(float(np.sum(w * u[: w.size] ** 2)))


@settings(max_examples=100, deadline=None)
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5)),
    ),
    R=st.floats(1.0, 20.0),
    N=st.integers(9, 200),
    dt=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_adaptive_heat_step_never_grows_the_weighted_norm(model, R, N, dt, seed):
    # in the eigenbasis of Delta_h, orthonormal for the band weights, the
    # accepted value damps each mode by the table's amplification on the
    # negative real axis, which lies in [-3.8e-4, 1]
    kind, n = model
    M = make_euclidean(n) if kind == "euclidean" else make_hyperbolic(n, 1.0)
    g = RadialGrid(R, N)
    vals = np.random.default_rng(seed).random(N + 2)
    vals[-1] = 0.0
    norm = band_weighted_norm(M, g)
    starts = []

    def zero(u, t):
        starts.extend((float(s), norm(row)) for s, row in zip(t[:, 0], u))
        return np.zeros_like(u)

    # dt_min bounds the work of a run whose step the controller keeps cutting
    ctl = EvolutionControls(t_end=8.0 * dt, dt_init=dt, dt_min=1e-3 * dt, dt_max=dt, rel_tol=1.0)
    out = solve_on_ball(M, R, RadialField(g, vals), Forcing.one(), 2.0, ctl, reaction=zero)
    # each attempt starts from an accepted state at an accepted time
    accepted = set(out.history[:, 0])
    norms = [value for t, value in starts if t in accepted] + [norm(out.final.values)]
    assert len(norms) >= len(out.history)
    for before, after in zip(norms, norms[1:]):
        assert after <= before * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "manifold, amplitude, p, t_end, verdict",
    [("hyp3", 0.5, 2.0, 5.0, VERDICT_GLOBAL), ("euclid3", 3.0, 1.5, 60.0, VERDICT_BLOWUP)],
)
def test_shared_reaction_matches_reference_solves(request, monkeypatch, manifold, amplitude, p, t_end, verdict):
    M = request.getfixturevalue(manifold)
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, bump_profile(amplitude, 2.0))
    forcing = Forcing.one()
    ctl = EvolutionControls(t_end=t_end, snapshots=11)
    plain = solve_on_ball(M, 10.0, u0, forcing, p, ctl)
    assert plain.verdict == verdict

    calls = {"solve": 0, "reaction": 0}
    # the symmetrizer restarts at 1 at the pole of each of the six blocks
    sym = np.tile(grid_symmetrizer(M, g), 6)

    def reference_factor(sub, diag, sup, s):
        assert s is not None  # the run takes the LDL^T branch
        return sub, diag, sup

    def counted_solve(band, b):
        # b may cover only the leading blocks of the stacked band
        calls["solve"] += 1
        return reference_solve(*band, sym, b)

    def counted_reaction(u, t):
        calls["reaction"] += 1
        return forcing.h(t) * np.maximum(u, 0.0) ** p

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", reference_factor)
    monkeypatch.setattr(curvedheat.evolution, "solve_banded", counted_solve)
    ref = solve_on_ball(M, 10.0, u0, forcing, p, ctl, reaction=counted_reaction)
    assert ref.verdict == plain.verdict
    assert np.array_equal(ref.history, plain.history)
    assert len(ref.snapshots) == len(plain.snapshots)
    for (t_ref, s_ref), (t_plain, s_plain) in zip(ref.snapshots, plain.snapshots):
        assert t_ref == t_plain
        assert np.array_equal(s_ref, s_plain)
    assert np.array_equal(ref.final.values, plain.final.values)
    # per attempt: 6 solves and 6 hook calls, one per substep on the block of its rows
    assert calls["solve"] >= 6 * (len(plain.history) - 1)
    assert calls["reaction"] == calls["solve"]


def count_factors_and_solves(monkeypatch):
    """Count the LU factorizations and the solves solve_on_ball makes."""
    calls = {"factor": 0, "solve": 0}
    factor, solve = curvedheat.evolution.factor_banded, curvedheat.evolution.solve_banded

    def counted_factor(*band):
        calls["factor"] += 1
        return factor(*band)

    def counted_solve(lu, b):
        calls["solve"] += 1
        return solve(lu, b)

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", counted_factor)
    monkeypatch.setattr(curvedheat.evolution, "solve_banded", counted_solve)
    return calls


def test_fixed_step_run_factors_once_and_matches_per_solve_factoring(hyp3, monkeypatch):
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, bump_profile(0.5, 2.0))
    # 33 steps of 0.03 and a last step clamped to the remaining 0.01; the
    # samples 0.1, 0.2, 0.4, 0.5, 0.7 and 0.8 fall inside steps, and each
    # is one more IMEX Euler step, factored at its own length, after which
    # the next step factors dt = 0.03 again
    ctl = EvolutionControls(t_end=1.0, dt_init=0.03, dt_max=0.03, rel_tol=0.0, snapshots=11)
    with monkeypatch.context() as patch:
        calls = count_factors_and_solves(patch)
        plain = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl)
    assert plain.verdict == VERDICT_GLOBAL
    assert (len(plain.history) - 1, plain.sample_steps) == (34, 6)
    assert calls["solve"] == plain.solves == 34 + 6
    assert calls["factor"] == plain.factor_sets + 2 * plain.sample_steps == 2 + 2 * 6

    sym = grid_symmetrizer(hyp3, g)

    def factor_each_solve(band, b):
        *band, s = band
        assert np.array_equal(s, sym)
        return reference_solve(*band, sym, b)

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", lambda *band: band)
    monkeypatch.setattr(curvedheat.evolution, "solve_banded", factor_each_solve)
    ref = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl)
    assert np.array_equal(ref.history, plain.history)
    assert np.array_equal(ref.final.values, plain.final.values)
    for (t_ref, u_ref), (t, u) in zip(ref.snapshots, plain.snapshots, strict=True):
        assert t_ref == t and np.array_equal(u_ref, u)


def test_adaptive_run_reuses_factors_across_steps(hyp3, monkeypatch):
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, bump_profile(0.5, 2.0))
    calls = count_factors_and_solves(monkeypatch)
    # dt_max 0.25 holds dt at the cap for most of the run
    ctl = EvolutionControls(t_end=20.0, dt_max=0.25, snapshots=11)
    out = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl)
    assert out.verdict == VERDICT_GLOBAL
    # every sample step is one attempt with its own factorization
    attempts = calls["solve"] / 6 - out.sample_steps
    assert attempts >= len(out.history) - 1
    assert out.factor_sets < attempts / 10
    # the outcome's counters account for every attempt and factorization;
    # a step that took samples drops its factors, so the next one factors
    # its dt again even where dt holds
    assert attempts == len(out.history) - 1 + out.rejected_error + out.rejected_nonfinite
    assert out.rejected_error == out.rejected_nonfinite == 0
    t, dt = out.history[:, 0], out.history[1:, 2]
    sampled = [any(a < s < b - 1e-12 * ctl.t_end for s, _ in out.snapshots) for a, b in zip(t, t[1:])]
    refactored = sum(took and after == before for took, before, after in zip(sampled, dt, dt[1:]))
    assert calls["factor"] == out.factor_sets + out.sample_steps + refactored


def is_level(dt, dt_max):
    j = round(-8 * math.log2(dt / dt_max))
    return j >= 0 and _level_at(j, dt_max) == dt


@settings(max_examples=300, deadline=None)
@given(x=st.floats(1e-15, 1e3), dt_max=st.floats(1e-3, 1e3), j=st.integers(0, 400), e=st.integers(-60, 60))
@example(x=_level_at(13, 0.25), dt_max=0.25, j=13, e=-2)  # a proposal on a level keeps it
@example(x=math.nextafter(_level_at(13, 0.25), 0.0), dt_max=0.25, j=13, e=-2)  # one ulp below it takes the next
def test_level_is_the_largest_level_at_or_below_the_proposal(x, dt_max, j, e):
    dt = _level(x, dt_max)
    if x >= dt_max:
        assert dt == dt_max
    else:
        assert is_level(dt, dt_max) and dt <= x
        assert _level_at(round(-8 * math.log2(dt / dt_max)) - 1, dt_max) > x
    # every level is its own level; levels halve exactly every 8 indices and scale exactly with dt_max
    assert _level(_level_at(j, dt_max), dt_max) == _level_at(j, dt_max)
    assert _level_at(j + 8, dt_max) == _level_at(j, dt_max) / 2
    assert _level_at(j, math.ldexp(dt_max, e)) == math.ldexp(_level_at(j, dt_max), e)
    assert _level(math.ldexp(x, e), math.ldexp(dt_max, e)) == math.ldexp(dt, e)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "hyperbolic"]),
    amplitude=st.floats(0.1, 8.0),
    p=st.floats(1.2, 3.0),
    dt_init=st.floats(1e-5, 0.2),
    t_end=st.floats(0.5, 20.0),
)
@example(kind="euclidean", amplitude=3.0, p=1.5, dt_init=1e-3, t_end=20.0)  # blow-up, dt halved past the threshold
def test_adaptive_steps_are_levels_and_fixed_steps_keep_dt_init(kind, amplitude, p, dt_init, t_end):
    M = make_euclidean(3) if kind == "euclidean" else make_hyperbolic(3, 1.0)
    g = RadialGrid(10.0, 40)
    u0 = make_u0(g, bump_profile(amplitude, 2.0))
    ctl = EvolutionControls(t_end=t_end, dt_init=dt_init, rel_tol=1e-4, snapshots=3)
    out = solve_on_ball(M, 10.0, u0, Forcing.one(), p, ctl)
    t, sup, dt = out.history[1:].T
    if sup[0] < out.threshold:
        # the first accepted step may take dt_init, and the last one may be clamped to the horizon
        clamped = t[-1] >= t_end * (1 - 1e-12)
        assert all(is_level(x, ctl.dt_max) for x in dt[1 : dt.size - clamped])
    # 20 steps of dt_init and a last one clamped to the horizon
    fixed = replace(ctl, t_end=20.5 * dt_init, dt_max=dt_init, rel_tol=0.0)
    out = solve_on_ball(M, 10.0, u0, Forcing.one(), p, fixed)
    if out.t_star is None:
        assert np.all(out.history[1:-1, 2] == dt_init) and out.history[-1, 2] < dt_init


def test_rounding_level_changes_leave_the_step_sequence_bit_identical():
    # a one-ulp change to the warping table or to the data moves est = |T66 - T65|
    # by rounding; the levels absorb it
    cfg = parse_config(preset_text("power-tail-gamma3"))
    M = build_manifold(cfg)
    u0, *_ = _initial_field(cfg, M, RadialGrid(cfg.grid.R, cfg.grid.N))
    psi = M.psi
    table_up = ModelManifold(M.n, TabulatedWarping(psi.dr, np.nextafter(psi.log_psi, np.inf), psi._ratio1, psi.c0, psi.gamma))
    data_up = RadialField(u0.grid, np.append(np.nextafter(u0.values[:-1], np.inf), 0.0))
    runs = [
        solve_on_ball(model, cfg.grid.R, data, cfg.forcing, cfg.p, cfg.controls)
        for model, data in ((M, u0), (table_up, u0), (M, data_up))
    ]
    assert runs[0].verdict == VERDICT_GLOBAL
    for run in runs[1:]:
        assert run.history[:, 2].tobytes() == runs[0].history[:, 2].tobytes()
        assert np.allclose(run.history[:, 1], runs[0].history[:, 1], rtol=1e-8, atol=0.0)


@pytest.mark.parametrize(
    "R, N, threshold, ldlt",
    [
        pytest.param(15.0, 149, None, True, id="gamma3-R15"),
        # s spans 353 nats: S b may overflow for |b| near 1e200
        pytest.param(15.0, 149, 1e200, False, id="gamma3-R15-huge-threshold"),
        # s spans 1,253 nats, beyond the float64 range
        pytest.param(25.0, 249, None, False, id="gamma3-R25"),
        # the last coupling of the band is one-sided: exp(-lo) overflows to a 0 entry
        pytest.param(30.0, 10, None, False, id="gamma3-one-sided"),
    ],
)
def test_steep_or_one_sided_band_keeps_the_pivoting_lu(gamma3, monkeypatch, R, N, threshold, ldlt):
    g = RadialGrid(R, N)
    log_s = laplacian_tridiag(gamma3, g).log_s()
    assert np.all(np.isfinite(log_s)) == (N != 10)
    branches = []
    factor = curvedheat.evolution.factor_banded

    def spied_factor(sub, diag, sup, s):
        branches.append(s is not None)
        return factor(sub, diag, sup, s)

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", spied_factor)
    ctl = EvolutionControls(t_end=2.0, snapshots=5, blowup_threshold=threshold)
    out = solve_on_ball(gamma3, R, make_u0(g, bump_profile(0.5, 2.0)), Forcing.one(), 2.0, ctl)
    assert set(branches) == {ldlt}
    assert out.verdict == VERDICT_GLOBAL
    assert np.all(np.isfinite(out.final.values)) and 0.0 < sup_norm(out.final) < 0.5
    assert out.min_value >= -EvolutionControls.rel_tol * 0.5  # rel_tol of sup u0


@settings(max_examples=100, deadline=None)
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7), st.just(1.0)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5), st.sampled_from([0.5, 1.0, 2.0])),
    ),
    R=st.floats(0.5, 20.0),
    N=st.integers(1, 200),
    dt=st.floats(1e-4, 1.0),
    p=st.floats(1.05, 4.0),
    forcing=st.sampled_from([Forcing.one(), Forcing.exponential(1.0), Forcing.power_law(-0.5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fixed_step_ldlt_run_stays_nonnegative_exactly(model, R, N, dt, p, forcing, seed):
    # every term of S^-1 ?pttrs(S b) is nonnegative for b >= 0, and IMEX
    # Euler's right-hand side u + dt h(t) u^p is one
    kind, n, k = model
    M = make_euclidean(n) if kind == "euclidean" else make_hyperbolic(n, k)
    g = RadialGrid(R, N)
    rng = np.random.default_rng(seed)
    vals = rng.random(N + 2) * (rng.random(N + 2) < 0.5)  # spikes next to zeros
    vals[rng.integers(N + 1)] = 1.0
    vals[-1] = 0.0
    threshold = 1e8  # solve_on_ball's default, 1e8 sup u0
    assert _symmetrizer(laplacian_tridiag(M, g).log_s(), N + 1, threshold) is not None  # LDL^T
    ctl = EvolutionControls(t_end=10.0 * dt, dt_init=dt, dt_min=1e-3 * dt, dt_max=dt, rel_tol=0.0, snapshots=3)
    out = solve_on_ball(M, R, RadialField(g, vals), forcing, p, ctl)
    assert out.min_value >= 0.0


def assert_same_outcome(batched, alone):
    """Every field of two run outcomes equal, the arrays bit for bit."""
    assert (batched.verdict, batched.note, batched.t_star) == (alone.verdict, alone.note, alone.t_star)
    assert batched.history.tobytes() == alone.history.tobytes()
    assert [t for t, _ in batched.snapshots] == [t for t, _ in alone.snapshots]
    for (_, ub), (_, ua) in zip(batched.snapshots, alone.snapshots):
        assert ub.tobytes() == ua.tobytes()
    assert batched.final.values.tobytes() == alone.final.values.tobytes()
    for name in ("threshold", "min_value", "rejected_error", "rejected_nonfinite", "factor_sets", "solves", "sample_steps"):
        assert getattr(batched, name) == getattr(alone, name), name


# runs whose attempts are not finite: u^2 overflows at once, or, with the
# blow-up threshold at 1 (the LDL^T branch), S b overflows inside the solve
# where the symmetrizer of H^3 reaches sinh(20) while u^1.001 stays finite
OVERFLOWS = {"reaction": (2.0, bump_profile(1e200, 1.5)), "solve": (1.001, power_tail_profile(1e300, 0.01))}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "hyperbolic"]),
    N=st.integers(8, 60),
    forcing=st.sampled_from([Forcing.one(), Forcing.exponential(1.0), Forcing.power_law(0.5)]),
    adaptive=st.booleans(),
    threshold=st.sampled_from([None, 1e300, 1.0]),
    runs=st.lists(
        st.tuples(st.one_of(st.just(2.0), st.floats(1.1, 3.5)), st.floats(0.0, 30.0)), min_size=1, max_size=5
    ),
    overflow=st.sampled_from(sorted(OVERFLOWS)),
    at=st.integers(0, 5),
)
@example(
    kind="hyperbolic", N=60, forcing=Forcing.one(), adaptive=True, threshold=1.0,
    runs=[(2.0, 0.5), (2.5, 3.0)], overflow="solve", at=1,
)
# a run near blow-up, whose dt moves every attempt, beside a decaying run
# whose dt holds, on the LDL^T branch (threshold 1) and on the LU branch
@example(
    kind="hyperbolic", N=60, forcing=Forcing.one(), adaptive=True, threshold=1.0,
    runs=[(2.0, 5.0), (2.0, 0.5)], overflow="reaction", at=2,
)
@example(
    kind="hyperbolic", N=60, forcing=Forcing.one(), adaptive=True, threshold=1e300,
    runs=[(2.0, 5.0), (2.0, 0.5)], overflow="reaction", at=2,
)
def test_batched_runs_equal_their_runs_alone(kind, N, forcing, adaptive, threshold, runs, overflow, at):
    M = make_euclidean(3) if kind == "euclidean" else make_hyperbolic(3, 1.0)
    g = RadialGrid(20.0, N)
    cells = [(p, bump_profile(amplitude, 1.5)) for p, amplitude in runs]
    cells.insert(min(at, len(cells)), OVERFLOWS[overflow])
    u0s = [make_u0(g, profile) for _, profile in cells]
    ps = [p for p, _ in cells]
    if adaptive:
        ctl = EvolutionControls(t_end=3.0, rel_tol=1e-4, snapshots=5, blowup_threshold=threshold)
    else:
        ctl = EvolutionControls(t_end=3.0, dt_init=0.05, dt_max=0.05, rel_tol=0.0, snapshots=5, blowup_threshold=threshold)
    batch = solve_batch(M, u0s, forcing, ps, ctl)
    alone = [solve_on_ball(M, 20.0, u0, forcing, p, ctl) for u0, p in zip(u0s, ps)]
    for batched, single in zip(batch, alone):
        assert_same_outcome(batched, single)
    # the overflowing run ends at once, beside runs that go on
    overflowed = batch[min(at, len(runs))]
    assert overflowed.rejected_nonfinite >= 1 or overflow == "solve"
    assert all(
        out.solves
        == (6 if adaptive else 1) * (len(out.history) - 1 + out.rejected_error + out.rejected_nonfinite + out.sample_steps)
        for out in batch
    )


@pytest.mark.parametrize("threshold", [pytest.param(1.0, id="ldlt"), pytest.param(1e300, id="lu")])
def test_a_moving_dt_refactors_the_whole_stack(hyp3, monkeypatch, threshold):
    g = RadialGrid(20.0, 60)
    u0s = [make_u0(g, bump_profile(amplitude, 1.5)) for amplitude in (5.0, 0.5)]
    # dt_max 0.25 holds the decaying run's dt at the cap
    ctl = EvolutionControls(t_end=3.0, dt_max=0.25, rel_tol=1e-4, snapshots=5, blowup_threshold=threshold)
    alone = [solve_on_ball(hyp3, 20.0, u0, Forcing.one(), 2.0, ctl) for u0 in u0s]
    calls = []
    factor, solve = curvedheat.evolution.factor_banded, curvedheat.evolution.solve_banded

    def spied_factor(sub, diag, sup, s):
        assert (s is not None) == (threshold == 1.0)
        calls.append(("factor", diag.size))
        return factor(sub, diag, sup, s)

    def spied_solve(factors, b):
        calls.append(("solve", b.size))
        return solve(factors, b)

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", spied_factor)
    monkeypatch.setattr(curvedheat.evolution, "solve_banded", spied_solve)
    batch = solve_batch(hyp3, u0s, Forcing.one(), [2.0, 2.0], ctl)
    for batched, single in zip(batch, alone):
        assert_same_outcome(batched, single)
    near_blowup, decaying = batch
    assert near_blowup.verdict != VERDICT_GLOBAL and decaying.verdict == VERDICT_GLOBAL
    # substep 0 of an attempt solves every block of the stack it runs on,
    # so each factorization covers the blocks of all the runs still going
    factored = [size for what, size in calls if what == "factor"]
    assert [after for before, after in zip(calls, calls[1:]) if before[0] == "factor"] == [
        ("solve", size) for size in factored
    ]
    # while both ran, the near-blow-up run's dt moved on every attempt and
    # the decaying run's dt held on most of them
    both = factored.count(2 * 6 * (g.N + 1))
    assert decaying.factor_sets < both == len(decaying.history) - 1


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "hyperbolic"]),
    forcing=st.sampled_from([Forcing.one(), Forcing.exponential(1.0)]),
    adaptive=st.booleans(),
    threshold=st.sampled_from([None, 1e300]),
    runs=st.lists(
        st.tuples(st.integers(1, 60), st.one_of(st.just(2.0), st.floats(1.1, 3.5)), st.floats(0.0, 6.0)),
        min_size=2, max_size=5,
    ),
)
# one run on a ball of a single interior node beside a larger one, and a
# run near blow-up on the LU branch beside a decaying run on a larger ball
@example(kind="hyperbolic", forcing=Forcing.one(), adaptive=True, threshold=None, runs=[(1, 2.0, 1.0), (40, 2.0, 0.5)])
@example(kind="euclidean", forcing=Forcing.one(), adaptive=True, threshold=1e300, runs=[(20, 2.0, 5.0), (60, 2.0, 0.5)])
def test_nested_balls_in_one_stack_equal_their_balls_alone(kind, forcing, adaptive, threshold, runs):
    # each run goes on the band of the largest ball cut at its own
    # boundary node; at one spacing (a power of 2 here, so every ball's
    # dr is the same float) its outcome is bit for bit its run alone
    M = make_euclidean(3) if kind == "euclidean" else make_hyperbolic(3, 1.0)
    dr = 0.25
    u0s = [make_u0(RadialGrid((N + 1) * dr, N), bump_profile(amplitude, 1.5)) for N, _, amplitude in runs]
    ps = [p for _, p, _ in runs]
    if adaptive:
        ctl = EvolutionControls(t_end=3.0, rel_tol=1e-4, snapshots=5, blowup_threshold=threshold)
    else:
        ctl = EvolutionControls(t_end=3.0, dt_init=0.05, dt_max=0.05, rel_tol=0.0, snapshots=5, blowup_threshold=threshold)
    batch = solve_batch(M, u0s, forcing, ps, ctl)
    for u0, p, batched in zip(u0s, ps, batch):
        assert batched.final.grid == u0.grid
        assert_same_outcome(batched, solve_on_ball(M, u0.grid.R, u0, forcing, p, ctl))


def test_batch_refuses_runs_on_different_node_spacings(hyp3):
    u0 = make_u0(RadialGrid(5.0, 49), bump_profile(1.0, 1.0))
    other = make_u0(RadialGrid(5.0, 24), bump_profile(1.0, 1.0))
    with pytest.raises(ValueError, match="one node spacing"):
        solve_batch(hyp3, [u0, other], Forcing.one(), [2.0, 2.0], EvolutionControls(t_end=1.0))
    with pytest.raises(ValueError, match="one exponent per run"):
        solve_batch(hyp3, [u0, u0], Forcing.one(), [2.0], EvolutionControls(t_end=1.0))


def test_comparison_sandwich_small(hyp3):
    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup, ctilde=0.5)  # half the amplitude limit 1
    g = RadialGrid(10.0, 200)
    u0 = make_u0(g, barrier_profile(v, env.ctilde))
    ctl = EvolutionControls(t_end=10.0, dt_init=2e-3, dt_max=2e-3, rel_tol=0.0, snapshots=21)
    out = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl)
    cmp = compare_with_envelope(out, v.eval(g.nodes), env)
    assert cmp.passed
    assert cmp.max_violation <= 0.0  # equality only at t = 0


def test_comparison_equality_at_t0(hyp3):
    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup, ctilde=0.5)
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, barrier_profile(v, env.ctilde))
    out = solve_on_ball(
        hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=0.01, snapshots=2)
    )
    t0, snap0 = out.snapshots[0]
    bound = env.ctilde * v.eval(g.nodes)
    bound[-1] = 0.0
    assert np.max(np.abs(snap0 - bound)) == 0.0


def test_running_minimum_does_not_depend_on_snapshots(hyp3):
    # a reaction that flips the sign of u on two consecutive fixed steps:
    # u is negative at the accepted step t = 0.31 alone
    def flip(u, t):
        return -150.0 * u if 0.295 <= t < 0.315 else np.zeros_like(u)

    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup, ctilde=0.5)
    g = RadialGrid(10.0, 100)
    ctl = EvolutionControls(t_end=1.0, dt_init=0.01, dt_max=0.01, rel_tol=0.0)
    coarse, fine = (
        solve_on_ball(
            hyp3, 10.0, make_u0(g, barrier_profile(v, env.ctilde)), Forcing.one(), 2.0,
            replace(ctl, snapshots=n), reaction=flip,
        )
        for n in (5, 200)
    )
    # only the fine sampling sees the dip
    assert min(float(u.min()) for _, u in coarse.snapshots) == 0.0
    assert min(float(u.min()) for _, u in fine.snapshots) < 0.0
    assert coarse.min_value == fine.min_value < 0.0
    cmps = [compare_with_envelope(out, v.eval(g.nodes), env) for out in (coarse, fine)]
    assert cmps[0].min_value == cmps[1].min_value == fine.min_value
    assert not cmps[0].passed


def test_envelope_upper_side_does_not_depend_on_snapshots(hyp3):
    # a reaction that quadruples u on one fixed step and quarters it on
    # the next: u is above the envelope at the accepted step t = 0.31 alone
    def spike(u, t):
        if 0.295 <= t < 0.305:
            return 300.0 * u
        if 0.305 <= t < 0.315:
            return -75.0 * u
        return np.zeros_like(u)

    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup, ctilde=0.5)
    g = RadialGrid(10.0, 100)
    wt = env.ctilde * v.eval(g.nodes)
    ctl = EvolutionControls(t_end=1.0, dt_init=0.01, dt_max=0.01, rel_tol=0.0)
    coarse, fine = (
        solve_on_ball(
            hyp3, 10.0, make_u0(g, barrier_profile(v, env.ctilde)), Forcing.one(), 2.0,
            replace(ctl, snapshots=n), reaction=spike,
        )
        for n in (5, 200)
    )

    def snapshot_excess(out):
        return max(float(np.max(u - math.exp(-env.lam * t) * float(env.growth(t)) * wt)) for t, u in out.snapshots)

    # only the fine sampling sees the rise
    assert snapshot_excess(coarse) <= 0.0 < snapshot_excess(fine)
    t, sup, _ = coarse.history[np.argmax(coarse.history[:, 1])]
    assert t == pytest.approx(0.31)
    cmps = [compare_with_envelope(out, v.eval(g.nodes), env) for out in (coarse, fine)]
    assert not cmps[0].passed and not cmps[1].passed
    peak = math.exp(-env.lam * t) * float(env.growth(t)) * float(np.max(wt))
    assert cmps[0].max_violation == pytest.approx(sup - peak, rel=1e-12)
    assert cmps[0].max_violation > cmps[0].tol


def test_comparison_negative_control(hyp3):
    # data ten times above the admissible amplitude breaks the sandwich
    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup, ctilde=0.5)
    g = RadialGrid(10.0, 200)
    u0 = make_u0(g, barrier_profile(v, 10.0 * env.ctilde))
    out = solve_on_ball(
        hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=1.0, snapshots=5)
    )
    cmp = compare_with_envelope(out, v.eval(g.nodes), env)
    assert not cmp.passed
    assert cmp.max_violation > 1.0


def test_exhaustion_nesting_and_gaps(hyp3):
    v = ExpBarrier(1.0, 1.0)
    ctl = EvolutionControls(t_end=10.0, dt_init=2e-3, dt_max=2e-3, rel_tol=0.0, snapshots=26)
    u0 = make_u0(RadialGrid(20.0, 399), barrier_profile(v, 0.5))
    rep = exhaustion_solve(hyp3, u0, [5.0, 10.0, 20.0], Forcing.one(), 2.0, ctl)
    assert rep.monotone_ok
    # fixed-step IMEX Euler is monotone and the balls share every step, so
    # the ladder nests exactly, with no use for the 1e-3 ||u0|| slack
    assert rep.max_violation <= 0.0
    assert all(o.verdict == VERDICT_GLOBAL for o in rep.outcomes)
    assert rep.gaps[0] > rep.gaps[1]


def test_exhaustion_zero_data(hyp3):
    ctl = EvolutionControls(t_end=1.0, snapshots=26)
    u0 = RadialField(RadialGrid(10.0, 99), np.zeros(101))
    rep = exhaustion_solve(hyp3, u0, [5.0, 10.0], Forcing.one(), 2.0, ctl)
    assert rep.max_violation == 0.0
    assert all(sup_norm(o.final) == 0.0 for o in rep.outcomes)
    # zero data gives zero solutions on every ball: no slack is left to forgive
    assert rep.tol == 0.0 and rep.monotone_ok


def test_exhaustion_tolerances_scale_with_the_problem():
    # a smaller ball 2e-3 of the data's sup above the larger one, and a larger
    # ball blowing up 1e-3 of the horizon after the smaller one: violations at
    # every scale.  Scaled by 2^-40 they are 1.8e-15 and 9.1e-16, which the
    # absolute slacks 1e-12 and 1e-9 forgave
    for s in (1.0, 2.0**-40):
        assert not 2e-3 * s <= _nesting_tol(s)
        assert 5e-4 * s <= _nesting_tol(s)
        assert not _blowup_order_holds([0.5 * s, 0.501 * s], t_end=s)
        assert _blowup_order_holds([0.5 * s, 0.5 * s, 0.499 * s], t_end=s)


def test_snapshots_scale_with_the_problem():
    # the parabolic scaling by mu = 2^30 of a global H^3 bump run: k -> mu k,
    # R and the bump width -> /mu, its amplitude -> mu^2 amplitude (p = 2), every
    # time -> /mu^2.  Its horizon is 5 2^-60; an absolute slack of 1e-14 took
    # every sample time as reached within the first steps, and extrapolated
    # the snapshots to -2 mu^2
    def snapshots(e):
        mu, ctl = 2.0**e, EvolutionControls(t_end=5.0)
        ctl = replace(ctl, **{f: getattr(ctl, f) / mu**2 for f in ("t_end", "dt_init", "dt_min", "dt_max")})
        g = RadialGrid(10.0 / mu, 99)
        out = solve_on_ball(make_hyperbolic(3, mu), g.R, make_u0(g, bump_profile(0.5 * mu**2, 2.0 / mu)),
                            Forcing.one(), 2.0, ctl)
        assert out.verdict == VERDICT_GLOBAL
        return out.snapshots

    base = snapshots(0)
    for e in (20, 30):
        scaled = snapshots(e)
        assert len(scaled) == len(base) == 33
        for (t0, u0), (t, u) in zip(base, scaled):
            assert t * 4.0**e == pytest.approx(t0, rel=1e-9, abs=0)
            assert u.min() >= 0.0
            assert np.max(np.abs(u / 4.0**e - u0)) <= 1e-9 * np.max(np.abs(u0))


def test_exhaustion_blowup_times_nonincreasing(euclid3):
    ctl = EvolutionControls(t_end=60.0, snapshots=26)
    u0 = make_u0(RadialGrid(20.0, 399), bump_profile(3.0, 2.0))
    rep = exhaustion_solve(euclid3, u0, [5.0, 10.0, 20.0], Forcing.one(), 1.5, ctl)
    assert all(o.verdict == VERDICT_BLOWUP for o in rep.outcomes)
    assert rep.blowup_nonincreasing


def test_exhaustion_ladder_over_both_solver_branches_shares_one_step_sequence():
    # the symmetrizer of H^7 with k = 4 spans about 12 R nats: alone, B_5
    # takes the LDL^T branch and B_60 the LU branch; the ladder runs both
    # in one stack, on LU
    M = make_hyperbolic(7, 4.0)
    u0 = make_u0(RadialGrid(60.0, 239), bump_profile(0.5, 1.0))
    rep = exhaustion_solve(M, u0, [5.0, 60.0], Forcing.one(), 2.0, EvolutionControls(t_end=1.0, snapshots=26))
    small, big = rep.outcomes
    assert small.history[:, [0, 2]].tobytes() == big.history[:, [0, 2]].tobytes()
    assert rep.monotone_ok


def test_exhaustion_requires_commensurate_radii(hyp3):
    with pytest.raises(ValueError):
        exhaustion_solve(
            hyp3, make_u0(RadialGrid(10.0, 32), bump_profile(0.1, 1.0)), [6.0, 10.0], Forcing.one(), 2.0,
            EvolutionControls(t_end=1.0),
        )


# --- blow-up criterion ------------------------------------------------------


def test_blowup_criterion_nine_cases():
    # constant and power-law forcing: H grows polynomially, never wins
    assert blowup_criterion(Forcing.one(), 1.5, 1.0, 0.5) is False
    assert blowup_criterion(Forcing.one(), 2.0, 1.0, 0.5) is False
    assert blowup_criterion(Forcing.one(), 3.0, 1.0, 0.5) is False
    assert blowup_criterion(Forcing.power_law(2.0), 1.5, 1.0, 0.5) is False
    assert blowup_criterion(Forcing.power_law(0.5), 2.0, 1.0, 0.5) is False
    assert blowup_criterion(Forcing.power_law(5.0), 1.2, 1.0, 0.5) is False
    # exponential: exponent sign sigma/(p-1) - lambda1 - eps decides
    assert blowup_criterion(Forcing.exponential(2.0), 1.5, 1.0, 0.5) is True
    assert blowup_criterion(Forcing.exponential(1.0), 1.5, 1.0, 0.5) is True
    assert blowup_criterion(Forcing.exponential(1.0), 3.0, 1.0, 0.5) is False


def test_blowup_criterion_validation():
    with pytest.raises(ValueError):
        blowup_criterion(Forcing.one(), 2.0, 1.0, 1.5)  # eps >= lambda1
    with pytest.raises(ValueError):
        blowup_criterion(Forcing.one(), 0.5, 1.0, 0.5)  # p <= 1


# --- data profiles and output ----------------------------------------------


def test_power_tail_profile_shape():
    prof = power_tail_profile(2.0, 1.5)
    r = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    vals = prof(r)
    assert np.allclose(vals[:3], 2.0)
    assert vals[3] == pytest.approx(2.0 * 2.0**-1.5)
    assert np.all(np.diff(vals) <= 0)


def test_history_csv(tmp_path, euclid3):
    g = RadialGrid(5.0, 50)
    u0 = make_u0(g, bump_profile(0.1, 1.0))
    out = solve_on_ball(
        euclid3, 5.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=0.5)
    )
    path = tmp_path / "history.csv"
    save_history_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sup_norm,dt"
    assert len(lines) == len(out.history) + 1
