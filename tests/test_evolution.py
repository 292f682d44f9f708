import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
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
    solve_on_ball,
    sup_norm,
    time_envelope,
)


def make_u0(grid, profile):
    vals = np.asarray(profile(grid.nodes), dtype=float)
    vals[-1] = 0.0
    return RadialField(grid, vals)


# --- forcing families -------------------------------------------------------


def test_forcing_closed_forms():
    t = np.linspace(0.0, 5.0, 11)
    assert np.allclose(Forcing.one().H(t), t)
    f = Forcing.power_law(1.5)
    for ti in (0.5, 2.0):
        oracle, _ = quad(lambda s: (1 + s) ** 1.5, 0, ti)
        assert float(f.H(ti)) == pytest.approx(oracle, rel=1e-12)
    f = Forcing.exponential(0.7)
    assert float(f.H(2.0)) == pytest.approx((math.exp(1.4) - 1.0) / 0.7, rel=1e-12)


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
        hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=5.0), n_snapshots=21
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
        EvolutionControls(t_end=2.0), n_snapshots=41,
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
    "rel_tol, low, high",
    [pytest.param(1.0, 6.5, math.inf, id="adaptive"), pytest.param(0.0, 1.9, 2.1, id="fixed")],
)
def test_time_order_on_linear_oracle(hyp3, rel_tol, low, high):
    # every adaptive attempt is accepted at rel_tol = 1, so both modes take
    # t_end / h steps: the extrapolated step is third order, IMEX Euler first
    errors = []
    for h in (0.1, 0.05, 0.025):
        ctl = EvolutionControls(t_end=2.0, dt_init=h, dt_max=h, rel_tol=rel_tol)
        error, steps = linear_oracle_run(hyp3, 10.0, 500, 0.5, ctl)
        assert steps == round(2.0 / h)
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
            EvolutionControls(t_end=5.0, rel_tol=rtol), n_snapshots=11,
        )
        sups.append(np.array([np.max(np.abs(s)) for _, s in out.snapshots]))
    assert np.max(np.abs(sups[0] - sups[1])) < 1e-4 * np.max(sups[0]) * 10


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


def overflowing_fixed_step_run(euclid3, threshold):
    # h u^p overflows on the fourth step: sup u0 = 50, p = 5, dt = 0.05
    g = RadialGrid(2.0, 49)
    u0 = make_u0(g, bump_profile(50.0, 0.5))
    ctl = EvolutionControls(t_end=1.0, dt_init=0.05, rel_tol=0.0, blowup_threshold=threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is handled, not reported
        return solve_on_ball(euclid3, 2.0, u0, Forcing.one(), 5.0, ctl)


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


@pytest.mark.parametrize(
    "manifold, amplitude, p, t_end, verdict",
    [("hyp3", 0.5, 2.0, 5.0, VERDICT_GLOBAL), ("euclid3", 3.0, 1.5, 60.0, VERDICT_BLOWUP)],
)
def test_shared_reaction_matches_reference_solves(request, monkeypatch, manifold, amplitude, p, t_end, verdict):
    M = request.getfixturevalue(manifold)
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, bump_profile(amplitude, 2.0))
    forcing = Forcing.one()
    ctl = EvolutionControls(t_end=t_end)
    plain = solve_on_ball(M, 10.0, u0, forcing, p, ctl, n_snapshots=11)
    assert plain.verdict == verdict

    calls = {"solve": 0, "reaction": 0}

    def reference_factor(sub, diag, sup):
        return sub, diag, sup

    def reference_solve(band, b):
        calls["solve"] += 1
        sub, diag, sup = band
        ab = np.zeros((3, diag.size))
        ab[0, 1:] = sup[:-1]
        ab[1] = diag
        ab[2, :-1] = sub[1:]
        return scipy.linalg.solve_banded((1, 1), ab, b)

    def counted_reaction(u, t):
        calls["reaction"] += 1
        return float(forcing.h(t)) * np.maximum(u, 0.0) ** p

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", reference_factor)
    monkeypatch.setattr(curvedheat.evolution, "solve_banded", reference_solve)
    ref = solve_on_ball(M, 10.0, u0, forcing, p, ctl, reaction=counted_reaction, n_snapshots=11)
    assert ref.verdict == plain.verdict
    assert np.array_equal(ref.history, plain.history)
    assert len(ref.snapshots) == len(plain.snapshots)
    for (t_ref, s_ref), (t_plain, s_plain) in zip(ref.snapshots, plain.snapshots):
        assert t_ref == t_plain
        assert np.array_equal(s_ref, s_plain)
    assert np.array_equal(ref.final.values, plain.final.values)
    # per attempt: six solves, four reaction evaluations
    assert calls["solve"] >= 6 * (len(plain.history) - 1)
    assert 2 * calls["solve"] == 3 * calls["reaction"]


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
    # 33 steps of 0.03 and a last step clamped to the remaining 0.01
    ctl = EvolutionControls(t_end=1.0, dt_init=0.03, dt_max=0.03, rel_tol=0.0)
    factor, solve = curvedheat.evolution.factor_banded, curvedheat.evolution.solve_banded
    with monkeypatch.context() as patch:
        calls = count_factors_and_solves(patch)
        plain = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl, n_snapshots=11)
    assert plain.verdict == VERDICT_GLOBAL
    assert calls["solve"] == len(plain.history) - 1 == 34
    assert calls["factor"] == 2

    def factor_each_solve(band, b):
        return solve(factor(*band), b)

    monkeypatch.setattr(curvedheat.evolution, "factor_banded", lambda *band: band)
    monkeypatch.setattr(curvedheat.evolution, "solve_banded", factor_each_solve)
    ref = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl, n_snapshots=11)
    assert np.array_equal(ref.history, plain.history)
    assert np.array_equal(ref.final.values, plain.final.values)


def test_adaptive_run_reuses_factors_across_steps(hyp3, monkeypatch):
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, bump_profile(0.5, 2.0))
    calls = count_factors_and_solves(monkeypatch)
    out = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=20.0), n_snapshots=11)
    assert out.verdict == VERDICT_GLOBAL
    attempts, factor_sets = calls["solve"] / 6, calls["factor"] / 3
    assert attempts >= len(out.history) - 1
    assert factor_sets < attempts / 10


def test_comparison_sandwich_small(hyp3):
    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup)  # ctilde = 0.5
    g = RadialGrid(10.0, 200)
    u0 = make_u0(g, barrier_profile(v, env.ctilde))
    ctl = EvolutionControls(t_end=10.0, dt_init=2e-3, dt_max=2e-3, rel_tol=0.0)
    out = solve_on_ball(hyp3, 10.0, u0, Forcing.one(), 2.0, ctl, n_snapshots=21)
    cmp = compare_with_envelope(out, v.eval(g.nodes), env)
    assert cmp.passed
    assert cmp.max_violation <= 0.0  # equality only at t = 0


def test_comparison_equality_at_t0(hyp3):
    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup)
    g = RadialGrid(10.0, 100)
    u0 = make_u0(g, barrier_profile(v, env.ctilde))
    out = solve_on_ball(
        hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=0.01), n_snapshots=2
    )
    t0, snap0 = out.snapshots[0]
    bound = env.ctilde * v.eval(g.nodes)
    bound[-1] = 0.0
    assert np.max(np.abs(snap0 - bound)) == 0.0


def test_comparison_negative_control(hyp3):
    # data ten times above the admissible amplitude breaks the sandwich
    v = ExpBarrier(1.0, 1.0)
    env = time_envelope(Forcing.one(), 1.0, 2.0, v.sup)
    g = RadialGrid(10.0, 200)
    u0 = make_u0(g, barrier_profile(v, 10.0 * env.ctilde))
    out = solve_on_ball(
        hyp3, 10.0, u0, Forcing.one(), 2.0, EvolutionControls(t_end=1.0), n_snapshots=5
    )
    cmp = compare_with_envelope(out, v.eval(g.nodes), env)
    assert not cmp.passed
    assert cmp.max_violation > 1.0


def test_exhaustion_nesting_and_gaps(hyp3):
    v = ExpBarrier(1.0, 1.0)
    ctl = EvolutionControls(t_end=10.0, dt_init=2e-3, dt_max=2e-3, rel_tol=0.0)
    rep = exhaustion_solve(
        hyp3, [5.0, 10.0, 20.0], barrier_profile(v, 0.5), Forcing.one(), 2.0, ctl, dr=0.05
    )
    assert rep.monotone_ok
    assert all(o.verdict == VERDICT_GLOBAL for o in rep.outcomes)
    assert rep.gaps[0] > rep.gaps[1]


def test_exhaustion_zero_data(hyp3):
    ctl = EvolutionControls(t_end=1.0)
    rep = exhaustion_solve(
        hyp3, [5.0, 10.0], lambda r: np.zeros_like(np.asarray(r, float)),
        Forcing.one(), 2.0, ctl, dr=0.1,
    )
    assert rep.max_violation == 0.0
    assert all(sup_norm(o.final) == 0.0 for o in rep.outcomes)


def test_exhaustion_blowup_times_nonincreasing(euclid3):
    ctl = EvolutionControls(t_end=60.0)
    rep = exhaustion_solve(
        euclid3, [5.0, 10.0, 20.0], bump_profile(3.0, 2.0), Forcing.one(), 1.5, ctl,
        dr=0.05,
    )
    assert all(o.verdict == VERDICT_BLOWUP for o in rep.outcomes)
    assert rep.blowup_nonincreasing


def test_exhaustion_requires_commensurate_radii(hyp3):
    with pytest.raises(ValueError):
        exhaustion_solve(
            hyp3, [6.0, 10.0], bump_profile(0.1, 1.0), Forcing.one(), 2.0,
            EvolutionControls(t_end=1.0), dr=0.3,
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
