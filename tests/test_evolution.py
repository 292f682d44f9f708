import math
import warnings

import numpy as np
import pytest
import scipy.linalg
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


def test_linear_reaction_exactness_oracle(hyp3):
    # with reaction lam*u and the discrete eigenfunction as data the
    # semidiscrete solution is exactly e^{(lam - lam1) t} u0
    est = dirichlet_lambda1(hyp3, 10.0, 500)
    lam = 0.5
    ctl = EvolutionControls(t_end=1.0, dt_init=1e-4, dt_max=1e-4, rel_tol=0.0)
    out = solve_on_ball(
        hyp3, 10.0, est.eigenfunction, Forcing.one(), 2.0, ctl,
        reaction=lambda u, t: lam * u,
    )
    expect = math.exp((lam - est.lambda1_ball) * 1.0)
    got = sup_norm(out.final)
    assert abs(got / expect - 1.0) < 1e-4


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

    def reference_solve(sub, diag, sup, b):
        calls["solve"] += 1
        ab = np.zeros((3, diag.size))
        ab[0, 1:] = sup[:-1]
        ab[1] = diag
        ab[2, :-1] = sub[1:]
        return scipy.linalg.solve_banded((1, 1), ab, b)

    def counted_reaction(u, t):
        calls["reaction"] += 1
        return float(forcing.h(t)) * np.maximum(u, 0.0) ** p

    monkeypatch.setattr(curvedheat.evolution, "solve_banded", reference_solve)
    ref = solve_on_ball(M, 10.0, u0, forcing, p, ctl, reaction=counted_reaction, n_snapshots=11)
    assert ref.verdict == plain.verdict
    assert np.array_equal(ref.history, plain.history)
    assert len(ref.snapshots) == len(plain.snapshots)
    for (t_ref, s_ref), (t_plain, s_plain) in zip(ref.snapshots, plain.snapshots):
        assert t_ref == t_plain
        assert np.array_equal(s_ref, s_plain)
    assert np.array_equal(ref.final.values, plain.final.values)
    # per step-doubling attempt: three solves, two reaction evaluations
    assert calls["solve"] >= 3 * (len(plain.history) - 1)
    assert 2 * calls["solve"] == 3 * calls["reaction"]


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
