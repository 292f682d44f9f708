"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Items are desk-scale; the sweep (criterion 7) is the
longest and stays well under its ten-minute budget.
"""

import math
import time

import numpy as np

from curvedheat import (
    VERDICT_BLOWUP,
    VERDICT_GLOBAL,
    EvolutionControls,
    ExpBarrier,
    Forcing,
    RadialField,
    RadialGrid,
    SmoothRadialFn,
    amplitude_limit,
    apply_laplacian_analytic,
    barrier_profile,
    blowup_criterion,
    bump_profile,
    compare_with_envelope,
    dirichlet_lambda1,
    drift_lower_constant,
    exhaustion_solve,
    exp_rate_window,
    fast_decay_rate,
    glued_barrier,
    make_hyperbolic,
    mckean_bound,
    power_tail_barrier,
    slow_decay_params,
    solve_on_ball,
    sup_norm,
    time_envelope,
    verify_supersolution,
)
from curvedheat.config import parse_config, preset_text
from curvedheat.experiments import run_sweep
from curvedheat.operators import laplacian_tridiag


def _report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_spectral_calibration(euclid3, hyp3):
    est = dirichlet_lambda1(hyp3, 40.0, 4000)
    assert 1.0 <= est.lambda1_ball <= 1.01
    est_e = dirichlet_lambda1(euclid3, 1.0, 2000)
    assert abs(est_e.lambda1_ball / np.pi**2 - 1.0) < 1e-3
    _report(1, "spectral calibration")


def test_criterion_2_barrier_residual_suite(euclid3, hyp3, gamma2, gamma3, grid30):
    tol = 1e-10

    # linear-rate exponential barriers on pinched models, 3 draws
    for n, k, lam, pick in ((3, 1.0, 0.75, "lo"), (3, 1.0, 0.75, "hi"), (4, 1.2, 2.5, "mid")):
        M = make_hyperbolic(n, k)
        lo, hi = exp_rate_window(n, k, lam)
        beta = {"lo": lo, "hi": hi, "mid": 0.5 * (lo + hi)}[pick]
        chk = verify_supersolution(M, ExpBarrier(1.0, beta), lam, grid30)
        assert chk.passed and chk.max_residual <= tol

    # slow-decay stretched exponentials on the divergent model, 3 draws
    c2 = drift_lower_constant(gamma2, grid30.nodes[1:], 2.0)
    for lam in (0.02, 0.06, 0.12):
        alpha, beta = slow_decay_params(3, c2, 2.0, lam)
        assert alpha < 1.0
        chk = verify_supersolution(gamma2, ExpBarrier(alpha, beta), lam, grid30)
        assert chk.passed

    # fast-decay exponentials, 3 draws
    lam_cap = (3 - 1) ** 2 * c2**2 / 4.0
    for alpha, frac in ((1.0, 0.5), (1.5, 0.7), (2.0, 0.9)):
        beta = fast_decay_rate(3, c2, 2.0, frac * lam_cap, alpha)
        chk = verify_supersolution(gamma2, ExpBarrier(alpha, beta), frac * lam_cap, grid30)
        assert chk.passed

    # power-tail barriers with their certified lam*, 3 draws
    c3 = drift_lower_constant(gamma3, grid30.nodes[1:], 3.0)
    for alpha in (0.5, 1.0, 2.0):
        barrier, lam_star = power_tail_barrier(3, 1.0, c3, 3.0, alpha)
        chk = verify_supersolution(gamma3, barrier, lam_star, grid30)
        assert chk.passed and chk.kink_ok

    # glued barriers, 3 draws
    for M, lam, alpha, beta in (
        (hyp3, 1.0, 1.0, 1.0),
        (hyp3, 0.8, 1.0, 0.7),
        (gamma2, 0.3, 0.8, 1.0),
    ):
        gb = glued_barrier(M, lam, alpha, beta, r0=6.0, r1=5.0, r2=8.0, R_max=30.0, N=3000)
        chk = verify_supersolution(M, gb, lam, gb.grid)
        assert chk.passed and chk.kink_ok

    # negative control: flat space admits no such barrier
    chk = verify_supersolution(euclid3, ExpBarrier(1.0, 1.0), 1.0, grid30)
    assert not chk.passed and chk.max_residual > tol
    _report(2, "barrier residual suite")


def test_criterion_3_window_algebra():
    rng = np.random.default_rng(20260811)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = float(rng.uniform(0.1, 4.0))
        lam = float(rng.uniform(0.01, 1.0)) * mckean_bound(n, k)
        lo, hi = exp_rate_window(n, k, lam)
        kn1 = k * (n - 1)
        assert abs(lo + hi - kn1) <= 1e-12 * max(1.0, kn1)
        assert abs(lo * hi - lam) <= 1e-12 * max(1.0, lam)
    # exact collapse at the top of the window
    for n, k in ((2, 0.3), (3, 1.0), (5, 2.7)):
        lo, hi = exp_rate_window(n, k, mckean_bound(n, k))
        assert lo == hi
    _report(3, "window algebra")


def test_criterion_4_growth_factor_oracle():
    cases = [
        (Forcing.one(), 1.0, 2.0),
        (Forcing.power_law(1.0), 0.8, 2.0),
        (Forcing.exponential(1.0), 1.0, 3.0),
    ]
    for forcing, lam, p in cases:
        w = 0.5 * amplitude_limit(forcing, lam, p, 1.0)  # data at half the limit, barrier sup 1
        env = time_envelope(forcing, lam, p, 1.0, ctilde=w)
        n_steps, t_end = 20000, 20.0
        dt = t_end / n_steps

        def rhs(t, x):
            return w ** (p - 1) * float(forcing.h(t)) * math.exp(-(p - 1) * lam * t) * x**p

        xi, ts, xis = 1.0, [0.0], [1.0]
        for i in range(n_steps):
            t = i * dt
            k1 = rhs(t, xi)
            k2 = rhs(t + dt / 2, xi + dt / 2 * k1)
            k3 = rhs(t + dt / 2, xi + dt / 2 * k2)
            k4 = rhs(t + dt, xi + dt * k3)
            xi += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
            ts.append((i + 1) * dt)
            xis.append(xi)
        err = np.max(np.abs(env.growth(np.array(ts)) - np.array(xis)))
        assert err < 1e-8, f"{forcing.label()}: oracle gap {err:.2e}"

    # finiteness classifier against the sign of (p-1) lam - sigma
    for sigma in (0.5, 1.0, 2.0):
        for lam in (0.3, 1.0, 2.0):
            for p in (1.2, 2.0, 3.0):
                total = Forcing.exponential(sigma).damped_integral((p - 1) * lam, math.inf)
                assert math.isfinite(total) == ((p - 1) * lam - sigma > 0)
    _report(4, "growth-factor oracle")


def test_criterion_5_comparison_sandwich(hyp3):
    v = ExpBarrier(1.0, 1.0)
    lam, p = 1.0, 2.0
    limit = amplitude_limit(Forcing.one(), lam, p, v.sup)
    env = time_envelope(Forcing.one(), lam, p, v.sup, ctilde=0.5 * limit)
    ctl = EvolutionControls(t_end=50.0, dt_init=2e-3, dt_max=2e-3, rel_tol=0.0, snapshots=26)
    grid = RadialGrid(40.0, 799)
    u0 = barrier_profile(v, env.ctilde)(grid.nodes)
    u0[-1] = 0.0
    rep = exhaustion_solve(hyp3, RadialField(grid, u0), [10.0, 20.0, 40.0], Forcing.one(), p, ctl)
    u0_sup = env.ctilde * v.sup
    tol = 1e-3 * u0_sup
    for R, outcome in zip(rep.radii, rep.outcomes):
        assert outcome.verdict == VERDICT_GLOBAL
        # pointwise sandwich against the scaled barrier
        cmp = compare_with_envelope(outcome, v.eval(outcome.final.grid.nodes), env)
        assert cmp.passed, f"R={R}: violation {cmp.max_violation:.2e}"
        # sup-norm form of the envelope with the stated tolerance
        for t, snap in outcome.snapshots:
            bound = math.exp(-lam * t) * float(env.growth(t)) * u0_sup
            assert snap.max() <= bound + tol
            assert snap.min() >= -tol
    assert rep.monotone_ok
    assert rep.gaps[0] > rep.gaps[1]
    _report(5, "comparison sandwich")


def test_criterion_6_fujita_dichotomy(euclid3):
    g = RadialGrid(20.0, 400)

    def u0_of(amplitude):
        vals = bump_profile(amplitude, 3.0)(g.nodes)
        vals[-1] = 0.0
        return RadialField(g, vals)

    out = solve_on_ball(
        euclid3, 20.0, u0_of(1.0), Forcing.one(), 1.5, EvolutionControls(t_end=100.0)
    )
    assert out.verdict == VERDICT_BLOWUP
    assert out.t_star is not None

    out = solve_on_ball(
        euclid3, 20.0, u0_of(1e-2), Forcing.one(), 2.5, EvolutionControls(t_end=50.0)
    )
    assert out.verdict == VERDICT_GLOBAL
    sups = out.history[:, 1]
    assert np.max(sups) <= 2.0 * 1e-2  # stays bounded
    assert sup_norm(out.final) < 0.5 * 1e-2  # and decays through t = 50
    _report(6, "flat-space dichotomy")


def test_criterion_7_exponential_forcing_sweep(tmp_path):
    cfg = parse_config(preset_text("exp-forcing-hyperbolic"))
    t0 = time.time()
    ok, _ = run_sweep(cfg, tmp_path, threads=1)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert ok  # every certified claim held up

    header = (tmp_path / "sweep.csv").read_text().splitlines()[0].split(",")
    rows = [
        line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    ]
    i_env = header.index("envelope_pass")
    transition = 0
    for row in rows:
        p, verdict = float(row[0]), row[1]
        if p <= 1.8 + 1e-9:
            assert verdict == VERDICT_BLOWUP, f"p={p}: {verdict}"
        elif p >= 2.2 - 1e-9:
            assert verdict == VERDICT_GLOBAL and row[i_env] == "true", f"p={p}: {verdict}"
        else:
            transition += 1
    print(
        f"\n  transition cells in (1.8, 2.2): {transition} "
        f"(boundary near p = 2); sweep wall time {elapsed:.0f}s"
    )
    _report(7, "exponential-forcing threshold")


def test_criterion_8_discretization_order(euclid3, hyp3, gamma2):
    fns = [
        SmoothRadialFn(
            lambda r: np.exp(-(r**2)),
            lambda r: -2 * r * np.exp(-(r**2)),
            lambda r: (4 * r**2 - 2) * np.exp(-(r**2)),
        ),
        SmoothRadialFn(np.cos, lambda r: -np.sin(r), lambda r: -np.cos(r)),
        SmoothRadialFn(
            lambda r: 1.0 / (1.0 + r**2),
            lambda r: -2 * r / (1.0 + r**2) ** 2,
            lambda r: (6 * r**2 - 2) / (1.0 + r**2) ** 3,
        ),
    ]
    for M in (euclid3, hyp3, gamma2):
        for fn in fns:
            errs = []
            for N in (160, 321):
                g = RadialGrid(10.0, N)
                num = laplacian_tridiag(M, g).mult(fn.eval(g.nodes))[1:]
                exact = apply_laplacian_analytic(M, fn, g.interior)
                errs.append(np.max(np.abs(num - exact)))
            order = math.log2(errs[0] / errs[1])
            assert 1.5 <= order <= 2.5, f"{M.psi.kind}: order {order:.2f}"
    _report(8, "discretization order")


def test_criterion_9_blowup_criterion_limits():
    cases = [
        (Forcing.one(), 1.5, 1.0, 0.5, False),
        (Forcing.one(), 2.0, 1.0, 0.2, False),
        (Forcing.one(), 3.0, 2.0, 1.0, False),
        (Forcing.power_law(2.0), 1.5, 1.0, 0.5, False),
        (Forcing.power_law(0.5), 2.0, 0.5, 0.2, False),
        (Forcing.power_law(5.0), 1.2, 1.0, 0.5, False),
        (Forcing.exponential(2.0), 1.5, 1.0, 0.5, True),  # sigma/(p-1) = 4 > 1.5
        (Forcing.exponential(1.0), 1.5, 1.0, 0.5, True),  # 2 > 1.5
        (Forcing.exponential(1.0), 3.0, 1.0, 0.5, False),  # 0.5 < 1.5
    ]
    for forcing, p, lam1, eps, expect in cases:
        assert blowup_criterion(forcing, p, lam1, eps) is expect
    _report(9, "forced blow-up limits")
