import math

import numpy as np
import pytest
from scipy.integrate import quad

from curvedheat import (
    ExpBarrier,
    Forcing,
    PowerBarrier,
    RadialGrid,
    amplitude_limit,
    drift_lower_constant,
    dump_barrier_kv,
    exp_rate_window,
    fast_decay_rate,
    glued_barrier,
    power_tail_barrier,
    slow_decay_params,
    time_envelope,
    verify_supersolution,
)


# --- decay-rate windows -----------------------------------------------------


def test_rate_window_values():
    lo, hi = exp_rate_window(3, 1.0, 0.75)
    assert (lo, hi) == pytest.approx((0.5, 1.5))
    lo, hi = exp_rate_window(3, 1.0, 1.0)
    assert lo == hi == pytest.approx(1.0)
    with pytest.raises(ValueError):
        exp_rate_window(3, 1.0, 1.01)
    with pytest.raises(ValueError):
        exp_rate_window(3, 1.0, 0.0)


def test_rate_window_shrinks_with_lambda():
    widths = []
    for lam in (0.2, 0.5, 0.8, 1.0):
        lo, hi = exp_rate_window(3, 1.0, lam)
        widths.append(hi - lo)
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert widths[-1] == 0.0


def test_slow_decay_quadratic_sign():
    # with drift floor 1 and lam = 0.5 the selected pair must satisfy
    # a^2 b^2 + a(1 - a - 2) b + 1/2 <= 0
    alpha, beta = slow_decay_params(3, 1.0, 2.0, 0.5)
    assert max(1.0 - 2.0 / 2.0, 0.0) < alpha < 1.0
    q = alpha**2 * beta**2 + alpha * (1.0 - alpha - 2.0) * beta + 0.5
    assert q <= 1e-12


def test_slow_decay_small_lambda_limit():
    alpha, beta = slow_decay_params(3, 1.0, 2.0, 1e-6)
    assert alpha < 0.01
    assert beta < 0.01


def test_slow_decay_rejections():
    with pytest.raises(ValueError):
        slow_decay_params(3, 1.0, 0.0, 0.1)  # needs divergent curvature
    with pytest.raises(ValueError):
        slow_decay_params(3, 1.0, 2.0, 1.0)  # above the window
    with pytest.raises(ValueError):
        # lambda flush against the window edge: no feasible exponent
        slow_decay_params(3, 1.0, 2.0, 0.999999 * (3 - 1) ** 2 / 4.0)


def test_fast_decay_rates():
    assert fast_decay_rate(3, 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)
    assert fast_decay_rate(3, 1.0, 2.0, 0.75, 2.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        fast_decay_rate(3, 1.0, 0.5, 0.5, 1.5)  # alpha above min(1+gamma/2, 2)
    with pytest.raises(ValueError):
        fast_decay_rate(3, 1.0, 2.0, 1.5, 1.0)  # negative discriminant


# --- barrier profiles -------------------------------------------------------


def test_exp_barrier_derivatives_against_differences():
    v = ExpBarrier(0.7, 0.8)
    h = 1e-5
    for r in (0.5, 2.0, 7.0):
        d1 = (v.eval(r + h) - v.eval(r - h)) / (2 * h)
        d2 = (v.eval(r + h) - 2 * v.eval(r) + v.eval(r - h)) / h**2
        assert v.deriv1(r) == pytest.approx(d1, rel=1e-8)
        assert v.deriv2(r) == pytest.approx(d2, rel=1e-4)
    assert v.eval(0.0) == 1.0
    r = np.linspace(0.0, 10, 100)
    vals = v.eval(r)
    assert np.all(np.diff(vals) < 0) and np.all(vals > 0) and np.all(vals <= 1)


def test_power_barrier_cap_coefficients():
    z = PowerBarrier(1.0, 2.0)
    assert z.b == pytest.approx(0.25)
    assert z.a == pytest.approx(1.0)
    # continuity and C^1 glue at r0
    eps = 1e-9
    assert z.eval(2.0 - eps) == pytest.approx(z.eval(2.0 + eps), abs=1e-8)
    assert z.deriv1(2.0 - eps) == pytest.approx(z.deriv1(2.0 + eps), abs=1e-8)
    r = np.linspace(0.0, 10, 50)
    assert np.all(z.eval(r) > 0)


def test_power_tail_constructor_certifies_lambda(gamma3, grid30):
    c = drift_lower_constant(gamma3, grid30.nodes[1:], 3.0)
    barrier, lam_star = power_tail_barrier(3, 1.0, c, 3.0, 1.0)
    # interior condition holds with equality
    assert lam_star == pytest.approx(
        1.0 * 1.0 * 2 / ((1.0 + 1.0) * barrier.r0), rel=1e-12
    )
    chk = verify_supersolution(gamma3, barrier, lam_star, grid30)
    assert chk.passed
    chk = verify_supersolution(gamma3, barrier, lam_star / 2, grid30)
    assert chk.passed


def test_power_tail_needs_steep_divergence():
    with pytest.raises(ValueError):
        power_tail_barrier(3, 1.0, 1.0, 2.0, 1.0)


def test_power_tail_fractional_divergence_exponent():
    from curvedheat import make_gamma_model, radial_curvature

    M = make_gamma_model(3, 0.5, 2.5, 20.0, 1e-3)
    r = np.linspace(0.1, 19, 200)
    assert np.all(radial_curvature(M, r) <= -0.5)
    c = drift_lower_constant(M, r, 2.5)
    barrier, lam_star = power_tail_barrier(3, math.sqrt(0.5), c, 2.5, 1.0)
    chk = verify_supersolution(M, barrier, lam_star, RadialGrid(20.0, 1500))
    assert chk.passed


# --- residual verification --------------------------------------------------


def test_verify_exp_barrier_hyperbolic_passes(hyp3):
    grid = RadialGrid(30.0, 600)
    chk = verify_supersolution(hyp3, ExpBarrier(1.0, 1.0), 1.0, grid)
    assert chk.passed
    # residual has the closed form e^{-r} (1 - 2 coth r + 1)
    r = grid.nodes[37]
    expect = math.exp(-r) * (1.0 - 2.0 / math.tanh(r) + 1.0)
    assert expect <= 0
    assert chk.max_residual <= 0


def test_verify_exp_barrier_euclidean_fails(euclid3):
    grid = RadialGrid(30.0, 600)
    chk = verify_supersolution(euclid3, ExpBarrier(1.0, 1.0), 1.0, grid)
    assert not chk.passed
    assert chk.max_residual > 0
    assert chk.worst_r > 1.0  # flat drift 2/r decays, residual turns positive


def test_verify_at_lambda_zero(hyp3):
    # any rate up to (n-1)k works with no zero-order term
    grid = RadialGrid(20.0, 400)
    for beta in (0.5, 1.0, 2.0):
        chk = verify_supersolution(hyp3, ExpBarrier(1.0, beta), 0.0, grid)
        assert chk.passed


def test_verify_slow_decay_on_model(gamma2, grid30):
    c = drift_lower_constant(gamma2, grid30.nodes[1:], 2.0)
    for lam in (0.02, 0.06, 0.12):
        alpha, beta = slow_decay_params(3, c, 2.0, lam)
        chk = verify_supersolution(gamma2, ExpBarrier(alpha, beta), lam, grid30)
        assert chk.passed, f"lam={lam}: residual {chk.max_residual}"


def test_verify_fast_decay_on_model(gamma2, grid30):
    c = drift_lower_constant(gamma2, grid30.nodes[1:], 2.0)
    lam_cap = (3 - 1) ** 2 * c**2 / 4.0
    for alpha, lam in ((1.0, 0.5 * lam_cap), (1.5, 0.7 * lam_cap), (2.0, 0.9 * lam_cap)):
        beta = fast_decay_rate(3, c, 2.0, lam, alpha)
        chk = verify_supersolution(gamma2, ExpBarrier(alpha, beta), lam, grid30)
        assert chk.passed, f"alpha={alpha}: residual {chk.max_residual}"


# --- glued barrier ----------------------------------------------------------


def test_glued_barrier_assembly(hyp3):
    gb = glued_barrier(hyp3, 1.0, 1.0, 1.0, r0=5.0, r1=4.0, r2=7.0, R_max=30.0, N=3000)
    nodes = gb.grid.nodes
    v = gb.v.eval(nodes)
    # center value is the matching constant itself (phi(0) = 1)
    assert gb.values[0] == pytest.approx(gb.c)
    assert gb.c > 0
    # dominated by the exponential outside the cap
    outside = nodes > 5.0
    assert np.all(gb.values[outside] <= v[outside] * (1 + 1e-12))
    # scaled positive solution stays below the exponential on the annulus
    ann = (nodes >= 4.0) & (nodes <= 7.0)
    assert np.all(gb.c * gb.phi.field.values[ann] <= v[ann] * (1 + 1e-12))
    # no jumps anywhere
    jumps = np.abs(np.diff(gb.values))
    assert np.max(jumps) < 5.0 * gb.grid.dr * gb.sup
    chk = verify_supersolution(hyp3, gb, 1.0, gb.grid)
    assert chk.passed and chk.kink_ok


def test_glued_barrier_on_divergent_model(gamma2):
    gb = glued_barrier(gamma2, 0.3, 0.8, 1.0, r0=6.0, r1=5.0, r2=8.0, R_max=30.0, N=3000)
    chk = verify_supersolution(gamma2, gb, 0.3, gb.grid)
    assert chk.passed and chk.kink_ok


def test_glued_barrier_rejections(euclid3, hyp3, gamma2):
    # lam above the ball's spectral bottom: positive solution crosses zero
    with pytest.raises(ValueError):
        glued_barrier(euclid3, np.pi**2, 1.0, 1.0, 5.0, 4.0, 7.0, 10.0, 1000)
    # decay exponent outside the admissible window for gamma = 2
    with pytest.raises(ValueError):
        glued_barrier(gamma2, 0.3, 2.5, 1.0, 6.0, 5.0, 8.0, 30.0, 3000)
    # constant-curvature model: only the linear-exponent profile
    with pytest.raises(ValueError):
        glued_barrier(hyp3, 1.0, 0.5, 1.0, 5.0, 4.0, 7.0, 30.0, 3000)
    # bad radii ordering
    with pytest.raises(ValueError):
        glued_barrier(hyp3, 1.0, 1.0, 1.0, 5.0, 6.0, 7.0, 30.0, 3000)


def test_glued_verify_catches_a_corrupted_phi(hyp3):
    gb = glued_barrier(hyp3, 1.0, 1.0, 1.0, r0=6.0, r1=5.0, r2=8.0, R_max=30.0, N=3000)
    assert verify_supersolution(hyp3, gb, 1.0, gb.grid).passed
    gb.phi.field.values[gb.grid.nodes > 1.0] *= 1.0 + 1e-6
    chk = verify_supersolution(hyp3, gb, 1.0, gb.grid)
    assert not chk.passed
    assert chk.worst_r == pytest.approx(1.0, abs=gb.grid.dr)


def test_glued_verify_lambda_must_match(hyp3):
    gb = glued_barrier(hyp3, 1.0, 1.0, 1.0, 5.0, 4.0, 7.0, 20.0, 2000)
    with pytest.raises(ValueError):
        verify_supersolution(hyp3, gb, 0.9, gb.grid)


# --- time envelope ----------------------------------------------------------


def test_damped_totals():
    assert Forcing.one().damped_integral(1.0, math.inf) == pytest.approx(1.0)
    assert Forcing.exponential(1.0).damped_integral(2.0, math.inf) == pytest.approx(1.0)
    # divergent budget: p too small relative to the forcing rate
    assert amplitude_limit(Forcing.exponential(1.0), 1.0, 1.5, 1.0) is None
    assert math.isinf(Forcing.exponential(1.0).damped_integral(0.5, math.inf))
    with pytest.raises(ValueError):
        time_envelope(Forcing.exponential(1.0), 1.0, 1.5, 1.0, ctilde=0.0)
    with pytest.raises(ValueError):
        time_envelope(Forcing.exponential(1.0), 0.0, 1.5, 1.0, ctilde=0.1)


def test_power_law_damped_integral_against_quadrature():
    forcing, m = Forcing.power_law(1.5), (2.0 - 1.0) * 0.8
    for t in (0.3, 2.0, 10.0, 40.0):
        oracle, err = quad(lambda s: (1 + s) ** 1.5 * math.exp(-m * s), 0.0, t)
        assert float(forcing.damped_integral(m, t)) == pytest.approx(oracle, rel=1e-10)
    oracle, err = quad(lambda s: (1 + s) ** 1.5 * math.exp(-m * s), 0.0, np.inf)
    assert float(forcing.damped_integral(m, math.inf)) == pytest.approx(oracle, rel=1e-10)


def test_power_law_budget_past_the_exponent_range():
    # e^m and Gamma(q+1) overflow at m > 709 and q > 170, though the integral need not
    total = 1.0 / 800.0 + 1.0 / 800.0**2  # int_0^inf (1+s) e^{-800 s} ds
    assert float(Forcing.power_law(1.0).damped_integral(800.0, math.inf)) == pytest.approx(total, rel=1e-12)
    assert amplitude_limit(Forcing.power_law(1.0), 800.0, 2.0, 1.0) == pytest.approx(1.0 / total, rel=1e-12)
    # q = 200 at m = 1: the budget is about 200!, beyond the float range, so no limit
    assert math.isinf(Forcing.power_law(200.0).damped_integral(1.0, math.inf))
    assert amplitude_limit(Forcing.power_law(200.0), 1.0, 2.0, 1.0) is None


def test_power_law_damped_integral_against_mpmath():
    # D = e^m m^{-q-1} (Gamma(q+1, m) - Gamma(q+1, m (1+t))) to 40 digits, on both sides of
    # m (1+t) = q + 2, where the closed form changes; at q = 200, U(m) ~ 200! lies beyond the float range
    mpmath = pytest.importorskip("mpmath")
    cases = [(200.0, 1.0, 0.5), (200.0, 5.0, 2.0), (50.0, 0.8, 3.0), (50.0, 5.0, 40.0), (10.0, 0.05, 2.0),
             (10.0, 0.05, 300.0), (3.0, 1.0, 0.5), (3.0, 1.0, 10.0), (1.5, 0.8, 2.0), (1.5, 0.8, 40.0),
             (0.5, 5.0, 10.0), (-0.5, 1.0, 0.5), (-0.5, 1.0, 40.0)]
    with mpmath.workdps(40):
        for q, m, t in cases:
            a = mpmath.mpf(q) + 1
            oracle = float(mpmath.exp(m) * m**-a * mpmath.gammainc(a, m, m * (1 + t)))
            got = Forcing.power_law(q).damped_integral(m, np.array([t, 0.0, t]))
            assert got[0] == pytest.approx(oracle, rel=1e-12), (q, m, t)
            assert got[0] == got[2] == Forcing.power_law(q).damped_integral(m, t) and got[1] == 0.0
        oracle = mpmath.quad(lambda s: (1 + s) ** 200 * mpmath.exp(-s), [0, 0.5])
    assert float(Forcing.power_law(200.0).damped_integral(1.0, 0.5)) == pytest.approx(float(oracle), rel=1e-12)
    # about 200!/e^300, past the float range: inf, not inf - inf
    assert math.isinf(Forcing.power_law(200.0).damped_integral(1.0, 300.0))


def test_power_law_damped_integral_keeps_its_digits_at_short_t():
    # D ~ t at short t, where both closed forms subtract terms of size L(m) or U(m)
    # and lost half the digits (1.3e-10 relative at q = 0, m = 1, t = 1e-6); the
    # grid spans q in [-0.5, 200], m in [1e-3, 50], t in [1e-9, 1], with q ~ m ~ 46
    # and 82 where the integrand is flat at first and the closed forms take over
    mpmath = pytest.importorskip("mpmath")
    ts = np.geomspace(1e-9, 1.0, 12)
    with mpmath.workdps(40):
        for q in (-0.5, 0.0, 1.5, 46.26, 82.0, 200.0):
            a = mpmath.mpf(q) + 1
            for m in (1e-3, 1.0, 2.0, 46.4, 50.0):
                got = Forcing.power_law(q).damped_integral(m, ts)
                for t, value in zip(ts, got):
                    oracle = mpmath.exp(m) * m**-a * mpmath.gammainc(a, m, m * (1 + mpmath.mpf(t)))
                    assert value == pytest.approx(float(oracle), rel=1e-13, abs=0.0), (q, m, t)
                    assert value == Forcing.power_law(q).damped_integral(m, t)


def test_damped_integral_monotone():
    t = np.linspace(0.0, 30.0, 301)
    for forcing in (Forcing.one(), Forcing.power_law(2.0), Forcing.exponential(0.5)):
        h = forcing.damped_integral(1.5, t)
        assert np.all(np.diff(h) >= 0)


def test_growth_factor_closed_form():
    # budget exactly one half: growth saturates at 2
    env = time_envelope(Forcing.one(), 1.0, 2.0, 1.0, ctilde=0.5)
    assert float(env.growth(0.0)) == pytest.approx(1.0)
    assert float(env.growth(1e9)) == pytest.approx(2.0)
    t = np.linspace(0, 20, 100)
    g = env.growth(t)
    assert np.all(np.diff(g) >= 0)


def test_growth_wall_on_violated_budget():
    # amplitude far above the limit: the growth factor is finite only up
    # to the budget wall, then the envelope ceases to exist
    env = time_envelope(Forcing.one(), 1.0, 2.0, 1.0, ctilde=10.0)
    assert math.isfinite(float(env.growth(0.05)))
    assert math.isinf(float(env.growth(5.0)))


def test_infinite_budget_finite_horizon():
    # divergent damped forcing: no amplitude limit, but the envelope is
    # still evaluable on finite horizons
    env = time_envelope(Forcing.exponential(1.0), 1.0, 1.5, 1.0, ctilde=0.05)
    t = np.linspace(0.0, 10.0, 50)
    h = env.forcing.damped_integral(0.5, t)
    assert np.all(np.isfinite(h)) and np.all(np.diff(h) > 0)
    assert np.all(np.isfinite(env.growth(np.linspace(0, 3, 20))))


def test_amplitude_limit_formula():
    # (1/||w||) (1/((p-1) D_inf))^{1/(p-1)}
    lim = amplitude_limit(Forcing.one(), 1.0, 2.0, 1.0)
    assert lim == pytest.approx(1.0)
    lim = amplitude_limit(Forcing.exponential(1.0), 1.0, 2.2, 1.0)
    total = 1.0 / ((2.2 - 1.0) * 1.0 - 1.0)
    assert lim == pytest.approx((1.0 / ((2.2 - 1.0) * total)) ** (1.0 / 1.2))


def test_growth_factor_against_ode_oracle():
    # independent RK4 on xi' = W^{p-1} h(t) e^{-(p-1) lam t} xi^p
    forcing = Forcing.power_law(1.0)
    lam, p = 0.8, 2.0
    w = 0.5 * amplitude_limit(forcing, lam, p, 1.0)  # data at half the limit, barrier sup 1
    env = time_envelope(forcing, lam, p, 1.0, ctilde=w)
    t_end, n = 20.0, 20000
    dt = t_end / n
    xi = 1.0
    ts = [0.0]
    xis = [1.0]

    def rhs(t, x):
        return w ** (p - 1) * float(forcing.h(t)) * math.exp(-(p - 1) * lam * t) * x**p

    for i in range(n):
        t = i * dt
        k1 = rhs(t, xi)
        k2 = rhs(t + dt / 2, xi + dt / 2 * k1)
        k3 = rhs(t + dt / 2, xi + dt / 2 * k2)
        k4 = rhs(t + dt, xi + dt * k3)
        xi += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        ts.append((i + 1) * dt)
        xis.append(xi)
    closed = env.growth(np.array(ts))
    assert np.max(np.abs(closed - np.array(xis))) < 1e-8


# --- serialization ----------------------------------------------------------


def kv_entries(line):
    """The key=value tokens of a barrier line: kind as text, the rest as floats."""
    d = dict(token.split("=", 1) for token in line.split())
    return {key: value if key == "kind" else float(value) for key, value in d.items()}


def test_barrier_kv_roundtrip(hyp3):
    line = dump_barrier_kv(ExpBarrier(1.0, 0.75), 0.5)
    d = kv_entries(line)
    assert d["kind"] == "exp"
    assert d["alpha"] == 1.0 and d["beta"] == 0.75 and d["lambda"] == 0.5

    line = dump_barrier_kv(PowerBarrier(1.0, 2.0), 0.2)
    d = kv_entries(line)
    assert d["kind"] == "power-tail"
    assert d["a"] == pytest.approx(1.0) and d["b"] == pytest.approx(0.25)

    gb = glued_barrier(hyp3, 1.0, 1.0, 1.0, 5.0, 4.0, 7.0, 20.0, 2000)
    d = kv_entries(dump_barrier_kv(gb, 1.0))
    assert d["kind"] == "glued" and d["c"] == pytest.approx(gb.c)

    with pytest.raises(TypeError):
        dump_barrier_kv(object(), 1.0)
