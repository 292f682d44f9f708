"""Verdict times against a second integrator: scipy's Radau on a run's own semi-discrete system."""

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import solve_ivp

from curvedheat import VERDICT_BLOWUP, solve_on_ball
from curvedheat.config import parse_config, preset_text
from curvedheat.experiments import _initial_field, build_manifold
from curvedheat.operators import RadialGrid, laplacian_tridiag


def radau_threshold_time(M, u0, forcing, p, threshold, t_end, rtol=1e-10):
    """First t with sup u = threshold for u' = Delta_h u + h(t) max(u, 0)^p; None if t_end comes first.

    Delta_h is the band of u0's grid.  The unknowns are u_0..u_N, as in
    the engine; the boundary node stays 0.
    """
    band = laplacian_tridiag(M, u0.grid)
    A = scipy.sparse.diags([band.sub[1:], band.diag, band.sup[:-1]], [-1, 0, 1], format="csc")

    def rhs(t, u):
        return A @ u + forcing.h(t) * np.maximum(u, 0.0) ** p

    def jac(t, u):
        return A + scipy.sparse.diags(p * forcing.h(t) * np.maximum(u, 0.0) ** (p - 1.0), format="csc")

    def crossing(t, u):
        return np.max(u) - threshold

    crossing.terminal, crossing.direction = True, 1.0
    y0 = u0.values[:-1]
    sol = solve_ivp(
        rhs, (0.0, t_end), y0, method="Radau", jac=jac, events=crossing, rtol=rtol, atol=1e-2 * rtol * np.max(y0)
    )
    assert sol.status >= 0, sol.message
    return float(sol.t_events[0][0]) if sol.status == 1 else None


def exp_sweep_cell(p, N=49):
    """The exp-forcing-hyperbolic sweep cell nearest to p, on N grid intervals."""
    cfgs = parse_config(preset_text("exp-forcing-hyperbolic").replace("N = 399", f"N = {N}")).sweep.configs
    cfg = min(cfgs, key=lambda c: abs(c.p - p))
    assert cfg.grid.N == N and abs(cfg.p - p) < 1e-9
    return cfg


@pytest.mark.parametrize("p", [1.5, 1.8])
def test_blowup_time_matches_radau(p):
    # measured: +1.9e-6 (p = 1.5) and -2.4e-6 (p = 1.8) relative; at
    # p = 1.2 t_star is 1.6e-4 late, the end of a crossing step of 1.1e-3
    cfg = exp_sweep_cell(p)
    M = build_manifold(cfg)
    u0, *_ = _initial_field(cfg, M, RadialGrid(cfg.grid.R, cfg.grid.N))
    out = solve_on_ball(M, cfg.grid.R, u0, cfg.forcing, cfg.p, cfg.controls)
    assert out.verdict == VERDICT_BLOWUP
    t_ref = radau_threshold_time(M, u0, cfg.forcing, cfg.p, out.threshold, cfg.controls.t_end)
    assert abs(out.t_star - t_ref) <= 0.5 * cfg.controls.rel_tol * t_ref, (out.t_star, t_ref)
