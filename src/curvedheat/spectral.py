"""Dirichlet spectral bottom on balls and the curvature lower bound.

``dirichlet_lambda1`` runs inverse power iteration on the discrete
radial operator with homogeneous Dirichlet data at R and the
removable-singularity row at the pole.  The iterates are sup-normalised,
so the eigenvalue estimate 1/||A^{-1} x||_inf needs no area weights and
cannot overflow however fast the warping grows.  Ball eigenvalues
decrease to the manifold's spectral bottom as R grows, so they bracket
it from above while ``mckean_bound`` brackets from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .geometry import ModelManifold, drift
from .operators import RadialField, RadialGrid, laplacian_tridiag, solve_banded, tridiag_mult

__all__ = [
    "EigenEstimate",
    "Lambda1Report",
    "RadialSolution",
    "mckean_bound",
    "dirichlet_lambda1",
    "lambda1_estimate",
    "positive_radial_solution",
    "save_eigen_csv",
]


@dataclass(frozen=True)
class EigenEstimate:
    """Smallest Dirichlet eigenvalue on B_R with its eigenfunction."""

    R: float
    lambda1_ball: float
    eigenfunction: RadialField
    iterations: int
    residual: float


@dataclass(frozen=True)
class Lambda1Report:
    """Ball eigenvalues over increasing radii plus the extrapolated limit."""

    radii: tuple
    values: tuple
    estimates: tuple
    monotone: bool
    limit: float
    error_bar: float


@dataclass(frozen=True)
class RadialSolution:
    """Outward-integrated solution of f'' + F f' + lam f = 0, f(0)=1, f'(0)=0."""

    field: RadialField
    derivative: np.ndarray
    lam: float
    positive: bool
    first_zero: float | None


def mckean_bound(n: int, k: float) -> float:
    """Certified spectral lower bound (n-1)^2 k^2 / 4 under pinching -k^2."""
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    if k <= 0:
        raise ValueError(f"curvature scale k must be positive, got {k}")
    return (n - 1) ** 2 * k**2 / 4.0


def dirichlet_lambda1(
    M: ModelManifold,
    R: float,
    N: int,
    *,
    tol_rq: float = 1e-12,
    tol_residual: float = 1e-8,
    maxiter: int = 200_000,
) -> EigenEstimate:
    """Smallest eigenvalue of -Delta_h on B_R via inverse power iteration.

    Deterministic start vector (a positive bump).  With x sup-normalised,
    each step estimates lam = 1/||A^{-1} x||_inf for A = -Delta_h;
    convergence when successive estimates differ by less than ``tol_rq``
    and the residual ||Delta_h phi + lam phi||_inf drops below
    ``tol_residual * ||phi||_inf``, which certifies the eigenpair.
    """
    grid = RadialGrid(R, N)
    sub, diag, sup = laplacian_tridiag(M, grid)
    a_sub, a_diag, a_sup = -sub, -diag, -sup  # A = -Delta_h, positive definite

    x = 1.0 - (grid.nodes[:-1] / R) ** 2
    x /= np.max(np.abs(x))
    lam = np.inf
    for it in range(1, maxiter + 1):
        y = solve_banded(a_sub, a_diag, a_sup, x)
        peak = float(y[int(np.argmax(np.abs(y)))])
        lam_new = 1.0 / abs(peak)
        y /= peak  # sup-normalise with a positive peak
        residual = float(np.max(np.abs(tridiag_mult(a_sub, a_diag, a_sup, y) - lam_new * y)))
        converged = abs(lam_new - lam) <= tol_rq * max(1.0, abs(lam_new)) and residual <= tol_residual
        lam = lam_new
        x = y
        if converged:
            break
    else:
        raise ConvergenceError(
            f"inverse power iteration did not converge in {maxiter} iterations "
            f"(last residual {residual:.3g})"
        )
    phi = np.concatenate((x, [0.0]))
    return EigenEstimate(
        R=float(R),
        lambda1_ball=lam,
        eigenfunction=RadialField(grid, phi),
        iterations=it,
        residual=residual,
    )


def lambda1_estimate(M: ModelManifold, R_list, dr_target: float = 0.01, **kwargs) -> Lambda1Report:
    """Ball eigenvalues over an increasing radius list.

    The limit is estimated by the last value with the last decrement as
    error bar; a non-decreasing pair flags discretization failure.
    """
    radii = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("R_list must be strictly increasing")
    estimates = []
    for R in radii:
        N = max(8, int(round(R / dr_target)) - 1)
        estimates.append(dirichlet_lambda1(M, R, N, **kwargs))
    values = [est.lambda1_ball for est in estimates]
    monotone = all(b < a + 1e-10 for a, b in zip(values, values[1:]))
    error_bar = abs(values[-2] - values[-1]) if len(values) > 1 else float("nan")
    return Lambda1Report(
        radii=tuple(radii),
        values=tuple(values),
        estimates=tuple(estimates),
        monotone=monotone,
        limit=values[-1],
        error_bar=error_bar,
    )


def positive_radial_solution(M: ModelManifold, lam: float, R: float, N: int) -> RadialSolution:
    """Integrate f'' + F f' + lam f = 0 outward from the pole.

    Fixed-step RK4 started from the series f = 1 - lam r^2/(2n) a few
    nodes out (the drift behaves like (n-1)/r at the pole, which would
    otherwise limit the step).  A sign change is reported as the first
    zero crossing: it signals lam above the ball's spectral bottom.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    grid = RadialGrid(R, N)
    dr = grid.dr
    nodes = grid.nodes
    n = M.n

    def series_f(r):
        return 1.0 - lam * r**2 / (2.0 * n) + lam**2 * r**4 / (8.0 * n * (n + 2.0))

    def series_df(r):
        return -lam * r / n + lam**2 * r**3 / (2.0 * n * (n + 2.0))

    i0 = max(1, (n - 1) // 2 + 1)  # keep dr*F below the RK4 stability bite
    vals = np.empty(nodes.size)
    dvals = np.empty(nodes.size)
    vals[: i0 + 1] = series_f(nodes[: i0 + 1])
    dvals[: i0 + 1] = series_df(nodes[: i0 + 1])

    f_half = drift(M, nodes[i0:-1] + 0.5 * dr)
    f_full = drift(M, nodes[i0 + 1 :])
    f_node = drift(M, nodes[i0:-1])

    p, v = float(vals[i0]), float(dvals[i0])
    for j in range(i0, nodes.size - 1):
        fa, fm, fb = f_node[j - i0], f_half[j - i0], f_full[j - i0]
        k1p = v
        k1v = -(fa * v + lam * p)
        k2p = v + 0.5 * dr * k1v
        k2v = -(fm * k2p + lam * (p + 0.5 * dr * k1p))
        k3p = v + 0.5 * dr * k2v
        k3v = -(fm * k3p + lam * (p + 0.5 * dr * k2p))
        k4p = v + dr * k3v
        k4v = -(fb * k4p + lam * (p + dr * k3p))
        p += dr * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        v += dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        vals[j + 1] = p
        dvals[j + 1] = v

    first_zero = None
    sign_change = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if sign_change.size:
        j = int(sign_change[0])
        first_zero = float(nodes[j] + dr * vals[j] / (vals[j] - vals[j + 1]))
    return RadialSolution(
        field=RadialField(grid, vals),
        derivative=dvals,
        lam=float(lam),
        positive=first_zero is None,
        first_zero=first_zero,
    )


def save_eigen_csv(estimates, path):
    with open(path, "w") as fh:
        fh.write("R,lambda1,residual\n")
        for est in estimates:
            fh.write(f"{est.R:.17g},{est.lambda1_ball:.17g},{est.residual:.17g}\n")
