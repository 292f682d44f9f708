"""Dirichlet spectral bottom on balls and the curvature lower bound.

``dirichlet_lambda1`` solves the discrete radial eigenproblem with
homogeneous Dirichlet data at R and the flux-form pole row.  Delta_h is
self-adjoint in a diagonal volume weight, so -Delta_h is similar to the
symmetric tridiagonal matrix with off-diagonals -sqrt(sub_{i+1} sup_i);
a symmetric tridiagonal eigenvalue routine gives its smallest
eigenvalue directly, and one shifted solve gives the eigenvector.
Neither step touches the area density itself, so nothing overflows
however fast the warping grows.  Ball eigenvalues decrease to the
manifold's spectral bottom as R grows, so they bracket it from above
while ``mckean_bound`` brackets from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .geometry import ModelManifold
from .operators import (
    RadialField,
    RadialGrid,
    factor_banded,
    laplacian_tridiag,
    solve_banded,
    tridiag_mult,
)

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
    """Node values of (Delta_h + lam) f = 0 on rows 0..N with f_0 = 1."""

    field: RadialField
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


def dirichlet_lambda1(M: ModelManifold, R: float, N: int) -> EigenEstimate:
    """Smallest eigenvalue of -Delta_h on B_R and its eigenfunction.

    lam is the smallest eigenvalue of the symmetrised band (LAPACK
    bisection, ``eigh_tridiagonal``).  The eigenfunction is one step of
    inverse iteration from a positive bump: the solve of
    (A - s I) phi = x0 for A = -Delta_h, with the shift s placed
    4 eps max(diag A) below lam, past the bisection's error bound, so that
    A - s I stays a nonsingular M-matrix and phi comes out positive.
    phi is sup-normalised with a positive peak; ``residual`` is
    ||A phi - lam phi||_inf, which certifies the pair, and
    ``iterations`` counts the one solve.
    """
    grid = RadialGrid(R, N)
    sub, diag, sup = laplacian_tridiag(M, grid)
    a_sub, a_diag, a_sup = -sub, -diag, -sup  # A = -Delta_h, an M-matrix
    lam = float(
        eigh_tridiagonal(
            a_diag, -np.sqrt(sub[1:] * sup[:-1]), eigvals_only=True, select="i", select_range=(0, 0)
        )[0]
    )
    shift = lam - 4.0 * np.finfo(float).eps * float(np.max(a_diag))
    y = solve_banded(factor_banded(a_sub, a_diag - shift, a_sup), 1.0 - (grid.nodes[:-1] / R) ** 2)
    y /= y[int(np.argmax(np.abs(y)))]  # sup-normalise with a positive peak
    residual = float(np.max(np.abs(tridiag_mult(a_sub, a_diag, a_sup, y) - lam * y)))
    return EigenEstimate(
        R=float(R),
        lambda1_ball=lam,
        eigenfunction=RadialField(grid, np.concatenate((y, [0.0]))),
        iterations=1,
        residual=residual,
    )


def lambda1_estimate(M: ModelManifold, R_list, dr_target: float = 0.01) -> Lambda1Report:
    """Ball eigenvalues over an increasing radius list.

    Each ball B_R gets N = round(R/dr_target) - 1 interior nodes.  The
    limit is estimated by the last value with the last decrement as
    error bar; a non-decreasing pair flags discretization failure.
    """
    radii = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("R_list must be strictly increasing")
    if not dr_target > 0:
        raise ValueError(f"dr = {dr_target} must be positive")
    estimates = []
    for R in radii:
        N = int(round(R / dr_target)) - 1
        if N < 1:
            raise ValueError(f"dr = {dr_target} leaves no interior node on the ball of radius {R:g}")
        estimates.append(dirichlet_lambda1(M, R, N))
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
    """Solve (Delta_h + lam) f = 0 on the rows 0..N outward from f_0 = 1.

    Each row of the band fixes the next node value,
    f_{i+1} = -((diag_i + lam) f_i + sub_i f_{i-1}) / sup_i, up to the
    boundary node f_{N+1}.  sub and sup are positive, so f_k is the k-th
    leading principal minor of -Delta_h - lam I over positive factors (a
    Sturm sequence): f is positive on every node exactly when lam lies
    below the smallest eigenvalue ``dirichlet_lambda1`` gives on B_R.  A
    sign change is reported as the first zero crossing.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    grid = RadialGrid(R, N)
    sub, diag, sup = laplacian_tridiag(M, grid)
    vals = np.empty(N + 2)
    vals[0], prev = 1.0, 0.0
    for i in range(N + 1):
        vals[i + 1] = -((diag[i] + lam) * vals[i] + sub[i] * prev) / sup[i]
        prev = vals[i]

    nodes = grid.nodes
    first_zero = None
    sign_change = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if sign_change.size:
        j = int(sign_change[0])
        first_zero = float(nodes[j] + grid.dr * vals[j] / (vals[j] - vals[j + 1]))
    return RadialSolution(
        field=RadialField(grid, vals),
        lam=float(lam),
        positive=first_zero is None,
        first_zero=first_zero,
    )


def save_eigen_csv(estimates, path):
    with open(path, "w") as fh:
        fh.write("R,lambda1,residual\n")
        for est in estimates:
            fh.write(f"{est.R:.17g},{est.lambda1_ball:.17g},{est.residual:.17g}\n")
