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
while ``mckean_bound`` brackets from below.  ``lambda1_estimate`` reads each ball
as a leading block of the largest ball's band at its spacing, bit for bit its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import operators
from .geometry import ModelManifold
from .operators import (
    RadialField,
    RadialGrid,
    factor_banded,
    laplacian_tridiag,
    load_lapack,
    solve_banded,
)

__all__ = [
    "EigenEstimate",
    "Lambda1Report",
    "RadialSolution",
    "mckean_bound",
    "eigen_le",
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
    band_norm: float  # ||T||_1 of the symmetrised band, the scale of lambda1_ball's rounding


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
    band: operators.Band  # the Delta_h whose rows f solves


# ?stebz at abstol 0 locates an eigenvalue of T to within about eps ||T||_1,
# so two eigenvalues of different balls compare within a few of that; it
# scales with the band, not with lambda, which can be far smaller
EIGEN_SLACK = 4 * np.finfo(float).eps


def eigen_le(x: float, y: float, band_norm: float) -> bool:
    """x <= y up to the bisection's rounding, EIGEN_SLACK band_norm (the larger ||T||_1 of the two)."""
    return x <= y + EIGEN_SLACK * band_norm


def mckean_bound(n: int, k: float) -> float:
    """Certified spectral lower bound (n-1)^2 k^2 / 4 under pinching -k^2."""
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    if k <= 0:
        raise ValueError(f"curvature scale k must be positive, got {k}")
    return (n - 1) ** 2 * k**2 / 4.0


def dirichlet_lambda1(M: ModelManifold, R: float, N: int) -> EigenEstimate:
    """Smallest eigenvalue of -Delta_h on B_R and its eigenfunction.

    lam is the smallest eigenvalue of the symmetrised band: one LAPACK
    ``?stebz`` bisection by index, the call scipy.linalg makes for the
    first eigenvalue of a symmetric tridiagonal matrix, so lam agrees
    with it bit for bit.  A non-finite band raises ValueError and a
    failed bisection LinAlgError.  The eigenfunction is one step of
    inverse iteration from a positive bump: the solve of
    (A - s I) phi = x0 for A = -Delta_h, with the shift s placed
    4 eps max(diag A) below lam, past the bisection's error bound, so that
    A - s I stays a nonsingular M-matrix and phi comes out positive.
    phi is sup-normalised with a positive peak; ``residual`` is
    ||A phi - lam phi||_inf, which certifies the pair, and
    ``iterations`` counts the one solve; ``band_norm`` is ||A||_1 of the
    symmetrised band.
    """
    return _ball_eigen(laplacian_tridiag(M, RadialGrid(R, N)), R)


def _ball_eigen(band: operators.Band, R: float) -> EigenEstimate:
    """The ``EigenEstimate`` of the ball B_R whose Laplacian band is ``band`` (see ``dirichlet_lambda1``)."""
    grid = RadialGrid(R, band.diag.size - 1)
    sub, diag, sup = band
    a_diag = -diag  # A = -Delta_h, an M-matrix
    off = -np.sqrt(sub[1:] * sup[:-1])
    if not (np.all(np.isfinite(a_diag)) and np.all(np.isfinite(off))):
        raise ValueError(f"non-finite Laplacian band on the ball of radius {R:g} with N = {grid.N}")
    load_lapack()
    # smallest eigenvalue by index (range 2, il = iu = 1), tolerance eps |A|, ordered
    _, w, _, _, info = operators._stebz(a_diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info != 0:
        raise LinAlgError(f"?stebz failed on the ball of radius {R:g} (LAPACK info = {info})")
    lam = float(w[0])
    col = np.abs(a_diag)
    col[:-1] -= off  # off <= 0
    col[1:] -= off
    shift = lam - 4.0 * np.finfo(float).eps * float(np.max(a_diag))
    y = solve_banded(factor_banded(-sub, a_diag - shift, -sup), 1.0 - (grid.nodes[:-1] / R) ** 2)
    y /= y[int(np.argmax(np.abs(y)))]  # sup-normalise with a positive peak
    residual = float(np.max(np.abs(band.mult(np.append(y, 0.0)) + lam * y)))
    return EigenEstimate(
        R=float(R),
        lambda1_ball=lam,
        eigenfunction=RadialField(grid, np.concatenate((y, [0.0]))),
        iterations=1,
        residual=residual,
        band_norm=float(col.max()),
    )


def lambda1_estimate(M: ModelManifold, R_list, dr_target: float = 0.01) -> Lambda1Report:
    """Ball eigenvalues over an increasing radius list.

    Each ball B_R gets N = round(R/dr_target) - 1 interior nodes.  The
    limit is estimated by the last value with the last decrement as
    error bar; a pair that increases past the bisection's rounding
    (``eigen_le``) flags discretization failure.
    """
    radii = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("R_list must be strictly increasing")
    if not dr_target > 0:
        raise ValueError(f"dr = {dr_target} must be positive")
    grids = [RadialGrid(R, int(round(R / dr_target)) - 1) for R in radii]
    largest = {grid.dr: grid for grid in grids}  # per spacing R/(N+1), bit for bit
    bands = {dr: laplacian_tridiag(M, grid) for dr, grid in largest.items()}
    estimates = [_ball_eigen(bands[grid.dr].prefix(grid.N + 1), grid.R) for grid in grids]
    values = [est.lambda1_ball for est in estimates]
    monotone = all(
        eigen_le(b.lambda1_ball, a.lambda1_ball, max(a.band_norm, b.band_norm))
        for a, b in zip(estimates, estimates[1:])
    )
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
    sub, diag, sup = band = laplacian_tridiag(M, grid)
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
        band=band,
    )


def save_eigen_csv(estimates, path):
    with open(path, "w") as fh:
        fh.write("R,lambda1,residual\n")
        for est in estimates:
            fh.write(f"{est.R:.17g},{est.lambda1_ball:.17g},{est.residual:.17g}\n")
