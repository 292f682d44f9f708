"""Finite-difference radial Laplace-Beltrami operator on [0, R].

The operator is Delta = d^2/dr^2 + F(r) d/dr acting on radial functions,
with F the manifold drift.  Interior nodes use second-order centered
differences; the pole uses the removable-singularity value
Delta u(0) = n u''(0) ~ 2n (u_1 - u_0)/dr^2, valid for smooth radial
functions (u'(0) = 0).

The centered stencil is sign-correct (an M-matrix row) wherever
dr * F(r_i) <= 2.  Near the pole F ~ (n-1)/r, so at the first few nodes
that product is ~(n-1) regardless of dr; those nodes are excluded from
the resolution check because their coefficient defect is bounded and
vanishes in the limit, while at outer nodes (where drift grows with
curvature divergence) the product really is a resolution constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import StabilityError
from .geometry import ModelManifold, TabulatedWarping, drift

__all__ = [
    "RadialGrid",
    "RadialField",
    "SmoothRadialFn",
    "drift_stability_check",
    "laplacian_tridiag",
    "tridiag_band",
    "tridiag_mult",
    "apply_laplacian",
    "apply_laplacian_analytic",
    "sup_norm",
    "volume_inner_product",
    "save_field_csv",
    "load_field_csv",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_i = i*dr, i = 0..N+1, with dr = R/(N+1)."""

    R: float
    N: int

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"outer radius must be positive, got {self.R}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"interior node count must be a positive integer, got {self.N}")

    @property
    def dr(self) -> float:
        return self.R / (self.N + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 2) * self.dr

    @cached_property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


@dataclass
class RadialField:
    """Values of a radial function on a grid; plain value semantics."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N + 2,):
            raise ValueError(
                f"field needs {self.grid.N + 2} node values, got shape {self.values.shape}"
            )

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy())


@dataclass(frozen=True)
class SmoothRadialFn:
    """Closed-form radial function with exact first and second derivatives."""

    eval: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]


def _check_compatible(M: ModelManifold, grid: RadialGrid):
    psi = M.psi
    if isinstance(psi, TabulatedWarping) and grid.R > psi.r_max * (1.0 + 1e-12):
        raise ValueError(
            f"grid reaches R = {grid.R} beyond the tabulated warping range {psi.r_max}"
        )


def drift_stability_check(M: ModelManifold, grid: RadialGrid) -> np.ndarray:
    """Validate dr*F < 2 away from the pole; return F at interior nodes.

    The first floor((n-1)/2) interior nodes are pole-dominated
    (dr*F ~ (n-1)/i there for every dr) and are exempt; everywhere else
    a violation means the grid cannot resolve the drift.
    """
    _check_compatible(M, grid)
    f = drift(M, grid.interior)
    skip = (M.n - 1) // 2
    prod = grid.dr * f[skip:]
    if prod.size and np.max(prod) >= 2.0:
        i = int(np.argmax(prod)) + skip
        raise StabilityError(
            f"dr*F = {grid.dr * f[i]:.4g} >= 2 at r = {grid.interior[i]:.6g}; "
            f"refine the grid (dr = {grid.dr:.4g})"
        )
    return f


def laplacian_tridiag(M: ModelManifold, grid: RadialGrid):
    """Tridiagonal representation of Delta_h on the unknowns u_0..u_N.

    Returns (sub, diag, sup); sub[0] is zero.  sup[N] couples the last
    unknown to the boundary node u_{N+1}; ``tridiag_band`` and
    ``tridiag_mult`` ignore it, which eliminates that node under
    homogeneous Dirichlet data.
    """
    f = drift_stability_check(M, grid)
    dr = grid.dr
    n_unknown = grid.N + 1
    sub = np.zeros(n_unknown)
    diag = np.empty(n_unknown)
    sup = np.empty(n_unknown)
    diag[0] = -2.0 * M.n / dr**2
    sup[0] = 2.0 * M.n / dr**2
    inv2 = 1.0 / dr**2
    sub[1:] = inv2 - f / (2.0 * dr)
    diag[1:] = -2.0 * inv2
    sup[1:] = inv2 + f / (2.0 * dr)
    return sub, diag, sup


def tridiag_band(sub, diag, sup) -> np.ndarray:
    """The (1, 1) banded layout of ``scipy.linalg.solve_banded``; sub[0], sup[-1] unread."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    return ab


def tridiag_mult(sub, diag, sup, x) -> np.ndarray:
    """The tridiagonal matrix (sub, diag, sup) times x; sub[0], sup[-1] unread."""
    y = diag * x
    y[:-1] += sup[:-1] * x[1:]
    y[1:] += sub[1:] * x[:-1]
    return y


def apply_laplacian(M: ModelManifold, u: RadialField) -> RadialField:
    """Discrete Delta u; boundary node of the result is set to zero."""
    sub, diag, sup = laplacian_tridiag(M, u.grid)
    v = u.values
    if not np.all(np.isfinite(v)):
        raise ValueError("field has non-finite values")
    out = np.zeros_like(v)
    out[:-1] = tridiag_mult(sub, diag, sup, v[:-1])
    out[-2] += sup[-1] * v[-1]
    return RadialField(u.grid, out)


def apply_laplacian_analytic(M: ModelManifold, fn: SmoothRadialFn, r):
    """Exact-arithmetic Delta f at r > 0: f''(r) + F(r) f'(r)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("analytic evaluation requires r > 0")
    return fn.deriv2(r) + drift(M, r) * fn.deriv1(r)


def sup_norm(u: RadialField) -> float:
    return float(np.max(np.abs(u.values)))


def volume_inner_product(M: ModelManifold, u: RadialField, w: RadialField) -> float:
    """Trapezoidal integral of u*w against the area density psi^{n-1}.

    The constant sphere-area factor is omitted (it cancels in every
    Rayleigh quotient and comparison used here).  The weight is
    accumulated in log form; if the true integral exceeds the float
    range the result is inf.
    """
    if u.grid != w.grid:
        raise ValueError("fields live on different grids")
    grid = u.grid
    _check_compatible(M, grid)
    lw = (M.n - 1) * M.psi.log_eval(grid.nodes[1:])
    ref = float(np.max(lw))
    weights = np.exp(lw - ref)
    weights[-1] *= 0.5  # trapezoid end; the r=0 end has zero area density
    s = float(np.sum(u.values[1:] * w.values[1:] * weights)) * grid.dr
    if s == 0.0:
        return 0.0
    return s * float(np.exp(ref))


def save_field_csv(u: RadialField, path):
    with open(path, "w") as fh:
        fh.write("r,u\n")
        for r, val in zip(u.grid.nodes, u.values):
            fh.write(f"{r:.17g},{val:.17g}\n")


def load_field_csv(path) -> RadialField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    r = data[:, 0]
    dr = r[1] - r[0]
    if not np.allclose(np.diff(r), dr, rtol=1e-9, atol=1e-12):
        raise ValueError("field CSV is not on a uniform grid")
    grid = RadialGrid(R=float(r[-1]), N=len(r) - 2)
    return RadialField(grid, data[:, 1])
