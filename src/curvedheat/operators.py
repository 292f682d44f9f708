"""Finite-difference radial Laplace-Beltrami operator on [0, R].

The operator is Delta u = A^{-1} (A u')' acting on radial functions,
with A = psi^{n-1} the area density.  Interior nodes use the
conservative flux form (Samarskii, The Theory of Difference Schemes,
ch. 3)

    (Delta_h u)_i = (A_{i+1/2} (u_{i+1} - u_i) - A_{i-1/2} (u_i - u_{i-1}))
                    / (V_i dr^2),

with V_i = (A_{i-1/2} + 4 A_i + A_{i+1/2}) / (6 A_i) the Simpson volume
of the cell [r_{i-1/2}, r_{i+1/2}] over A_i dr; the pole row is the flux
form on the cell [0, dr/2], Delta u(0) ~ 2n (u_1 - u_0)/dr^2.  Both
off-diagonals are positive and every row sums to zero for every dr and
n, so -Delta_h is an M-matrix, and Delta_h is self-adjoint in the inner
product weighted by V_i A_i (A_{1/2}/(2n) at the pole).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .geometry import ModelManifold, drift

__all__ = [
    "RadialGrid",
    "RadialField",
    "SmoothRadialFn",
    "laplacian_tridiag",
    "tridiag_mult",
    "factor_banded",
    "solve_banded",
    "apply_laplacian",
    "apply_laplacian_analytic",
    "sup_norm",
    "save_field_csv",
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
    if grid.R > M.psi.r_max * (1.0 + 1e-12):
        raise ValueError(
            f"grid reaches R = {grid.R} beyond the tabulated warping range {M.psi.r_max}"
        )


def laplacian_tridiag(M: ModelManifold, grid: RadialGrid):
    """Tridiagonal representation of Delta_h on the unknowns u_0..u_N.

    Returns (sub, diag, sup) of the flux form in the module docstring:
    sub[0] is zero, sub[1:] and sup are positive and
    diag = -(sub + sup).  The face ratios A_{i+-1/2}/A_i are exponentials
    of log-psi differences, so no entry overflows however fast psi grows.
    sup[N] couples the last unknown to the boundary node u_{N+1};
    ``tridiag_mult`` and ``factor_banded`` ignore it, which eliminates
    that node under homogeneous Dirichlet data.
    """
    _check_compatible(M, grid)
    dr = grid.dr
    log_face = (M.n - 1) * M.psi.log_eval(grid.nodes[:-1] + 0.5 * dr)
    log_node = (M.n - 1) * M.psi.log_eval(grid.interior)
    lo = log_face[:-1] - log_node  # log(A_{i-1/2}/A_i)
    hi = log_face[1:] - log_node  # log(A_{i+1/2}/A_i)
    sub = np.zeros(grid.N + 1)
    sup = np.empty(grid.N + 1)
    sup[0] = 2.0 * M.n / dr**2
    # A_{i-+1/2}/(V_i A_i dr^2) with numerator and denominator divided by
    # the face's own ratio: an overflowing exp gives an entry of 0, never nan
    with np.errstate(over="ignore"):
        sub[1:] = 6.0 / (dr**2 * (1.0 + 4.0 * np.exp(-lo) + np.exp(hi - lo)))
        sup[1:] = 6.0 / (dr**2 * (np.exp(lo - hi) + 4.0 * np.exp(-hi) + 1.0))
    return sub, -(sub + sup), sup


def tridiag_mult(sub, diag, sup, x) -> np.ndarray:
    """The tridiagonal matrix (sub, diag, sup) times x; sub[0], sup[-1] unread."""
    y = diag * x
    y[:-1] += sup[:-1] * x[1:]
    y[1:] += sub[1:] * x[:-1]
    return y


_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)


def factor_banded(sub, diag, sup):
    """LU factors of the tridiagonal (sub, diag, sup); sub[0], sup[-1] unread; inputs are left intact.

    One LAPACK ``?gttrf`` call (Gaussian elimination with partial
    pivoting), without input validation: the arguments must be float64
    vectors of one length n >= 2.  A zero pivot raises LinAlgError.  The
    factors serve any number of ``solve_banded`` calls; factoring once
    and solving does the arithmetic of ``?gtsv``, the routine
    ``scipy.linalg.solve_banded`` dispatches to for a (1, 1) band, so
    the solutions agree with it bit for bit.
    """
    dl, d, du = sub[1:], diag, sup[:-1]
    if d.size == 2:
        # scipy's ?gttrf and ?gttrs wrappers refuse n = 2: border the
        # system with a decoupled identity row, which leaves the
        # elimination of the leading 2x2 block unchanged
        dl, d, du = np.append(dl, 0.0), np.append(d, 1.0), np.append(du, 0.0)
    *lu, info = _gttrf(dl, d, du)
    if info > 0:
        raise LinAlgError(f"singular tridiagonal matrix: zero pivot in row {info}")
    return tuple(lu)


def solve_banded(lu, b) -> np.ndarray:
    """Solve A x = b for the factors ``lu = factor_banded(A)``; b is left intact.

    One LAPACK ``?gttrs`` call.  b must be a float64 vector of A's
    length.  Non-finite entries in b give a non-finite x rather than an
    error.
    """
    if b.size == 2:
        return _gttrs(*lu, np.append(b, 0.0))[0][:2]
    return _gttrs(*lu, b)[0]


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


def save_field_csv(u: RadialField, path):
    with open(path, "w") as fh:
        fh.write("r,u\n")
        for r, val in zip(u.grid.nodes, u.values):
            fh.write(f"{r:.17g},{val:.17g}\n")
