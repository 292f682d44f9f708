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
product weighted by V_i A_i (A_{1/2}/(2n) at the pole).  ``laplacian_tridiag``
returns it as one ``Band``: ``Band.prefix`` gives the sub-balls' bands,
``Band.mult`` applies it and ``Band.log_s`` symmetrises it.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .geometry import ModelManifold, drift

__all__ = [
    "RadialGrid",
    "RadialField",
    "SmoothRadialFn",
    "Band",
    "laplacian_tridiag",
    "load_lapack",
    "factor_banded",
    "solve_banded",
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


class Band(NamedTuple):
    """Delta_h on the unknowns u_0..u_N of a ball: sub[0] = 0 < sub[1:], sup > 0, diag = -(sub + sup).

    sup[N] couples u_N to the boundary node u_{N+1}, which ``factor_banded`` ignores (Dirichlet data 0).
    Row i reads only r_i, r_{i+-1/2} and dr, so the leading m rows are the band of m unknowns at this spacing.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def prefix(self, m: int) -> "Band":
        """The leading m x m block: the band of the ball of m unknowns at this spacing."""
        return Band(self.sub[:m], self.diag[:m], self.sup[:m])

    def mult(self, x) -> np.ndarray:
        """Delta_h x on the rows 0..N, for the node values x_0..x_{N+1} with the boundary value x_{N+1}."""
        y = self.diag * x[:-1]
        y[:-1] += self.sup[:-1] * x[1:-1]
        y[1:] += self.sub[1:] * x[:-2]
        y[-1] += self.sup[-1] * x[-1]
        return y

    def log_s(self) -> np.ndarray:
        """log s, s_0 = 1, of the diagonal S that makes S (I - h Delta_h) S^-1 symmetric for every h.

        s_{i+1}/s_i = sqrt(sup_i/sub_{i+1}), so s^2 is the volume weight V_i A_i up to a constant.  The
        log domain keeps s free of overflow; a one-sided coupling (a 0 entry) makes the entries past it inf or nan.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = 0.5 * (np.log(self.sup[:-1]) - np.log(self.sub[1:]))
        return np.concatenate(([0.0], np.cumsum(steps)))


def laplacian_tridiag(M: ModelManifold, grid: RadialGrid) -> Band:
    """The ``Band`` of the flux form in the module docstring on grid, from log-psi differences: no entry overflows."""
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
    return Band(sub, -(sub + sup), sup)


# LAPACK's ?gttrf, ?gttrs, ?pttrf, ?pttrs and ?stebz, bound by ``load_lapack``
_gttrf = _gttrs = _pttrf = _pttrs = _stebz = None

# scipy's compiled f2py wrapper module of LAPACK, loaded under its own name
_FLAPACK = "scipy.linalg._flapack"


def load_lapack():
    """Bind LAPACK's ?gttrf, ?gttrs, ?pttrf, ?pttrs and ?stebz; later calls do nothing.

    The routines come from scipy's compiled LAPACK wrapper module
    ``scipy/linalg/_flapack``, loaded from its file without running the
    ``__init__`` of scipy or scipy.linalg, which imports numpy.f2py and
    numpy.testing and costs far more than the wrapper module alone.
    They are the routines ``scipy.linalg.lapack`` exposes, so results
    agree with scipy.linalg bit for bit.  ``factor_banded`` and
    ``dirichlet_lambda1`` call this on first use, so commands that never
    solve (curvature checks, barrier checks) skip it.  A process about
    to fork workers calls it first, so that they inherit the binding.
    A missing wrapper module raises ImportError naming the directories
    searched.
    """
    global _gttrf, _gttrs, _pttrf, _pttrs, _stebz
    if _gttrf is None:
        scipy_spec = importlib.util.find_spec("scipy")
        roots = getattr(scipy_spec, "submodule_search_locations", None) or ()
        dirs = [os.path.join(root, "linalg") for root in roots]
        paths = [os.path.join(d, "_flapack" + suffix) for d in dirs for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(
                f"scipy's LAPACK wrapper module _flapack is not in {' or '.join(dirs) or 'any scipy package'}"
            )
        loader = ExtensionFileLoader(_FLAPACK, path)
        flapack = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
        loader.exec_module(flapack)
        if "scipy.linalg" not in sys.modules:
            # CPython files a single-phase extension module in sys.modules
            # as it initialises it; without its parent packages that entry
            # is a stray.  A later import of scipy.linalg loads the file
            # again and reuses this initialisation.
            sys.modules.pop(_FLAPACK, None)
        _gttrf, _gttrs, _pttrf, _pttrs, _stebz = (
            flapack.dgttrf, flapack.dgttrs, flapack.dpttrf, flapack.dpttrs, flapack.dstebz
        )


def factor_banded(sub, diag, sup, s=None):
    """Factors of the tridiagonal A = (sub, diag, sup); sub[0], sup[-1] unread; inputs are left intact.

    The arguments must be float64 vectors of one length n >= 2; there is
    no input validation.  The factors serve any number of
    ``solve_banded`` calls.

    Without s: one LAPACK ``?gttrf`` call (Gaussian elimination with
    partial pivoting).  A zero pivot raises LinAlgError.  Factoring
    once and solving does the arithmetic of ``?gtsv``, the routine
    ``scipy.linalg.solve_banded`` dispatches to for a (1, 1) band, so
    the solutions agree with it bit for bit.

    With s, a positive symmetrizer of A (``exp(band.log_s())``, or any
    vector with s_{i+1}/s_i = sqrt(sup_i/sub_{i+1})):
    one ``?pttrf`` call, LDL^T without pivoting of T = S A S^-1, whose
    diagonal is diag and whose off-diagonal is
    sign(sup_i) sqrt(sub_{i+1} sup_i).  T must be positive definite, as
    I - h Delta_h is for h >= 0; a nonpositive pivot raises
    LinAlgError.  On such a T, LDL^T is backward stable componentwise
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 9), and a componentwise bound survives the diagonal scaling, so
    the solution is as accurate as the pivoting LU's as long as S b
    stays inside the float range.  s is read by ``solve_banded`` only.
    """
    load_lapack()
    if s is not None:
        e = sub[1:] * sup[:-1]
        np.sqrt(e, out=e)
        np.copysign(e, sup[:-1], out=e)
        d, e, info = _pttrf(diag, e, overwrite_e=1)
        if info > 0:
            raise LinAlgError(f"tridiagonal matrix is not positive definite: pivot {info} is not positive")
        return d, e, s
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


def solve_banded(factors, b) -> np.ndarray:
    """Solve A x = b for ``factors = factor_banded(A)``; b is left intact.

    One LAPACK ``?gttrs`` call on LU factors, or x = S^-1 ?pttrs(S b) on
    LDL^T factors; the routines are bound when ``factor_banded`` made
    the factors.  b must be a float64 vector no longer than A.  A
    shorter b of length k solves the leading k x k block of A, which
    must be decoupled from the rest (A[k-1, k] = A[k, k-1] = 0, as at a
    block boundary of a block-diagonal A): elimination never crosses
    such a boundary, so the leading rows of A's factors are that block's
    own factors.  For a nonnegative b, an M-matrix A (nonpositive
    off-diagonals) and LDL^T factors, every term of the solve is
    nonnegative, so x >= 0 exactly.  Non-finite entries in b give a
    non-finite x rather than an error.
    """
    k = b.size
    if len(factors) == 3:  # LDL^T factors and the symmetrizer; LU factors come as five arrays
        d, e, s = factors
        if k < d.size:
            d, e, s = d[:k], e[: k - 1], s[:k]
        x = _pttrs(d, e, s * b, overwrite_b=1)[0]
        x /= s
        return x
    if k == 2:
        # scipy's ?gttrs wrapper refuses n = 2: solve the leading three
        # rows with a zero appended to b; the third row, factor_banded's
        # identity border or the next block's first row, is decoupled
        return solve_banded(factors, np.append(b, 0.0))[:2]
    dl, d, du, du2, ipiv = factors
    if k < d.size:
        dl, d, du, du2, ipiv = dl[: k - 1], d[:k], du[: k - 1], du2[: k - 2], ipiv[:k]
    return _gttrs(dl, d, du, du2, ipiv, b)[0]


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
