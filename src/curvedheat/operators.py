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

import ctypes
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


# LAPACK as ``load_lapack`` binds it.  _pttrf(d, e, s) and _gttrf(dl, d, du)
# factor float64 vectors, which they may overwrite: ?pttrf's LDL^T of the
# symmetric band T = (d, e) and ?gttrf's LU of T = (dl, d, du).  Each
# returns (solve, info); solve(b) solves the leading b.size <= n rows by
# ?pttrs or ?gttrs (``solve_banded`` checks the length), b left intact:
# T^-1 b, or S^-1 T^-1 S b with S = diag(s) for LDL^T factors.  _stebz
# takes and returns what scipy.linalg.lapack.dstebz does.
_pttrf = _gttrf = _stebz = None

_ROUTINES = ("dpttrf", "dpttrs", "dgttrf", "dgttrs", "dstebz")

# scipy's compiled f2py wrapper module of LAPACK, loaded under its own name
_FLAPACK = "scipy.linalg._flapack"


def load_lapack():
    """Bind LAPACK's ?pttrf, ?pttrs, ?gttrf, ?gttrs and ?stebz; later calls do nothing.

    The routines come from the OpenBLAS that numpy bundles and mapped at
    its import (``numpy.libs`` or ``numpy/.dylibs`` in numpy's wheels),
    called through ctypes with 64-bit integers, so a solving process
    maps no second BLAS.  Where numpy bundles no such library, or one
    without these routines (Accelerate or conda builds, say), they come
    from scipy's compiled LAPACK wrapper module ``scipy/linalg/_flapack``,
    loaded from its file without running the ``__init__`` of scipy or
    scipy.linalg, which imports numpy.f2py and numpy.testing.  Either way
    the results agree with scipy.linalg.lapack bit for bit.
    ``factor_banded`` and ``dirichlet_lambda1`` call this on first use,
    so commands that never solve (curvature checks, barrier checks) skip
    it.  ``run_sweep`` calls it before it forks its workers, so that they
    inherit the binding.  Without numpy's routines, a missing wrapper
    module raises ImportError naming the directories searched.
    """
    global _pttrf, _gttrf, _stebz
    if _gttrf is None:
        found = _numpy_openblas()
        _pttrf, _gttrf, _stebz = _openblas_routines(*found) if found else _flapack_routines()


def _numpy_openblas():
    """numpy's bundled ILP64 OpenBLAS as a ctypes library and its symbol prefix, or None without one.

    Only a library that numpy's import has mapped opens (RTLD_NOLOAD), so
    none is loaded here; it must export the routines of ``_ROUTINES``
    with the 64_ suffix of its 64-bit integer interface.
    """
    package = os.path.dirname(np.__file__)
    for folder in (package + ".libs", os.path.join(package, ".dylibs")):
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else ()
        for name in (name for name in names if "openblas" in name):
            try:
                lib = ctypes.CDLL(os.path.join(folder, name), mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue
            for prefix in ("scipy_", ""):
                if all(hasattr(lib, f"{prefix}{routine}_64_") for routine in _ROUTINES):
                    return lib, prefix
    return None


_BYTES = ctypes.c_char * 0


def _buffer(a):
    """A writable array as a ctypes argument: it passes the address of a's data and keeps a alive."""
    return _BYTES.from_buffer(a)


def _openblas_routines(lib, prefix):
    """_pttrf, _gttrf and _stebz over lib's ILP64 routines, called as gfortran compiles them.

    Every argument goes by reference, integers as int64, and a CHARACTER
    argument adds its length, a size_t, after all the others.  Each
    argument is a ctypes object of its C type (a pointer, an array, which
    passes its address, a char* or a size_t), which ctypes passes as it
    is; the routines declare no argtypes, whose checks cost 0.2 us an
    argument (1.6 us of the 3.6 us of a ?pttrs call at n = 400 on a
    2-vCPU Xeon).  A solve takes the pointers of its factorization once
    and solves in place on a fresh copy of its right-hand side (S b for
    LDL^T factors), as scipy's wrappers do; it sets the order N of its
    factorization's call, so one factorization serves one thread at a time.
    """
    pttrf, pttrs, gttrf, gttrs, stebz = (getattr(lib, f"{prefix}{routine}_64_") for routine in _ROUTINES)
    for routine in (pttrf, pttrs, gttrf, gttrs, stebz):
        routine.restype = None
    one, byref = ctypes.c_size_t(1), ctypes.byref

    def ldlt(d, e, s):
        n, nrhs, info = ctypes.c_int64(d.size), ctypes.c_int64(1), ctypes.c_int64()
        pn, pnrhs, pinfo, pd, pe = byref(n), byref(nrhs), byref(info), _buffer(d), _buffer(e)
        pttrf(pn, pd, pe, pinfo)

        def solve(b):
            k = b.size
            sk = s[:k]
            x = sk * b
            n.value = k
            pttrs(pn, pnrhs, pd, pe, _buffer(x), pn, pinfo)  # LDB is N
            x /= sk
            return x

        return solve, info.value

    def lu(dl, d, du):
        n, nrhs, info = ctypes.c_int64(d.size), ctypes.c_int64(1), ctypes.c_int64()
        pn, pnrhs, pinfo = byref(n), byref(nrhs), byref(info)
        factors = [_buffer(a) for a in (dl, d, du, np.empty(max(d.size - 2, 0)), np.empty(d.size, dtype=np.int64))]
        gttrf(pn, *factors, pinfo)
        trans = ctypes.c_char_p(b"N")

        def solve(b):
            x = b.copy()
            n.value = x.size
            gttrs(trans, pn, pnrhs, *factors, _buffer(x), pn, pinfo, one)
            return x

        return solve, info.value

    def eigenvalues(d, e, range_, vl, vu, il, iu, tol, order):
        # scipy's dstebz: range 0, 1, 2 is RANGE 'A', 'V', 'I', and w, iblock and isplit have n entries
        d, e = np.array(d, dtype=float), np.array(e, dtype=float)
        n, il, iu, m, nsplit, info = (ctypes.c_int64(v) for v in (d.size, il, iu, 0, 0, 0))
        vl, vu, tol = (ctypes.c_double(v) for v in (vl, vu, tol))
        w, iblock, isplit = np.zeros(d.size), np.zeros(d.size, dtype=np.int64), np.zeros(d.size, dtype=np.int64)
        work, iwork = np.empty(4 * d.size), np.empty(3 * d.size, dtype=np.int64)
        stebz(
            ctypes.c_char_p(b"AVI"[range_ : range_ + 1]), ctypes.c_char_p(order.encode()),
            *map(byref, (n, vl, vu, il, iu, tol)), *map(_buffer, (d, e)), byref(m), byref(nsplit),
            *map(_buffer, (w, iblock, isplit, work, iwork)), byref(info), one, one,
        )
        return m.value, w, iblock, isplit, info.value

    return ldlt, lu, eigenvalues


def _flapack_routines():
    """_pttrf, _gttrf and _stebz over scipy's f2py wrappers, loaded from the module's file."""
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

    def ldlt(d, e, s):
        d, e, info = flapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)

        def solve(b):
            k = b.size
            x = flapack.dpttrs(d[:k], e[: k - 1], s[:k] * b, overwrite_b=1)[0]
            x /= s[:k]
            return x

        return solve, info

    def lu(dl, d, du):
        if d.size == 2:
            # the f2py wrappers refuse n = 2, which LAPACK allows: border
            # the system with a decoupled identity row, which leaves the
            # elimination of the leading 2x2 block unchanged
            dl, d, du = np.append(dl, 0.0), np.append(d, 1.0), np.append(du, 0.0)
        dl, d, du, du2, ipiv, info = flapack.dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)

        def solve(b):
            k = b.size
            if k == 2:
                # solve the leading three rows with a zero appended to b; the
                # third row, the identity border or the next block's first row,
                # is decoupled
                return solve(np.append(b, 0.0))[:2]
            return flapack.dgttrs(dl[: k - 1], d[:k], du[: k - 1], du2[: k - 2], ipiv[:k], b)[0]

        return solve, info

    return ldlt, lu, flapack.dstebz


def factor_banded(sub, diag, sup, s=None):
    """Factors of the tridiagonal A = (sub, diag, sup); sub[0], sup[-1] unread; inputs are left intact.

    The arguments must be float64 vectors of one length n >= 2; there is
    no input validation.  The factors, the bound solve over them and n,
    serve any number of ``solve_banded`` calls.

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
        solve, info = _pttrf(diag.copy(), e, s)
        if info > 0:
            raise LinAlgError(f"tridiagonal matrix is not positive definite: pivot {info} is not positive")
        return solve, diag.size
    solve, info = _gttrf(sub[1:].copy(), diag.copy(), sup[:-1].copy())
    if info > 0:
        raise LinAlgError(f"singular tridiagonal matrix: zero pivot in row {info}")
    return solve, diag.size


def solve_banded(factors, b) -> np.ndarray:
    """Solve A x = b for ``factors = factor_banded(A)``; b is left intact.

    One LAPACK ``?gttrs`` call on LU factors, or x = S^-1 ?pttrs(S b) on
    LDL^T factors; the routines are bound when ``factor_banded`` made
    the factors.  b must be a float64 vector no longer than A, or
    ValueError is raised before LAPACK would read past the factors.  A
    shorter b of length k solves the leading k x k block of A, which
    must be decoupled from the rest (A[k-1, k] = A[k, k-1] = 0, as at a
    block boundary of a block-diagonal A): elimination never crosses
    such a boundary, so the leading rows of A's factors are that block's
    own factors.  For a nonnegative b, an M-matrix A (nonpositive
    off-diagonals) and LDL^T factors, every term of the solve is
    nonnegative, so x >= 0 exactly.  Non-finite entries in b give a
    non-finite x rather than an error.
    """
    solve, n = factors
    if b.size > n:
        raise ValueError(f"{b.size} right-hand side rows for {n} unknowns")
    return solve(b)


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
