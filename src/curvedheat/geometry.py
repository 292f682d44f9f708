"""Rotationally symmetric model manifolds and their curvature data.

A model manifold is a dimension n >= 2 together with a warping function
psi satisfying psi(0) = 0, psi'(0) = 1 and psi > 0 on (0, inf).  All
radial operators only ever need the logarithmic derivatives psi'/psi and
psi''/psi, so warping functions expose those (and log psi) directly:
on the curvature-divergent models psi grows like exp(C r^{1+gamma/2})
and would overflow long before the domains of interest end.

Three families are provided:

``make_euclidean``
    psi(r) = r, flat space.

``make_hyperbolic``
    psi(r) = sinh(k r)/k, constant sectional curvature -k^2.

``make_gamma_model``
    psi obtained by integrating psi'' = C0 (1 + r^gamma) psi, so the
    radial sectional curvature equals -C0 (1 + r^gamma) exactly and the
    curvature-divergence hypothesis holds with equality.  (For gamma = 0
    the coefficient degenerates to the constant-curvature case C0 = k^2;
    see the note in ``_jacobi_coefficient``.)  Between the table nodes a
    piecewise-cubic Hermite interpolant takes its node slopes from the
    same Jacobi equation, so reading the table needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WarpingFunction",
    "EuclideanWarping",
    "HyperbolicWarping",
    "TabulatedWarping",
    "ModelManifold",
    "CurvatureReport",
    "make_euclidean",
    "make_hyperbolic",
    "make_gamma_model",
    "gamma_table_nodes",
    "drift",
    "radial_curvature",
    "sphere_curvature",
    "check_curvature_bounds",
    "drift_lower_constant",
    "save_warping_csv",
]

WARPING_CSV_HEADER = "r,log_psi,psi1_over_psi,psi2_over_psi"


class WarpingFunction:
    """Interface for psi, through overflow-safe forms only.

    ``log_eval`` (log psi), ``ratio1`` (psi'/psi), ``ratio2`` (psi''/psi)
    and ``sphere_ratio`` ((1 - psi'^2)/psi^2, the sectional curvature of
    tangent spheres) stay finite however fast psi grows.  ``r_max`` is
    the end of the domain and ``gamma`` the curvature-divergence
    exponent (0 unless the radial curvature diverges).
    """

    kind = "abstract"
    r_max = math.inf
    gamma = 0.0

    def log_eval(self, r):
        raise NotImplementedError

    def ratio1(self, r):
        raise NotImplementedError

    def ratio2(self, r):
        raise NotImplementedError

    def sphere_ratio(self, r):
        raise NotImplementedError


class EuclideanWarping(WarpingFunction):
    kind = "euclidean"

    def log_eval(self, r):
        return np.log(r)

    def ratio1(self, r):
        return 1.0 / np.asarray(r, dtype=float)

    def ratio2(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def sphere_ratio(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


class HyperbolicWarping(WarpingFunction):
    """psi(r) = sinh(k r)/k."""

    kind = "hyperbolic"

    def __init__(self, k: float):
        if not k > 0:
            raise ValueError(f"curvature scale k must be positive, got {k}")
        self.k = float(k)

    def log_eval(self, r):
        # log(sinh(kr)/k) written to survive kr >> 1
        x = self.k * np.asarray(r, dtype=float)
        return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0 * self.k)

    def ratio1(self, r):
        return self.k / np.tanh(self.k * np.asarray(r, dtype=float))

    def ratio2(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.k**2)

    def sphere_ratio(self, r):
        return np.full_like(np.asarray(r, dtype=float), -(self.k**2))


class _CubicHermite:
    """Piecewise-cubic Hermite interpolant through (x_i, y_i) with slopes m_i.

    Each piece is stored as its Taylor coefficients at the left node and
    evaluated by Horner's rule; points beyond the ends use the end pieces.
    """

    def __init__(self, x, y, m):
        dx = np.diff(x)
        s = np.diff(y) / dx
        self.x = x
        self.c = np.stack((
            y[:-1],
            m[:-1],
            (3.0 * s - 2.0 * m[:-1] - m[1:]) / dx,
            (m[:-1] + m[1:] - 2.0 * s) / dx**2,
        ))

    def __call__(self, r):
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.x.size - 2)
        t = r - self.x[i]
        c0, c1, c2, c3 = self.c[:, i]
        return c0 + t * (c1 + t * (c2 + t * c3))


class TabulatedWarping(WarpingFunction):
    """Jacobi-equation warping function stored as (r, log psi, psi'/psi) nodes.

    Interpolation acts on the pole-regular quantities g = r psi'/psi and
    h = log(psi/r), both smooth down to r = 0 with g(0) = 1, h(0) = 0,
    so evaluation close to the pole loses no accuracy.  Each is a
    piecewise-cubic Hermite interpolant whose node slopes come from the
    Jacobi equation the table solves: h' = psi'/psi - 1/r and
    g' = psi'/psi + r (psi''/psi - (psi'/psi)^2), both 0 at the pole.
    psi''/psi is that equation's coefficient, c0 (1 + r^gamma) (c0 at
    gamma = 0), in closed form.
    Evaluation outside [0, r_max] is refused.
    """

    kind = "tabulated"

    def __init__(self, r, log_psi, ratio1, c0, gamma):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size < 4:
            raise ValueError("need at least 4 table nodes")
        if r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise ValueError("table radii must be positive and increasing")
        self.r = r
        self.log_psi = np.asarray(log_psi, dtype=float)
        self._ratio1 = np.asarray(ratio1, dtype=float)
        self.c0 = c0
        self.gamma = gamma
        self.r_max = float(r[-1])
        # class-A normalization: psi ~ r at the pole
        if abs(r[0] * self._ratio1[0] - 1.0) > 0.05:
            raise ValueError("table is not normalized to psi'(0) = 1")
        s = self._ratio1
        q = _jacobi_coefficient(r, c0, gamma)
        r_full = np.concatenate(([0.0], r))
        self._g = _CubicHermite(
            r_full,
            np.concatenate(([1.0], r * s)),
            np.concatenate(([0.0], s + r * (q - s * s))),
        )
        self._h = _CubicHermite(
            r_full,
            np.concatenate(([0.0], self.log_psi - np.log(r))),
            np.concatenate(([0.0], s - 1.0 / r)),
        )

    def _check_range(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r > self.r_max * (1.0 + 1e-12)):
            raise ValueError(f"radius outside the tabulated range [0, {self.r_max}]")
        return r

    def log_eval(self, r):
        r = self._check_range(r)
        return np.log(r) + self._h(r)

    def ratio1(self, r):
        r = self._check_range(r)
        return self._g(r) / r

    def ratio2(self, r):
        return _jacobi_coefficient(self._check_range(r), self.c0, self.gamma)

    def sphere_ratio(self, r):
        r = self._check_range(r)
        g = self._g(r)
        return (np.exp(-2.0 * self._h(r)) - g * g) / (r * r)


@dataclass(frozen=True)
class ModelManifold:
    """Dimension plus warping function; all operations are pure."""

    n: int
    psi: WarpingFunction

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n}")


@dataclass(frozen=True)
class CurvatureReport:
    """Grid verdicts for the negative-curvature hypotheses.

    ``pinch_holds``: all sectional curvatures <= -k^2 at every node.
    ``divergence_holds``: radial curvature <= -c0 (1 + r^gamma) at every node.
    """

    max_radial_curvature: float
    max_sphere_curvature: float
    pinch_holds: bool
    pinch_k: float
    divergence_holds: bool
    divergence_c0: float
    divergence_gamma: float
    r_min: float
    r_max: float
    n_nodes: int


def make_euclidean(n: int) -> ModelManifold:
    """Flat model: psi(r) = r."""
    return ModelManifold(n, EuclideanWarping())


def make_hyperbolic(n: int, k: float) -> ModelManifold:
    """Constant-curvature model psi(r) = sinh(k r)/k, curvature -k^2."""
    return ModelManifold(n, HyperbolicWarping(k))


def _jacobi_coefficient(r, c0, gamma):
    # psi''/psi target.  For gamma > 0 this is c0*(1 + r^gamma); at
    # gamma = 0 the family must degenerate to constant curvature -c0
    # (so that c0 = k^2 reproduces the hyperbolic model), not to -2*c0.
    if gamma > 0:
        return c0 * (1.0 + np.asarray(r, dtype=float) ** gamma)
    return np.full_like(np.asarray(r, dtype=float), c0)


def gamma_table_nodes(c0: float, gamma: float, r_max: float, dr: float) -> int:
    """Node count of make_gamma_model's table; a ValueError names the parameter it refuses.

    The checks need no integration, so a config is refused before any
    table is built.
    """
    if c0 <= 0:
        raise ValueError(f"curvature amplitude c0 must be positive, got {c0}")
    if gamma < 0:
        raise ValueError(f"curvature exponent gamma must be >= 0, got {gamma}")
    if r_max <= 0 or dr <= 0:
        raise ValueError("r_max and dr must be positive")
    q_max = float(_jacobi_coefficient(np.asarray(r_max), c0, gamma))
    if dr * math.sqrt(q_max) >= 0.5:
        raise ValueError(
            f"dr = {dr} too coarse for the Jacobi equation: need "
            f"dr * sqrt(c0*(1 + r_max^gamma)) < 0.5, got {dr * math.sqrt(q_max):.3g}"
        )
    n_steps = int(round(r_max / dr))
    if n_steps < 4:
        raise ValueError("table would have fewer than 4 nodes")
    return n_steps


def make_gamma_model(n: int, c0: float, gamma: float, r_max: float, dr: float) -> ModelManifold:
    """Model with radial curvature exactly -c0 (1 + r^gamma).

    Integrates the Jacobi equation psi'' = c0 (1 + r^gamma) psi with a
    classical fixed-step RK4 sweep, started from the series
    psi = r + c0 r^3/6 (+ the r^{gamma+3} correction) at r = dr.  The
    state is renormalized whenever it grows large and only log psi,
    psi'/psi, psi''/psi are tabulated, so no overflow occurs even though
    psi grows like exp(C r^{1+gamma/2}).
    """
    n_steps = gamma_table_nodes(c0, gamma, r_max, dr)

    def q_at(r):
        if gamma > 0:
            return c0 * (1.0 + r**gamma)
        return c0

    # series start at r = dr
    r = dr
    p = r + c0 * r**3 / 6.0
    v = 1.0 + c0 * r**2 / 2.0
    if gamma > 0:
        p += c0 * r ** (gamma + 3.0) / ((gamma + 2.0) * (gamma + 3.0))
        v += c0 * r ** (gamma + 2.0) / (gamma + 2.0)

    radii = np.empty(n_steps)
    log_psi = np.empty(n_steps)
    ratio1 = np.empty(n_steps)
    scale = 0.0  # accumulated log of the renormalization factor

    def record(i, r, p, v, scale):
        if not (p > 0.0 and math.isfinite(p) and math.isfinite(v)):
            raise ArithmeticError(f"Jacobi integration failed at r = {r:.6g}")
        radii[i] = r
        log_psi[i] = math.log(p) + scale
        ratio1[i] = v / p

    record(0, r, p, v, scale)
    for i in range(1, n_steps):
        # RK4 on (psi, psi') for the linear equation psi'' = q(r) psi
        k1p = v
        k1v = q_at(r) * p
        qm = q_at(r + 0.5 * dr)
        k2p = v + 0.5 * dr * k1v
        k2v = qm * (p + 0.5 * dr * k1p)
        k3p = v + 0.5 * dr * k2v
        k3v = qm * (p + 0.5 * dr * k2p)
        qe = q_at(r + dr)
        k4p = v + dr * k3v
        k4v = qe * (p + dr * k3p)
        p += dr * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        v += dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        r = dr * (i + 1)
        if p > 1e150:
            v /= p
            scale += math.log(p)
            p = 1.0
        record(i, r, p, v, scale)

    return ModelManifold(n, TabulatedWarping(radii, log_psi, ratio1, c0, gamma))


def _positive_radii(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive (the pole is handled by the operator module)")
    return r


def drift(M: ModelManifold, r):
    """Radial drift (n-1) psi'/psi, the log-derivative of the area factor."""
    return (M.n - 1) * M.psi.ratio1(_positive_radii(r))


def radial_curvature(M: ModelManifold, r):
    """Sectional curvature of planes containing the radial direction: -psi''/psi."""
    return -M.psi.ratio2(_positive_radii(r))


def sphere_curvature(M: ModelManifold, r):
    """Sectional curvature of planes tangent to the distance spheres: (1 - psi'^2)/psi^2."""
    return M.psi.sphere_ratio(_positive_radii(r))


def check_curvature_bounds(M: ModelManifold, k: float, c0: float, gamma: float, r_nodes) -> CurvatureReport:
    """Pointwise grid check of the two curvature hypotheses.

    This is a grid verdict, not a proof: it states whether, at every
    supplied node, all sectional curvatures are <= -k^2 and the radial
    one is <= -c0 (1 + r^gamma).
    """
    r = _positive_radii(r_nodes)
    kr = radial_curvature(M, r)
    ks = sphere_curvature(M, r)
    pinch = bool(np.all(kr <= -(k**2))) and bool(np.all(ks <= -(k**2)))
    dive = bool(np.all(kr <= -_jacobi_coefficient(r, c0, gamma)))
    return CurvatureReport(
        max_radial_curvature=float(np.max(kr)),
        max_sphere_curvature=float(np.max(ks)),
        pinch_holds=pinch,
        pinch_k=float(k),
        divergence_holds=dive,
        divergence_c0=float(c0),
        divergence_gamma=float(gamma),
        r_min=float(r[0]),
        r_max=float(r[-1]),
        n_nodes=int(r.size),
    )


def drift_lower_constant(M: ModelManifold, r_nodes, gamma: float) -> float:
    """Largest c such that drift >= c (n-1) (1+r)^{1+gamma/2} / r on the nodes.

    The abstract comparison constant in that lower bound is not computable
    in general; on a concrete model it can simply be measured.
    """
    r = _positive_radii(r_nodes)
    f = drift(M, r)
    return float(np.min(r * f / ((M.n - 1) * (1.0 + r) ** (1.0 + gamma / 2.0))))


def save_warping_csv(psi: TabulatedWarping, path):
    with open(path, "w") as fh:
        fh.write(WARPING_CSV_HEADER + "\n")
        q = psi.ratio2(psi.r)
        for r, lp, s, qq in zip(psi.r, psi.log_psi, psi._ratio1, q):
            fh.write(f"{r:.17g},{lp:.17g},{s:.17g},{qq:.17g}\n")
