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


def _hermite(t, dx, y0, y1, m0, m1):
    # cubic through (0, y0) and (dx, y1) with slopes m0, m1: Taylor
    # coefficients at the left node, evaluated by Horner's rule
    s = (y1 - y0) / dx
    c2 = (3.0 * s - 2.0 * m0 - m1) / dx
    c3 = (m0 + m1 - 2.0 * s) / dx**2
    return y0 + t * (m0 + t * (c2 + t * c3))


class TabulatedWarping(WarpingFunction):
    """Jacobi-equation warping function stored as log psi and psi'/psi on a uniform grid.

    The table holds only the spacing ``dr`` and the two node arrays
    ``log_psi`` and psi'/psi at r_i = i dr, i = 1..n; ``r`` forms those
    radii on demand and ``r_max = n dr``.  The pole is node 0.
    Interpolation acts on the pole-regular quantities g = r psi'/psi and
    h = log(psi/r), both smooth down to r = 0 with g(0) = 1, h(0) = 0,
    so evaluation close to the pole loses no accuracy.  Each is a
    piecewise-cubic Hermite interpolant, formed for every point from its
    two bracketing nodes, whose node slopes come from the Jacobi
    equation the table solves: h' = psi'/psi - 1/r and
    g' = psi'/psi + r (psi''/psi - (psi'/psi)^2), both 0 at the pole.
    psi''/psi is that equation's coefficient, c0 (1 + r^gamma) (c0 at
    gamma = 0), in closed form.
    Evaluation outside [0, r_max] is refused.
    """

    kind = "tabulated"

    def __init__(self, dr, log_psi, ratio1, c0, gamma):
        self.log_psi = np.asarray(log_psi, dtype=float)
        self._ratio1 = np.asarray(ratio1, dtype=float)
        if self.log_psi.ndim != 1 or self.log_psi.size < 4:
            raise ValueError("need at least 4 table nodes")
        if self._ratio1.shape != self.log_psi.shape:
            raise ValueError("log psi and psi'/psi need one value per node")
        if not dr > 0:
            raise ValueError(f"table spacing dr must be positive, got {dr}")
        self.dr = float(dr)
        self.c0 = c0
        self.gamma = gamma
        self.r_max = self.dr * self.log_psi.size
        # class-A normalization: psi ~ r at the pole
        if abs(self.dr * self._ratio1[0] - 1.0) > 0.05:
            raise ValueError("table is not normalized to psi'(0) = 1")

    @property
    def r(self):
        """The node radii i dr, i = 1..n (the pole, node 0, is not tabulated)."""
        return self.dr * np.arange(1, self.log_psi.size + 1)

    def _check_range(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r > self.r_max * (1.0 + 1e-12)):
            raise ValueError(f"radius outside the tabulated range [0, {self.r_max}]")
        return r

    def _node(self, j):
        """g, g', h and h' at the nodes j >= 0; node 0 is the pole."""
        k = np.maximum(j, 1)
        x = self.dr * k
        s = self._ratio1[k - 1]
        q = _jacobi_coefficient(x, self.c0, self.gamma)
        pole = j == 0
        return (
            np.where(pole, 1.0, x * s),
            np.where(pole, 0.0, s + x * (q - s * s)),
            np.where(pole, 0.0, self.log_psi[k - 1] - np.log(x)),
            np.where(pole, 0.0, s - 1.0 / x),
        )

    def _left_node(self, r):
        """The last node at or below r; r_max takes the left node of the end piece."""
        # r/dr can round across a node, so the estimate moves by one where it does
        dr, n = self.dr, self.log_psi.size
        i = np.clip(np.floor(r / dr), 0, n).astype(np.intp)
        return np.clip(i + (r >= dr * (i + 1)) - (r < dr * i), 0, n - 1)

    def _g_h(self, r):
        """g and h at r, each the cubic through the two nodes that bracket r."""
        dr = self.dr
        i = self._left_node(r)
        # dx is the nodes' own spacing, which rounding sets apart from dr
        t, dx = r - dr * i, dr * (i + 1) - dr * i
        g0, dg0, h0, dh0 = self._node(i)
        g1, dg1, h1, dh1 = self._node(i + 1)
        return _hermite(t, dx, g0, g1, dg0, dg1), _hermite(t, dx, h0, h1, dh0, dh1)

    def log_eval(self, r):
        r = self._check_range(r)
        return np.log(r) + self._g_h(r)[1]

    def ratio1(self, r):
        r = self._check_range(r)
        return self._g_h(r)[0] / r

    def ratio2(self, r):
        return _jacobi_coefficient(self._check_range(r), self.c0, self.gamma)

    def sphere_ratio(self, r):
        r = self._check_range(r)
        g, h = self._g_h(r)
        return (np.exp(-2.0 * h) - g * g) / (r * r)


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


_CHUNK = 64  # RK4 steps chained into one transfer matrix
_BLOCK = 64 * _CHUNK  # steps formed at once, so no temporary grows with the table


def _rk4_increment(p, v, q0, qm, qe, dr):
    """Change of (psi, psi') over one classical RK4 step of psi'' = q psi.

    q0, qm and qe are q at the step's start r, at r + dr/2 and at r + dr.
    """
    k1p = v
    k1v = q0 * p
    k2p = v + 0.5 * dr * k1v
    k2v = qm * (p + 0.5 * dr * k1p)
    k3p = v + 0.5 * dr * k2v
    k3v = qm * (p + 0.5 * dr * k2p)
    k4p = v + dr * k3v
    k4v = qe * (p + dr * k3p)
    return dr * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0, dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0


def make_gamma_model(n: int, c0: float, gamma: float, r_max: float, dr: float) -> ModelManifold:
    """Model with radial curvature exactly -c0 (1 + r^gamma).

    Integrates the Jacobi equation psi'' = c0 (1 + r^gamma) psi with
    classical fixed-step RK4, started from the series
    psi = r + c0 r^3/6 (+ the r^{gamma+3} correction) at r = dr, into
    the node arrays of a ``TabulatedWarping``.  The equation is linear,
    so a step is a 2x2 transfer matrix I + E, E being the RK4 increment
    of (psi, psi') = (1, 0) and (0, 1); E is kept apart from I, so the
    matrices lose no more to rounding than the step's own arithmetic.
    The matrices are formed in blocks of ``_BLOCK`` steps and chained in
    runs of ``_CHUNK``, all chunks of a block at once; a short loop then
    carries the solution from chunk to chunk, renormalized to psi = 1
    at each chunk start with log psi carried apart.  Only log psi and
    psi'/psi are tabulated, so nothing overflows although psi grows like
    exp(C r^{1+gamma/2}): ``gamma_table_nodes`` holds dr sqrt(q) below
    0.5, so psi grows by at most e^32 within a chunk.
    """
    n_nodes = gamma_table_nodes(c0, gamma, r_max, dr)

    # series start at r = dr
    r = dr
    p = r + c0 * r**3 / 6.0
    v = 1.0 + c0 * r**2 / 2.0
    if gamma > 0:
        p += c0 * r ** (gamma + 3.0) / ((gamma + 2.0) * (gamma + 3.0))
        v += c0 * r ** (gamma + 2.0) / (gamma + 2.0)

    log_psi = np.empty(n_nodes)
    ratio1 = np.empty(n_nodes)
    log_scale = log_psi[0] = math.log(p)
    v = ratio1[0] = v / p
    # node j (radius (j+1) dr) is reached by the step that starts at r = j dr
    for first in range(1, n_nodes, _BLOCK):
        count = min(_BLOCK, n_nodes - first)
        chunks = -(-count // _CHUNK)
        # column m holds the steps of chunk m; the last chunk may run past the table
        r = dr * (first + np.arange(chunks * _CHUNK).reshape(chunks, _CHUNK).T)
        q0, qm, qe = (_jacobi_coefficient(x, c0, gamma) for x in (r, r + 0.5 * dr, r + dr))
        a, c = _rk4_increment(1.0, 0.0, q0, qm, qe, dr)
        b, d = _rk4_increment(0.0, 1.0, q0, qm, qe, dr)
        # row k becomes P - I, P the product of its chunk's first k + 1 step matrices
        for k in range(1, _CHUNK):
            a[k], b[k], c[k], d[k] = (
                (a[k] + a[k - 1]) + (a[k] * a[k - 1] + b[k] * c[k - 1]),
                (b[k] + b[k - 1]) + (a[k] * b[k - 1] + b[k] * d[k - 1]),
                (c[k] + c[k - 1]) + (c[k] * a[k - 1] + d[k] * c[k - 1]),
                (d[k] + d[k - 1]) + (c[k] * b[k - 1] + d[k] * d[k - 1]),
            )
        # chunk m starts from psi = 1, psi'/psi = start_v[m] and log psi = start_log[m]
        start_log, start_v = np.empty((2, chunks))
        ends = zip(a[-1].tolist(), b[-1].tolist(), c[-1].tolist(), d[-1].tolist())
        for m, (am, bm, cm, dm) in enumerate(ends):
            start_log[m], start_v[m] = log_scale, v
            growth = am + bm * v  # psi - 1 at the chunk's end
            if not (growth > -1.0 and math.isfinite(growth)):
                r_end = dr * (first + _CHUNK * (m + 1))
                raise ArithmeticError(f"Jacobi integration failed at r = {r_end:.6g}")
            log_scale += math.log1p(growth)
            v = (cm + v + dm * v) / (1.0 + growth)
        growth = a + b * start_v
        with np.errstate(divide="ignore", invalid="ignore"):
            block_log_psi = (start_log + np.log1p(growth)).T.ravel()[:count]
            block_ratio1 = ((c + start_v + d * start_v) / (1.0 + growth)).T.ravel()[:count]
        bad = ~(np.isfinite(block_log_psi) & np.isfinite(block_ratio1))
        if bad.any():
            raise ArithmeticError(f"Jacobi integration failed at r = {dr * (first + 1 + np.argmax(bad)):.6g}")
        log_psi[first : first + count] = block_log_psi
        ratio1[first : first + count] = block_ratio1

    return ModelManifold(n, TabulatedWarping(dr, log_psi, ratio1, c0, gamma))


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
