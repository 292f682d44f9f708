"""Stationary supersolution barriers and the time envelope they carry.

A barrier is a positive decaying profile w with Delta w + lam w <= 0
(weakly) on the model; by parabolic comparison, e^{-lam t} xi(t) w(x)
then dominates every solution started below a suitable multiple of w.
Three families are constructed here:

``ExpBarrier``
    w = exp(-beta r^alpha).  The admissible (alpha, beta) come from
    ``exp_rate_window`` (alpha = 1 under a constant drift floor),
    ``slow_decay_params`` (alpha < 1, needs divergent curvature) or
    ``fast_decay_rate`` (alpha >= 1).

``PowerBarrier``
    a linear cap glued C^1 onto r^{-alpha}; admissible when the radial
    curvature diverges faster than quadratically (``power_tail_barrier``
    returns it with the certified lam*).

``GluedBarrier``
    min of a scaled positive radial solution and an ExpBarrier, matched
    on an annulus (``glued_barrier``).

``verify_supersolution`` evaluates the residual w'' + F w' + lam w with
exact derivatives and the model's exact drift at every grid node (the
discrete residual (Delta_h + lam) C phi on the phi-branch of a glued
barrier), plus the one-sided derivative sign at kinks; a residual
above a few rounding units of the sum of its terms' magnitudes is a
FAIL verdict, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forcing import Forcing
from .geometry import ModelManifold, drift
from .operators import RadialGrid
from .spectral import RadialSolution, positive_radial_solution

__all__ = [
    "ExpBarrier",
    "PowerBarrier",
    "GluedBarrier",
    "SupersolutionCheck",
    "TimeEnvelope",
    "exp_rate_window",
    "slow_decay_params",
    "fast_decay_rate",
    "power_tail_barrier",
    "glued_barrier",
    "verify_supersolution",
    "time_envelope",
    "amplitude_limit",
    "dump_barrier_kv",
]

_ALPHA_GRID_POINTS = 512  # slow_decay_params: candidate exponents alpha
_ROOT_MARGIN = 0.1  # slow_decay_params: relative margin on the root condition
_R0_STEP = 0.25  # power_tail_barrier: spacing of the cap radii searched
_R0_MAX = 400.0  # power_tail_barrier: largest cap radius searched


@dataclass(frozen=True)
class ExpBarrier:
    """w(r) = exp(-beta r^alpha); w(0) = 1, strictly decreasing."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(f"alpha and beta must be positive, got ({self.alpha}, {self.beta})")

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-self.beta * r**self.alpha)

    def deriv1(self, r):
        r = np.asarray(r, dtype=float)
        a, b = self.alpha, self.beta
        return -a * b * r ** (a - 1.0) * np.exp(-b * r**a)

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        a, b = self.alpha, self.beta
        return -a * b * np.exp(-b * r**a) * ((a - 1.0) * r ** (a - 2.0) - a * b * r ** (2.0 * a - 2.0))

    @property
    def sup(self) -> float:
        return 1.0


@dataclass(frozen=True)
class PowerBarrier:
    """Linear cap a - b r on [0, r0], power tail r^{-alpha} beyond.

    The cap coefficients b = alpha r0^{-alpha-1}, a = b r0 + r0^{-alpha}
    make the profile C^1 at r0, so the kink condition (outgoing slope
    not larger than incoming) holds with equality.
    """

    alpha: float
    r0: float

    def __post_init__(self):
        if self.alpha <= 0 or self.r0 <= 0:
            raise ValueError(f"alpha and r0 must be positive, got ({self.alpha}, {self.r0})")

    @property
    def b(self) -> float:
        return self.alpha * self.r0 ** (-self.alpha - 1.0)

    @property
    def a(self) -> float:
        return self.b * self.r0 + self.r0 ** (-self.alpha)

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.r0, self.a - self.b * r, np.where(r > 0, r, 1.0) ** -self.alpha)

    def deriv1(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(
            r <= self.r0, -self.b, -self.alpha * np.where(r > 0, r, 1.0) ** (-self.alpha - 1.0)
        )

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        a = self.alpha
        return np.where(r <= self.r0, 0.0, a * (a + 1.0) * np.where(r > 0, r, 1.0) ** (-a - 2.0))

    @property
    def sup(self) -> float:
        return self.a


class GluedBarrier:
    """min of C*phi and an exponential barrier, with C*phi forced inside r0.

    phi is the positive discrete radial solution at the same lam, so the
    phi-branch solves (Delta_h + lam) phi = 0 on the construction grid;
    the exponential branch carries the far-field decay.
    """

    def __init__(self, c, phi: RadialSolution, v: ExpBarrier, r0, r1, r2, lam, use_v, values):
        self.c = float(c)
        self.phi = phi
        self.v = v
        self.r0 = float(r0)
        self.r1 = float(r1)
        self.r2 = float(r2)
        self.lam = float(lam)
        self.use_v = use_v  # node mask: exponential branch active
        self.values = values

    @property
    def grid(self) -> RadialGrid:
        return self.phi.field.grid

    @property
    def sup(self) -> float:
        return float(np.max(self.values))

    def eval(self, r):
        # exact at construction nodes, linear in between (the profile is
        # piecewise smooth, so this is only used for data/envelope
        # evaluation, never for residual verification)
        nodes = self.grid.nodes
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r > nodes[-1] * (1.0 + 1e-12)):
            raise ValueError(f"glued barrier is defined on [0, {nodes[-1]}] only")
        return np.interp(np.minimum(r, nodes[-1]), nodes, self.values)


@dataclass(frozen=True)
class SupersolutionCheck:
    """Outcome of a residual verification; a FAIL is a verdict, not an error."""

    max_residual: float  # the largest residual, at worst_r
    worst_r: float
    max_relative: float  # the largest residual over the sum of its terms' magnitudes
    kink_ok: bool
    tol: float  # the bound on max_relative, a few rounding units

    @property
    def passed(self) -> bool:
        return self.max_relative <= self.tol and self.kink_ok


def exp_rate_window(n: int, k: float, lam: float):
    """Admissible decay-rate interval [beta_lo, beta_hi] for w = e^{-beta r}.

    The endpoints are the roots of beta^2 - k(n-1) beta + lam = 0; the
    window exists for 0 < lam <= (n-1)^2 k^2 / 4 and collapses to a
    point at the upper end.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    if k <= 0:
        raise ValueError(f"curvature scale k must be positive, got {k}")
    kn1 = k * (n - 1)
    lam_max = (n - 1) ** 2 * k**2 / 4.0
    if not (0.0 < lam <= lam_max * (1.0 + 1e-14)):
        raise ValueError(
            f"rate window needs 0 < lambda <= (n-1)^2 k^2/4 = {lam_max:.12g}, got {lam:.12g}"
        )
    # discriminant via lam_max so the window closes exactly at the top
    disc = math.sqrt(max(4.0 * (lam_max - lam), 0.0))
    beta_hi = (kn1 + disc) / 2.0
    beta_lo = lam / beta_hi
    return beta_lo, beta_hi


def slow_decay_params(n, c_lower, gamma, lam):
    """Pick (alpha, beta) with alpha < 1 for w = e^{-beta r^alpha}.

    Needs divergent radial curvature (gamma > 0) and a drift floor
    constant c_lower.  The smallest feasible alpha on a fixed grid of
    (max(1-gamma/2, 0), 1) is selected -- slowest admissible spatial
    decay, hence the largest dominated initial-data class -- with a
    relative margin on the root-existence condition, then beta is the
    smaller root of the associated quadratic.
    """
    if gamma <= 0:
        raise ValueError(f"slow-decay barrier needs gamma > 0, got {gamma}")
    if c_lower <= 0:
        raise ValueError(f"drift floor constant must be positive, got {c_lower}")
    lam_max = (n - 1) ** 2 * c_lower**2 / 4.0
    if not (0.0 < lam < lam_max):
        raise ValueError(
            f"slow-decay window needs 0 < lambda < (n-1)^2 c^2/4 = {lam_max:.12g}, got {lam:.12g}"
        )
    cn1 = c_lower * (n - 1)
    lo = max(1.0 - gamma / 2.0, 0.0)
    alphas = lo + (1.0 - lo) * np.arange(1, _ALPHA_GRID_POINTS + 1) / (_ALPHA_GRID_POINTS + 1.0)
    for alpha in alphas:
        t = 1.0 - alpha - cn1
        if t < 0.0 and t * t >= 4.0 * lam * (1.0 + _ROOT_MARGIN):
            s = math.sqrt(t * t - 4.0 * lam)
            beta_hi = (-t + s) / (2.0 * alpha)
            beta_lo = lam / (alpha * alpha * beta_hi)
            mid = 0.5 * (beta_lo + beta_hi)
            q_mid = alpha * alpha * mid * mid + alpha * t * mid + lam
            if q_mid < 0.0:
                return float(alpha), float(beta_lo)
    raise ValueError(
        f"no feasible decay exponent in ({lo:.4g}, 1) for lambda = {lam:.6g}: "
        f"lambda is too close to the window edge {lam_max:.6g}"
    )


def fast_decay_rate(n, c_lower, gamma, lam, alpha) -> float:
    """beta for w = e^{-beta r^alpha} with 1 <= alpha <= min(1+gamma/2, 2)."""
    if c_lower <= 0:
        raise ValueError(f"drift floor constant must be positive, got {c_lower}")
    alpha_max = min(1.0 + gamma / 2.0, 2.0)
    if not (1.0 <= alpha <= alpha_max * (1.0 + 1e-14)):
        raise ValueError(
            f"decay exponent must satisfy 1 <= alpha <= min(1+gamma/2, 2) = "
            f"{alpha_max:.12g}, got {alpha:.12g}"
        )
    cn1 = c_lower * (n - 1)
    lam_max = cn1 * cn1 / 4.0
    if not (0.0 < lam <= lam_max * (1.0 + 1e-14)):
        raise ValueError(
            f"root condition fails: needs 0 < lambda <= (n-1)^2 c^2/4 = {lam_max:.12g}, "
            f"got {lam:.12g}"
        )
    s = math.sqrt(max(cn1 * cn1 - 4.0 * lam, 0.0))
    beta_hi = (cn1 + s) / (2.0 * alpha)
    return lam / (alpha * alpha * beta_hi)


def power_tail_barrier(n, k, c_lower, gamma, alpha):
    """PowerBarrier plus the certified lam* for gamma > 2.

    The interior linear-cap condition pins lam* = alpha k (n-1) /
    ((alpha+1) r0) with equality; the exterior bracket
    alpha(alpha+1) r^{-2} - alpha c (n-1) r^{gamma/2 - 1} + lam is
    strictly decreasing in r for gamma > 2, so its sup over [r0, inf)
    sits at r0 and the combined admissibility is monotone in r0: the
    smallest admissible mesh radius is the closure of the interior /
    exterior alternation.
    """
    if gamma <= 2:
        raise ValueError(f"power-tail barrier needs gamma > 2, got {gamma}")
    if alpha <= 0 or k <= 0 or c_lower <= 0:
        raise ValueError("alpha, k and the drift floor constant must be positive")
    cn1 = c_lower * (n - 1)
    kn1 = k * (n - 1)
    mesh = _R0_STEP * np.arange(1, int(round(_R0_MAX / _R0_STEP)) + 1)
    lam_star = alpha * kn1 / ((alpha + 1.0) * mesh)
    exterior = alpha * (alpha + 1.0) / mesh**2 - alpha * cn1 * mesh ** (gamma / 2.0 - 1.0) + lam_star
    ok = np.flatnonzero(exterior <= 0.0)
    if ok.size == 0:
        raise ValueError(f"no admissible cap radius up to {_R0_MAX}: exterior bracket never closes")
    r0 = float(mesh[ok[0]])
    return PowerBarrier(alpha, r0), float(alpha * kn1 / ((alpha + 1.0) * r0))


def glued_barrier(M: ModelManifold, lam, alpha, beta, r0, r1, r2, R_max, N) -> GluedBarrier:
    """Assemble min{C phi, e^{-beta r^alpha}} with C phi forced inside r0.

    C is the largest constant keeping C phi <= v on the matching annulus
    [r1, r2], which maximizes the dominated initial-data class.  phi is
    rejected if it loses positivity before R_max (lam too large).
    """
    if not (0.0 < r1 < r0 < r2 < R_max):
        raise ValueError(f"need 0 < r1 < r0 < r2 < R_max, got ({r1}, {r0}, {r2}, {R_max})")
    gamma = M.psi.gamma
    if gamma > 0:
        a_lo = max(1.0 - gamma / 2.0, 0.0)
        a_hi = 1.0 + gamma / 2.0
        if not (a_lo < alpha < a_hi):
            raise ValueError(
                f"decay exponent must lie in (max(1-gamma/2,0), 1+gamma/2) = "
                f"({a_lo:.4g}, {a_hi:.4g}) for gamma = {gamma:.4g}, got {alpha}"
            )
    elif alpha != 1.0:
        # constant-curvature floor: the admissible window degenerates to
        # the pure-exponential rate case
        raise ValueError(f"alpha must be 1 when the curvature divergence exponent is 0, got {alpha}")

    phi = positive_radial_solution(M, lam, R_max, N)
    if not phi.positive:
        raise ValueError(
            f"lam = {lam:.6g} too large: positive radial solution crosses zero at "
            f"r = {phi.first_zero:.6g} < R_max = {R_max:.6g}"
        )
    v = ExpBarrier(alpha, beta)
    nodes = phi.field.grid.nodes
    vvals = v.eval(nodes)
    pvals = phi.field.values
    annulus = (nodes >= r1) & (nodes <= r2)
    if not np.any(annulus):
        raise ValueError("matching annulus contains no grid nodes")
    c = float(np.min(vvals[annulus] / pvals[annulus]))
    scaled = c * pvals
    use_v = (nodes > r0) & (vvals < scaled)
    values = np.where(use_v, vvals, scaled)
    if np.any(values <= 0.0):
        raise ValueError("assembled barrier is not strictly positive")
    return GluedBarrier(c, phi, v, r0, r1, r2, lam, use_v, values)


# a node passes when its residual is at most RESIDUAL_TOL times the sum of
# the magnitudes of its terms: the rounding of that sum, with a margin
RESIDUAL_TOL = 8 * np.finfo(float).eps


def _terms(M, w, lam, r):
    """w'' + F w' + lam w from the closed-form eval/deriv1/deriv2 of w, and the sum of its terms' magnitudes."""
    d2, fd1, lw = w.deriv2(r), drift(M, r) * w.deriv1(r), lam * w.eval(r)
    return d2 + fd1 + lw, np.abs(d2) + np.abs(fd1) + np.abs(lw)


def verify_supersolution(M: ModelManifold, barrier, lam: float, grid: RadialGrid) -> SupersolutionCheck:
    """Max of w'' + F w' + lam w over the grid (pole excluded), kinks checked.

    Derivatives are exact and closed-form and the drift is the model's
    exact one, so there is no discretization slack in the residual: a
    node passes when it is at most ``RESIDUAL_TOL`` (|w''| + |F w'| + lam w),
    a verdict that is the same at every scale of the problem.  The phi-branch
    of a glued barrier has no closed form; its residual is (Delta_h + lam) C phi
    recomputed from the band phi was solved on, that of its construction manifold
    and grid, on the rows 1..N (the Dirichlet node carries no
    equation), against the magnitudes of the band's terms.  At kinks the weak-supersolution
    sign w'(r+) <= w'(r-) is checked one-sidedly, with phi's slope from
    central differences of its node values.
    """
    r_all = grid.nodes[1:]
    kink_ok = True

    if isinstance(barrier, (ExpBarrier, PowerBarrier)):
        res, size = _terms(M, barrier, lam, r_all)
        if isinstance(barrier, PowerBarrier) and grid.nodes[0] <= barrier.r0 <= grid.nodes[-1]:
            a, r0, b_cap = barrier.alpha, barrier.r0, barrier.b
            kink_ok = (-a * r0 ** (-a - 1.0)) <= -b_cap + 1e-12 * abs(b_cap)
    elif isinstance(barrier, GluedBarrier):
        if grid != barrier.grid:
            raise ValueError("glued barriers verify on their construction grid only")
        if abs(lam - barrier.lam) > 1e-14 * max(1.0, abs(lam)):
            raise ValueError(
                f"glued barrier was built for lam = {barrier.lam:.12g}, cannot verify at {lam:.12g}"
            )
        use_v = barrier.use_v[1:]
        cphi = barrier.c * barrier.phi.field.values
        sub, diag, sup = band = barrier.phi.band
        res_phi = np.append(band.mult(cphi)[1:] + lam * cphi[1:-1], 0.0)  # the Dirichlet node carries no equation
        # |sub phi| + |diag phi| + |sup phi| + lam phi on each row, with sub, sup >= 0 >= diag
        v = np.abs(cphi)
        size_phi = np.append(sub[1:] * v[:-2] - diag[1:] * v[1:-1] + sup[1:] * v[2:] + abs(lam) * v[1:-1], 0.0)
        p = cphi[1:]
        dp = np.gradient(cphi, grid.dr)[1:]
        res_v, size_v = _terms(M, barrier.v, lam, r_all)
        res = np.where(use_v, res_v, res_phi)
        size = np.where(use_v, size_v, size_phi)
        # branch switches: min-kinks; require the outgoing slope <= incoming
        switches = np.flatnonzero(use_v[:-1] != use_v[1:])
        for j in switches:
            r_a, r_b = r_all[j], r_all[j + 1]
            d_a = float(barrier.v.eval(r_a)) - p[j]
            d_b = float(barrier.v.eval(r_b)) - p[j + 1]
            if d_a != d_b:
                r_star = r_a + (r_b - r_a) * d_a / (d_a - d_b)
                r_star = min(max(r_star, r_a), r_b)
            else:
                r_star = 0.5 * (r_a + r_b)
            dv = float(barrier.v.deriv1(r_star))
            dphi = float(np.interp(r_star, r_all, dp))
            left = dv if use_v[j] else dphi
            right = dv if use_v[j + 1] else dphi
            scale = max(abs(left), abs(right), 1e-30)
            if right > left + 1e-9 * scale:
                kink_ok = False
    else:
        raise TypeError(f"unknown barrier type {type(barrier).__name__}")

    i = int(np.argmax(res))
    # a residual whose terms are all zero is zero itself
    relative = np.divide(res, size, out=np.zeros_like(res), where=size > 0)
    return SupersolutionCheck(
        max_residual=float(res[i]), worst_r=float(r_all[i]), max_relative=float(relative.max()),
        kink_ok=bool(kink_ok), tol=RESIDUAL_TOL,
    )


# ---------------------------------------------------------------------------
# time envelope


@dataclass(frozen=True)
class TimeEnvelope:
    """Growth factor of the time envelope for data ctilde * w, w a barrier of sup norm ``barrier_sup``.

    ``growth`` solves xi' = W^{p-1} h(t) e^{-(p-1) lam t} xi^p, xi(0) = 1
    in closed form, 1/xi^{p-1} = 1 - (p-1) W^{p-1} D((p-1) lam, t) with D
    the forcing's damped integral and W = ctilde * barrier_sup; the
    envelope dominating the evolution is e^{-lam t} growth(t) ctilde w.
    """

    forcing: Forcing
    lam: float
    p: float
    barrier_sup: float
    ctilde: float

    def growth(self, t):
        pm1 = self.p - 1.0
        x = 1.0 - pm1 * (self.ctilde * self.barrier_sup) ** pm1 * self.forcing.damped_integral(pm1 * self.lam, t)
        return np.where(x > 0.0, np.maximum(x, 1e-300) ** (-1.0 / pm1), np.inf)


def _check_envelope(lam: float, p: float, barrier_sup: float) -> None:
    if lam <= 0 or p <= 1:
        raise ValueError(f"need lam > 0 and p > 1, got lam = {lam}, p = {p}")
    if barrier_sup <= 0:
        raise ValueError(f"barrier sup norm must be positive, got {barrier_sup}")


def amplitude_limit(forcing: Forcing, lam: float, p: float, barrier_sup: float):
    """Largest admissible data amplitude relative to the barrier, or None.

    Returns (1/||w||) [1/((p-1) D_inf)]^{1/(p-1)}, with D_inf the
    forcing's damped integral ``forcing.damped_integral((p-1) lam, inf)``;
    None when D_inf is infinite or beyond the float range (no
    global-existence certificate).
    """
    _check_envelope(lam, p, barrier_sup)
    total = float(forcing.damped_integral((p - 1.0) * lam, math.inf))
    if not math.isfinite(total):
        return None
    return (1.0 / barrier_sup) * (1.0 / ((p - 1.0) * total)) ** (1.0 / (p - 1.0))


def time_envelope(forcing: Forcing, lam: float, p: float, barrier_sup: float, ctilde: float) -> TimeEnvelope:
    """The envelope of data ``ctilde`` times a barrier of sup norm ``barrier_sup``.

    ctilde is the data amplitude actually used.  Its growth stays
    evaluable on finite horizons where no amplitude limit exists, and is
    inf from the time the budget of a ctilde above the limit runs out.
    """
    _check_envelope(lam, p, barrier_sup)
    if ctilde <= 0:
        raise ValueError(f"amplitude must be positive, got {ctilde}")
    return TimeEnvelope(
        forcing=forcing, lam=float(lam), p=float(p), barrier_sup=float(barrier_sup),
        ctilde=float(ctilde),
    )


# ---------------------------------------------------------------------------
# flat key-value serialization


def dump_barrier_kv(barrier, lam: float) -> str:
    if isinstance(barrier, ExpBarrier):
        return f"kind=exp alpha={barrier.alpha:.17g} beta={barrier.beta:.17g} lambda={lam:.17g}"
    if isinstance(barrier, PowerBarrier):
        return (
            f"kind=power-tail alpha={barrier.alpha:.17g} r0={barrier.r0:.17g} "
            f"a={barrier.a:.17g} b={barrier.b:.17g} lambda={lam:.17g}"
        )
    if isinstance(barrier, GluedBarrier):
        return (
            f"kind=glued c={barrier.c:.17g} alpha={barrier.v.alpha:.17g} "
            f"beta={barrier.v.beta:.17g} r0={barrier.r0:.17g} r1={barrier.r1:.17g} "
            f"r2={barrier.r2:.17g} lambda={lam:.17g}"
        )
    raise TypeError(f"unknown barrier type {type(barrier).__name__}")
