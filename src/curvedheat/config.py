"""Experiment configuration: flat key-value text with section headers.

The format is INI (configparser): diff-friendly, byte-reproducible, and
each key maps to one knob of the pipeline.  ``parse_config`` turns text
into an ``ExperimentConfig``; admissibility violations raise
``ConfigError`` naming the violated hypothesis with its numbers.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .barriers import ExpBarrier
from .errors import ConfigError
from .evolution import EvolutionControls, bump_profile
from .forcing import Forcing
from .operators import RadialGrid

__all__ = [
    "ManifoldSpec",
    "BarrierSpec",
    "U0Spec",
    "GridSpec",
    "SweepSpec",
    "CheckSpec",
    "ExperimentConfig",
    "parse_config",
    "PRESETS",
    "preset_text",
]

MANIFOLD_KINDS = ("euclidean", "hyperbolic", "gamma")
BARRIER_KINDS = ("exp", "exp-linear", "exp-slow", "exp-fast", "power-tail", "glued")
U0_KINDS = ("scaled-barrier", "bump", "power-tail", "zero")
LAMBDA_POLICIES = ("mckean", "eigen", "explicit")


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    n: int
    k: float = 1.0
    c0: float = 1.0
    gamma: float = 2.0
    r_max: float = 25.0
    dr: float = 1e-3


@dataclass(frozen=True)
class BarrierSpec:
    kind: str
    alpha: float | None = None
    beta: float | None = None
    beta_policy: str = "mid"  # lo | mid | hi, for exp-linear
    c_lower: float | None = None  # None: measure on the model grid
    lambda_fraction: float = 1.0  # for power-tail: lam = fraction * lam*
    r0: float | None = None
    r1: float | None = None
    r2: float | None = None


@dataclass(frozen=True)
class U0Spec:
    kind: str
    factor: float = 0.5  # x amplitude limit, when one exists
    fallback: float = 1.0  # absolute barrier multiple when no limit exists
    amplitude: float | None = None  # absolute override
    width: float = 2.0  # bump
    alpha: float = 1.0  # power tail


@dataclass(frozen=True)
class GridSpec:
    R: float
    N: int
    R_list: tuple = ()
    dr: float | None = None  # shared spacing for exhaustion / eigen sequences


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    axis2: str | None = None
    values2: tuple = ()

    @property
    def cells(self):
        if self.axis2 is None:
            return [((v,), {self.axis: v}) for v in self.values]
        return [
            ((v, w), {self.axis: v, self.axis2: w})
            for w in self.values2
            for v in self.values
        ]


@dataclass(frozen=True)
class CheckSpec:
    """Curvature-check targets; k and gamma left None follow the model."""

    k: float | None
    c0: float
    gamma: float | None
    r_min: float
    r_max: float
    nodes: int

    def __post_init__(self):
        if not (self.r_min > 0 and self.r_max > 0):
            raise ValueError(f"r_min and r_max must be positive, got [{self.r_min}, {self.r_max}]")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")


@dataclass
class ExperimentConfig:
    manifold: ManifoldSpec
    forcing: Forcing
    p: float
    lambda_policy: str
    lambda_value: float | None
    barrier: BarrierSpec
    u0: U0Spec
    grid: GridSpec
    controls: EvolutionControls
    snapshots: int
    sweep: SweepSpec | None
    check: CheckSpec


def _get(section, key, conv, default=None, required=False):
    if section is None or key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return conv(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {section[key]!r} ({exc})") from exc


def _admissible(section, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as a ConfigError of ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _drift_floor(text):
    """A configured drift floor constant c_lower > 0, or None for 'measured'."""
    if text == "measured":
        return None
    c = float(text)
    if not c > 0:
        raise ValueError(f"drift floor constant must be positive, got {c}")
    return c


def _positive_lambda(text):
    lam = float(text)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _axis_values(sw, suffix=""):
    """A sweep axis: ``values`` listed, or ``count`` points from ``start`` to ``stop``."""
    if "values" + suffix in sw:
        return _floats(sw["values" + suffix])
    start = _get(sw, "start" + suffix, float, required=True)
    stop = _get(sw, "stop" + suffix, float, required=True)
    count = _get(sw, "count" + suffix, int, required=True)
    if count < 1:
        raise ConfigError(f"sweep count{suffix} must be >= 1, got {count}")
    return tuple(
        start + (stop - start) * i / (count - 1) if count > 1 else start for i in range(count)
    )


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc

    sec = {name: cp[name] for name in cp.sections()}

    man = sec.get("manifold")
    kind = _get(man, "kind", str, required=True)
    if kind not in MANIFOLD_KINDS:
        raise ConfigError(f"manifold kind must be one of {MANIFOLD_KINDS}, got {kind!r}")
    manifold = ManifoldSpec(
        kind=kind,
        n=_get(man, "n", int, required=True),
        k=_get(man, "k", float, 1.0),
        c0=_get(man, "c0", float, 1.0),
        gamma=_get(man, "gamma", float, 2.0),
        r_max=_get(man, "r_max", float, 25.0),
        dr=_get(man, "dr", float, 1e-3),
    )
    if manifold.n < 2:
        raise ConfigError(f"dimension must be >= 2, got {manifold.n}")

    fo = sec.get("forcing")
    fkind = _get(fo, "kind", str, "one")
    if fkind == "one":
        forcing = Forcing.one()
    elif fkind == "power":
        forcing = _admissible("forcing", Forcing.power_law, _get(fo, "q", float, required=True))
    elif fkind == "exp":
        forcing = _admissible("forcing", Forcing.exponential, _get(fo, "sigma", float, required=True))
    else:
        raise ConfigError(f"forcing kind must be one | power | exp, got {fkind!r}")

    pr = sec.get("problem")
    p = _get(pr, "p", float, 2.0)
    if p <= 1:
        raise ConfigError(f"reaction exponent must satisfy p > 1, got {p}")
    lambda_policy = _get(pr, "lambda_policy", str, "mckean")
    if lambda_policy not in LAMBDA_POLICIES:
        raise ConfigError(f"lambda_policy must be one of {LAMBDA_POLICIES}, got {lambda_policy!r}")
    lambda_value = _get(pr, "lambda", _positive_lambda)
    if lambda_policy == "explicit" and lambda_value is None:
        raise ConfigError("lambda_policy = explicit needs a 'lambda' value")

    ba = sec.get("barrier")
    bkind = _get(ba, "kind", str, "exp-linear")
    if bkind not in BARRIER_KINDS:
        raise ConfigError(f"barrier kind must be one of {BARRIER_KINDS}, got {bkind!r}")
    barrier = BarrierSpec(
        kind=bkind,
        alpha=_get(ba, "alpha", float),
        beta=_get(ba, "beta", float),
        beta_policy=_get(ba, "beta_policy", str, "mid"),
        c_lower=_get(ba, "c_lower", _drift_floor),
        lambda_fraction=_get(ba, "lambda_fraction", float, 1.0),
        r0=_get(ba, "r0", float),
        r1=_get(ba, "r1", float),
        r2=_get(ba, "r2", float),
    )
    if bkind in ("exp", "glued") and None not in (barrier.alpha, barrier.beta):
        _admissible("barrier", ExpBarrier, barrier.alpha, barrier.beta)
    if barrier.beta_policy not in ("lo", "mid", "hi"):
        raise ConfigError(f"beta_policy must be lo | mid | hi, got {barrier.beta_policy!r}")
    if bkind == "power-tail" and manifold.kind == "gamma" and manifold.gamma <= 2:
        raise ConfigError(
            f"power-tail barrier needs curvature divergence exponent gamma > 2, "
            f"got gamma = {manifold.gamma}"
        )
    if bkind in ("exp-slow", "power-tail") and manifold.kind != "gamma":
        raise ConfigError(
            f"barrier kind {bkind!r} needs a divergent-curvature (gamma) model, "
            f"got manifold kind {manifold.kind!r}"
        )

    uo = sec.get("u0")
    ukind = _get(uo, "kind", str, "scaled-barrier")
    if ukind not in U0_KINDS:
        raise ConfigError(f"u0 kind must be one of {U0_KINDS}, got {ukind!r}")
    u0 = U0Spec(
        kind=ukind,
        factor=_get(uo, "factor", float, 0.5),
        fallback=_get(uo, "fallback", float, 1.0),
        amplitude=_get(uo, "amplitude", float),
        width=_get(uo, "width", float, 2.0),
        alpha=_get(uo, "alpha", float, 1.0),
    )
    if ukind == "bump":
        _admissible("u0", bump_profile, 1.0, u0.width)

    gr = sec.get("grid")
    grid = GridSpec(
        R=_get(gr, "R", float, 20.0),
        N=_get(gr, "N", int, 400),
        R_list=_get(gr, "R_list", _floats, ()),
        dr=_get(gr, "dr", float),
    )
    _admissible("grid", RadialGrid, grid.R, grid.N)
    if manifold.kind == "gamma" and grid.R > manifold.r_max:
        raise ConfigError(
            f"grid radius R = {grid.R} exceeds the tabulated warping range r_max = {manifold.r_max}"
        )

    co = sec.get("controls")
    controls = _admissible(
        "controls",
        EvolutionControls,
        t_end=_get(co, "t_end", float, 50.0),
        dt_init=_get(co, "dt_init", float, 1e-3),
        dt_min=_get(co, "dt_min", float, 1e-12),
        dt_max=_get(co, "dt_max", float, 0.25),
        rel_tol=_get(co, "rel_tol", float, 1e-5),
        blowup_threshold=_get(co, "blowup_threshold", float),
    )
    snapshots = _get(co, "snapshots", int, 33)

    sw = sec.get("sweep")
    sweep = None
    if sw is not None:
        axis = _get(sw, "axis", str, required=True)
        values = _axis_values(sw)
        axis2 = _get(sw, "axis2", str)
        values2 = () if axis2 is None else _axis_values(sw, "2")
        if axis not in ("p", "sigma", "amplitude"):
            raise ConfigError(f"sweep axis must be p | sigma | amplitude, got {axis!r}")
        for v in values + values2:
            if not math.isfinite(v):
                raise ConfigError(f"sweep axis values must be finite, got {v}")
        for name, vals in ((axis, values), (axis2, values2)):
            if name == "sigma":
                for v in vals:
                    _admissible("sweep", Forcing.exponential, v)
        sweep = SweepSpec(axis=axis, values=values, axis2=axis2, values2=values2)

    ck = sec.get("check")
    check = _admissible(
        "check",
        CheckSpec,
        k=_get(ck, "k", float),
        c0=_get(ck, "c0", float, manifold.c0),
        gamma=_get(ck, "gamma", float),
        r_min=_get(ck, "r_min", float, 0.1),
        r_max=_get(ck, "r_max", float, grid.R),
        nodes=_get(ck, "nodes", int, 400),
    )

    return ExperimentConfig(
        manifold=manifold,
        forcing=forcing,
        p=p,
        lambda_policy=lambda_policy,
        lambda_value=lambda_value,
        barrier=barrier,
        u0=u0,
        grid=grid,
        controls=controls,
        snapshots=snapshots,
        sweep=sweep,
        check=check,
    )


PRESETS = {
    # Exponentially growing forcing on the constant-curvature model:
    # sweep p across the global-existence/blow-up boundary near
    # p = 1 + sigma/lambda1 = 2.
    "exp-forcing-hyperbolic": """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0

[forcing]
kind = exp
sigma = 1.0

[problem]
p = 2.0
lambda_policy = mckean

[barrier]
kind = exp-linear
beta_policy = mid

[u0]
kind = scaled-barrier
factor = 0.5
fallback = 1.0

[grid]
R = 20
N = 399

[controls]
t_end = 40
rel_tol = 1e-5

[sweep]
axis = p
start = 1.1
stop = 3.0
count = 20
""",
    # Power-tail data on a steeply curvature-divergent model: slow decay
    # of the data is admissible because the drift grows fast.
    "power-tail-gamma3": """\
[manifold]
kind = gamma
n = 3
c0 = 1.0
gamma = 3.0
r_max = 18
dr = 0.001

[forcing]
kind = one

[problem]
p = 2.0
lambda_policy = mckean

[barrier]
kind = power-tail
alpha = 1.0
c_lower = measured
lambda_fraction = 0.5

[u0]
kind = scaled-barrier
factor = 0.5

[grid]
R = 15
N = 1499

[controls]
t_end = 50
rel_tol = 1e-5
""",
    # Flat-space dichotomy around the critical reaction exponent
    # 1 + 2/n = 5/3: small bump data blows up below, decays above.
    "fujita-euclidean": """\
[manifold]
kind = euclidean
n = 3

[forcing]
kind = one

[problem]
p = 2.0
lambda_policy = eigen

[barrier]
kind = exp

[u0]
kind = bump
amplitude = 1.0
width = 2.0

[grid]
R = 20
N = 399

[controls]
t_end = 60
rel_tol = 1e-5

[sweep]
axis = p
values = 1.5 1.666 2.5
""",
}


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]
