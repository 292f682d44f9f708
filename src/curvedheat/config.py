"""Experiment configuration: flat key-value text with section headers.

The format is INI (configparser): diff-friendly, byte-reproducible, and
each key maps to one knob of the pipeline.  ``KEYS`` is the schema: the
sections and keys a config may set, with each key's converter; anything
outside it is refused.  Defaults live on the spec dataclasses and on
``EvolutionControls``; ``parse_config`` states only those that no
dataclass owns.  It turns text into an ``ExperimentConfig``;
admissibility violations raise ``ConfigError`` naming the violated
hypothesis with its numbers.

A sweep axis is a key ``section.key`` outside [sweep] or a name in ``ALIASES``;
each cell is built by ``_build`` from the config's text with its axis keys set.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .barriers import ExpBarrier
from .errors import ConfigError
from .evolution import EvolutionControls, bump_profile, power_tail_profile
from .forcing import Forcing
from .geometry import HyperbolicWarping, gamma_table_nodes
from .operators import RadialGrid

__all__ = [
    "ManifoldSpec",
    "BarrierSpec",
    "U0Spec",
    "GridSpec",
    "SweepSpec",
    "CheckSpec",
    "ExperimentConfig",
    "KEYS",
    "parse_config",
    "PRESETS",
    "preset_text",
]

# Each section with a kind: the key that names its kind, the kind it takes when
# it names none (None: it must name one) and, for each kind, the keys it needs
# (no default) and the optional keys it reads.  ``_kind`` refuses any other
# key: no command would read it.
KINDS = {
    "manifold": ("kind", None, {
        "euclidean": (("n",), ()), "hyperbolic": (("n",), ("k",)), "gamma": (("n",), ("c0", "gamma", "r_max", "dr")),
    }),
    "forcing": ("kind", "one", {"one": ((), ()), "power": (("q",), ()), "exp": (("sigma",), ())}),
    "problem": ("lambda_policy", "mckean", {
        "mckean": ((), ("p",)), "eigen": ((), ("p",)), "explicit": (("lambda",), ("p",)),
    }),
    "barrier": ("kind", "exp-linear", {
        "exp": (("alpha", "beta"), ()), "exp-linear": ((), ("beta_policy",)), "exp-slow": ((), ("c_lower",)),
        "exp-fast": (("alpha",), ("c_lower",)), "power-tail": (("alpha",), ("c_lower", "lambda_fraction")),
        "glued": (("alpha", "beta", "r0", "r1", "r2"), ()),
    }),
    "u0": ("kind", "scaled-barrier", {
        "scaled-barrier": ((), ("factor", "amplitude")), "bump": ((), ("amplitude", "width")),
        "power-tail": ((), ("amplitude", "alpha")), "zero": ((), ()),
    }),
}


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    n: int
    k: float = 1.0
    c0: float = 1.0
    gamma: float = 2.0
    r_max: float = 25.0
    dr: float = 1e-3

    def __post_init__(self):
        # the model's own checks, before any table is built
        if self.kind == "hyperbolic":
            HyperbolicWarping(self.k)
        elif self.kind == "gamma":
            gamma_table_nodes(self.c0, self.gamma, self.r_max, self.dr)


def pinch_constant(manifold: ManifoldSpec) -> float | None:
    """Curvature pinching constant k of the model (K <= -k^2), if any."""
    if manifold.kind == "hyperbolic":
        return manifold.k
    if manifold.kind == "gamma":
        return math.sqrt(manifold.c0)
    return None


def divergence_gamma(manifold: ManifoldSpec) -> float:
    return manifold.gamma if manifold.kind == "gamma" else 0.0


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
    amplitude: float | None = None  # absolute override
    width: float = 2.0  # bump
    alpha: float = 1.0  # power tail

    def __post_init__(self):
        if self.amplitude is not None and self.amplitude < 0:
            raise ValueError(f"u0 must be nonnegative, got amplitude = {self.amplitude}")
        if self.kind == "scaled-barrier":
            for key in ("factor", "amplitude"):
                value = getattr(self, key)
                if value is not None and not value > 0:
                    raise ValueError(f"scaled-barrier {key} must be positive, got {value}")


@dataclass(frozen=True)
class GridSpec:
    R: float = 20.0
    N: int = 400
    R_list: tuple = ()
    dr: float | None = None  # shared spacing for exhaustion / eigen sequences

    def __post_init__(self):
        RadialGrid(self.R, self.N)
        if any(not R > 0 for R in self.R_list):
            raise ValueError(f"R_list entries must be positive, got {self.R_list}")
        if any(b <= a for a, b in zip(self.R_list, self.R_list[1:])):
            raise ValueError(f"R_list must be strictly increasing, got {self.R_list}")
        if self.dr is not None:
            if not self.dr > 0:
                raise ValueError(f"dr = {self.dr:g} must be positive")
            for R in self.R_list or (self.R,):
                if round(R / self.dr) < 2:
                    raise ValueError(f"dr = {self.dr:g} leaves no interior node on the ball of radius {R:g}")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    axis2: str | None = None
    values2: tuple = ()
    configs: tuple = ()  # each cell's config, in the order of ``cells``

    @property
    def cells(self):
        if self.axis2 is None:
            return [((v,), {self.axis: v}) for v in self.values]
        return [
            ((v, w), {self.axis: v, self.axis2: w})
            for w in self.values2
            for v in self.values
        ]


@dataclass(frozen=True, kw_only=True)
class CheckSpec:
    """Curvature-check targets; ``_build`` takes k, c0, gamma and r_max from the model and ball."""

    k: float
    c0: float
    gamma: float
    r_min: float = 0.1
    r_max: float
    nodes: int = 400

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
    check: CheckSpec
    sweep: SweepSpec | None = None


def _admissible(section, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as a ConfigError of ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _finite(text):
    """A float, refusing nan and inf: no admissibility check has to handle them."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"value must be finite, got {x}")
    return x


def _drift_floor(text):
    """A configured drift floor constant c_lower > 0, or None for 'measured'."""
    if text == "measured":
        return None
    c = _finite(text)
    if not c > 0:
        raise ValueError(f"drift floor constant must be positive, got {c}")
    return c


def _positive_lambda(text):
    lam = _finite(text)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam


def _floats(text):
    return tuple(_finite(tok) for tok in text.replace(",", " ").split())


# The schema: every section a config may have, every key it accepts and
# the key's converter.  The keys of manifold, barrier, u0, grid and check
# are the fields of their spec; controls are EvolutionControls' fields
# (blowup_threshold excepted).
KEYS = {
    "manifold": {
        "kind": str, "n": int, "k": _finite, "c0": _finite, "gamma": _finite,
        "r_max": _finite, "dr": _finite,
    },
    "forcing": {"kind": str, "q": _finite, "sigma": _finite},
    "problem": {"p": _finite, "lambda_policy": str, "lambda": _positive_lambda},
    "barrier": {
        "kind": str, "alpha": _finite, "beta": _finite, "beta_policy": str,
        "c_lower": _drift_floor, "lambda_fraction": _finite, "r0": _finite, "r1": _finite,
        "r2": _finite,
    },
    "u0": {
        "kind": str, "factor": _finite, "amplitude": _finite, "width": _finite,
        "alpha": _finite,
    },
    "grid": {"R": _finite, "N": int, "R_list": _floats, "dr": _finite},
    "controls": {
        "t_end": _finite, "dt_init": _finite, "dt_min": _finite, "dt_max": _finite,
        "rel_tol": _finite, "snapshots": int,
    },
    "sweep": {
        "axis": str, "values": _floats, "start": _finite, "stop": _finite, "count": int,
        "axis2": str, "values2": _floats, "start2": _finite, "stop2": _finite, "count2": int,
    },
    "check": {
        "k": _finite, "c0": _finite, "gamma": _finite, "r_min": _finite, "r_max": _finite,
        "nodes": int,
    },
}


def _section(sections, name):
    """The keys ``name`` sets, converted; a key outside ``KEYS[name]`` is a ConfigError."""
    schema = KEYS[name]
    # configparser lowercases option names; R, N and R_list keep their case here
    spelled = {key.lower(): key for key in schema}
    values = {}
    for option, text in sections.get(name, {}).items():
        if option not in spelled:
            raise ConfigError(f"[{name}] unknown key '{option}'; accepted: {', '.join(schema)}")
        key = spelled[option]
        try:
            values[key] = schema[key](text)
        except ValueError as exc:
            raise ConfigError(f"[{name}] bad value for '{key}': {text!r} ({exc})") from exc
    return values


def _required(values, name, key):
    if key not in values:
        raise ConfigError(f"[{name}] missing required key '{key}'")
    return values[key]


def _kind(name, values):
    """Section ``name``'s ``values`` with its kind set: a kind of ``KINDS``, every key it needs, none it does not read."""
    selector, default, kinds = KINDS[name]
    kind = values.get(selector, default)
    if kind not in kinds:
        raise ConfigError(f"[{name}] {selector} must be one of {' | '.join(kinds)}, got {kind!r}")
    needs, reads = kinds[kind]
    missing = [key for key in needs if key not in values]
    if missing:
        raise ConfigError(f"{name} {selector} {kind} needs explicit {', '.join(missing)}")
    unread = [key for key in values if key not in (selector, *needs, *reads)]
    if unread:
        listed = ", ".join(needs + reads) or "no other key"
        raise ConfigError(f"[{name}] {selector} {kind} does not read {', '.join(map(repr, unread))}; it reads {listed}")
    return {**values, selector: kind}


ALIASES = {"p": "problem.p", "sigma": "forcing.sigma", "amplitude": "u0.amplitude"}


def _axis_values(sw, suffix=""):
    """A sweep axis: ``values`` listed, or ``count`` points from ``start`` to ``stop``."""
    if "values" + suffix in sw:
        if not sw["values" + suffix]:
            raise ConfigError(f"[sweep] values{suffix} lists no numbers")
        return sw["values" + suffix]
    start, stop, count = (
        _required(sw, "sweep", key + suffix) for key in ("start", "stop", "count")
    )
    if count < 1:
        raise ConfigError(f"sweep count{suffix} must be >= 1, got {count}")
    return tuple(
        start + (stop - start) * i / (count - 1) if count > 1 else start for i in range(count)
    )


def parse_config(text: str) -> ExperimentConfig:
    # no header can name the empty string, so [DEFAULT] is an ordinary
    # section and refused below instead of seeding every other section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    try:
        cp.read_string(text)
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    for name in sections:
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}]; accepted: {', '.join(KEYS)}")
    cfg = _build(sections)
    return replace(cfg, sweep=_sweep(sections)) if "sweep" in sections else cfg


def _build(sections) -> ExperimentConfig:
    """The config of ``sections``, option texts by section name; [sweep] is not read."""
    sec = {name: _section(sections, name) for name in KEYS if name != "sweep"}

    manifold = _admissible("manifold", ManifoldSpec, **_kind("manifold", sec["manifold"]))
    if manifold.n < 2:
        raise ConfigError(f"dimension must be >= 2, got {manifold.n}")

    fo = _kind("forcing", sec["forcing"])
    build = {"one": Forcing.one, "power": Forcing.power_law, "exp": Forcing.exponential}[fo.pop("kind")]
    forcing = _admissible("forcing", build, **fo)

    # the checks across sections come before the keys each kind needs
    bkind = sec["barrier"].get("kind", KINDS["barrier"][1])
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
    unread = [key for key in ("lambda_policy", "lambda") if key in sec["problem"]]
    if bkind == "power-tail" and unread:
        raise ConfigError(
            f"[problem] barrier kind power-tail does not read {', '.join(map(repr, unread))}: "
            "its lambda is lambda_fraction x lambda*"
        )
    pr = _kind("problem", sec["problem"])
    p = pr.get("p", 2.0)
    if not p > 1:
        raise ConfigError(f"[problem] reaction exponent must satisfy p > 1, got {p}")
    barrier = BarrierSpec(**_kind("barrier", sec["barrier"]))
    if barrier.beta_policy not in ("lo", "mid", "hi"):
        raise ConfigError(f"beta_policy must be lo | mid | hi, got {barrier.beta_policy!r}")
    if bkind in ("exp", "glued"):
        _admissible("barrier", ExpBarrier, barrier.alpha, barrier.beta)

    u0 = _admissible("u0", U0Spec, **_kind("u0", sec["u0"]))
    if u0.kind == "bump":
        _admissible("u0", bump_profile, 1.0, u0.width)
    elif u0.kind == "power-tail":
        _admissible("u0", power_tail_profile, 1.0, u0.alpha)

    grid = _admissible("grid", GridSpec, **sec["grid"])
    if manifold.kind == "gamma":
        for R in (grid.R, *grid.R_list):
            if R > manifold.r_max:
                raise ConfigError(
                    f"[grid] radius {R:g} exceeds the tabulated warping range r_max = {manifold.r_max:g}"
                )

    ctl = {"t_end": 50.0, **sec["controls"]}
    if grid.R_list:
        ctl.setdefault("snapshots", 33)  # the times at which the ladder's nesting check compares its balls
    elif "snapshots" in ctl:
        raise ConfigError(
            "[controls] no command reads 'snapshots' without [grid] R_list: only an exhaustion run samples its field"
        )
    controls = _admissible("controls", EvolutionControls, **ctl)

    # the targets the model meets: flat space and H^n are checked at c0 = 1, gamma = 0
    k = pinch_constant(manifold)
    ck = {"k": 1.0 if k is None else k, "c0": manifold.c0 if manifold.kind == "gamma" else 1.0,
          "gamma": divergence_gamma(manifold), "r_max": grid.R, **sec["check"]}
    check = _admissible("check", CheckSpec, **ck)

    return ExperimentConfig(
        manifold=manifold,
        forcing=forcing,
        p=p,
        lambda_policy=pr["lambda_policy"],
        lambda_value=pr.get("lambda"),
        barrier=barrier,
        u0=u0,
        grid=grid,
        controls=controls,
        check=check,
    )


def _sweep(sections) -> SweepSpec:
    """[sweep] with its cells' configs, each one admissible and no two alike."""
    sw = _section(sections, "sweep")
    axis = _required(sw, "sweep", "axis")
    values = _axis_values(sw)
    axis2 = sw.get("axis2")
    values2 = () if axis2 is None else _axis_values(sw, "2")
    spec = SweepSpec(axis=axis, values=values, axis2=axis2, values2=values2)
    keys = {}  # each axis name: the (section, option) its values set
    for name in filter(None, (axis, axis2)):
        section, _, option = ALIASES.get(name, name).partition(".")
        if section == "sweep" or option.lower() not in {k.lower() for k in KEYS.get(section, ())}:
            raise ConfigError(
                f"[sweep] an axis is a key section.key outside [sweep] or {' | '.join(ALIASES)}, got {name!r}"
            )
        keys[name] = section, option.lower()
    configs, seen = [], {}
    for _, axis_values in spec.cells:
        cell = {name: dict(options) for name, options in sections.items()}
        for name, v in axis_values.items():
            section, option = keys[name]
            # exact for a float, and an integral value parses as an int key
            cell.setdefault(section, {})[option] = f"{v:.17g}"
        label = ", ".join(f"{name} = {v:g}" for name, v in axis_values.items())
        try:
            cfg = _build(cell)
        except ConfigError as exc:
            raise ConfigError(f"[sweep] cell {label}: {exc}") from exc
        built = repr(cfg)  # the dataclass reprs print every float exactly
        if built in seen:
            raise ConfigError(f"[sweep] cell {label} builds the same config as cell {seen[built]}")
        seen[built] = label
        configs.append(cfg)
    for cfg in configs:
        reads = _sweep_reads(cfg)
        for name, (section, option) in keys.items():
            if option not in reads.get(section, (option,)):
                raise ConfigError(
                    f"[sweep] axis {name!r}: a sweep run of this config never reads "
                    f"{section}.{option} (of [{section}] it reads {', '.join(reads[section]) or 'no key'})"
                )
    return replace(spec, configs=tuple(configs))


def _sweep_reads(cfg) -> dict:
    """The lowercased keys that a sweep run of ``cfg`` reads of each section that it does not read whole.

    ``_build`` has refused every key that its kind does not read, so the rules left are of whole sections.
    """
    reads = {"check": (), "grid": ("n", "r"), "controls": tuple(key for key in KEYS["controls"] if key != "snapshots")}
    if cfg.u0.kind != "scaled-barrier":  # the only data built from the barrier and its lambda
        return {**reads, "barrier": (), "problem": ("p",)}
    if cfg.u0.amplitude is not None:
        reads["u0"] = ("amplitude",)  # an amplitude overrides the factor
    return reads


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

[sweep]
axis = p
values = 1.5 2 3
""",
    # Bump data of amplitude 1 on the flat ball B_20 at p on both sides
    # of 1 + 2/n = 5/3: it blows up at p = 1.5 and 1.666 and decays at
    # 2.5.  That is a statement about amplitude 1 on one ball, not about
    # the Fujita exponent: on a Dirichlet ball every p > 1 has global
    # small data, and only a ladder of balls can show the dichotomy.
    # Flat space admits no exponential barrier (its spectral bottom is
    # 0), so the barrier command reports FAIL here.
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
alpha = 1.0
beta = 0.5

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
