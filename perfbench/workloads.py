"""Benchmark workloads: the inputs each one runs, made from a seed.

Seed 0 gives exactly the shipped inputs.  Other seeds move only the
sweep's p grid and the H^3 radii of the spectral bracket, and by so
little that every operation keeps its seed-0 outcome class:

* p moves by at most 0.01, so cells stay 0.08 apart and on their side
  of the verdict boundary p = 1 + sigma/lambda1 = 2.  The cells p = 1.9
  (which ends `undecided` today) and p = 2 (the boundary itself) never
  move, nor do the controls.
* each H^3 radius moves by at most 2 %, rounded to the dr = 0.01 grid.
  The gamma = 3 radii, including R = 16 (which fails today), never move.

``scale="tiny"`` shrinks every workload to a few seconds for the
self-test; the benchmark itself always runs ``"full"``.
"""

from __future__ import annotations

import configparser
import io
import random

from curvedheat.config import PRESETS, parse_config

WORKLOADS = ("exp-sweep", "gamma3-global", "spectral-bracket")
SCALES = ("full", "tiny")

SWEEP_PRESET = "exp-forcing-hyperbolic"
GAMMA3_PRESET = "power-tail-gamma3"
SWEEP_FIXED_P = (1.9, 2.0)
P_JITTER = 0.01
RADIUS_JITTER = 0.02
EIGEN_DR = 0.01

H3_TEXT = """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0
"""

GAMMA3_MODEL_TEXT = """\
[manifold]
kind = gamma
n = 3
c0 = 1.0
gamma = 3.0
r_max = 18
dr = 0.001

[grid]
R = 16
N = 1599
"""


def set_keys(text: str, section: str, values: dict, drop=()) -> str:
    """Return config ``text`` with keys of ``section`` set or dropped."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep the case of R and N
    cp.read_string(text)
    for key in drop:
        cp.remove_option(section, key)
    for key, value in values.items():
        cp.set(section, key, str(value))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _sweep_inputs(seed: int, scale: str) -> dict:
    text = PRESETS[SWEEP_PRESET]
    rng = random.Random(seed)
    if scale == "tiny":
        p_values = [1.5, 2.5]
        text = set_keys(text, "grid", {"N": 99})
        text = set_keys(text, "controls", {"t_end": 10})
    else:
        p_values = list(parse_config(text).sweep.values)
    if seed != 0:
        p_values = [
            p if any(abs(p - q) < 1e-9 for q in SWEEP_FIXED_P)
            else p + rng.uniform(-P_JITTER, P_JITTER)
            for p in p_values
        ]
    text = set_keys(
        text, "sweep", {"values": " ".join(repr(p) for p in p_values)},
        drop=("start", "stop", "count"),
    )
    return {
        "configs": {"sweep": text},
        "threads": 2,
        # the heat oracle runs on the sweep's ball and controls; its
        # first-order IMEX error at t = 40 is ~4 %, bounded by
        # lambda1^2 dt t / 2 ~ 10 % at the controller's dt
        "oracle_tol": 0.1,
    }


def _gamma3_inputs(seed: int, scale: str) -> dict:
    text = PRESETS[GAMMA3_PRESET]
    if scale == "tiny":
        text = set_keys(text, "controls", {"t_end": 5})
    return {
        "configs": {"gamma3": text},
        # late-time decay rate of sup|u| against lambda1 of the run's own
        # ball; step doubling gives a relative error ~ lambda1 dt / 4
        "rate_tol": 1e-2,
    }


def _h3_radius(R: float, rng: random.Random) -> float:
    return round(R * (1.0 + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER)) / EIGEN_DR) * EIGEN_DR


def _spectral_inputs(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    if scale == "tiny":
        h3, g3, maxiter = [5.0, 10.0], [4.0, 16.0], 2000
    else:
        h3, g3, maxiter = [10.0, 20.0, 40.0, 80.0], [4.0, 8.0, 16.0], None
    if seed != 0:
        h3 = [_h3_radius(R, rng) for R in h3]
    return {
        "configs": {"h3": H3_TEXT, "gamma3": GAMMA3_MODEL_TEXT},
        "radii": {"h3": h3, "gamma3": g3},
        "dr": EIGEN_DR,
        "maxiter": maxiter,
        # H^3 ball eigenvalues against 1 + pi^2/R^2; today's error at
        # dr = 0.01 is ~2.5e-5
        "h3_tol": 1e-4,
    }


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """Inputs of one workload run, as plain JSON-able data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {', '.join(SCALES)}")
    build = {
        "exp-sweep": _sweep_inputs,
        "gamma3-global": _gamma3_inputs,
        "spectral-bracket": _spectral_inputs,
    }[workload]
    inputs = build(seed, scale)
    inputs.update(workload=workload, seed=seed, scale=scale)
    return inputs
