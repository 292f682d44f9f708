import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

from curvedheat.cli import main
from curvedheat.config import (
    KEYS,
    PRESETS,
    BarrierSpec,
    CheckSpec,
    GridSpec,
    ManifoldSpec,
    U0Spec,
    parse_config,
    preset_text,
)
from curvedheat.errors import ConfigError
from curvedheat.evolution import EvolutionControls

HYPERBOLIC_SIM = """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0

[forcing]
kind = one

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
R = 10
N = 199

[controls]
t_end = 5
dt_init = 0.005
dt_max = 0.005
rel_tol = 0
snapshots = 11
"""

TINY_SWEEP = """\
[manifold]
kind = euclidean
n = 3

[forcing]
kind = one

[problem]
p = 2.0
lambda_policy = eigen

[u0]
kind = bump
amplitude = 0.01
width = 2.0

[grid]
R = 10
N = 99

[controls]
t_end = 3
rel_tol = 1e-4

[sweep]
axis = p
values = 1.5 2.5
"""


def test_parse_full_config():
    cfg = parse_config(HYPERBOLIC_SIM)
    assert cfg.manifold.kind == "hyperbolic"
    assert cfg.p == 2.0
    assert cfg.barrier.kind == "exp-linear"
    assert cfg.controls.rel_tol == 0.0
    assert cfg.sweep is None


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[manifold]\nkind = torus\nn = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[manifold]\nkind = euclidean\n")  # missing n
    with pytest.raises(ConfigError):
        parse_config("[manifold]\nkind = euclidean\nn = 3\n\n[problem]\np = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(
            "[manifold]\nkind = euclidean\nn = 3\n\n[problem]\nlambda_policy = explicit\n"
        )
    # power-tail barrier needs steep curvature divergence
    with pytest.raises(ConfigError) as err:
        parse_config(
            "[manifold]\nkind = gamma\nn = 3\ngamma = 1.5\n\n[barrier]\nkind = power-tail\n"
        )
    assert "gamma > 2" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(
            "[manifold]\nkind = hyperbolic\nn = 3\n\n[barrier]\nkind = exp-slow\n"
        )
    # grid must stay inside the tabulated range
    with pytest.raises(ConfigError):
        parse_config(
            "[manifold]\nkind = gamma\nn = 3\nr_max = 10\n\n[grid]\nR = 15\nN = 100\n"
        )


def test_keys_are_the_spec_fields():
    spec_of = {"manifold": ManifoldSpec, "barrier": BarrierSpec, "u0": U0Spec, "grid": GridSpec,
               "check": CheckSpec}
    for section, spec in spec_of.items():
        assert list(KEYS[section]) == [f.name for f in fields(spec)], section
    controls = [f.name for f in fields(EvolutionControls) if f.name != "blowup_threshold"]
    assert list(KEYS["controls"]) == controls + ["snapshots"]
    assert sum(len(keys) for keys in KEYS.values()) == 53


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert (cfg.manifold.kind, cfg.barrier.kind, cfg.u0.kind) == ("hyperbolic", "exp-linear", "scaled-barrier")
    assert (cfg.grid.R, cfg.grid.N, cfg.controls.t_end, cfg.controls.rel_tol) == (20.0, 399, 50.0, 1e-5)


def test_presets_parse():
    for name in PRESETS:
        cfg = parse_config(preset_text(name))
        assert cfg.manifold.n >= 2
    with pytest.raises(ConfigError):
        preset_text("no-such-preset")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_geometry_writes_warping_table(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[manifold]\nkind = gamma\nn = 3\nc0 = 1.0\ngamma = 2.0\nr_max = 8\ndr = 0.001\n"
        "\n[grid]\nR = 8\nN = 200\n",
    )
    out = tmp_path / "geo_gamma"
    assert main(["geometry", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    header = (out / "warping.csv").read_text().splitlines()[0]
    assert header == "r,log_psi,psi1_over_psi,psi2_over_psi"


def test_geometry_command(tmp_path):
    cfg = write_cfg(
        tmp_path, "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n\n[grid]\nR = 10\nN = 100\n"
    )
    out = tmp_path / "geo"
    assert main(["geometry", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    report = (out / "curvature_report.csv").read_text()
    assert "pinch_holds,true" in report
    assert (out / "drift.csv").exists()
    ET.parse(out / "drift.svg")  # well-formed XML


@pytest.mark.parametrize(
    "model",
    [
        "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n",
        "[manifold]\nkind = gamma\nn = 3\nc0 = 4.0\ngamma = 1.0\nr_max = 8\ndr = 0.001\n",
    ],
    ids=["hyperbolic", "gamma-c0-4"],
)
def test_geometry_empty_check_section_keeps_model_defaults(tmp_path, model):
    text = model + "\n[grid]\nR = 8\nN = 200\n"
    reports = []
    for name, body in (("none", text), ("empty", text + "\n[check]\n")):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, body, name=f"{name}.cfg")
        assert main(["geometry", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        reports.append((out / "curvature_report.csv").read_text())
    assert reports[0] == reports[1]


def test_geometry_strict_fails_on_flat_space(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[manifold]\nkind = euclidean\nn = 3\n\n[grid]\nR = 5\nN = 50\n"
        "\n[check]\nk = 0.5\nc0 = 1.0\ngamma = 0.0\n",
    )
    out = tmp_path / "geo"
    assert main(["geometry", "--config", str(cfg), "--out", str(out), "--strict"]) == 1
    assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0


def test_eigen_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n\n[grid]\nR_list = 4 8\ndr = 0.02\n",
    )
    out = tmp_path / "eig"
    assert main(["eigen", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    lines = (out / "eigen.csv").read_text().splitlines()
    assert lines[0] == "R,lambda1,residual"
    assert len(lines) == 3
    ET.parse(out / "eigen.svg")


def test_barrier_command_and_kv_format(tmp_path):
    cfg = write_cfg(tmp_path, HYPERBOLIC_SIM)
    out = tmp_path / "bar"
    assert main(["barrier", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    kv = (out / "barrier.kv").read_text().strip()
    assert kv.startswith("kind=exp ")
    assert " alpha=" in kv and " beta=" in kv and " lambda=" in kv
    check = (out / "barrier_check.csv").read_text()
    assert "verdict,PASS" in check
    profile = (out / "barrier_profile.csv").read_text().splitlines()
    assert profile[0] == "r,u"


def test_barrier_strict_failure(tmp_path):
    # flat space admits no exponential supersolution at lambda > 0
    text = HYPERBOLIC_SIM.replace("kind = hyperbolic\nn = 3\nk = 1.0", "kind = euclidean\nn = 3")
    text = text.replace("kind = exp-linear\nbeta_policy = mid", "kind = exp\nalpha = 1.0\nbeta = 1.0")
    text = text.replace("lambda_policy = mckean", "lambda_policy = explicit\nlambda = 1.0")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "bar"
    assert main(["barrier", "--config", str(cfg), "--out", str(out), "--strict"]) == 1
    assert "verdict,FAIL" in (out / "barrier_check.csv").read_text()


def test_simulate_command_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, HYPERBOLIC_SIM)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--strict"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--strict"]) == 0
    for name in ("history.csv", "final_field.csv", "run_summary.csv", "envelope_check.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = (out1 / "run_summary.csv").read_text()
    assert "verdict,global-up-to-horizon" in summary
    assert "envelope_pass,true" in summary


def test_sweep_command(tmp_path):
    cfg = write_cfg(tmp_path, TINY_SWEEP)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("p,verdict,")
    assert len(lines) == 3
    assert "dr" in lines[0] and "horizon" in lines[0]
    ET.parse(out / "sweep.svg")


def test_sweep_threads_match_serial(tmp_path):
    cfg = write_cfg(tmp_path, TINY_SWEEP)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_two_axis_sweep(tmp_path):
    text = TINY_SWEEP.replace(
        "[forcing]\nkind = one",
        "[forcing]\nkind = exp\nsigma = 1.0",
    ).replace(
        "[sweep]\naxis = p\nvalues = 1.5 2.5",
        "[sweep]\naxis = p\nvalues = 2.5 3.0\naxis2 = sigma\nvalues2 = 0.5 1.0",
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "grid2d"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("p,sigma,verdict,")
    assert len(lines) == 5  # 2 x 2 cells
    ET.parse(out / "sweep.svg")


def test_barrier_kv_reload(tmp_path):
    from curvedheat import ExpBarrier, load_barrier_kv

    cfg = write_cfg(tmp_path, HYPERBOLIC_SIM)
    out = tmp_path / "bar"
    assert main(["barrier", "--config", str(cfg), "--out", str(out)]) == 0
    barrier, lam = load_barrier_kv(out / "barrier.kv")
    assert isinstance(barrier, ExpBarrier)
    assert lam == 1.0  # mckean policy on the unit-curvature model


def test_power_tail_preset_certified_run(tmp_path):
    # slowly decaying data under a power-tail barrier on the steep model:
    # bounded through the horizon with the envelope certificate
    out = tmp_path / "pt"
    assert main(["simulate", "--preset", "power-tail-gamma3", "--out", str(out), "--strict"]) == 0
    summary = (out / "run_summary.csv").read_text()
    assert "verdict,global-up-to-horizon" in summary
    assert "envelope_pass,true" in summary


def test_fujita_preset_dichotomy(tmp_path):
    out = tmp_path / "fj"
    assert main(["sweep", "--preset", "fujita-euclidean", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    verdicts = {float(r[0]): r[1] for r in rows}
    assert verdicts[1.5] == "blow-up"
    assert verdicts[2.5] == "global-up-to-horizon"
    # the 1.666 cell sits on the critical edge; any verdict is acceptable
    assert verdicts[1.666] in ("blow-up", "global-up-to-horizon", "undecided")


def test_glued_barrier_through_cli(tmp_path):
    text = HYPERBOLIC_SIM.replace(
        "kind = exp-linear\nbeta_policy = mid",
        "kind = glued\nalpha = 1.0\nbeta = 1.0\nr0 = 4.0\nr1 = 3.0\nr2 = 6.0",
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "glued"
    assert main(["barrier", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    kv = (out / "barrier.kv").read_text()
    assert kv.startswith("kind=glued ")
    assert "verdict,PASS" in (out / "barrier_check.csv").read_text()


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "[manifold]\nkind = torus\nn = 3\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_exhaustion_through_cli(tmp_path):
    text = HYPERBOLIC_SIM + "\n"
    text = text.replace("R = 10\nN = 199", "R = 10\nN = 199\nR_list = 5 10\ndr = 0.05")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "exh"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    lines = (out / "exhaustion.csv").read_text().splitlines()
    assert lines[0] == "R,verdict,t_star,gap_to_previous"
    assert (out / "history_R5.csv").exists()
    assert (out / "history_R10.csv").exists()


GEOMETRY_BASE = "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n\n[grid]\nR = 10\nN = 100\n\n"


@pytest.mark.parametrize(
    "text, hypothesis",
    [
        (GEOMETRY_BASE + "[forcing]\nkind = exp\nsigma = 0\n", "exponential rate must be positive"),
        (GEOMETRY_BASE + "[forcing]\nkind = power\nq = -1\n", "power-law exponent must be > -1"),
        (GEOMETRY_BASE + "[controls]\nt_end = 0\n", "t_end must be positive"),
        (GEOMETRY_BASE + "[controls]\ndt_init = 1.0\ndt_max = 0.25\n", "need dt_min < dt_init <= dt_max"),
        (GEOMETRY_BASE + "[barrier]\nc_lower = steep\n", "bad value for 'c_lower'"),
        (GEOMETRY_BASE + "[barrier]\nc_lower = -1\n", "drift floor constant must be positive"),
        (GEOMETRY_BASE + "[sweep]\naxis = sigma\nvalues = 0 1\n", "exponential rate must be positive"),
        (
            "[manifold]\nkind = gamma\nn = 3\ngamma = 2.0\nr_max = 40\ndr = 0.1\n\n[grid]\nR = 10\nN = 100\n",
            "too coarse for the Jacobi equation",
        ),
        (GEOMETRY_BASE.replace("R = 10", "R = -5"), "outer radius must be positive"),
        (GEOMETRY_BASE.replace("N = 100", "N = 0"), "interior node count must be a positive integer"),
        (GEOMETRY_BASE + "[u0]\nkind = bump\nwidth = 0\n", "bump width must be positive"),
        (
            GEOMETRY_BASE + "[problem]\nlambda_policy = explicit\nlambda = -1\n",
            "lambda must be positive",
        ),
        (GEOMETRY_BASE + "[barrier]\nkind = exp\nalpha = -1\nbeta = 1\n", "alpha and beta must be positive"),
        (GEOMETRY_BASE + "[check]\nnodes = 0\n", "nodes must be >= 1"),
        (GEOMETRY_BASE + "[check]\nr_min = 0\n", "r_min and r_max must be positive"),
        (GEOMETRY_BASE + "[u0]\nkind = power-tail\nalpha = -1\n", "decay exponent must be positive"),
        (GEOMETRY_BASE + "[control]\nrel_tol = 0\n", "unknown section [control]"),
        ("[DEFAULT]\nk = 2.0\n\n" + GEOMETRY_BASE, "unknown section [DEFAULT]"),
        (GEOMETRY_BASE + "[controls]\nrel_tl = 0\n", "[controls] unknown key 'rel_tl'"),
        (GEOMETRY_BASE + "[controls]\nblowup_threshold = 1e300\n", "unknown key 'blowup_threshold'"),
        (GEOMETRY_BASE + "[u0]\nfallback = 2\n", "[u0] unknown key 'fallback'"),
        (GEOMETRY_BASE + "[controls]\nrel_tol = 5%\n", "config does not parse"),
    ],
    ids=["sigma", "q", "t_end", "dt-order", "c_lower-text", "c_lower-sign", "sweep-sigma",
         "gamma-dr", "grid-R", "grid-N", "u0-width", "explicit-lambda", "exp-alpha",
         "check-nodes", "check-r_min", "u0-power-tail-alpha", "unknown-section",
         "default-section", "unknown-key", "retired-blowup_threshold", "retired-fallback",
         "interpolation"],
)
def test_inadmissible_config_values_are_config_errors(tmp_path, capsys, text, hypothesis):
    cfg = write_cfg(tmp_path, text)
    assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert hypothesis in err
    assert "Traceback" not in err


GLUED = "[barrier]\nkind = glued\nalpha = 1\nbeta = 1\nr0 = 4\n"


@pytest.mark.parametrize(
    "text, hypothesis",
    [
        (GEOMETRY_BASE + GLUED + "r1 = 5\nr2 = 6\n", "need 0 < r1 < r0 < r2 < R_max"),
        (
            GEOMETRY_BASE + GLUED + "r1 = 3\nr2 = 6\n[problem]\nlambda_policy = explicit\nlambda = 5\n",
            "too large: positive radial solution crosses zero",
        ),
        (GEOMETRY_BASE + "[barrier]\nkind = exp-fast\nalpha = 5\n", "1 <= alpha <= min(1+gamma/2, 2)"),
        (
            "[manifold]\nkind = gamma\nn = 3\ngamma = 2.5\nr_max = 20\ndr = 0.01\n\n"
            "[grid]\nR = 10\nN = 100\n\n[barrier]\nkind = power-tail\nalpha = 1\nc_lower = 1e-9\n",
            "exterior bracket never closes",
        ),
    ],
    ids=["glued-radii", "glued-lambda", "exp-fast-alpha", "power-tail-cap"],
)
def test_inadmissible_barrier_parameters_are_config_errors(tmp_path, capsys, text, hypothesis):
    cfg = write_cfg(tmp_path, text)
    assert main(["barrier", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [barrier] ")
    assert hypothesis in err


@pytest.mark.parametrize("dr", ["-0.1", "0", "5"])
def test_eigen_spacing_without_interior_nodes_is_a_config_error(tmp_path, capsys, dr):
    text = GEOMETRY_BASE.replace("N = 100", f"N = 100\nR_list = 4 8\ndr = {dr}")
    cfg = write_cfg(tmp_path, text)
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [grid] dr = ")
    assert not (tmp_path / "x" / "eigen.csv").exists()


FRESH_IMPORT = """\
import json, sys
import curvedheat.cli
from curvedheat import Forcing, time_envelope
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
env = time_envelope(Forcing.power_law(1.5), 0.8, 2.0, 1.0)
print(json.dumps({"loaded": loaded, "integral": float(env.damped_integral(2.0)),
                  "total": env.damped_total, "special": "scipy.special" in sys.modules}))
"""


def test_fresh_import_loads_no_optional_scipy_module():
    # the CLI needs numpy and scipy.linalg; scipy.special loads only once
    # power forcing is evaluated
    from curvedheat import Forcing, time_envelope

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], env=env, capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    for name in ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.integrate"):
        assert not any(m == name or m.startswith(name + ".") for m in got["loaded"]), name
    assert got["special"]
    ref = time_envelope(Forcing.power_law(1.5), 0.8, 2.0, 1.0)
    assert got["integral"] == float(ref.damped_integral(2.0))
    assert got["total"] == ref.damped_total
