import configparser
import csv
import importlib.util
import io
import inspect
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import pytest

from curvedheat import experiments, operators, spectral
from curvedheat.cli import main
from curvedheat.config import (
    KEYS,
    KINDS,
    PRESETS,
    BarrierSpec,
    CheckSpec,
    GridSpec,
    ManifoldSpec,
    U0Spec,
    divergence_gamma,
    parse_config,
    pinch_constant,
    preset_text,
)
from curvedheat.errors import ConfigError
from curvedheat.evolution import EvolutionControls
from curvedheat.forcing import Forcing
from curvedheat.operators import RadialGrid

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
    assert list(KEYS["controls"]) == controls
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


def test_gamma3_eigen_ladder_within_rounding_passes(tmp_path):
    # the ball eigenvalues at dr = 0.01 rise by 1.9e-12 from R = 12 to 14 and
    # to 16, below eps ||T||_1 = 1.6e-11 of the bands: rounding of the
    # bisection, not a discretization failure.  A slack of 8 eps lambda
    # (7.9e-15) would fail it
    cfg = write_cfg(
        tmp_path,
        "[manifold]\nkind = gamma\nn = 3\nc0 = 1.0\ngamma = 3.0\nr_max = 18\ndr = 0.001\n\n"
        "[grid]\nR = 16\nN = 1599\nR_list = 12 14 16\ndr = 0.01\n",
    )
    out = tmp_path / "eig"
    assert main(["eigen", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    values = csv_column(out / "eigen.csv", "lambda1")
    assert values[0] < values[1] < values[2]


def test_eigen_ladder_at_one_spacing_assembles_one_band(tmp_path, monkeypatch):
    # the balls of R_list = 12 14 16 at dr = 0.01 read the leading blocks of
    # B_16's band, and each row of eigen.csv is that of the ball alone
    text = ("[manifold]\nkind = gamma\nn = 3\nc0 = 1.0\ngamma = 3.0\nr_max = 18\ndr = 0.001\n\n"
            "[grid]\nR = 16\nN = 1599\nR_list = {}\ndr = 0.01\n")
    assemble = spectral.laplacian_tridiag
    radii = []
    monkeypatch.setattr(spectral, "laplacian_tridiag", lambda M, grid: radii.append(grid.R) or assemble(M, grid))
    rows = []
    for R_list in ("12 14 16", "12", "14", "16"):
        out = tmp_path / R_list.replace(" ", "-")
        assert main(["eigen", "--config", str(write_cfg(tmp_path, text.format(R_list))), "--out", str(out)]) == 0
        rows.append((out / "eigen.csv").read_text().splitlines()[1:])
    assert radii == [16.0, 12.0, 14.0, 16.0]
    assert rows[0] == rows[1] + rows[2] + rows[3]


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_barrier_check_records_the_quantity_its_verdict_compares(tmp_path, preset):
    out = tmp_path / "bar"
    main(["barrier", "--preset", preset, "--out", str(out)])
    rows = dict(line.split(",", 1) for line in (out / "barrier_check.csv").read_text().splitlines()[1:])
    assert rows["kink_ok"] == "true"
    assert (float(rows["max_relative"]) <= float(rows["tol"])) == (rows["verdict"] == "PASS")


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


# lambda = 50 lies far above the spectral bottom of H^3, so the amplitude
# limit it gives certifies nothing: the p = 2 run blows up at t* = 0.068,
# before the first snapshot at t = 5/32
WRONG_CERTIFICATE = """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0

[forcing]
kind = one

[problem]
p = 2.0
lambda_policy = explicit
lambda = 50

[barrier]
kind = exp
alpha = 1.0
beta = 1.0

[u0]
kind = scaled-barrier
factor = 0.5

[grid]
R = 10
N = 199

[controls]
t_end = 5

[sweep]
axis = p
values = 2 2.5
"""


def scale(text, e):
    """Config ``text`` on H^3 or R^3 under the parabolic scaling by mu = 2^e.

    If u solves u_t = Delta u + h(t) u^p on the model of curvature -k^2,
    then mu^(2/(p-1)) u(mu r, mu^2 t) solves it with h(mu^2 t) on curvature
    -(mu k)^2.  So k -> mu k; R, grid.dr, R_list and the glued radii r0, r1,
    r2 -> /mu; an explicit
    lambda -> mu^2 lambda and beta -> mu beta (alpha = 1); an exp forcing's
    sigma -> mu^2 sigma; a bump's amplitude -> mu^(2/(p-1)) amplitude and its
    width -> /mu; t_end, dt_init, dt_min and dt_max -> /mu^2; the [check]
    targets k -> mu k, c0 -> mu^2 c0 (gamma = 0), r_min and r_max -> /mu,
    defaults included.  At p = 1.5 and 2 each map is exact in floating point.
    gamma models are not closed under this map (their curvature
    c0 (1 + r^gamma) has two scales), nor is power-law forcing.
    """
    mu = 2.0**e
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # keep the case of R and N
    cp.read_string(text)
    assert cp["manifold"]["kind"] in ("hyperbolic", "euclidean")
    assert cp.get("forcing", "kind", fallback="one") in ("one", "exp")
    assert float(cp.get("barrier", "alpha", fallback=1.0)) == 1.0
    p = float(cp.get("problem", "p", fallback=2.0))
    assert p in (1.5, 2.0)
    if cp.get("u0", "kind", fallback=None) == "bump":
        assert cp.has_option("u0", "amplitude") and cp.has_option("u0", "width")
    for section, key, factor in (
        ("manifold", "k", mu), ("grid", "R", 1 / mu), ("grid", "dr", 1 / mu), ("problem", "lambda", mu * mu),
        ("barrier", "r0", 1 / mu), ("barrier", "r1", 1 / mu), ("barrier", "r2", 1 / mu),
        ("barrier", "beta", mu), ("forcing", "sigma", mu * mu), ("u0", "width", 1 / mu),
        ("u0", "amplitude", mu ** (2 / (p - 1))),
    ):
        if cp.has_option(section, key):
            cp[section][key] = repr(float(cp[section][key]) * factor)
    if cp.has_option("grid", "R_list"):
        cp["grid"]["R_list"] = " ".join(repr(float(R) / mu) for R in cp["grid"]["R_list"].split())
    check = parse_config(text).check
    assert check.gamma == 0.0
    if not cp.has_section("check"):
        cp.add_section("check")
    for key, factor in (("k", mu), ("c0", mu * mu), ("r_min", 1 / mu), ("r_max", 1 / mu)):
        cp["check"][key] = repr(getattr(check, key) * factor)
    if cp.has_section("controls"):
        times = {"t_end": 50.0, **{f.name: f.default for f in fields(EvolutionControls) if f.name.startswith("dt_")}}
        for key, default in times.items():
            cp["controls"][key] = repr(float(cp["controls"].get(key, default)) / (mu * mu))
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


# a glued barrier on H^3: its phi-branch residual is the band's (Delta_h + lam) C phi
GLUED_H3 = """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0

[problem]
p = 2.0
lambda_policy = explicit
lambda = 1

[barrier]
kind = glued
alpha = 1
beta = 1
r0 = 4
r1 = 3
r2 = 6

[grid]
R = 10
N = 199
"""


@pytest.mark.parametrize(
    "text, verdict",
    [(WRONG_CERTIFICATE, "FAIL"), (PRESETS["exp-forcing-hyperbolic"], "PASS"), (PRESETS["fujita-euclidean"], "FAIL"),
     (GLUED_H3, "PASS")],
    ids=["wrong-certificate", "exp-forcing-hyperbolic", "fujita-euclidean", "glued-h3"],
)
@pytest.mark.parametrize("e", [-20, -10, 0, 10, 20])
def test_barrier_verdict_is_scale_invariant(tmp_path, capsys, text, verdict, e):
    # the residual tolerance is relative to the residual's terms, which
    # all scale by mu^2; an absolute one passes the wrong certificate at e = -20
    cfg = write_cfg(tmp_path, scale(text, e))
    code = main(["barrier", "--config", str(cfg), "--out", str(tmp_path / "bar"), "--strict"])
    line = capsys.readouterr().out.splitlines()[1]
    assert line.endswith(f"-> {verdict}")
    assert code == {"PASS": 0, "FAIL": 1}[verdict]


def test_glued_barrier_check_assembles_one_band(tmp_path, monkeypatch):
    # the phi-branch residual reads the band phi was solved on, so the
    # barrier command assembles B_R's band once, for phi
    assemble, grids = operators.laplacian_tridiag, []
    for name, module in list(sys.modules.items()):
        if name.startswith("curvedheat") and getattr(module, "laplacian_tridiag", None) is assemble:
            monkeypatch.setattr(module, "laplacian_tridiag", lambda M, grid: grids.append(grid) or assemble(M, grid))
    cfg = write_cfg(tmp_path, GLUED_H3)
    assert main(["barrier", "--config", str(cfg), "--out", str(tmp_path / "bar"), "--strict"]) == 0
    assert grids == [RadialGrid(10.0, 199)]


# eigen configs on H^3 and R^3: two ladders that pass, and a ball of H^3 too
# coarse (dr = 0.5) for its eigenvalue 0.983 to reach the McKean bound 1
SCALED_EIGEN = {
    "h3": "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n\n[grid]\nR_list = 2 4\ndr = 0.1\n",
    "r3": "[manifold]\nkind = euclidean\nn = 3\n\n[grid]\nR_list = 2 4\ndr = 0.1\n",
    "h3-coarse": "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n\n[grid]\nR = 50\nN = 99\n",
}
BUMP_RUN = """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0

[problem]
p = 2.0

[u0]
kind = bump
amplitude = 0.5
width = 2.0

[grid]
R = 10
N = 99

[controls]
t_end = 5
"""
# simulate configs: a blow-up under exp forcing and a global run on one ball
# of H^3, and a ladder of R^3 balls that all blow up
SCALED_SIMULATE = {
    "h3-exp-blowup": BUMP_RUN.replace("[problem]", "[forcing]\nkind = exp\nsigma = 1.0\n\n[problem]")
    .replace("amplitude = 0.5", "amplitude = 2.0"),
    "h3-global": BUMP_RUN,
    "r3-ladder": BUMP_RUN.replace("kind = hyperbolic\nn = 3\nk = 1.0", "kind = euclidean\nn = 3")
    .replace("p = 2.0", "p = 1.5").replace("amplitude = 0.5", "amplitude = 3.0")
    .replace("N = 99", "N = 99\nR_list = 5 10\ndr = 0.1").replace("t_end = 5", "t_end = 20"),
}


def run_scaled(tmp_path, capsys, command, text, e):
    """(exit code, stdout lines, out dir) of ``command --strict`` on ``text`` scaled by 2^e."""
    out = tmp_path / f"{command}{e}"
    code = main([command, "--config", str(write_cfg(tmp_path, scale(text, e), f"{command}{e}.cfg")),
                 "--out", str(out), "--strict"])
    return code, capsys.readouterr().out.splitlines(), out


def csv_column(path, column):
    with open(path) as fh:
        return [float(row[column]) if row[column] else None for row in csv.DictReader(fh)]


@pytest.mark.parametrize(
    "model, verdict",
    [("kind = hyperbolic\nn = 3\nk = 1.0", (0, ["PASS", "PASS"])), ("kind = euclidean\nn = 3", (1, ["FAIL", "FAIL"]))],
    ids=["h3", "r3"],
)
def test_geometry_verdict_is_scale_invariant(tmp_path, capsys, model, verdict):
    # curvatures scale by mu^2, as do the pinch target k^2 and the divergence
    # target c0; H^3 meets both with equality, R^3 neither
    text = f"[manifold]\n{model}\n\n[grid]\nR = 10\nN = 100\n"
    runs = [run_scaled(tmp_path, capsys, "geometry", text, e) for e in (-20, 0, 20)]
    verdicts = [(code, [line.rsplit(": ", 1)[1] for line in lines[:2]]) for code, lines, _ in runs]
    assert verdicts == [verdict] * 3


@pytest.mark.parametrize("name", list(SCALED_EIGEN))
def test_eigen_verdict_is_scale_invariant(tmp_path, capsys, name):
    # ?stebz locates lambda1 within about eps ||T||_1, at most 2.6e-13 of lambda1
    # on these balls, and the scaled band is mu^2 times the band to rounding
    code0, lines0, out0 = run_scaled(tmp_path, capsys, "eigen", SCALED_EIGEN[name], 0)
    lam0 = csv_column(out0 / "eigen.csv", "lambda1")
    assert code0 == (1 if name == "h3-coarse" else 0)
    for e in (-20, -10, 10, 20):
        code, lines, out = run_scaled(tmp_path, capsys, "eigen", SCALED_EIGEN[name], e)
        assert code == code0, e
        assert lines[1].split("monotone")[1] == lines0[1].split("monotone")[1], e
        lam = csv_column(out / "eigen.csv", "lambda1")
        assert [x / 4.0**e for x in lam] == pytest.approx(lam0, rel=1e-12, abs=0), e


@pytest.mark.parametrize("name", list(SCALED_SIMULATE))
def test_simulate_verdict_is_scale_invariant(tmp_path, capsys, name):
    ladder = "R_list" in SCALED_SIMULATE[name]
    code0, lines0, out0 = run_scaled(tmp_path, capsys, "simulate", SCALED_SIMULATE[name], 0)

    def verdicts_and_times(lines, out):
        if ladder:
            return lines[0].split(": verdicts ")[1], csv_column(out / "exhaustion.csv", "t_star")
        summary = dict(line.split(",", 1) for line in (out / "run_summary.csv").read_text().splitlines()[1:])
        return lines[0].split(" at t* = ")[0], [float(summary["t_star"]) if summary["t_star"] else None]

    verdicts0, t0 = verdicts_and_times(lines0, out0)
    assert code0 == 0
    assert (verdicts0, t0[0] is None) == {
        "h3-exp-blowup": ("verdict: blow-up", False), "h3-global": ("verdict: global-up-to-horizon", True),
        "r3-ladder": ("blow-up, blow-up", False),
    }[name]
    for e in (-20, -10, 10, 20):
        code, lines, out = run_scaled(tmp_path, capsys, "simulate", SCALED_SIMULATE[name], e)
        verdicts, t = verdicts_and_times(lines, out)
        assert (code, verdicts) == (code0, verdicts0), e
        assert [None if x is None else x * 4.0**e for x in t] == pytest.approx(t0, rel=1e-9, abs=0), e


def test_strict_fails_on_a_ladder_whose_blow_up_times_rise(tmp_path, capsys, monkeypatch):
    # the R^3 ladder blows up on both balls, the larger one first; a report
    # whose blow-up order is forced to fail prints it and fails --strict
    code, lines, _ = run_scaled(tmp_path, capsys, "simulate", SCALED_SIMULATE["r3-ladder"], 0)
    assert code == 0 and lines[1].endswith("blow-up times nonincreasing: True")
    solve = experiments.exhaustion_solve
    monkeypatch.setattr(experiments, "exhaustion_solve", lambda *a: replace(solve(*a), blowup_nonincreasing=False))
    code, lines, _ = run_scaled(tmp_path, capsys, "simulate", SCALED_SIMULATE["r3-ladder"], 0)
    assert code == 1 and lines[1].endswith("blow-up times nonincreasing: False")


def test_strict_fails_on_a_failed_envelope_in_simulate_and_sweep(tmp_path, monkeypatch):
    outcomes = []
    solve = experiments.solve_on_ball
    monkeypatch.setattr(experiments, "solve_on_ball", lambda *args, **kw: outcomes.append(solve(*args, **kw)) or outcomes[-1])
    cfg = write_cfg(tmp_path, WRONG_CERTIFICATE)
    assert main(["barrier", "--config", str(cfg), "--out", str(tmp_path / "bar"), "--strict"]) == 1
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"), "--strict"]) == 1
    header, *rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    header = header.split(",")
    assert len(rows) == 2
    for row in rows:
        cell = dict(zip(header, row.split(",")))
        assert cell["envelope_pass"] == "false"
        one = write_cfg(tmp_path, WRONG_CERTIFICATE.replace("p = 2.0", f"p = {cell['p']}"), f"p{cell['p']}.cfg")
        out = tmp_path / f"sim{cell['p']}"
        assert main(["simulate", "--config", str(one), "--out", str(out), "--strict"]) == 1
        lines = (out / "run_summary.csv").read_text().splitlines()[1:]
        summary = dict(line.split(",", 1) for line in lines)
        assert set(header) <= set(summary)
        assert {key: summary[key] for key in header} == cell
        run, dts = outcomes[-1], outcomes[-1].history[1:, 2]
        assert {key: float(summary[key]) for key in experiments.WORK_KEYS} == {
            "steps": len(dts), "rejected_error": run.rejected_error, "rejected_nonfinite": run.rejected_nonfinite,
            "factor_sets": run.factor_sets, "solves": run.solves, "sample_steps": run.sample_steps,
            "dt_accepted_min": dts.min(), "dt_accepted_max": dts.max(),
        }


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
    # two sigma groups of three cells: six batches dealt over three workers
    two_groups = write_cfg(tmp_path, TINY_SWEEP.replace("[forcing]\nkind = one", "[forcing]\nkind = exp\nsigma = 1.0").replace(
        "values = 1.5 2.5", "values = 1.5 2.5 3.0\naxis2 = sigma\nvalues2 = 0.5 1.0"), "two.cfg")
    out1, out3 = tmp_path / "g1", tmp_path / "g3"
    assert main(["sweep", "--config", str(two_groups), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(two_groups), "--out", str(out3), "--threads", "3"]) == 0
    assert (out1 / "sweep.csv").read_text().count("\n") == 7
    assert (out1 / "sweep.csv").read_bytes() == (out3 / "sweep.csv").read_bytes()


def test_sweep_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # each worker is one forked child, and a sweep forks no more of them than
    # it has batches; one batch runs in the process itself
    fork, children = os.fork, []

    def recording_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    cfg = write_cfg(tmp_path, TINY_SWEEP)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a"), "--threads", "5000"]) == 0
    assert len(children) == 2  # two cells, two workers
    one_cell = write_cfg(tmp_path, TINY_SWEEP.replace("values = 1.5 2.5", "values = 2.5"), "one.cfg")
    assert main(["sweep", "--config", str(one_cell), "--out", str(tmp_path / "b"), "--threads", "8"]) == 0
    assert len(children) == 2
    assert (tmp_path / "a" / "sweep.csv").read_text().count("\n") == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped


def failing_sweep(tmp_path, monkeypatch, batch):
    """Run TINY_SWEEP at --threads 2 with ``batch`` in place of ``_sweep_batch``; return the exception raised."""
    monkeypatch.setattr(experiments, "_sweep_batch", batch)
    out = tmp_path / "sw"
    with pytest.raises(Exception) as info:
        main(["sweep", "--config", str(write_cfg(tmp_path, TINY_SWEEP)), "--out", str(out), "--threads", "2"])
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no worker outlives the sweep
    return info.value


def test_an_exception_in_a_sweep_worker_is_raised_in_the_sweep(tmp_path, monkeypatch):
    def batch(cfgs):
        if cfgs[0].p == 2.5:
            raise ArithmeticError(f"no rows for p = {cfgs[0].p}")
        return [{}] * len(cfgs)

    exc = failing_sweep(tmp_path, monkeypatch, batch)
    assert type(exc) is ArithmeticError and str(exc) == "no rows for p = 2.5"


def test_a_sweep_worker_that_dies_without_a_reply_fails_the_sweep(tmp_path, monkeypatch):
    def batch(cfgs):
        if cfgs[0].p == 2.5:
            os._exit(3)
        return [{}] * len(cfgs)

    exc = failing_sweep(tmp_path, monkeypatch, batch)
    assert type(exc) is RuntimeError and "wait status 768" in str(exc)  # exit code 3


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_sweep_cells_are_the_base_config_at_each_p(preset):
    cfg = parse_config(preset_text(preset))
    assert list(cfg.sweep.configs) == [replace(cfg, p=v, sweep=None) for v in cfg.sweep.values]


def test_sweep_axis_over_an_integer_key():
    text = preset_text("power-tail-gamma3").replace("axis = p\nvalues = 1.5 2 3", "axis = grid.N\nvalues = 749 1499")
    sweep = parse_config(text).sweep
    assert [cell.grid.N for cell in sweep.configs] == [749, 1499]
    assert all(type(cell.grid.N) is int for cell in sweep.configs)
    assert sweep.cells == [((749.0,), {"grid.N": 749.0}), ((1499.0,), {"grid.N": 1499.0})]


def test_barrier_kv_reload(tmp_path):
    from curvedheat import ExpBarrier

    cfg = write_cfg(tmp_path, HYPERBOLIC_SIM)
    out = tmp_path / "bar"
    assert main(["barrier", "--config", str(cfg), "--out", str(out)]) == 0
    (line,) = (out / "barrier.kv").read_text().splitlines()
    d = dict(token.split("=", 1) for token in line.split())
    assert d["kind"] == "exp"
    ExpBarrier(float(d["alpha"]), float(d["beta"]))  # a valid closed-form barrier
    assert float(d["lambda"]) == 1.0  # mckean policy on the unit-curvature model


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_command_runs_every_preset(tmp_path, preset):
    # exit 1 is a FAIL verdict under --strict, as flat space gives on the
    # curvature and barrier checks; 2 would be a preset its own command refuses
    for command in ("geometry", "eigen", "barrier", "simulate", "sweep"):
        assert main([command, "--preset", preset, "--out", str(tmp_path / command), "--strict"]) in (0, 1), command


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


def test_only_sweep_takes_threads(tmp_path, capsys):
    for command in ("geometry", "eigen", "barrier", "simulate"):
        with pytest.raises(SystemExit) as info:
            main([command, "--preset", "fujita-euclidean", "--out", str(tmp_path / command), "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("threads", ["0", "-5", "two"])
def test_sweep_refuses_fewer_than_one_worker(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--preset", "fujita-euclidean", "--out", str(tmp_path / "sw"), "--threads", threads])
    assert info.value.code == 2
    assert f"argument --threads: need an integer of at least 1, got '{threads}'" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


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


def test_power_forcing_past_the_float_range_gets_a_verdict(tmp_path, capsys):
    # the budget of h = (1+t)^200 at m = 1 is about 200!: no amplitude
    # limit, so the default scaled-barrier data run at an O(1) amplitude
    cfg = write_cfg(tmp_path, "[manifold]\nkind = hyperbolic\nn = 3\n\n[forcing]\nkind = power\nq = 200\n\n[grid]\nR = 10\nN = 99\n")
    out = tmp_path / "q200"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "verdict: blow-up" in capsys.readouterr().out
    summary = dict(line.split(",", 1) for line in (out / "run_summary.csv").read_text().splitlines()[1:])
    assert summary["verdict"] == "blow-up"


# bump data on nested balls of H^3 at 101 snapshots: balls that take
# their own adaptive steps fail the nesting check on interpolation error
# (2.663e-3 against tol 5e-4)
BUMP_LADDER = """\
[manifold]
kind = hyperbolic
n = 3
k = 1.0

[forcing]
kind = one

[problem]
p = 2.0

[u0]
kind = bump
amplitude = 0.5
width = 2.0

[grid]
R = 20
N = 399
R_list = 5 10 20
dr = 0.05

[controls]
t_end = 20
rel_tol = 1e-5
snapshots = 101
"""


def test_exhaustion_ladder_shares_one_step_sequence(tmp_path):
    cfg = write_cfg(tmp_path, BUMP_LADDER)
    out = tmp_path / "ladder"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    steps = [
        [line.split(",")[::2] for line in (out / f"history_R{R}.csv").read_text().splitlines()]
        for R in (5, 10, 20)
    ]
    assert steps[0][0] == ["t", "dt"] and len(steps[0]) > 2
    assert steps[0] == steps[1] == steps[2]


GEOMETRY_BASE = "[manifold]\nkind = hyperbolic\nn = 3\nk = 1.0\n\n[grid]\nR = 10\nN = 100\n\n"


def with_key(text, section, line):
    """Config ``text`` with ``line`` added to its [section]."""
    assert f"[{section}]\n" in text
    return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


class ReadRecorder:
    """Wraps a spec and records the name of every attribute read from it."""

    def __init__(self, spec):
        self.spec = spec
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.spec, name)


GAMMA3_BASE = GEOMETRY_BASE.replace("kind = hyperbolic\nn = 3\nk = 1.0", "kind = gamma\nn = 3\ngamma = 3.0\nr_max = 12")
# a config of each kind of each section whose reader runs through
KIND_CONFIGS = {
    "manifold": {
        "euclidean": "[manifold]\nkind = euclidean\nn = 3\n\n[grid]\nR = 8\nN = 100\n",
        "hyperbolic": GEOMETRY_BASE,
        "gamma": "[manifold]\nkind = gamma\nn = 3\nc0 = 1.0\ngamma = 2.0\nr_max = 8\ndr = 0.001\n\n[grid]\nR = 8\nN = 100\n",
    },
    "barrier": {
        "exp": GEOMETRY_BASE + "[barrier]\nkind = exp\nalpha = 1\nbeta = 1\n",
        "exp-linear": GEOMETRY_BASE + "[barrier]\nkind = exp-linear\nbeta_policy = lo\n",
        "exp-slow": GAMMA3_BASE + "[barrier]\nkind = exp-slow\nc_lower = 1\n\n[problem]\nlambda_policy = explicit\nlambda = 0.1\n",
        "exp-fast": GEOMETRY_BASE + "[barrier]\nkind = exp-fast\nalpha = 1\n\n[problem]\nlambda_policy = explicit\nlambda = 0.2\n",
        "power-tail": GAMMA3_BASE + "[barrier]\nkind = power-tail\nalpha = 1\nlambda_fraction = 0.5\n",
        "glued": GEOMETRY_BASE + "[barrier]\nkind = glued\nalpha = 1\nbeta = 1\nr0 = 4\nr1 = 3\nr2 = 6\n",
    },
    "u0": {
        "scaled-barrier": HYPERBOLIC_SIM,
        "bump": GEOMETRY_BASE + "[u0]\nkind = bump\nwidth = 3\n",
        "power-tail": GEOMETRY_BASE + "[u0]\nkind = power-tail\nalpha = 2\n",
        "zero": GEOMETRY_BASE + "[u0]\nkind = zero\n",
    },
}


def kind_keys(section, kind):
    needs, reads = KINDS[section][2][kind]
    return set(needs + reads)


@pytest.mark.parametrize(
    "section, kind", [(section, kind) for section, kinds in KIND_CONFIGS.items() for kind in kinds]
)
def test_kind_table_lists_the_keys_the_readers_read(tmp_path, section, kind):
    # every reader of the section, run on a spec that records its reads
    cfg = parse_config(KIND_CONFIGS[section][kind])
    spec = ReadRecorder(getattr(cfg, section))
    cfg = replace(cfg, **{section: spec})
    M = experiments.build_manifold(cfg)
    if section == "manifold":
        pinch_constant(spec)
        divergence_gamma(spec)
        experiments.run_geometry(cfg, tmp_path)
    elif section == "barrier":
        experiments.build_barrier(cfg, M)
    else:
        experiments._initial_field(cfg, M, RadialGrid(cfg.grid.R, cfg.grid.N))
    assert spec.read - {"kind"} == kind_keys(section, kind)


@pytest.mark.parametrize("policy", ["mckean", "eigen", "explicit"])
def test_kind_table_lists_the_lambda_keys_that_resolve_lambda_reads(policy):
    # every policy reads p, the reaction exponent of every run
    assert "p" in kind_keys("problem", policy)
    text = GEOMETRY_BASE + f"[problem]\nlambda_policy = {policy}\n" + ("lambda = 0.5\n" if policy == "explicit" else "")
    cfg = ReadRecorder(parse_config(text))
    experiments.resolve_lambda(cfg, experiments.build_manifold(cfg.spec))
    assert ("lambda_value" in cfg.read) == ("lambda" in kind_keys("problem", policy))


def test_kind_table_covers_every_kind_and_key():
    assert {section: set(kinds) for section, (_, _, kinds) in KINDS.items() if section not in ("forcing", "problem")} == {
        section: set(kinds) for section, kinds in KIND_CONFIGS.items()
    }
    assert set(KINDS["problem"][2]) == {"mckean", "eigen", "explicit"}
    for section, (selector, _, kinds) in KINDS.items():
        for kind in kinds:
            assert kind_keys(section, kind) <= set(KEYS[section]) - {selector}, (section, kind)
    # a forcing is built by its constructor, which takes the keys its kind needs
    constructors = {"one": Forcing.one, "power": Forcing.power_law, "exp": Forcing.exponential}
    assert set(KINDS["forcing"][2]) == set(constructors)
    for kind, build in constructors.items():
        assert set(inspect.signature(build).parameters) == kind_keys("forcing", kind)
        needs, _ = KINDS["forcing"][2][kind]
        text = GEOMETRY_BASE + f"[forcing]\nkind = {kind}\n" + "".join(f"{key} = 1\n" for key in needs)
        assert parse_config(text).forcing == build(*[1.0] * len(needs))


def test_benchmark_configs_parse():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in (0, 7):
            for text in workloads.make_inputs(workload, seed)["configs"].values():
                parse_config(text)


@pytest.mark.parametrize(
    "text, hypothesis",
    [
        (GEOMETRY_BASE + "[forcing]\nkind = exp\nsigma = 0\n", "exponential rate must be positive"),
        (GEOMETRY_BASE + "[forcing]\nkind = power\nq = -1\n", "power-law exponent must be > -1"),
        (GEOMETRY_BASE + "[controls]\nt_end = 0\n", "t_end must be positive"),
        (GEOMETRY_BASE + "[controls]\ndt_init = 1.0\ndt_max = 0.25\n", "need dt_min < dt_init <= dt_max"),
        (GEOMETRY_BASE + "[barrier]\nc_lower = steep\n", "bad value for 'c_lower'"),
        (GEOMETRY_BASE + "[barrier]\nc_lower = -1\n", "drift floor constant must be positive"),
        (
            GEOMETRY_BASE + "[forcing]\nkind = exp\nsigma = 1\n\n[sweep]\naxis = sigma\nvalues = 0 1\n",
            "[sweep] cell sigma = 0: [forcing] exponential rate must be positive",
        ),
        (
            "[manifold]\nkind = gamma\nn = 3\ngamma = 2.0\nr_max = 40\ndr = 0.1\n\n[grid]\nR = 10\nN = 100\n",
            "[manifold] dr = 0.1 too coarse for the Jacobi equation",
        ),
        (GEOMETRY_BASE.replace("k = 1.0", "k = 0"), "[manifold] curvature scale k must be positive"),
        (GEOMETRY_BASE.replace("R = 10", "R = -5"), "outer radius must be positive"),
        (GEOMETRY_BASE.replace("N = 100", "N = 0"), "interior node count must be a positive integer"),
        (GEOMETRY_BASE + "[u0]\nkind = bump\nwidth = 0\n", "bump width must be positive"),
        (
            GEOMETRY_BASE + "[problem]\nlambda_policy = explicit\nlambda = -1\n",
            "lambda must be positive",
        ),
        (GEOMETRY_BASE + "[barrier]\nkind = exp\nalpha = -1\nbeta = 1\n", "alpha and beta must be positive"),
        (GEOMETRY_BASE + "[barrier]\nkind = exp\n", "barrier kind exp needs explicit alpha, beta"),
        (GEOMETRY_BASE + "[barrier]\nkind = exp\nalpha = 1\n", "barrier kind exp needs explicit beta"),
        (
            GEOMETRY_BASE + "[barrier]\nkind = glued\nalpha = 1\nbeta = 1\nr1 = 3\n",
            "barrier kind glued needs explicit r0, r2",
        ),
        (GEOMETRY_BASE + "[barrier]\nkind = exp-fast\n", "barrier kind exp-fast needs explicit alpha"),
        (
            GEOMETRY_BASE.replace("kind = hyperbolic\nn = 3\nk = 1.0", "kind = gamma\nn = 3\ngamma = 3.0\nr_max = 12")
            + "[barrier]\nkind = power-tail\n",
            "barrier kind power-tail needs explicit alpha",
        ),
        (GEOMETRY_BASE + "[check]\nnodes = 0\n", "nodes must be >= 1"),
        (GEOMETRY_BASE + "[check]\nr_min = 0\n", "r_min and r_max must be positive"),
        (GEOMETRY_BASE + "[u0]\nkind = power-tail\nalpha = -1\n", "decay exponent must be positive"),
        (GEOMETRY_BASE + "[control]\nrel_tol = 0\n", "unknown section [control]"),
        ("[DEFAULT]\nk = 2.0\n\n" + GEOMETRY_BASE, "unknown section [DEFAULT]"),
        (GEOMETRY_BASE + "[controls]\nrel_tl = 0\n", "[controls] unknown key 'rel_tl'"),
        (GEOMETRY_BASE + "[controls]\nblowup_threshold = 1e300\n", "unknown key 'blowup_threshold'"),
        (GEOMETRY_BASE + "[u0]\nfallback = 2\n", "[u0] unknown key 'fallback'"),
        (GEOMETRY_BASE + "[controls]\nrel_tol = 5%\n", "config does not parse"),
        (GEOMETRY_BASE + "[controls]\nt_end = nan\n", "[controls] bad value for 't_end'"),
        (GEOMETRY_BASE + "[problem]\np = nan\n", "[problem] bad value for 'p'"),
        (GEOMETRY_BASE + "[controls]\nrel_tol = nan\n", "[controls] bad value for 'rel_tol'"),
        (GEOMETRY_BASE.replace("k = 1.0", "k = nan"), "[manifold] bad value for 'k'"),
        (GEOMETRY_BASE + "[problem]\np = inf\n", "[problem] bad value for 'p'"),
        (GEOMETRY_BASE + "[problem]\np = 1\n", "[problem] reaction exponent must satisfy p > 1"),
        (GEOMETRY_BASE + "[u0]\nkind = bump\namplitude = -1\n", "[u0] u0 must be nonnegative"),
        (GEOMETRY_BASE + "[u0]\nfactor = -0.25\n", "[u0] scaled-barrier factor must be positive"),
        (GEOMETRY_BASE + "[u0]\namplitude = 0\n", "[u0] scaled-barrier amplitude must be positive"),
        (
            GEOMETRY_BASE + "[sweep]\naxis = p\nvalues = 2 0.5\n",
            "[sweep] cell p = 0.5: [problem] reaction exponent must satisfy p > 1, got 0.5",
        ),
        (
            GEOMETRY_BASE + "[u0]\nkind = bump\n\n[sweep]\naxis = amplitude\nvalues = 1 -1\n",
            "[sweep] cell amplitude = -1: [u0] u0 must be nonnegative",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = p\nvalues = 2\naxis2 = amplitude\nvalues2 = 1 -0.125\n",
            "[sweep] cell p = 2, amplitude = -0.125: [u0] u0 must be nonnegative",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = amplitude\nstart = 0\nstop = 1\ncount = 3\n",
            "[sweep] cell amplitude = 0: [u0] scaled-barrier amplitude must be positive, got 0.0",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = p\nvalues = 2\naxis2 = foo\nvalues2 = 1\n",
            "[sweep] an axis is a key section.key outside [sweep] or p | sigma | amplitude, got 'foo'",
        ),
        (
            GEOMETRY_BASE.replace("N = 100", "N = 100\nR_list = 10 5\ndr = 0.1"),
            "[grid] R_list must be strictly increasing, got (10.0, 5.0)",
        ),
        (
            GEOMETRY_BASE.replace("N = 100", "N = 100\nR_list = -5 10\ndr = 0.1"),
            "[grid] R_list entries must be positive, got (-5.0, 10.0)",
        ),
        (
            GEOMETRY_BASE.replace("kind = hyperbolic\nn = 3\nk = 1.0", "kind = gamma\nn = 3\ngamma = 3.0\nr_max = 12")
            .replace("N = 100", "N = 100\nR_list = 10 20\ndr = 0.1"),
            "[grid] radius 20 exceeds the tabulated warping range r_max = 12",
        ),
        (GEOMETRY_BASE.replace("N = 100", "N = 100\ndr = 0"), "[grid] dr = 0 must be positive"),
        (GEOMETRY_BASE + "[controls]\nsnapshots = -1\n", "[controls] snapshots must be >= 2, got -1"),
        (GEOMETRY_BASE + "[controls]\nsnapshots = 0\n", "[controls] snapshots must be >= 2, got 0"),
        (GEOMETRY_BASE + "[controls]\nsnapshots = 1\n", "[controls] snapshots must be >= 2, got 1"),
        (
            GEOMETRY_BASE.replace("kind = hyperbolic\nn = 3\nk = 1.0", "kind = gamma\nn = 3\ngamma = 3.0\nr_max = 12")
            + "[barrier]\nkind = power-tail\nalpha = 1\n\n[sweep]\naxis = manifold.gamma\nvalues = 3 2\n",
            "[sweep] cell manifold.gamma = 2: power-tail barrier needs curvature divergence exponent gamma > 2",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = sigma\nvalues = 0.5 1\n",
            "[sweep] cell sigma = 0.5: [forcing] kind one does not read 'sigma'",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = sweep.count\nvalues = 1 2\n",
            "[sweep] an axis is a key section.key outside [sweep] or p | sigma | amplitude, got 'sweep.count'",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = grid.M\nvalues = 1 2\n",
            "[sweep] an axis is a key section.key outside [sweep] or p | sigma | amplitude, got 'grid.M'",
        ),
        (GEOMETRY_BASE + "[sweep]\naxis = p\nvalues =\n", "[sweep] values lists no numbers"),
        (
            GEOMETRY_BASE + "[sweep]\naxis = p\nvalues = 2\naxis2 = amplitude\nvalues2 =\n",
            "[sweep] values2 lists no numbers",
        ),
        (
            PRESETS["exp-forcing-hyperbolic"].replace(
                "axis = p\nstart = 1.1\nstop = 3.0\ncount = 20", "axis = barrier.alpha\nvalues = 1 2"
            ),
            "[sweep] cell barrier.alpha = 1: [barrier] kind exp-linear does not read 'alpha'",
        ),
        (
            PRESETS["power-tail-gamma3"].replace("axis = p\nvalues = 1.5 2 3", "axis = u0.alpha\nvalues = 1 2"),
            "[sweep] cell u0.alpha = 1: [u0] kind scaled-barrier does not read 'alpha'",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = check.nodes\nvalues = 100 200\n",
            "[sweep] axis 'check.nodes': a sweep run of this config never reads check.nodes "
            "(of [check] it reads no key)",
        ),
        (
            GEOMETRY_BASE + "[sweep]\naxis = amplitude\nvalues = 1 1\n",
            "[sweep] cell amplitude = 1 builds the same config as cell amplitude = 1",
        ),
        # keys that no command reads under the config's kinds
        (with_key(PRESETS["exp-forcing-hyperbolic"], "barrier", "alpha = 7"),
         "[barrier] kind exp-linear does not read 'alpha'"),
        (with_key(PRESETS["exp-forcing-hyperbolic"], "barrier", "r0 = 3"),
         "[barrier] kind exp-linear does not read 'r0'"),
        (with_key(PRESETS["exp-forcing-hyperbolic"], "u0", "width = 9"),
         "[u0] kind scaled-barrier does not read 'width'"),
        (with_key(PRESETS["exp-forcing-hyperbolic"], "u0", "alpha = 4"),
         "[u0] kind scaled-barrier does not read 'alpha'"),
        (with_key(PRESETS["exp-forcing-hyperbolic"], "forcing", "q = 2"), "[forcing] kind exp does not read 'q'"),
        (with_key(PRESETS["fujita-euclidean"], "manifold", "k = 1.0"), "[manifold] kind euclidean does not read 'k'"),
        (with_key(GEOMETRY_BASE, "manifold", "c0 = 1.0"), "[manifold] kind hyperbolic does not read 'c0'"),
        (with_key(PRESETS["exp-forcing-hyperbolic"], "problem", "lambda = 5"),
         "[problem] lambda_policy mckean does not read 'lambda'; it reads p"),
        (with_key(PRESETS["fujita-euclidean"], "problem", "lambda = 5"),
         "[problem] lambda_policy eigen does not read 'lambda'; it reads p"),
        (with_key(PRESETS["power-tail-gamma3"], "problem", "lambda_policy = explicit\nlambda = 3"),
         "[problem] barrier kind power-tail does not read 'lambda_policy', 'lambda': "
         "its lambda is lambda_fraction x lambda*"),
        (with_key(PRESETS["power-tail-gamma3"], "problem", "lambda_policy = mckean"),
         "[problem] barrier kind power-tail does not read 'lambda_policy': its lambda is lambda_fraction x lambda*"),
        (GEOMETRY_BASE + "[problem]\nlambda_policy = measured\n",
         "[problem] lambda_policy must be one of mckean | eigen | explicit, got 'measured'"),
        (GEOMETRY_BASE + "[problem]\nlambda_policy = explicit\n", "problem lambda_policy explicit needs explicit lambda"),
        (GEOMETRY_BASE + "[sweep]\naxis = problem.lambda\nvalues = 1 2\n",
         "[sweep] cell problem.lambda = 1: [problem] lambda_policy mckean does not read 'lambda'"),
    ],
    ids=["sigma", "q", "t_end", "dt-order", "c_lower-text", "c_lower-sign", "sweep-sigma",
         "gamma-dr", "k-zero", "grid-R", "grid-N", "u0-width", "explicit-lambda", "exp-alpha",
         "exp-no-alpha-beta", "exp-no-beta", "glued-no-radii", "exp-fast-no-alpha", "power-tail-no-alpha",
         "check-nodes", "check-r_min", "u0-power-tail-alpha", "unknown-section",
         "default-section", "unknown-key", "retired-blowup_threshold", "retired-fallback",
         "interpolation", "t_end-nan", "p-nan", "rel_tol-nan", "k-nan", "p-inf", "p-one",
         "u0-bump-amplitude", "u0-factor", "u0-scaled-amplitude", "sweep-p", "sweep-amplitude",
         "sweep-amplitude2", "sweep-scaled-amplitude", "sweep-axis2", "R_list-decreasing",
         "R_list-negative", "R_list-beyond-r_max", "grid-dr", "snapshots-negative", "snapshots-zero",
         "snapshots-one", "sweep-gamma", "sweep-duplicate-cell", "sweep-axis-in-sweep",
         "sweep-axis-unknown", "sweep-values-empty", "sweep-values2-empty", "sweep-axis-unread-by-kind",
         "sweep-axis-unread-by-data", "sweep-axis-unread-section", "sweep-repeated-value",
         "unread-barrier-alpha", "unread-barrier-r0", "unread-u0-width", "unread-u0-alpha", "unread-forcing-q",
         "unread-manifold-k", "unread-manifold-c0", "unread-lambda-mckean", "unread-lambda-eigen",
         "unread-lambda-power-tail", "unread-lambda_policy-power-tail", "lambda_policy-unknown",
         "explicit-no-lambda", "sweep-axis-unread-lambda"],
)
def test_inadmissible_config_values_are_config_errors(tmp_path, capsys, text, hypothesis):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "x"
    assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert hypothesis in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep",
    ["axis = p\nvalues = 0.5 2", "axis = p\nvalues = 2\naxis2 = foo\nvalues2 = 1", "axis = amplitude\nvalues = -1"],
    ids=["p", "axis2", "amplitude"],
)
def test_inadmissible_sweep_cells_are_refused_before_any_output(tmp_path, capsys, sweep):
    text = TINY_SWEEP.replace("axis = p\nvalues = 1.5 2.5", sweep)
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: [sweep] ")
    assert not out.exists()


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
    assert not (tmp_path / "x").exists()


def test_exhaustion_radii_off_the_spacing_are_a_config_error(tmp_path, capsys):
    # eigen takes a spacing that the radii are no multiples of, or none; nested
    # balls need one, and simulate refuses the ladder before --out exists
    for grid, hypothesis in (
        ("R_list = 5 10\ndr = 0.3", "R = 5 is not a multiple of dr = 0.3"),
        ("R_list = 5 10", "exhaustion runs need a shared grid spacing: set dr"),
    ):
        cfg = write_cfg(tmp_path, GEOMETRY_BASE.replace("N = 100", "N = 100\n" + grid))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [grid] " + hypothesis)
        assert "Traceback" not in err
        assert not (tmp_path / "sim").exists()
        assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "eigen"), "--strict"]) == 0


FRESH_IMPORT = """\
import json, math, sys
import curvedheat.cli
from curvedheat import Forcing
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
forcing = Forcing.power_law(1.5)
print(json.dumps({"loaded": loaded, "integral": float(forcing.damped_integral(0.8, 2.0)),
                  "total": float(forcing.damped_integral(0.8, math.inf)), "special": "scipy.special" in sys.modules}))
"""


def test_fresh_import_loads_no_optional_scipy_module():
    # the CLI needs numpy alone; scipy.special loads only once power
    # forcing is evaluated
    from curvedheat import Forcing

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], env=env, capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    for name in ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.integrate"):
        assert not any(m == name or m.startswith(name + ".") for m in got["loaded"]), name
    assert got["special"]
    ref = Forcing.power_law(1.5)
    assert got["integral"] == float(ref.damped_integral(0.8, 2.0))
    assert got["total"] == float(ref.damped_integral(0.8, math.inf))


FRESH_COMMANDS = """\
import json, os, sys
from curvedheat import operators
from curvedheat.cli import main

LAPACK = ("_gttrf", "_pttrf", "_stebz")

def scipy_lapack_files():
    # mapped files of scipy's own LAPACK: its wrapper module or a library
    # under scipy.libs; None where the process has no /proc/self/maps
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if len(line.split(maxsplit=5)) == 6}
    except OSError:
        return None
    return sorted(p for p in paths if "/scipy.libs/" in p or os.path.basename(p).startswith("_flapack"))

def state():
    return {"scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
            "lapack": [name for name in LAPACK if getattr(operators, name) is not None],
            "scipy_lapack": scipy_lapack_files(),
            "pool": sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))}

states = [state()]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    states.append(state())
print(json.dumps(states))
"""


def fresh_commands(tmp_path, *commands):
    """FRESH_COMMANDS' state after the import and after each command, in one fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argvs = [
        [command, *source, "--out", str(tmp_path / f"{i}-{command}")]
        for i, (command, *source) in enumerate(commands)
    ]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_COMMANDS, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    states = json.loads(proc.stdout.splitlines()[-1])
    return {key: [state[key] for state in states] for key in states[0]}


def test_lapack_and_pool_load_only_when_a_command_uses_them(tmp_path):
    # solving binds LAPACK from numpy's own OpenBLAS where numpy bundles
    # it, or else from scipy's wrapper module by file: no scipy module is
    # imported either way, and with numpy's library no file of scipy's
    # LAPACK is mapped (checked on Linux); a pooled sweep forks its
    # workers itself, so no command loads concurrent.futures or
    # multiprocessing
    gamma3 = ("--preset", "power-tail-gamma3")
    bound = ["_gttrf", "_pttrf", "_stebz"]
    checks = fresh_commands(tmp_path, ("geometry", *gamma3), ("barrier", *gamma3), ("eigen", *gamma3))
    maps = checks.pop("scipy_lapack")
    assert checks == {"scipy": [[]] * 4, "lapack": [[], [], [], bound], "pool": [[]] * 4}
    sim = ("--config", str(write_cfg(tmp_path, HYPERBOLIC_SIM, "sim.cfg")))
    sweep = ("--config", str(write_cfg(tmp_path, TINY_SWEEP, "sweep.cfg")), "--threads", "2")
    runs = fresh_commands(tmp_path, ("simulate", *sim), ("sweep", *sweep))
    maps += runs.pop("scipy_lapack")
    assert runs == {"scipy": [[]] * 3, "lapack": [[], bound, bound], "pool": [[]] * 3}
    if sys.platform.startswith("linux") and operators._numpy_openblas() is not None:
        assert maps == [[]] * 7
