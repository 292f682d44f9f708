import math

import numpy as np
import pytest

from curvedheat import (
    check_curvature_bounds,
    drift,
    drift_lower_constant,
    make_euclidean,
    make_gamma_model,
    make_hyperbolic,
    radial_curvature,
    save_warping_csv,
    sphere_curvature,
)
from curvedheat.geometry import gamma_table_nodes


def test_euclidean_definitions(euclid3):
    # psi = r, psi' = 1, psi'' = 0
    assert euclid3.psi.log_eval(2.0) == math.log(2.0)
    assert euclid3.psi.ratio1(2.0) == 0.5
    assert euclid3.psi.ratio2(2.0) == 0.0
    r = np.linspace(0.1, 10, 50)
    assert np.all(sphere_curvature(euclid3, r) == 0.0)
    assert np.all(radial_curvature(euclid3, r) == 0.0)
    assert drift(euclid3, 0.5) == pytest.approx(4.0)


def test_dimension_and_scale_validation():
    with pytest.raises(ValueError):
        make_euclidean(1)
    with pytest.raises(ValueError):
        make_hyperbolic(3, 0.0)
    with pytest.raises(ValueError):
        make_hyperbolic(3, -1.0)
    with pytest.raises(ValueError):
        make_hyperbolic(3, math.nan)
    with pytest.raises(ValueError):
        make_gamma_model(3, -1.0, 2.0, 10.0, 1e-3)


def test_hyperbolic_curvatures(hyp3):
    r = np.linspace(0.2, 30, 77)
    assert np.allclose(radial_curvature(hyp3, r), -1.0)
    assert np.allclose(sphere_curvature(hyp3, r), -1.0)


def test_hyperbolic_drift_infimum(hyp3):
    # coth decreases to 1, so the drift decreases to (n-1)k = 2
    r = np.linspace(10, 50, 200)
    f = drift(hyp3, r)
    assert np.all(np.diff(f) <= 0)
    assert f.min() >= 2.0
    assert drift(hyp3, 20.0) == pytest.approx(2.0, abs=1e-8)
    assert drift(hyp3, 50.0) == pytest.approx(2.0, abs=1e-12)


def test_hyperbolic_drift_floor_everywhere(hyp3):
    r = np.geomspace(1e-3, 40, 300)
    assert np.all(drift(hyp3, r) >= 2.0)


def test_class_a_normalization():
    M = make_hyperbolic(2, 2.0)
    r = np.array([1e-6, 1e-5, 1e-4])
    assert np.allclose(np.exp(M.psi.log_eval(r)) / r, 1.0, atol=1e-8)


def test_drift_rejects_nonpositive_radius(hyp3):
    with pytest.raises(ValueError):
        drift(hyp3, 0.0)
    with pytest.raises(ValueError):
        drift(hyp3, np.array([1.0, -2.0]))


def test_gamma_model_matches_hyperbolic_at_gamma_zero():
    # constant-curvature limit: c0 = k^2 must reproduce sinh(kr)/k
    M = make_gamma_model(3, 1.0, 0.0, 10.0, 1e-3)
    r = M.psi.r
    assert np.max(np.abs(np.exp(M.psi.log_eval(r)) / np.sinh(r) - 1.0)) < 1e-8
    assert np.max(np.abs(M.psi.ratio1(r) - 1.0 / np.tanh(r))) < 1e-8
    k = 1.7
    M2 = make_gamma_model(4, k**2, 0.0, 8.0, 1e-3)
    r = M2.psi.r
    assert np.max(np.abs(np.exp(M2.psi.log_eval(r)) / (np.sinh(k * r) / k) - 1.0)) < 1e-8


def test_gamma_model_curvature_is_exact(gamma2):
    assert radial_curvature(gamma2, 5.0) == pytest.approx(-26.0, rel=1e-14)
    r = np.linspace(0.3, 25, 113)
    assert np.allclose(radial_curvature(gamma2, r), -(1.0 + r**2), rtol=1e-14)


def test_gamma_model_log_growth_rate(gamma3=None):
    # log psi ~ C r^{1+gamma/2} with C = sqrt(c0)/(1+gamma/2); for
    # gamma = 2 that is r^2/2, so log(psi)/r^2 -> 0.5 from below
    M = make_gamma_model(3, 1.0, 2.0, 40.0, 1e-3)
    r = np.linspace(20, 40, 21)
    ratio = M.psi.log_eval(r) / r**2
    assert np.all(np.diff(ratio) > 0)
    assert 0.4 < ratio[0] < 0.5
    assert ratio[-1] == pytest.approx(0.5, abs=0.02)


def test_gamma_model_asymptotic_drift_constant(gamma2):
    # exact-model oracle: psi'/psi -> sqrt(c0) r^{gamma/2} from above
    f = drift(gamma2, 10.0)
    assert f >= 2.0 * np.sqrt(1.0) * 10.0  # (n-1) sqrt(c0) r^{gamma/2}
    assert f == pytest.approx(20.0, rel=0.01)


def test_gamma_model_sphere_curvature_bound(gamma2):
    r = np.linspace(0.1, 20, 400)
    assert np.all(sphere_curvature(gamma2, r) <= -1.0)


def test_gamma_model_coarse_step_rejected():
    with pytest.raises(ValueError):
        make_gamma_model(3, 1.0, 2.0, 40.0, 0.1)


def test_tabulated_finite_difference_consistency(gamma2):
    # centered differences of psi = exp(log_eval) must reproduce
    # psi' = ratio1 psi and psi'' = ratio2 psi to O(h^2)
    psi = gamma2.psi
    r = np.linspace(0.5, 8.0, 40)
    h = 1e-4

    def val(x):
        return np.exp(psi.log_eval(x))

    d1 = (val(r + h) - val(r - h)) / (2 * h)
    d2 = (val(r + h) - 2 * val(r) + val(r - h)) / h**2
    assert np.max(np.abs(d1 / (psi.ratio1(r) * val(r)) - 1.0)) < 1e-6
    assert np.max(np.abs(d2 / (psi.ratio2(r) * val(r)) - 1.0)) < 1e-5


def test_drift_is_log_derivative_of_area_factor(hyp3, gamma2):
    h = 1e-5
    for M in (hyp3, gamma2):
        r = np.linspace(0.5, 15, 30)
        num = (M.n - 1) * (M.psi.log_eval(r + h) - M.psi.log_eval(r - h)) / (2 * h)
        assert np.max(np.abs(num - drift(M, r))) < 1e-6


def test_jacobi_residual_from_table(gamma2):
    # psi''/psi is stored as the Jacobi coefficient, so the residual of
    # psi'' = c0 (1 + r^gamma) psi vanishes identically on the table
    psi = gamma2.psi
    resid = np.abs(psi.ratio2(psi.r) - (1.0 + psi.r**2))
    assert np.max(resid) < 1e-8


def test_check_curvature_bounds(euclid3, hyp3, gamma2):
    r = np.linspace(0.1, 10, 200)
    rep = check_curvature_bounds(hyp3, 1.0, 1.0, 0.0, r)
    assert rep.pinch_holds and rep.divergence_holds
    rep = check_curvature_bounds(euclid3, 0.1, 1.0, 0.0, r)
    assert not rep.pinch_holds
    rep = check_curvature_bounds(gamma2, 1.0, 1.0, 2.0, r)
    assert rep.pinch_holds and rep.divergence_holds
    # too-strong candidate fails
    rep = check_curvature_bounds(hyp3, 2.0, 1.0, 0.0, r)
    assert not rep.pinch_holds


def test_drift_lower_constant_positive(gamma2, hyp3):
    r = np.linspace(0.05, 25, 500)
    c = drift_lower_constant(gamma2, r, 2.0)
    assert 0.2 < c < 1.0
    # the bound it certifies actually holds
    f = drift(gamma2, r)
    assert np.all(r * f >= c * 2.0 * (1.0 + r) ** 2 * (1.0 - 1e-12))


def test_warping_csv_roundtrip(tmp_path, gamma2):
    path = tmp_path / "warp.csv"
    save_warping_csv(gamma2.psi, path)
    header = path.read_text().splitlines()[0]
    assert header == "r,log_psi,psi1_over_psi,psi2_over_psi"
    # %.17g round-trips every double, so the columns are the table itself
    r, log_psi, ratio1, ratio2 = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    psi = gamma2.psi
    assert np.array_equal(r, psi.r)
    assert np.array_equal(log_psi, psi.log_psi)
    assert np.array_equal(ratio1, psi._ratio1)
    assert np.array_equal(ratio2, psi.ratio2(psi.r))


def test_tabulated_range_is_enforced(gamma2):
    with pytest.raises(ValueError):
        gamma2.psi.ratio1(31.0)


@pytest.mark.parametrize("method", ["log_eval", "ratio1", "ratio2", "sphere_ratio"])
def test_tabulated_rejects_negative_radius(gamma2, method):
    with pytest.raises(ValueError):
        getattr(gamma2.psi, method)(-0.5)
    with pytest.raises(ValueError):
        getattr(gamma2.psi, method)(np.array([1.0, -1e-9]))


def test_interpolant_reproduces_table_nodes(gamma2, gamma3):
    for M in (gamma2, gamma3):
        psi = M.psi
        r = psi.r
        # log_eval = log r + (log psi - log r): one rounding of each term
        bound = np.spacing(np.abs(np.log(r))) + np.spacing(np.abs(psi.log_psi))
        assert np.all(np.abs(psi.log_eval(r) - psi.log_psi) <= bound)
        assert np.max(np.abs(psi.ratio1(r) / psi._ratio1 - 1.0)) <= 2.3e-16


@pytest.fixture(scope="module")
def gamma0_k17():
    # gamma = 0 with c0 = k^2 is the constant-curvature model sinh(kr)/k
    return 1.7, make_gamma_model(3, 1.7**2, 0.0, 8.0, 1e-3).psi


def test_interpolant_midpoints_match_closed_form(gamma0_k17):
    # measured: log_eval 1.3e-12 absolute, ratio1 1.6e-13 and
    # sphere_ratio 4.4e-7 relative (worst at the first cell, where
    # e^{-2h} - g^2 cancels to O(r^2)); the table nodes alone read
    # 1.3e-12, 2.8e-13 and 2.4e-7, so the RK4 table, not the
    # interpolant, sets these
    k, psi = gamma0_k17
    r = np.concatenate(([0.0], psi.r))
    mid = 0.5 * (r[:-1] + r[1:])
    assert np.max(np.abs(psi.log_eval(mid) - np.log(np.sinh(k * mid) / k))) < 5e-12
    assert np.max(np.abs(psi.ratio1(mid) * np.tanh(k * mid) / k - 1.0)) < 1e-12
    assert np.max(np.abs(psi.sphere_ratio(mid) / -(k**2) - 1.0)) < 1e-6


def test_interpolant_is_regular_at_the_pole(gamma0_k17):
    # on (0, dr), before the first node: g = r psi'/psi -> 1, h = log(psi/r) -> 0;
    # measured against kr coth(kr) and log(sinh(kr)/(kr)): 2.9e-13 and 7.0e-14
    k, psi = gamma0_k17
    x = np.linspace(0.0, psi.r[0], 11)[1:]
    g = x * psi.ratio1(x)
    h = psi.log_eval(x) - np.log(x)
    assert np.max(np.abs(g - k * x / np.tanh(k * x))) < 1e-12
    assert np.max(np.abs(h - np.log(np.sinh(k * x) / (k * x)))) < 1e-12
    tiny = np.array([1e-12, 1e-9])
    assert np.allclose(tiny * psi.ratio1(tiny), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(psi.log_eval(tiny) - np.log(tiny), 0.0, rtol=0, atol=1e-15)
    with np.errstate(divide="ignore"):
        assert psi.log_eval(0.0) == -np.inf  # psi(0) = 0


def _reference_table(c0, gamma, r_max, dr):
    """The table as a scalar RK4 loop: radii, log psi and psi'/psi at r = dr, 2 dr, ...

    One step at a time on (psi, psi') with q at r, r + dr/2 and r + dr,
    renormalized once psi passes 1e150.
    """
    n_nodes = gamma_table_nodes(c0, gamma, r_max, dr)

    def q_at(r):
        return c0 * (1.0 + r**gamma) if gamma > 0 else c0

    r = dr
    p = r + c0 * r**3 / 6.0
    v = 1.0 + c0 * r**2 / 2.0
    if gamma > 0:
        p += c0 * r ** (gamma + 3.0) / ((gamma + 2.0) * (gamma + 3.0))
        v += c0 * r ** (gamma + 2.0) / (gamma + 2.0)
    radii, log_psi, ratio1 = np.empty((3, n_nodes))
    scale = 0.0
    radii[0], log_psi[0], ratio1[0] = r, math.log(p), v / p
    for i in range(1, n_nodes):
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
        radii[i], log_psi[i], ratio1[i] = r, math.log(p) + scale, v / p
    return radii, log_psi, ratio1


@pytest.mark.parametrize(
    "c0, gamma, r_max, dr",
    [
        (1.0, 3.0, 18.0, 1e-3),  # the power-tail-gamma3 preset's table
        (1.0, 3.0, 25.0, 1e-3),  # log psi reaches 1,248: the loop renormalizes 3 times
        (1.0, 0.0, 10.0, 1e-3),
        (0.5, 2.0, 25.0, 2e-3),
        (1.0, 3.0, 0.004, 1e-3),  # 4 nodes
        (1.0, 2.0, 8.23, 1e-3),  # 8,229 steps: two full blocks and a part chunk
    ],
)
def test_gamma_table_matches_the_scalar_rk4_loop(c0, gamma, r_max, dr):
    # measured: |d log psi| <= 4.5e-13 and |d(psi'/psi)| / (psi'/psi) <= 3.1e-15
    radii, log_psi, ratio1 = _reference_table(c0, gamma, r_max, dr)
    psi = make_gamma_model(3, c0, gamma, r_max, dr).psi
    assert np.array_equal(psi.r, radii)
    assert psi.r_max == radii[-1]
    assert np.max(np.abs(psi.log_psi - log_psi)) <= 1e-12
    assert np.max(np.abs(psi._ratio1 / ratio1 - 1.0)) <= 1e-14


def _array_bytes(obj, seen):
    """Bytes of the distinct array buffers that obj holds, itself or through the objects it keeps."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if isinstance(obj.base, np.ndarray):
            return _array_bytes(obj.base, seen)
        return obj.nbytes
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple, set)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_array_bytes(item, seen) for item in items)


def test_gamma_table_holds_two_node_arrays():
    psi = make_gamma_model(3, 1.0, 3.0, 18.0, 1e-3).psi
    n = psi.log_psi.size
    assert n == 18_000
    assert _array_bytes(psi, set()) == 2 * 8 * n


def test_gamma_table_piece_is_the_one_searchsorted_picks(gamma3):
    # r/dr rounds below the node index at 173 of this table's 30,000 nodes
    psi = gamma3.psi
    x = np.concatenate(([0.0], psi.r))
    r = np.concatenate((x, np.nextafter(x[1:], 0.0), np.nextafter(x, np.inf), 0.5 * (x[:-1] + x[1:])))
    r = r[r <= psi.r_max]
    expected = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
    assert np.array_equal(psi._left_node(r), expected)
    assert psi._left_node(psi.r_max) == x.size - 2
    assert psi._left_node(0.0) == 0
