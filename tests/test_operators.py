import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvedheat import (
    EvolutionControls,
    Forcing,
    RadialField,
    RadialGrid,
    SmoothRadialFn,
    apply_laplacian,
    apply_laplacian_analytic,
    make_euclidean,
    make_gamma_model,
    make_hyperbolic,
    save_field_csv,
    solve_on_ball,
    sup_norm,
)
from curvedheat.operators import factor_banded, laplacian_tridiag, solve_banded


def field_from(grid, fn):
    return RadialField(grid, fn(grid.nodes))


def test_grid_layout():
    g = RadialGrid(10.0, 99)
    assert g.dr == pytest.approx(0.1)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(10.0)
    assert len(g.nodes) == 101
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 10)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 0)


def test_laplacian_of_r_squared_is_2n(euclid3):
    g = RadialGrid(2.0, 200)
    out = apply_laplacian(euclid3, field_from(g, lambda r: r**2))
    assert np.allclose(out.values[:-1], 6.0, atol=1e-8)


def test_laplacian_of_constant_vanishes(hyp3):
    g = RadialGrid(5.0, 100)
    out = apply_laplacian(hyp3, field_from(g, lambda r: np.full_like(r, 3.7)))
    assert np.max(np.abs(out.values)) < 1e-10


def test_laplacian_linearity(hyp3):
    g = RadialGrid(5.0, 100)
    u = field_from(g, lambda r: np.exp(-(r**2)))
    w = field_from(g, lambda r: np.cos(r))
    a, b = 2.5, -1.25
    comb = RadialField(g, a * u.values + b * w.values)
    lhs = apply_laplacian(hyp3, comb).values
    rhs = a * apply_laplacian(hyp3, u).values + b * apply_laplacian(hyp3, w).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_richardson_ratio_on_hyperbolic(hyp3):
    # halving dr divides the consistency error by ~4
    f = SmoothRadialFn(
        eval=lambda r: np.exp(-(r**2)),
        deriv1=lambda r: -2 * r * np.exp(-(r**2)),
        deriv2=lambda r: (4 * r**2 - 2) * np.exp(-(r**2)),
    )
    errs = []
    for N in (200, 401):
        g = RadialGrid(5.0, N)
        num = apply_laplacian(hyp3, field_from(g, f.eval)).values[1:-1]
        exact = apply_laplacian_analytic(hyp3, f, g.interior)
        errs.append(np.max(np.abs(num - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_interior_maximum_principle_shadow(hyp3):
    # discrete Delta at a strict interior maximum is nonpositive
    g = RadialGrid(10.0, 200)
    u = field_from(g, lambda r: np.exp(-((r - 4.0) ** 2)))
    i = int(np.argmax(u.values))
    assert 0 < i < g.N + 1
    out = apply_laplacian(hyp3, u)
    assert out.values[i] <= 0.0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7), st.just(1.0)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5), st.sampled_from([0.5, 1.0, 2.0])),
        st.tuples(st.sampled_from(["gamma2", "gamma3"]), st.just(3), st.just(1.0)),
    ),
    R=st.floats(0.1, 20.0),
    N=st.integers(1, 2000),
)
def test_operator_rows_are_m_matrix_rows(gamma2, gamma3, model, R, N):
    # R <= 20 keeps every entry of the gamma = 3 fixture above the float
    # range's floor even at N = 1 (its face ratios reach e^{+-650} there)
    kind, n, k = model
    M = {
        "euclidean": lambda: make_euclidean(n),
        "hyperbolic": lambda: make_hyperbolic(n, k),
        "gamma2": lambda: gamma2,
        "gamma3": lambda: gamma3,
    }[kind]()
    sub, diag, sup = laplacian_tridiag(M, RadialGrid(R, N))
    norm = np.max(np.abs(sub) + np.abs(diag) + np.abs(sup))
    assert np.isfinite(norm)
    assert sub[0] == 0.0
    assert np.all(sub[1:] > 0.0)
    assert np.all(sup > 0.0)
    assert np.max(np.abs(sub + diag + sup)) <= 1e-12 * norm


def test_coarse_grid_on_divergent_model_stays_nonnegative(gamma3):
    # dr * F reaches 15 near R on this grid; the flux form needs no resolution bound
    M = make_gamma_model(3, 1.0, 2.0, 20.0, 1e-3)
    g = RadialGrid(20.0, 50)
    vals = np.exp(-g.nodes)
    vals[-1] = 0.0
    ctl = EvolutionControls(t_end=5.0, dt_init=1e-2, dt_max=1e-2, rel_tol=0.0)
    out = solve_on_ball(M, 20.0, RadialField(g, vals), Forcing.one(), 2.0, ctl, n_snapshots=51)
    assert min(float(snap.min()) for _, snap in out.snapshots) >= 0.0
    assert out.final.values.min() >= 0.0
    # face ratios beyond the float range leave a finite band
    sub, diag, sup = laplacian_tridiag(gamma3, RadialGrid(30.0, 1))
    assert np.all(np.isfinite(diag)) and np.all(sub[1:] >= 0.0) and np.all(sup > 0.0)


def test_grid_beyond_table_rejected():
    M = make_gamma_model(3, 1.0, 2.0, 10.0, 1e-3)
    with pytest.raises(ValueError):
        apply_laplacian(M, field_from(RadialGrid(12.0, 400), lambda r: np.exp(-r)))


def test_sup_norm():
    g = RadialGrid(3.0, 2)
    assert sup_norm(RadialField(g, np.array([0.0, 1.0, -3.0, 2.0]))) == 3.0


def test_analytic_laplacian_values(euclid3, hyp3):
    f = SmoothRadialFn(lambda r: r**2, lambda r: 2 * r, lambda r: np.full_like(r, 2.0))
    assert apply_laplacian_analytic(euclid3, f, 1.0) == pytest.approx(6.0)
    g = SmoothRadialFn(
        lambda r: np.exp(-r), lambda r: -np.exp(-r), lambda r: np.exp(-r)
    )
    expect = np.exp(-2.0) * (1.0 - 2.0 / np.tanh(2.0))
    assert apply_laplacian_analytic(hyp3, g, 2.0) == pytest.approx(expect, rel=1e-12)
    const = SmoothRadialFn(
        lambda r: np.ones_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )
    assert apply_laplacian_analytic(hyp3, const, 3.0) == 0.0
    with pytest.raises(ValueError):
        apply_laplacian_analytic(hyp3, f, 0.0)


def test_field_csv_roundtrip(tmp_path):
    g = RadialGrid(2.0, 19)
    u = field_from(g, lambda r: np.sin(r))
    path = tmp_path / "field.csv"
    save_field_csv(u, path)
    assert path.read_text().splitlines()[0] == "r,u"
    r, vals = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(r, g.nodes)
    assert np.array_equal(vals, u.values)


# --- tridiagonal solve ------------------------------------------------------


def scipy_solve(sub, diag, sup, b):
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[2, :-1] = sub[1:]
    return scipy.linalg.solve_banded((1, 1), ab, b)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["euclidean", "hyperbolic", "gamma"]),
    n=st.integers(2, 7),
    N=st.integers(40, 400),
    dt=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_banded_equals_scipy(gamma3, kind, n, N, dt, seed):
    M = {"euclidean": make_euclidean(n), "hyperbolic": make_hyperbolic(n, 1.0), "gamma": gamma3}[kind]
    grid = RadialGrid(4.0, N)
    sub, diag, sup = laplacian_tridiag(M, grid)
    b = np.random.default_rng(seed).standard_normal(N + 1)
    for band in ((-dt * sub, 1.0 - dt * diag, -dt * sup), (-sub, -diag, -sup)):
        kept = [a.copy() for a in band + (b,)]
        x = solve_banded(factor_banded(*band), b)
        assert np.array_equal(x, scipy_solve(*band, b))
        assert all(np.array_equal(a, k) for a, k in zip(band + (b,), kept))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
def test_solve_banded_two_and_three_unknowns(kind, N):
    # N = 1 is the smallest grid: two unknowns, which scipy's ?gttrf wrapper refuses as they stand
    M = {"euclidean": make_euclidean(3), "hyperbolic": make_hyperbolic(3, 1.0)}[kind]
    sub, diag, sup = laplacian_tridiag(M, RadialGrid(1.5, N))
    b = np.random.default_rng(N).standard_normal(N + 1)
    for band in ((-0.3 * sub, 1.0 - 0.3 * diag, -0.3 * sup), (-sub, -diag, -sup)):
        kept = [a.copy() for a in band + (b,)]
        lu = factor_banded(*band)
        x = solve_banded(lu, b)
        assert x.shape == b.shape
        assert np.array_equal(x, scipy_solve(*band, b))
        assert np.array_equal(solve_banded(lu, b), x)
        assert all(np.array_equal(a, k) for a, k in zip(band + (b,), kept))


def test_solve_banded_singular_raises():
    ones = np.ones(2)
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded(factor_banded(ones, ones, ones), np.array([1.0, 2.0]))  # [[1, 1], [1, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded(factor_banded(np.ones(5), np.zeros(5), np.zeros(5)), np.ones(5))  # zero first row


def test_solve_banded_nonfinite_rhs_gives_nonfinite_x(hyp3):
    sub, diag, sup = laplacian_tridiag(hyp3, RadialGrid(10.0, 100))
    b = np.ones(101)
    b[50] = np.inf
    x = solve_banded(factor_banded(-0.1 * sub, 1.0 - 0.1 * diag, -0.1 * sup), b)
    assert not np.all(np.isfinite(x))
