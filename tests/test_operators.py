import importlib.machinery
import importlib.util
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvedheat import (
    EvolutionControls,
    Forcing,
    RadialField,
    RadialGrid,
    SmoothRadialFn,
    apply_laplacian_analytic,
    make_euclidean,
    make_gamma_model,
    make_hyperbolic,
    save_field_csv,
    solve_on_ball,
    sup_norm,
)
from curvedheat import operators
from curvedheat.operators import Band, factor_banded, laplacian_tridiag, load_lapack, solve_banded


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
    out = laplacian_tridiag(euclid3, g).mult(g.nodes**2)
    assert np.allclose(out, 6.0, atol=1e-8)


def test_laplacian_of_constant_vanishes(hyp3):
    g = RadialGrid(5.0, 100)
    out = laplacian_tridiag(hyp3, g).mult(np.full_like(g.nodes, 3.7))
    assert np.max(np.abs(out)) < 1e-10


def test_laplacian_linearity(hyp3):
    g = RadialGrid(5.0, 100)
    band = laplacian_tridiag(hyp3, g)
    u = np.exp(-(g.nodes**2))
    w = np.cos(g.nodes)
    a, b = 2.5, -1.25
    lhs = band.mult(a * u + b * w)
    rhs = a * band.mult(u) + b * band.mult(w)
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
        num = laplacian_tridiag(hyp3, g).mult(f.eval(g.nodes))[1:]
        exact = apply_laplacian_analytic(hyp3, f, g.interior)
        errs.append(np.max(np.abs(num - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_interior_maximum_principle_shadow(hyp3):
    # discrete Delta at a strict interior maximum is nonpositive
    g = RadialGrid(10.0, 200)
    u = np.exp(-((g.nodes - 4.0) ** 2))
    i = int(np.argmax(u))
    assert 0 < i < g.N + 1
    out = laplacian_tridiag(hyp3, g).mult(u)
    assert out[i] <= 0.0


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


@pytest.mark.parametrize("model", ["euclid3", "hyp3", "gamma3"])
def test_band_is_its_dense_matrix_with_a_boundary_column(request, model):
    # mult reads the boundary value through sup[N]; S Delta_h S^-1 is symmetric
    # for s = exp(log_s()); the leading block is the smaller ball's band
    M = request.getfixturevalue(model)
    g = RadialGrid(6.0, 39)
    band = laplacian_tridiag(M, g)
    dense = np.diag(band.diag) + np.diag(band.sub[1:], -1) + np.diag(band.sup[:-1], 1)
    x = np.random.default_rng(1).standard_normal(g.N + 2)
    want = dense @ x[:-1]
    want[-1] += band.sup[-1] * x[-1]
    norm = np.max(np.abs(band.sub) + np.abs(band.diag) + np.abs(band.sup))
    assert np.max(np.abs(band.mult(x) - want)) <= 8 * np.finfo(float).eps * norm * np.max(np.abs(x))
    s = np.exp(band.log_s())
    sym = s[:, None] * dense / s[None, :]
    assert s[0] == 1.0 and np.allclose(sym, sym.T, rtol=1e-12, atol=0)
    small = laplacian_tridiag(M, RadialGrid(3.0, 19))
    assert isinstance(small, Band) and all(np.array_equal(a, b) for a, b in zip(band.prefix(20), small))


def test_coarse_grid_on_divergent_model_stays_nonnegative(gamma3):
    # dr * F reaches 15 near R on this grid; the flux form needs no resolution bound
    M = make_gamma_model(3, 1.0, 2.0, 20.0, 1e-3)
    g = RadialGrid(20.0, 50)
    vals = np.exp(-g.nodes)
    vals[-1] = 0.0
    ctl = EvolutionControls(t_end=5.0, dt_init=1e-2, dt_max=1e-2, rel_tol=0.0, snapshots=51)
    out = solve_on_ball(M, 20.0, RadialField(g, vals), Forcing.one(), 2.0, ctl)
    assert min(float(snap.min()) for _, snap in out.snapshots) >= 0.0
    assert out.final.values.min() >= 0.0
    # face ratios beyond the float range leave a finite band
    sub, diag, sup = laplacian_tridiag(gamma3, RadialGrid(30.0, 1))
    assert np.all(np.isfinite(diag)) and np.all(sub[1:] >= 0.0) and np.all(sup > 0.0)


def test_grid_beyond_table_rejected():
    M = make_gamma_model(3, 1.0, 2.0, 10.0, 1e-3)
    with pytest.raises(ValueError):
        laplacian_tridiag(M, RadialGrid(12.0, 400))


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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    blocks=st.integers(1, 6),
    imex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_solve_of_stacked_blocks_equals_each_blocks_own_solve(n, blocks, imex, seed):
    # blocks of 2 unknowns are the ones scipy's ?gttrs wrapper refuses as they stand
    rng = np.random.default_rng(seed)
    if imex:
        # I - (dt/j) Delta_h on one grid, as an adaptive step stacks them
        sub, diag, sup = laplacian_tridiag(make_hyperbolic(3, 1.0), RadialGrid(4.0, n - 1))
        dts = rng.uniform(1e-4, 1.0) / np.arange(1, blocks + 1)
        bands = [(-h * sub, 1.0 - h * diag, -h * sup) for h in dts]
    else:
        # no diagonal dominance, so the elimination pivots
        bands = [tuple(rng.standard_normal(n) for _ in range(3)) for _ in range(blocks)]
    stacked = [np.concatenate(parts) for parts in zip(*bands)]
    stacked[0][::n] = 0.0  # no coupling between blocks
    stacked[2][n - 1 :: n] = 0.0
    lu = factor_banded(*stacked)
    b = rng.standard_normal(blocks * n)
    for m in range(1, blocks + 1):
        x = solve_banded(lu, b[: m * n])
        own = [solve_banded(factor_banded(*band), b[k * n : (k + 1) * n]) for k, band in enumerate(bands[:m])]
        assert np.array_equal(x, np.concatenate(own))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5)),
        st.tuples(st.sampled_from(["gamma2", "gamma3"]), st.just(3)),
    ),
    R=st.floats(0.1, 15.0),
    N=st.integers(1, 400),
    dt=st.floats(1e-6, 1.0),
    blocks=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_ldlt_branch_matches_scipy_to_rounding(gamma2, gamma3, monkeypatch, model, R, N, dt, blocks, seed):
    # the IMEX band of an adaptive step: I - (dt/j) Delta_h for j = blocks, ..., 1,
    # stacked, symmetrized by s with s = 1 at the pole of each block; the LU
    # solve agrees to rounding too, so the LU branch must not be taken
    load_lapack()
    monkeypatch.setattr(operators, "_gttrf", lambda *band: pytest.fail("a symmetrized band took the LU branch"))
    kind, n = model
    M = {
        "euclidean": lambda: make_euclidean(n),
        "hyperbolic": lambda: make_hyperbolic(n, 1.0),
        "gamma2": lambda: gamma2,
        "gamma3": lambda: gamma3,
    }[kind]()
    sub, diag, sup = band = laplacian_tridiag(M, RadialGrid(R, N))
    s = np.exp(band.log_s())
    assert np.all(np.isfinite(s))  # R <= 15 keeps the gamma = 3 span below 360 nats
    bands = [(-h * sub, 1.0 - h * diag, -h * sup) for h in dt / np.arange(blocks, 0, -1)]
    stacked = [np.concatenate(parts) for parts in zip(*bands)]
    stacked[0][:: N + 1] = 0.0
    stacked[2][N :: N + 1] = 0.0
    kept = [a.copy() for a in stacked]
    factors = factor_banded(*stacked, np.tile(s, blocks))
    assert all(np.array_equal(a, k) for a, k in zip(stacked, kept))
    b = np.random.default_rng(seed).standard_normal(blocks * (N + 1))
    for m in range(1, blocks + 1):
        k = m * (N + 1)
        x = solve_banded(factors, b[:k])
        want = scipy_solve(*(a[:k] for a in stacked), b[:k])
        # both solves are backward stable componentwise, and A^-1 >= 0 has
        # ||A^-1||_inf <= 1, so each is within a few ulps of ||A||_inf ||x||_inf
        norm = np.max(np.abs(stacked[0][:k]) + np.abs(stacked[1][:k]) + np.abs(stacked[2][:k]))
        assert np.max(np.abs(x - want)) <= 32 * np.finfo(float).eps * norm * np.max(np.abs(want))


def test_ldlt_of_an_indefinite_band_raises():
    ones = np.ones(4)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        factor_banded(ones, np.array([1.0, -1.0, 2.0, 2.0]), ones, ones)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        factor_banded(2.0 * ones, ones, 2.0 * ones, ones)  # [[1, 2], [2, 1]] leads


def test_solve_banded_singular_raises():
    ones = np.ones(2)
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded(factor_banded(ones, ones, ones), np.array([1.0, 2.0]))  # [[1, 1], [1, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded(factor_banded(np.ones(5), np.zeros(5), np.zeros(5)), np.ones(5))  # zero first row


@pytest.fixture(params=["openblas", "flapack"])
def binding(request, monkeypatch):
    """LAPACK bound afresh from numpy's OpenBLAS, or from scipy's wrapper module with numpy's library hidden."""
    if request.param == "flapack":
        monkeypatch.setattr(operators, "_numpy_openblas", lambda: None)
    elif operators._numpy_openblas() is None:
        pytest.skip("numpy bundles no ILP64 OpenBLAS with these LAPACK routines")
    for name in ("_pttrf", "_gttrf", "_stebz"):
        monkeypatch.setattr(operators, name, None)
    load_lapack()
    return request.param


def test_solve_banded_refuses_a_longer_rhs(binding):
    ones = np.ones(4)
    for s in (None, ones):
        with pytest.raises(ValueError, match="5 right-hand side rows for 4 unknowns"):
            solve_banded(factor_banded(-ones, 4.0 * ones, -ones, s), np.ones(5))


def test_solve_banded_nonfinite_rhs_gives_nonfinite_x(hyp3):
    sub, diag, sup = laplacian_tridiag(hyp3, RadialGrid(10.0, 100))
    b = np.ones(101)
    b[50] = np.inf
    x = solve_banded(factor_banded(-0.1 * sub, 1.0 - 0.1 * diag, -0.1 * sup), b)
    assert not np.all(np.isfinite(x))


def scipy_gttrs(factors, b):
    """scipy's ?gttrs on the leading b.size rows of scipy's ?gttrf factors, bordered where its wrapper refuses 2 rows."""
    k = b.size
    if k == 2:
        return scipy_gttrs(factors, np.append(b, 0.0))[:2]
    dl, d, du, du2, ipiv = factors
    return scipy.linalg.lapack.dgttrs(dl[: k - 1], d[:k], du[: k - 1], du2[: k - 2], ipiv[:k], b)[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.integers(2, 9), min_size=1, max_size=5),
    eigen=st.tuples(st.sampled_from([0, 1, 2]), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from("EB")),
    seed=st.integers(0, 2**32 - 1),
)
def test_bound_routines_equal_scipys_lapack(binding, sizes, eigen, seed):
    # a stack of decoupled M-matrix blocks A, 2 unknowns the smallest, and
    # the SPD blocks T = S A S^-1 of their symmetrizer; every prefix that
    # ends at a block boundary is a system of its own
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    ends = np.cumsum(sizes)
    sub, sup = -rng.uniform(0.1, 2.0, n), -rng.uniform(0.1, 2.0, n)
    sub[ends - sizes] = 0.0
    sup[ends - 1] = 0.0
    diag = rng.uniform(0.01, 1.0, n) - sub - sup
    e = -np.sqrt(sub[1:] * sup[:-1])
    ratio = np.ones(n - 1)  # s_{i+1}/s_i, free across a block boundary
    inside = sup[:-1] < 0.0
    ratio[inside] = np.sqrt(sup[:-1][inside] / sub[1:][inside])
    s = np.concatenate(([1.0], np.cumprod(ratio)))
    b = rng.standard_normal(n)

    ldlt, info = operators._pttrf(diag.copy(), e.copy(), s)
    d_ref, e_ref, info_ref = scipy.linalg.lapack.dpttrf(diag, e)
    assert info == info_ref == 0
    if n == 2:  # scipy's ?gttrf wrapper refuses 2 rows: border them with a decoupled identity row
        lu_ref = scipy.linalg.lapack.dgttrf(np.append(sub[1:], 0.0), np.append(diag, 1.0), np.append(sup[:-1], 0.0))
    else:
        lu_ref = scipy.linalg.lapack.dgttrf(sub[1:], diag, sup[:-1])
    lu, info = operators._gttrf(sub[1:].copy(), diag.copy(), sup[:-1].copy())
    assert info == lu_ref[-1] == 0

    kind, low, high, order = eigen
    for k, blocks in zip(ends, range(1, len(sizes) + 1)):
        kept = b.copy()
        x = ldlt(b[:k])
        x_ref = scipy.linalg.lapack.dpttrs(d_ref[:k], e_ref[: k - 1], s[:k] * b[:k])[0] / s[:k]
        assert np.array_equal(x, x_ref)
        assert np.array_equal(lu(b[:k]), scipy_gttrs(lu_ref[:-1], b[:k]))
        assert np.array_equal(b, kept)

        il = 1 + int(low * (k - 1))
        iu = il + int(high * (k - il))
        args = (diag[:k], e[: k - 1], kind, 0.5 * low * diag.max(), high * diag.max(), il, iu, 0.0, order)
        m, w, iblock, isplit, info = operators._stebz(*args)
        m_ref, w_ref, iblock_ref, isplit_ref, info_ref = scipy.linalg.lapack.dstebz(*args)
        assert (m, info) == (m_ref, info_ref)
        assert np.array_equal(w[:m], w_ref[:m]) and np.array_equal(iblock[:m], iblock_ref[:m])
        assert np.array_equal(isplit[:blocks], isplit_ref[:blocks])


def test_missing_wrapper_module_is_an_import_error(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
    monkeypatch.setattr(operators, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(operators, "_gttrf", None)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        load_lapack()
