import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvedheat import (
    RadialGrid,
    dirichlet_lambda1,
    lambda1_estimate,
    make_euclidean,
    make_hyperbolic,
    mckean_bound,
    positive_radial_solution,
    save_eigen_csv,
)
from curvedheat.operators import laplacian_tridiag


def test_mckean_values():
    assert mckean_bound(3, 1.0) == 1.0
    assert mckean_bound(2, 1.0) == 0.25
    assert mckean_bound(3, 2.0) == 4.0
    with pytest.raises(ValueError):
        mckean_bound(1, 1.0)
    with pytest.raises(ValueError):
        mckean_bound(3, 0.0)


def test_euclidean_ball_eigenvalue(euclid3):
    est = dirichlet_lambda1(euclid3, 1.0, 500)
    assert est.lambda1_ball == pytest.approx(np.pi**2, rel=5e-6)
    phi = est.eigenfunction.values
    assert np.all(phi[:-1] > 0)
    assert phi[-1] == 0.0
    # analytic radial eigenfunction is sin(pi r)/(pi r), sup-normalized
    r = est.eigenfunction.grid.nodes[1:-1]
    exact = np.sin(np.pi * r) / (np.pi * r)
    assert np.max(np.abs(phi[1:-1] - exact)) < 1e-4


def test_flat_disk_eigenvalue_on_fine_grid():
    # j_{0,1}^2 on a grid where rounding alone puts a residual near
    # eps * 4n/dr^2 = 1.1e-7
    est = dirichlet_lambda1(make_euclidean(2), 1.0, 8000)
    assert est.lambda1_ball == pytest.approx(5.783185962946784, rel=1e-7)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=st.one_of(
        st.tuples(st.just("euclidean"), st.integers(2, 7), st.just(1.0)),
        st.tuples(st.just("hyperbolic"), st.integers(2, 5), st.sampled_from([0.5, 1.0, 2.0])),
        st.tuples(st.sampled_from(["gamma2", "gamma3"]), st.just(3), st.just(1.0)),
    ),
    R=st.floats(0.5, 16.0),
    N=st.integers(1, 200),
)
# the smallest grids, two and three unknowns, run every time
@example(model=("euclidean", 3, 1.0), R=1.0, N=1)
@example(model=("hyperbolic", 3, 1.0), R=4.0, N=1)
@example(model=("gamma3", 3, 1.0), R=2.0, N=2)
def test_eigenpair_matches_dense_solver(gamma2, gamma3, model, R, N):
    kind, n, k = model
    M = {
        "euclidean": lambda: make_euclidean(n),
        "hyperbolic": lambda: make_hyperbolic(n, k),
        "gamma2": lambda: gamma2,
        "gamma3": lambda: gamma3,
    }[kind]()
    sub, diag, sup = laplacian_tridiag(M, RadialGrid(R, N))
    dense = -(np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1))
    # a tridiagonal matrix with positive off-diagonal products is similar to
    # the symmetric one with their square roots; the dense nonsymmetric solver
    # is no reference on these graded matrices (5e-6 off on H^5, k=2, R=12)
    off = -np.sqrt(np.diag(dense, 1) * np.diag(dense, -1))
    sym = np.diag(np.diag(dense)) + np.diag(off, 1) + np.diag(off, -1)
    est = dirichlet_lambda1(M, R, N)
    assert est.lambda1_ball == pytest.approx(np.linalg.eigvalsh(sym)[0], rel=1e-10)
    assert np.all(est.eigenfunction.values[:-1] > 0)
    assert est.residual <= 1e-12 * np.max(np.sum(np.abs(dense), axis=1))


def test_eigen_residual_tolerance(hyp3):
    est = dirichlet_lambda1(hyp3, 10.0, 500)
    assert est.residual <= 1e-8


def test_domain_monotonicity_and_lower_bound(hyp3):
    e5 = dirichlet_lambda1(hyp3, 5.0, 500).lambda1_ball
    e10 = dirichlet_lambda1(hyp3, 10.0, 1000).lambda1_ball
    assert e5 > e10 > mckean_bound(3, 1.0) - 1e-10


def test_lambda1_sequence_hyperbolic(hyp3):
    rep = lambda1_estimate(hyp3, [5.0, 10.0, 20.0], dr_target=0.02)
    assert rep.monotone
    assert rep.values[0] > rep.values[1] > rep.values[2] > 1.0
    assert rep.limit == rep.values[-1]


def test_lambda1_sequence_euclidean_scaling():
    M = make_euclidean(3)
    rep = lambda1_estimate(M, [1.0, 2.0, 4.0], dr_target=0.002)
    # pi^2 / R^2 scaling: successive ratio 4
    assert rep.values[0] / rep.values[1] == pytest.approx(4.0, rel=1e-4)
    assert rep.values[1] / rep.values[2] == pytest.approx(4.0, rel=1e-4)


def test_lambda1_gamma_model_above_mckean(gamma2):
    rep = lambda1_estimate(gamma2, [5.0, 10.0], dr_target=0.02)
    assert all(v >= mckean_bound(3, 1.0) for v in rep.values)
    assert rep.monotone


def test_positive_solution_euclidean_zero(euclid3):
    sol = positive_radial_solution(euclid3, np.pi**2, 1.5, 1500)
    assert not sol.positive
    assert sol.first_zero == pytest.approx(1.0, abs=1e-4)


def test_positive_solution_below_spectrum(hyp3):
    sol = positive_radial_solution(hyp3, 0.5, 40.0, 4000)
    assert sol.positive
    assert np.all(sol.field.values > 0)


def test_positive_solution_small_lambda_is_flat(hyp3):
    sol = positive_radial_solution(hyp3, 1e-6, 10.0, 500)
    assert np.max(np.abs(sol.field.values - 1.0)) < 1e-4


def test_zero_crossing_cross_validates_eigenvalue(euclid3):
    lam1 = dirichlet_lambda1(euclid3, 2.0, 800).lambda1_ball
    below = positive_radial_solution(euclid3, lam1 * 0.999, 2.0, 800)
    above = positive_radial_solution(euclid3, lam1 * 1.001, 2.0, 800)
    assert below.positive
    assert not above.positive


@pytest.mark.parametrize(
    "model, R, N",
    [("euclid3", 2.0, 399), ("euclid7", 2.0, 399), ("hyp3", 10.0, 999), ("hyp5k2", 5.0, 499),
     ("gamma3", 8.0, 799)],
)
def test_positivity_is_the_sturm_count_of_the_band(request, model, R, N):
    # phi > 0 on every node exactly when lam < lambda_1 of the same band
    M = {"euclid7": lambda: make_euclidean(7), "hyp5k2": lambda: make_hyperbolic(5, 2.0)}.get(
        model, lambda: request.getfixturevalue(model)
    )()
    lam1 = dirichlet_lambda1(M, R, N).lambda1_ball
    assert positive_radial_solution(M, lam1 * (1.0 - 1e-8), R, N).positive
    assert not positive_radial_solution(M, lam1 * (1.0 + 1e-8), R, N).positive


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_positive_solution_second_order_on_h3(hyp3, lam):
    # closed forms on H^3 with f(0) = 1: sinh(mu r)/(mu sinh r), mu^2 = 1 - lam,
    # and sin(w r)/(w sinh r), w^2 = lam - 1
    errors = []
    for N in (499, 999, 1999):
        sol = positive_radial_solution(hyp3, lam, 10.0, N)
        r = sol.field.grid.nodes[1:]
        if lam < 1.0:
            mu = np.sqrt(1.0 - lam)
            exact = np.sinh(mu * r) / (mu * np.sinh(r))
        else:
            w = np.sqrt(lam - 1.0)
            exact = np.sin(w * r) / (w * np.sinh(r))
        errors.append(np.max(np.abs(sol.field.values[1:] - exact)))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_lambda_validation(hyp3):
    with pytest.raises(ValueError):
        positive_radial_solution(hyp3, 0.0, 5.0, 100)
    with pytest.raises(ValueError):
        lambda1_estimate(hyp3, [5.0, 5.0])


def test_higher_dimensions():
    # n=4 flat ball: lambda1 = (j_{1,1}/R)^2, first zero of the order-1
    # Bessel function; exercises the pole rows away from n=3
    M = make_euclidean(4)
    est = dirichlet_lambda1(M, 1.0, 2000)
    assert est.lambda1_ball == pytest.approx(3.8317059702075125**2, rel=1e-5)
    assert np.all(est.eigenfunction.values[:-1] > 0)
    from curvedheat import make_hyperbolic

    est = dirichlet_lambda1(make_hyperbolic(5, 1.0), 20.0, 2000)
    assert est.lambda1_ball > mckean_bound(5, 1.0)
    assert est.lambda1_ball == pytest.approx(4.0, abs=0.1)


def test_eigen_csv(tmp_path, euclid3):
    est = dirichlet_lambda1(euclid3, 1.0, 100)
    path = tmp_path / "eigen.csv"
    save_eigen_csv([est], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "R,lambda1,residual"
    assert len(lines) == 2


def test_gamma3_large_ball_converges(gamma3):
    # the area density psi^{n-1} spans far more than the float range on
    # this ball; the eigenvalue estimate must not depend on it
    est = dirichlet_lambda1(gamma3, 16.0, 1599)
    assert np.all(est.eigenfunction.values[:-1] > 0)
    lam8 = dirichlet_lambda1(gamma3, 8.0, 799).lambda1_ball
    assert mckean_bound(3, 1.0) <= est.lambda1_ball <= lam8 + 1e-10
