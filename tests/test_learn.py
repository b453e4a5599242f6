import numpy as np
import pytest

import mlap
from mlap import NegativeGamma, NotMeasurePreserving, SymmetryViolation, ZeroConductance
from mlap.energy import indicator
from mlap.learn import (
    objective,
    product_alpha_map,
    product_energy_closed_form,
)

from conftest import all_subsets, energy_double_sum


def test_gamma_zero_returns_target(any_net, rng):
    psi = rng.standard_normal(any_net.n)
    h = mlap.solve_regularized(mlap.LearnProblem(any_net, psi, 0.0))
    np.testing.assert_allclose(h, psi, atol=1e-12 * max(1.0, np.max(np.abs(psi))))


def test_negative_gamma_rejected(tri):
    with pytest.raises(NegativeGamma):
        mlap.LearnProblem(tri, np.zeros(3), -0.5)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_nonfinite_gamma_rejected(tri, gamma):
    with pytest.raises(NegativeGamma):
        mlap.LearnProblem(tri, np.zeros(3), gamma)


def test_large_gamma_limits_to_mean(tri, rng):
    psi = rng.standard_normal(3)
    h = mlap.solve_regularized(mlap.LearnProblem(tri, psi, 1e8))
    mean = float(np.sum(tri.mu * psi) / np.sum(tri.mu))
    np.testing.assert_allclose(h, mean, atol=1e-6)
    # oracle: direct dense solve of the same system at gamma = 1e8
    L = np.diag(tri.W.sum(1)) - tri.W
    oracle = np.linalg.solve(np.diag(tri.mu) + 1e8 * L, tri.mu * psi)
    np.testing.assert_allclose(h, oracle, atol=1e-10)


def test_triangle_dense_solve_oracle(tri):
    psi = np.array([1.0, 0.0, 0.0])
    problem = mlap.LearnProblem(tri, psi, 1.0)
    h = mlap.solve_regularized(problem)
    L = np.diag(tri.W.sum(1)) - tri.W
    oracle = np.linalg.solve(np.diag(tri.mu) + 1.0 * L, tri.mu * psi)
    np.testing.assert_allclose(h, oracle, atol=1e-12)


def test_solver_passes_optimality(any_net, rng):
    psi = rng.standard_normal(any_net.n)
    problem = mlap.LearnProblem(any_net, psi, 0.7)
    h = mlap.solve_regularized(problem)
    q = objective(problem, h)
    worst = mlap.optimality_check(problem, h, trials=30, seed=5)
    assert worst <= 1e-10 * (1.0 + q)


def test_unregularized_target_is_suboptimal(tri):
    psi = np.array([1.0, 0.0, 0.0])
    problem = mlap.LearnProblem(tri, psi, 1.0)
    # direct evaluation of both objective values
    q_psi = float(np.sum(tri.mu * 0.0)) + 1.0 * energy_double_sum(tri, psi, psi)
    h = mlap.solve_regularized(problem)
    assert objective(problem, h) < q_psi
    worst = mlap.optimality_check(problem, psi, trials=30, eps=1e-2, seed=1)
    assert worst > 0.0


def test_gamma_zero_target_is_optimal(tri):
    psi = np.array([1.0, 0.0, 0.0])
    problem = mlap.LearnProblem(tri, psi, 0.0)
    assert mlap.optimality_check(problem, psi, trials=20, seed=2) <= 1e-12


def test_gradient_matches_finite_differences(any_net, rng):
    psi = rng.standard_normal(any_net.n)
    problem = mlap.LearnProblem(any_net, psi, 1.3)
    h = mlap.solve_regularized(problem) + 0.1 * rng.standard_normal(any_net.n)
    eps = 1e-5
    for _ in range(5):
        k = rng.standard_normal(any_net.n)
        k /= np.linalg.norm(k)
        analytic = 2.0 * float(np.sum(any_net.mu * (h - psi) * k))
        analytic += 2.0 * problem.gamma * mlap.energy_inner(any_net, h, k)
        fd = (objective(problem, h + eps * k) - objective(problem, h - eps * k)) / (2 * eps)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_scaling_invariance(any_net, rng):
    psi = rng.standard_normal(any_net.n)
    h = mlap.solve_regularized(mlap.LearnProblem(any_net, psi, 2.0))
    scaled = mlap.build_network(any_net.states, 5.0 * any_net.mu, 5.0 * any_net.W)
    h2 = mlap.solve_regularized(mlap.LearnProblem(scaled, psi, 2.0))
    np.testing.assert_allclose(h2, h, atol=1e-10 * max(1.0, np.max(np.abs(h))))


def test_system_matrix_positive_definite(any_net):
    L = np.diag(any_net.W.sum(1)) - any_net.W
    A = np.diag(any_net.mu) + 3.0 * L
    np.linalg.cholesky(A)  # raises on any nonpositive pivot


# ---------------------------------------------------------------------------
# product-coupling networks
# ---------------------------------------------------------------------------


def test_product_network_conductance():
    rng = np.random.default_rng(3)
    mu = np.full(5, 0.2)
    r = rng.uniform(0.2, 2.0, 5)
    net = mlap.product_measure_network(mu, r)
    d = mlap.derive(net)
    e_r = float(np.sum(mu * r))
    np.testing.assert_allclose(d.c, e_r * r, rtol=1e-12)


def test_product_uniform_covariance_exact():
    mu = np.full(4, 0.25)
    net = mlap.product_measure_network(mu, np.ones(4))
    for A in all_subsets(4):
        chi = indicator(net, A)
        muA = 0.25 * len(A)
        assert mlap.energy_inner(net, chi, chi) == pytest.approx(muA - muA**2, rel=1e-12, abs=1e-15)
        for B in all_subsets(4):
            chiB = indicator(net, B)
            muB = 0.25 * len(B)
            muAB = 0.25 * len(set(A) & set(B))
            got = mlap.energy_inner(net, chi, chiB)
            assert got == pytest.approx(muAB - muA * muB, rel=1e-12, abs=1e-15)


def test_product_constant_function_vanishes():
    mu = np.full(3, 1.0 / 3.0)
    net = mlap.product_measure_network(mu, np.array([1.0, 2.0, 0.5]))
    f = np.full(3, 2.2)
    assert mlap.energy_inner(net, f, f) == pytest.approx(0.0, abs=1e-12)
    assert product_energy_closed_form(mu, np.array([1.0, 2.0, 0.5]), f) == pytest.approx(0.0, abs=1e-12)


def test_product_closed_form_double_sum_oracle(rng):
    mu = rng.uniform(0.1, 1.0, 5)
    mu /= mu.sum()
    r = rng.uniform(0.3, 2.0, 5)
    net = mlap.product_measure_network(mu, r)
    for _ in range(10):
        f = rng.standard_normal(5)
        direct = energy_double_sum(net, f, f)
        closed = product_energy_closed_form(mu, r, f)
        assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)
        alpha = product_alpha_map(mu, r, f)
        alpha_norm = float(np.sum(mu * r * alpha * alpha))
        assert alpha_norm == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_product_has_no_harmonic_functions(rng):
    mu = np.full(6, 1.0 / 6.0)
    r = rng.uniform(0.5, 1.5, 6)
    net = mlap.product_measure_network(mu, r)
    assert len(mlap.harmonic_basis(net)) == 0


def test_product_rejects_zero_density():
    with pytest.raises(ZeroConductance):
        mlap.product_measure_network(np.full(3, 1.0 / 3.0), np.zeros(3))


def test_product_requires_probability():
    with pytest.raises(mlap.ValidationError):
        mlap.product_measure_network(np.ones(3), np.ones(3))


# ---------------------------------------------------------------------------
# endomorphism networks
# ---------------------------------------------------------------------------


def test_joining_identity_map():
    net = mlap.joining_network([1.0, 2.0, 3.0], [0, 1, 2])
    np.testing.assert_allclose(net.W, np.diag([1.0, 2.0, 3.0]))
    f = np.array([4.0, -1.0, 0.5])
    np.testing.assert_allclose(mlap.apply_Delta(net, f), 0.0, atol=1e-13)


def test_joining_involution_coboundary(rng):
    S = [1, 0, 3, 2]
    net = mlap.joining_network([1.0, 1.0, 2.0, 2.0], S)
    d = mlap.derive(net)
    np.testing.assert_allclose(d.c, 1.0, atol=1e-14)
    for _ in range(10):
        f = rng.standard_normal(4)
        np.testing.assert_allclose(
            mlap.apply_Delta(net, f), f - f[S], atol=1e-12
        )


def test_joining_three_cycle_rejected():
    with pytest.raises(SymmetryViolation) as info:
        mlap.joining_network([1.0, 1.0, 1.0], [1, 2, 0])
    assert info.value.pair is not None


def test_joining_not_measure_preserving():
    with pytest.raises(NotMeasurePreserving):
        mlap.joining_network([1.0, 2.0], [0, 0])


def test_diagonal_network_properties(rng):
    net = mlap.diagonal_network([1.0, 2.0, 3.0])
    for _ in range(5):
        f = rng.standard_normal(3)
        assert mlap.energy_inner(net, f, f) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(mlap.derive(net).P, np.eye(3))
    np.testing.assert_allclose(mlap.spectrum_P(net), 1.0, atol=1e-13)
