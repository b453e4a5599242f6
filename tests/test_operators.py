import numpy as np
import pytest

import mlap
from mlap import DimensionMismatch, NegativePower
from mlap.learn import diagonal_network

from conftest import energy_double_sum


def apply_R_oracle(net, f):
    """Direct summation from the definition."""
    out = np.zeros(net.n)
    for i in range(net.n):
        for j in range(net.n):
            out[i] += net.W[i, j] * f[j] / net.mu[i]
    return out


def test_apply_R_direct_summation(tri):
    f = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(mlap.apply_R(tri, f), apply_R_oracle(tri, f))
    np.testing.assert_allclose(mlap.apply_R(tri, f), [0.0, 1.0, 1.0])


def test_R_of_ones_is_conductance(any_net):
    np.testing.assert_allclose(mlap.apply_R(any_net, np.ones(any_net.n)), any_net.c, rtol=1e-14)


def test_R_symmetric_pairing(any_net, rng):
    for _ in range(20):
        f = rng.standard_normal(any_net.n)
        g = rng.standard_normal(any_net.n)
        lhs = np.sum(any_net.mu * g * mlap.apply_R(any_net, f))
        rhs = np.sum(any_net.mu * mlap.apply_R(any_net, g) * f)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g) + 1e-14


def test_apply_P_and_Delta_direct_summation(tri):
    f = np.array([1.0, 0.0, 0.0])
    p_expect = apply_R_oracle(tri, f) / tri.c
    np.testing.assert_allclose(mlap.apply_P(tri, f), p_expect)
    np.testing.assert_allclose(mlap.apply_P(tri, f), [0.0, 0.5, 0.5])
    np.testing.assert_allclose(mlap.apply_Delta(tri, f), tri.c * f - apply_R_oracle(tri, f))
    np.testing.assert_allclose(mlap.apply_Delta(tri, f), [2.0, -1.0, -1.0])


def test_constants_are_fixed(any_net):
    ones = np.ones(any_net.n)
    np.testing.assert_allclose(mlap.apply_P(any_net, ones), ones, atol=1e-13)
    np.testing.assert_allclose(mlap.apply_Delta(any_net, ones), 0.0, atol=1e-12)


def test_diagonal_coupling_is_deterministic():
    net = diagonal_network([1.0, 2.0, 3.0])
    np.testing.assert_allclose(net.P, np.eye(3))
    f = np.array([2.0, -1.0, 5.0])
    np.testing.assert_allclose(mlap.apply_Delta(net, f), 0.0, atol=1e-14)


def test_shape_errors(tri):
    with pytest.raises(DimensionMismatch):
        mlap.apply_R(tri, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        mlap.apply_Delta(tri, np.ones(4))


def test_markov_power_and_pair_mass(tri):
    np.testing.assert_array_equal(mlap.markov_power(tri, 0), np.eye(3))
    P = tri.P
    np.testing.assert_allclose(mlap.markov_power(tri, 3), P @ P @ P)
    with pytest.raises(NegativePower):
        mlap.markov_power(tri, -1)


def test_rho_zero_is_intersection_mass(any_net, rng):
    for _ in range(5):
        A = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
        B = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
        inter = sorted(set(A) & set(B))
        assert mlap.rho_n(any_net, A, B, 0) == pytest.approx(any_net.nu[inter].sum(), abs=1e-13)


def test_rho_two_matrix_power_oracle(tri):
    P2 = tri.P
    P2 = P2 @ P2
    expected = tri.nu[0] * P2[0, 0]
    assert expected == pytest.approx(1.0)
    assert mlap.rho_n(tri, [0], [0], 2) == pytest.approx(expected, rel=1e-14)


def test_spectrum_triangle_eigensolver_oracle(tri):
    nu = tri.nu
    S = tri.W / np.sqrt(np.outer(nu, nu))
    expected = np.sort(np.linalg.eigvalsh(S))
    got = mlap.spectrum_P(tri)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got, [-0.5, -0.5, 1.0], atol=1e-12)


def test_spectrum_bounds_and_multiplicity(any_net):
    spec = mlap.spectrum_P(any_net)
    assert np.max(np.abs(spec)) <= 1.0 + 1e-9
    n_comp = len(mlap.components(any_net))
    assert int(np.sum(spec > 1.0 - 1e-8)) == n_comp


def test_spectrum_two_component_multiplicity(two_comp):
    spec = mlap.spectrum_P(two_comp)
    assert int(np.sum(spec > 1.0 - 1e-10)) == 2


def test_spectrum_diagonal_all_ones():
    net = diagonal_network([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(mlap.spectrum_P(net), 1.0, atol=1e-13)


def null_space_dim(M, tol=1e-9):
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s < tol))


def test_harmonic_basis_null_space_oracle(any_net):
    bundle = mlap.operator_bundle(any_net)
    dim = null_space_dim(bundle.Delta_mat)
    basis = mlap.harmonic_basis(any_net)
    assert len(basis) == dim - 1  # null space includes global constants
    for h in basis:
        np.testing.assert_allclose(mlap.apply_Delta(any_net, h), 0.0, atol=1e-12)
        assert np.sum(any_net.nu * h) == pytest.approx(0.0, abs=1e-12)
    if len(basis):
        gram = (basis * any_net.nu) @ basis.T
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)


def test_harmonic_basis_two_component_sign_structure(two_comp):
    (h,) = mlap.harmonic_basis(two_comp)
    assert len(set(np.round(h[[0, 1, 2]], 12))) == 1
    assert len(set(np.round(h[[3, 4]], 12))) == 1
    assert h[0] * h[3] < 0


def test_harmonic_basis_diagonal_full():
    net = diagonal_network([1.0, 2.0, 3.0])
    assert len(mlap.harmonic_basis(net)) == 2


def test_operator_bundle_invariants(any_net):
    bundle = mlap.operator_bundle(any_net)
    np.testing.assert_allclose(bundle.Delta_mat @ np.ones(any_net.n), 0.0, atol=1e-12)
    weak = np.diag(any_net.mu) @ bundle.Delta_mat
    np.testing.assert_allclose(weak, weak.T, atol=1e-12 * max(1.0, np.abs(weak).max()))


def test_iota_adjoint_triangle_indicator(tri):
    f = np.array([1.0, 0.0, 0.0])
    lhs = energy_double_sum(tri, f, f)
    rhs = np.sum(tri.nu * f * (f - mlap.apply_P(tri, f)))
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(2.0)
    assert mlap.iota_adjoint_residual(tri, f, f) <= 1e-12


def test_iota_adjoint_constant_g(any_net, rng):
    f = rng.standard_normal(any_net.n)
    assert mlap.iota_adjoint_residual(any_net, f, np.ones(any_net.n)) <= 1e-12


def test_iota_adjoint_random_and_norm_bound(any_net, rng):
    for _ in range(100):
        f = rng.standard_normal(any_net.n)
        g = rng.standard_normal(any_net.n)
        assert mlap.iota_adjoint_residual(any_net, f, g) <= 1e-10
        energy = mlap.energy_inner(any_net, f, f)
        l2 = np.sum(any_net.nu * f * f)
        assert energy <= 2.0 * l2 + 1e-12 * max(1.0, l2)


def test_mass_transport_total(any_net):
    lhs, rhs = mlap.mass_transport_check(any_net, np.ones(any_net.n), list(range(any_net.n)))
    assert lhs == pytest.approx(any_net.mu.sum(), rel=1e-14)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_mass_transport_direct_summation(tri):
    lhs, rhs = mlap.mass_transport_check(tri, np.array([1.0, 2.0, 3.0]), [0])
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0, rel=1e-14)


def test_mass_transport_random(any_net, rng):
    for _ in range(20):
        f = rng.standard_normal(any_net.n)
        A = list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0]
        lhs, rhs = mlap.mass_transport_check(any_net, f, A)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_j_adjoint_indicator_and_harmonic(two_comp, rng):
    f = rng.standard_normal(two_comp.n)
    chi = np.zeros(two_comp.n)
    chi[[0, 1]] = 1.0
    assert mlap.j_adjoint_residual(two_comp, chi, f) <= 1e-10
    (h,) = mlap.harmonic_basis(two_comp)
    phi = rng.standard_normal(two_comp.n)
    # both sides vanish against a harmonic function
    assert abs(mlap.energy_inner(two_comp, phi, h)) <= 1e-12
    assert abs(np.sum(two_comp.mu * phi * mlap.apply_Delta(two_comp, h))) <= 1e-12


def test_j_adjoint_random(any_net, rng):
    for _ in range(50):
        phi = rng.standard_normal(any_net.n)
        f = rng.standard_normal(any_net.n)
        assert mlap.j_adjoint_residual(any_net, phi, f) <= 1e-10


def test_P_contractive_both_norms(any_net, rng):
    for _ in range(30):
        f = rng.standard_normal(any_net.n)
        pf = mlap.apply_P(any_net, f)
        assert np.sum(any_net.nu * pf * pf) <= np.sum(any_net.nu * f * f) * (1 + 1e-12)
        assert np.sum(any_net.nu * np.abs(pf)) <= np.sum(any_net.nu * np.abs(f)) * (1 + 1e-12)
        rf = mlap.apply_R(any_net, f)
        assert np.sum(any_net.mu * np.abs(rf)) <= np.sum(any_net.nu * np.abs(f)) * (1 + 1e-12)
        assert np.sum(any_net.mu * rf) == pytest.approx(np.sum(f * any_net.c * any_net.mu), rel=1e-12, abs=1e-12)


def test_stationarity(any_net):
    np.testing.assert_allclose(any_net.nu @ any_net.P, any_net.nu, rtol=1e-12)


def test_restriction_convergence(path):
    # nested exhaustion {1} subset {0,1} subset {0,1,2}: restricted conductance,
    # coupling action and Laplacian converge entrywise and agree exactly at V
    f = np.array([0.3, -1.2, 2.0])
    chain = [[1], [0, 1], [0, 1, 2]]
    prev_gap = np.inf
    for A in chain:
        idx = np.array(A)
        W_sub = path.W[np.ix_(idx, idx)]
        c_sub = W_sub.sum(axis=1) / path.mu[idx]
        gap = np.max(np.abs(c_sub - path.c[idx]))
        assert gap <= prev_gap + 1e-15
        prev_gap = gap
    idx = np.arange(3)
    W_sub = path.W
    c_sub = W_sub.sum(axis=1) / path.mu
    np.testing.assert_array_equal(c_sub, path.c)
    R_sub = W_sub @ f / path.mu
    np.testing.assert_array_equal(R_sub, mlap.apply_R(path, f))
    np.testing.assert_array_equal(c_sub * f - R_sub, mlap.apply_Delta(path, f))
