import numpy as np
import pytest
from hypothesis import assume, given, settings

import mlap
from mlap import SingularSystem, UnbalancedSets
from mlap import factor
from mlap.energy import canonicalize, indicator

from conftest import all_subsets, energy_double_sum, valid_networks


def test_energy_inner_triangle_indicator(tri):
    chi0 = indicator(tri, [0])
    assert energy_double_sum(tri, chi0, chi0) == pytest.approx(2.0)
    assert mlap.energy_inner(tri, chi0, chi0) == pytest.approx(2.0, rel=1e-14)
    # cross-reference: coupling mass between {0} and its complement
    assert tri.W[0, 1] + tri.W[0, 2] == pytest.approx(2.0)


def test_energy_inner_constant_is_zero(any_net, rng):
    g = rng.standard_normal(any_net.n)
    assert mlap.energy_inner(any_net, np.full(any_net.n, 3.7), g) == pytest.approx(0.0, abs=1e-12)


def test_energy_inner_triangle_cross_indicator(tri):
    chi0, chi1 = indicator(tri, [0]), indicator(tri, [1])
    assert energy_double_sum(tri, chi0, chi1) == pytest.approx(-1.0)
    assert mlap.energy_inner(tri, chi0, chi1) == pytest.approx(-1.0, rel=1e-14)


def test_energy_inner_matches_double_sum(any_net, rng):
    for _ in range(20):
        f = rng.standard_normal(any_net.n)
        g = rng.standard_normal(any_net.n)
        assert mlap.energy_inner(any_net, f, g) == pytest.approx(
            energy_double_sum(any_net, f, g), rel=1e-12, abs=1e-12
        )


def test_energy_constant_shift_invariance(any_net, rng):
    f = rng.standard_normal(any_net.n)
    g = rng.standard_normal(any_net.n)
    shifted = mlap.energy_inner(any_net, f + 4.2, g - 1.1)
    assert shifted == pytest.approx(mlap.energy_inner(any_net, f, g), rel=1e-10, abs=1e-10)


def test_difference_embedding_isometry(any_net, rng):
    # sum of squared scaled differences against the coupling equals the energy
    f = rng.standard_normal(any_net.n)
    total = 0.0
    for i in range(any_net.n):
        for j in range(any_net.n):
            total += any_net.W[i, j] * ((f[i] - f[j]) / np.sqrt(2.0)) ** 2
    assert total == pytest.approx(mlap.energy_inner(any_net, f, f), rel=1e-12, abs=1e-12)


def test_indicator_gram_full_set_is_zero(any_net):
    gram = mlap.indicator_gram(any_net, [list(range(any_net.n))]).gram
    assert gram[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_indicator_gram_disjoint_no_mass(two_comp):
    gram = mlap.indicator_gram(two_comp, [[0, 1, 2], [3, 4]]).gram
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_indicator_gram_triangle_value(tri):
    gram = mlap.indicator_gram(tri, [[0], [0, 1]]).gram
    # nu({0}) - coupling mass({0} x {0,1}) = 2 - 1
    assert gram[0, 1] == pytest.approx(1.0)


def test_indicator_gram_matches_energy_and_psd(any_net, rng):
    fam = [list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0] for _ in range(6)]
    kg = mlap.indicator_gram(any_net, fam)
    for a, A in enumerate(kg.family):
        for b, B in enumerate(kg.family):
            direct = mlap.energy_inner(any_net, indicator(any_net, A), indicator(any_net, B))
            assert kg.gram[a, b] == pytest.approx(direct, abs=1e-12 * max(1.0, abs(direct)))
    min_eig = np.min(np.linalg.eigvalsh(kg.gram))
    assert min_eig >= -1e-9 * max(1.0, np.trace(kg.gram))


def test_indicator_diag_is_boundary_mass_exhaustive(any_net):
    if any_net.n > 6:
        pytest.skip("exhaustive check limited to n <= 6")
    for A in all_subsets(any_net.n):
        comp = [i for i in range(any_net.n) if i not in set(A)]
        cross = any_net.W[np.ix_(A, comp)].sum() if comp else 0.0
        norm = mlap.energy_inner(any_net, indicator(any_net, A), indicator(any_net, A))
        assert norm == pytest.approx(cross, rel=1e-12, abs=1e-12)
        # complement has the same norm; the pairing is minus the cross mass
        chi_A, chi_C = indicator(any_net, A), indicator(any_net, comp)
        assert mlap.energy_inner(any_net, chi_C, chi_C) == pytest.approx(norm, rel=1e-12, abs=1e-12)
        assert mlap.energy_inner(any_net, chi_A, chi_C) == pytest.approx(-cross, rel=1e-12, abs=1e-12)


def test_pairing_identity_with_laplacian(any_net, rng):
    for _ in range(30):
        phi = rng.standard_normal(any_net.n)
        f = rng.standard_normal(any_net.n)
        lhs = mlap.energy_inner(any_net, phi, f)
        rhs = np.sum(phi * mlap.apply_Delta(any_net, f) * any_net.mu)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_canonical_representative(any_net, rng):
    f = rng.standard_normal(any_net.n)
    elem = mlap.canonicalize(any_net, f)
    nu = mlap.derive(any_net).nu
    assert elem.canonical
    assert np.sum(nu * elem.values) == pytest.approx(0.0, abs=1e-10)


def test_royden_connected(tri, rng):
    f = rng.standard_normal(3)
    parts = mlap.royden_project(tri, f)
    np.testing.assert_allclose(parts["h"].values, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        parts["d"].values, mlap.canonicalize(tri, f).values, atol=1e-12
    )


def test_royden_block_indicator_gram_solve_oracle(two_comp):
    f = indicator(two_comp, [0, 1, 2])
    # oracle: project f onto the harmonic basis in L2(nu) via Gram solve
    basis = mlap.harmonic_basis(two_comp)
    nu = mlap.derive(two_comp).nu
    gram = (basis * nu) @ basis.T
    coef = np.linalg.solve(gram, (basis * nu) @ f)
    h_oracle = coef @ basis  # nu-mean-zero by construction
    parts = mlap.royden_project(two_comp, f)
    np.testing.assert_allclose(parts["h"].values, h_oracle, atol=1e-12)
    np.testing.assert_allclose(parts["d"].values, 0.0, atol=1e-12)


def test_royden_pythagoras(two_comp, rng):
    for _ in range(20):
        f = rng.standard_normal(two_comp.n)
        parts = mlap.royden_project(two_comp, f)
        dv, hv = parts["d"].values, parts["h"].values
        assert mlap.energy_inner(two_comp, dv, hv) == pytest.approx(0.0, abs=1e-10)
        total = mlap.energy_inner(two_comp, f, f)
        split = mlap.energy_inner(two_comp, dv, dv) + mlap.energy_inner(two_comp, hv, hv)
        assert total == pytest.approx(split, rel=1e-9, abs=1e-9)
        recon = mlap.canonicalize(two_comp, dv + hv).values
        np.testing.assert_allclose(recon, mlap.canonicalize(two_comp, f).values, atol=1e-10)


def test_dipole_equal_sets_is_zero(tri):
    sol = mlap.dipole(tri, "mu", [0], [0])
    np.testing.assert_allclose(sol.v.values, 0.0, atol=1e-12)
    assert sol.residual <= 1e-12


def test_dipole_triangle_dense_solve_oracle(tri):
    nu = mlap.derive(tri).nu
    L = np.diag(nu) - tri.W
    b = tri.mu * (indicator(tri, [0]) - indicator(tri, [1]))
    v_oracle, *_ = np.linalg.lstsq(L, b, rcond=None)
    sol = mlap.dipole(tri, "mu", [0], [1])
    shift = sol.v.values - v_oracle
    np.testing.assert_allclose(shift, shift[0], atol=1e-10)  # equal up to constants
    np.testing.assert_allclose(mlap.apply_Delta(tri, sol.v.values), [1.0, -1.0, 0.0], atol=1e-12)
    expected = np.array([1.0, -1.0, 0.0]) / 3.0
    gap = sol.v.values - expected
    np.testing.assert_allclose(gap, gap[0], atol=1e-10)


def test_dipole_reproducing_identity(tri, rng):
    sol = mlap.dipole(tri, "mu", [0], [1])
    d = mlap.derive(tri)
    for _ in range(20):
        f = rng.standard_normal(3)
        lhs = mlap.energy_inner(tri, f, sol.v.values)
        rhs = np.sum(tri.mu[[0]] * f[[0]]) - np.sum(tri.mu[[1]] * f[[1]])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
    sol_nu = mlap.dipole(tri, "nu", [0], [1])
    for _ in range(20):
        f = rng.standard_normal(3)
        lhs = mlap.energy_inner(tri, f, sol_nu.v.values)
        rhs = d.nu[0] * f[0] - d.nu[1] * f[1]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_dipole_with_boundary_equals_green(path):
    sol = mlap.dipole(path, "nu", [0], [], boundary=[2])
    g = mlap.green_indicator(path, [2], [0])
    np.testing.assert_allclose(sol.v.values, g, atol=1e-12)
    assert not sol.v.canonical
    assert sol.residual <= 1e-9


def test_dipole_unbalanced_raises():
    net = mlap.joining_network([1.0, 1.0, 2.0, 2.0], [1, 0, 3, 2])
    with pytest.raises(UnbalancedSets):
        mlap.dipole(net, "mu", [0], [2])


def test_dipole_cross_component_raises(two_comp):
    with pytest.raises(SingularSystem):
        mlap.dipole(two_comp, "mu", [0], [3])


def test_mu_f_harmonic_vanishes(two_comp, rng):
    (h,) = mlap.harmonic_basis(two_comp)
    for _ in range(10):
        A = list(np.flatnonzero(rng.random(two_comp.n) < 0.5)) or [0]
        assert mlap.mu_f(two_comp, h, A) == pytest.approx(0.0, abs=1e-12)


def test_mu_f_triangle_direct_summation(tri):
    f = np.array([1.0, 0.0, 0.0])
    delta = mlap.apply_Delta(tri, f)
    expect = np.sum(tri.mu[[0]] * delta[[0]])
    assert expect == pytest.approx(2.0)
    assert mlap.mu_f(tri, f, [0]) == pytest.approx(2.0, rel=1e-14)


def test_mu_f_matches_density(any_net, rng):
    for _ in range(20):
        f = rng.standard_normal(any_net.n)
        A = list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0]
        delta = mlap.apply_Delta(any_net, f)
        assert mlap.mu_f(any_net, f, A) == pytest.approx(
            float(np.sum(any_net.mu[A] * delta[A])), rel=1e-10, abs=1e-10
        )


def test_mu_f_of_dipole_counts_masses(tri):
    sol = mlap.dipole(tri, "mu", [0], [1])
    for C in all_subsets(3):
        got = mlap.mu_f(tri, sol.v.values, C)
        want = float(np.sum(tri.mu[sorted({0} & set(C))])) - float(
            np.sum(tri.mu[sorted({1} & set(C))])
        )
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_norm_bounds_constant(any_net):
    report = mlap.norm_bounds_report(any_net, np.full(any_net.n, 2.5))
    for key in ("energy", "delta_seminorm_nu", "delta_norm_c_inv_mu", "one_step_defect_nu"):
        assert report[key] == pytest.approx(0.0, abs=1e-12)


def test_norm_bounds_triangle_indicator(tri):
    report = mlap.norm_bounds_report(tri, indicator(tri, [0]))
    assert report["energy"] == pytest.approx(2.0)
    assert report["delta_seminorm_nu"] == pytest.approx(3.0)
    assert report["slack_half_bound"] == pytest.approx(0.5)


def test_norm_bounds_random(any_net, rng):
    for _ in range(200):
        f = rng.standard_normal(any_net.n)
        report = mlap.norm_bounds_report(any_net, f)
        scale = max(1.0, report["energy"])
        assert report["slack_half_bound"] >= -1e-12 * scale
        assert report["slack_delta_bound"] >= -1e-12 * scale
        assert report["slack_defect_bound"] >= -1e-12 * scale


def test_dipole_large_ring_is_solved_by_grounding():
    # the free weak form is grounded at one state and factored like a Dirichlet system
    n = 600
    W = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        W[i, j] = W[j, i] = 1.0
    ring = mlap.build_network(list(range(n)), np.ones(n), W)
    sol = mlap.dipole(ring, "mu", [0], [n // 2])
    assert sol.residual <= 1e-9
    target = indicator(ring, [0]) - indicator(ring, [n // 2])
    np.testing.assert_allclose(mlap.apply_Delta(ring, sol.v.values), target, atol=1e-9)


def test_indicator_gram_matches_pair_loop_reference(any_net, rng):
    fam = [list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0] for _ in range(5)]
    nu = any_net.W.sum(axis=1)
    ref = np.zeros((5, 5))
    for a, A in enumerate(fam):
        for b, B in enumerate(fam):
            inter = sorted(set(A) & set(B))
            ref[a, b] = nu[inter].sum() - any_net.W[np.ix_(A, B)].sum()
    gram = mlap.indicator_gram(any_net, fam).gram
    np.testing.assert_allclose(gram, ref, rtol=1e-13, atol=1e-13 * max(1.0, float(np.max(nu))))
    np.testing.assert_array_equal(gram, gram.T)


def _lstsq_dipole(net, kind, A, B):
    """Canonicalized minimum-norm solution of the free weak form by least squares."""
    weight = net.mu if kind == "mu" else net.nu
    b = weight * (indicator(net, A) - indicator(net, B))
    v, *_ = np.linalg.lstsq(mlap.laplacian_matrix(net), b, rcond=None)
    return canonicalize(net, v).values


def test_free_dipole_sparse_branch_matches_lstsq():
    n = 600
    rng = np.random.default_rng(5)
    W = np.zeros((n, n))
    ring = np.arange(n)
    W[ring, (ring + 1) % n] = rng.uniform(0.5, 2.0, n)
    chords = rng.permutation(n).reshape(-1, 2)
    W[chords[:, 0], chords[:, 1]] = rng.uniform(0.5, 2.0, n // 2)
    net = mlap.build_network(range(n), np.ones(n), W + W.T)
    assert net.nnz <= factor.SPARSE_FILL * (n - 1) ** 2  # the grounded system factors sparsely
    for A, B in (([0], [n // 2]), ([0, 5, 9], [100, 200, 300])):
        sol = mlap.dipole(net, "mu", A, B)
        want = _lstsq_dipole(net, "mu", A, B)
        assert sol.v.canonical
        np.testing.assert_allclose(sol.v.values, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        assert sol.residual <= 1e-12


@settings(max_examples=80, deadline=None)
@given(valid_networks())
def test_free_dipole_matches_lstsq_on_random_networks(case):
    net, rng = case
    comps = [list(c) for c in mlap.components(net) if len(c) > 1]
    assume(comps)
    comp = comps[rng.integers(len(comps))]
    take = rng.permutation(comp)
    split = int(rng.integers(1, len(comp)))
    A, B = sorted(take[:split].tolist()), sorted(take[split:].tolist())
    # rescale mu on B so that mu(A) = mu(B): the sets balance on their component
    mu = net.mu.copy()
    mu[B] *= mu[A].sum() / mu[B].sum()
    net = mlap.build_network(net.states, mu, net.W)
    sol = mlap.dipole(net, "mu", A, B)
    want = _lstsq_dipole(net, "mu", A, B)
    np.testing.assert_allclose(sol.v.values, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_free_dipole_on_a_numerically_disconnected_component_raises():
    # W[1, 2] = 1e-300 joins state 2 to the others on the support, but vanishes
    # next to nu_1 in floating point: the grounded system is singular
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1e-300], [0.0, 1e-300, 1.0]])
    net = mlap.build_network(range(3), np.ones(3), W)
    assert len(mlap.components(net)) == 1
    with pytest.raises(SingularSystem):
        mlap.dipole(net, "mu", [0], [2])
