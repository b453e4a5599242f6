import numpy as np
import pytest
from hypothesis import given, settings

import mlap
from mlap import (
    FamilyTooSmall,
    MissingBoundary,
    SetMeetsBoundary,
    TrappedInterior,
)
from mlap.energy import indicator
from mlap.suites import _truncated_series_gram, default_boundary

from conftest import valid_networks


def test_killed_restriction_path_eigenvalue_oracle(path):
    killed = mlap.killed_restriction(path, [2])
    np.testing.assert_allclose(killed.P_int, [[0.0, 1.0], [0.5, 0.0]])
    oracle = np.max(np.abs(np.linalg.eigvals(np.array([[0.0, 1.0], [0.5, 0.0]]))))
    assert killed.spectral_radius == pytest.approx(oracle, rel=1e-12)
    assert killed.spectral_radius == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_killed_restriction_full_boundary(tri):
    killed = mlap.killed_restriction(tri, [0, 1, 2])
    assert killed.P_int.shape == (0, 0)
    assert killed.spectral_radius == 0.0


def test_killed_restriction_trapped(two_comp):
    with pytest.raises(TrappedInterior):
        mlap.killed_restriction(two_comp, [0])


def test_green_path_exact(path):
    G = mlap.green_operator(path, [2])
    np.testing.assert_allclose(G, [[2.0, 2.0], [1.0, 2.0]], atol=1e-12)


def test_green_one_step_absorption():
    # star center with all mass to the boundary
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    W[0, 2] = W[2, 0] = 1.0
    net = mlap.build_network([0, 1, 2], np.ones(3), W)
    G = mlap.green_operator(net, [1, 2])
    np.testing.assert_allclose(G, [[1.0]], atol=1e-14)


def test_green_neumann_matches_solve(any_net):
    bnd = default_boundary(any_net)
    G = mlap.green_operator(any_net, bnd, "solve")
    Gn = mlap.green_operator(any_net, bnd, "neumann", tol=1e-12)
    if G.size:
        np.testing.assert_allclose(Gn, G, atol=1e-10 * max(1.0, np.max(np.abs(G))))
        assert np.min(G) >= -1e-12


def test_green_monotone_in_boundary():
    # 4-path; enlarging the absorbing set decreases the Green matrix entrywise
    W = np.zeros((4, 4))
    for i in range(3):
        W[i, i + 1] = W[i + 1, i] = 1.0
    net = mlap.build_network(list(range(4)), np.ones(4), W)
    G_small = mlap.green_operator(net, [3])
    G_large = mlap.green_operator(net, [0, 3])
    sub = G_small[np.ix_([1, 2], [1, 2])]  # interior rows shared by both
    assert np.all(G_large <= sub + 1e-12)


def test_green_indicator_path(path):
    gA = mlap.green_indicator(path, [2], [1])
    G = mlap.green_operator(path, [2])
    np.testing.assert_allclose(gA, [G[0, 1], G[1, 1], 0.0], atol=1e-12)
    d = mlap.derive(path)
    resid = mlap.apply_Delta(path, gA) - d.c * indicator(path, [1])
    np.testing.assert_allclose(resid[[0, 1]], 0.0, atol=1e-9)


def test_green_indicator_empty(path):
    np.testing.assert_array_equal(mlap.green_indicator(path, [2], []), np.zeros(3))


def test_green_indicator_rejects_boundary_sets(path):
    with pytest.raises(SetMeetsBoundary):
        mlap.green_indicator(path, [2], [1, 2])


def test_green_difference_density(path):
    gA = mlap.green_indicator(path, [2], [0])
    gB = mlap.green_indicator(path, [2], [1])
    omega = gA - gB
    d = mlap.derive(path)
    want = d.c * (indicator(path, [0]) - indicator(path, [1]))
    resid = mlap.apply_Delta(path, omega) - want
    np.testing.assert_allclose(resid[[0, 1]], 0.0, atol=1e-9)


def test_green_reproducing_and_span(any_net, rng):
    bnd = default_boundary(any_net)
    killed = mlap.killed_restriction(any_net, bnd)
    interior = list(killed.config.interior)
    if not interior:
        pytest.skip("no interior")
    d = mlap.derive(any_net)
    columns = []
    for i in interior:
        gA = mlap.green_indicator(any_net, bnd, [i])
        columns.append(gA[interior])
        for _ in range(10):
            f = rng.standard_normal(any_net.n)
            f[list(killed.config.boundary)] = 0.0
            lhs = mlap.energy_inner(any_net, f, gA)
            assert lhs == pytest.approx(d.nu[i] * f[i], rel=1e-10, abs=1e-10)
    # singleton Green functions span the boundary-vanishing subspace
    rank = np.linalg.matrix_rank(np.array(columns))
    assert rank == len(interior)


def test_kernel_krho_matches_indicator_norm(tri):
    kg = mlap.kernel_gram(tri, "k_rho", [[0]])
    assert kg.gram[0, 0] == pytest.approx(2.0)
    assert kg.gram[0, 0] == pytest.approx(
        mlap.energy_inner(tri, indicator(tri, [0]), indicator(tri, [0])), rel=1e-14
    )


def test_kernel_knu_disjoint(two_comp):
    kg = mlap.kernel_gram(two_comp, "K_nu", [[0, 1], [3, 4]])
    assert kg.gram[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_kernel_K_path_series_oracle(path):
    kg = mlap.kernel_gram(path, "K", [[0]], boundary=[2])
    d = mlap.derive(path)
    G = mlap.green_operator(path, [2])
    assert kg.gram[0, 0] == pytest.approx(d.nu[0] * G[0, 0], rel=1e-12)
    assert kg.gram[0, 0] == pytest.approx(2.0, rel=1e-12)
    # truncated series with geometric tail bound
    killed = mlap.killed_restriction(path, [2])
    chi = np.array([1.0, 0.0])
    total, term = 0.0, chi.copy()
    r = killed.spectral_radius
    while True:
        total += float(np.sum(d.nu[[0, 1]] * chi * term))
        term = killed.P_int @ term
        if np.max(np.abs(term)) * 2.0 * r / (1 - r) < 1e-13:
            break
    assert kg.gram[0, 0] == pytest.approx(total, rel=1e-10)


def test_kernel_requires_boundary(path):
    with pytest.raises(MissingBoundary):
        mlap.kernel_gram(path, "K", [[0]])
    with pytest.raises(MissingBoundary):
        mlap.kernel_gram(path, "N_rho", [[0]])


def test_kernel_psd_and_cnd(any_net, rng):
    bnd = default_boundary(any_net)
    interior = [i for i in range(any_net.n) if i not in set(bnd)]
    fam_free = [list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0] for _ in range(5)]
    for kind in ("k_rho", "K_nu"):
        gram = mlap.kernel_gram(any_net, kind, fam_free).gram
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-9 * max(1.0, np.trace(gram))
    if not interior:
        return
    fam = []
    for _ in range(4):
        take = [i for i in interior if rng.random() < 0.5]
        fam.append(take or [interior[0]])
    kgram = mlap.kernel_gram(any_net, "K", fam, bnd).gram
    assert np.min(np.linalg.eigvalsh(kgram)) >= -1e-9 * max(1.0, np.trace(kgram))
    ngram = mlap.kernel_gram(any_net, "N_rho", fam, bnd).gram
    for _ in range(50):
        lam = rng.standard_normal(len(fam))
        lam -= lam.mean()
        assert float(lam @ ngram @ lam) <= 1e-9 * max(1.0, np.trace(ngram))


def test_nrho_schoenberg_embedding(path, rng):
    fam = [[0], [1], [0, 1]]
    ngram = mlap.kernel_gram(path, "N_rho", fam, [2]).gram
    greens = [mlap.green_indicator(path, [2], A) for A in fam]
    for a in range(3):
        assert ngram[a, a] == pytest.approx(0.0, abs=1e-12)
        for b in range(3):
            diff = greens[a] - greens[b]
            dist = mlap.energy_inner(path, diff, diff)
            assert ngram[a, b] == pytest.approx(dist, rel=1e-12, abs=1e-12)
    kgram = mlap.kernel_gram(path, "K", fam, [2]).gram
    for a in range(3):
        for b in range(3):
            via_k = kgram[a, a] + kgram[b, b] - 2 * kgram[a, b]
            assert ngram[a, b] == pytest.approx(via_k, rel=1e-9, abs=1e-9)


def test_isometry_three_way(path):
    report = mlap.isometry_suite(path, [2], [[0], [1], [0, 1]])
    assert report["max_norm_spread"] <= 1e-9
    assert report["max_pair_gap"] <= 1e-9
    by_set = {r["set"]: r for r in report["per_set"]}
    assert by_set[(0,)]["kernel_diag"] == pytest.approx(2.0, rel=1e-10)


def test_isometry_empty_set(path):
    gA = mlap.green_indicator(path, [2], [])
    assert mlap.energy_inner(path, gA, gA) == 0.0
    kg = mlap.kernel_gram(path, "K", [[], [0]], boundary=[2])
    assert kg.gram[0, 0] == 0.0
    assert kg.gram[0, 1] == 0.0


def test_isometry_random_families(any_net, rng):
    bnd = default_boundary(any_net)
    interior = [i for i in range(any_net.n) if i not in set(bnd)]
    if not interior:
        pytest.skip("no interior")
    fam = []
    for _ in range(4):
        take = [i for i in interior if rng.random() < 0.5]
        fam.append(take or [interior[0]])
    report = mlap.isometry_suite(any_net, bnd, fam)
    assert report["max_norm_spread"] <= 1e-9
    assert report["max_pair_gap"] <= 1e-9


def test_rkhs_membership_criterion(path, rng):
    fam = [[0], [1], [0, 1]]
    gram = mlap.kernel_gram(path, "K", fam, [2]).gram
    for _ in range(25):
        gamma = rng.standard_normal(3)
        values = gram @ gamma  # member function evaluated on the family
        bound = float(gamma @ gram @ gamma)
        alpha = rng.standard_normal(3)
        lhs = float(alpha @ values) ** 2
        rhs = bound * float(alpha @ gram @ alpha)
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_knu_representation_gram_solve(any_net, rng):
    fam = [list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0] for _ in range(5)]
    gram = mlap.kernel_gram(any_net, "K_nu", fam).gram
    d = mlap.derive(any_net)
    coef = rng.standard_normal(len(fam))
    f = np.zeros(any_net.n)
    for c, A in zip(coef, fam):
        f += c * indicator(any_net, A)
    target = np.array([float(np.sum(d.nu[A] * f[A])) for A in fam])
    beta, *_ = np.linalg.lstsq(gram, target, rcond=None)
    np.testing.assert_allclose(gram @ beta, target, atol=1e-9 * max(1.0, np.max(np.abs(target))))
    # the represented functional has L2(nu) norm of the projected density
    norm2 = float(beta @ gram @ beta)
    assert norm2 <= float(np.sum(d.nu * f * f)) + 1e-9


def test_mu_f_rkhs_norm_reproducing_element(tri):
    f = indicator(tri, [0])
    got = mlap.mu_f_rkhs_norm(tri, f, [[0], [1], [2]])
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-8)


def test_mu_f_rkhs_norm_harmonic_is_zero(two_comp):
    (h,) = mlap.harmonic_basis(two_comp)
    assert mlap.mu_f_rkhs_norm(two_comp, h) == pytest.approx(0.0, abs=1e-8)


def test_mu_f_rkhs_norm_gram_pseudoinverse_oracle(tri):
    f = mlap.canonicalize(tri, np.array([1.0, 0.0, 0.0])).values
    fam = [[0], [1], [2]]
    gram = mlap.indicator_gram(tri, fam).gram
    m_vec = np.array([mlap.mu_f(tri, f, A) for A in fam])
    oracle = float(np.sqrt(m_vec @ np.linalg.pinv(gram) @ m_vec))
    got = mlap.mu_f_rkhs_norm(tri, f, fam)
    assert got == pytest.approx(oracle, rel=1e-10)
    assert got == pytest.approx(np.sqrt(mlap.energy_inner(tri, f, f)), rel=1e-8)


def test_mu_f_rkhs_norm_family_too_small(tri):
    with pytest.raises(FamilyTooSmall):
        mlap.mu_f_rkhs_norm(tri, indicator(tri, [1]), [[0]])


def test_mu_f_rkhs_norm_random(any_net, rng):
    for _ in range(10):
        f = rng.standard_normal(any_net.n)
        got = mlap.mu_f_rkhs_norm(any_net, f)
        want = np.sqrt(max(mlap.energy_inner(any_net, f, f), 0.0))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_neumann_refuses_a_series_beyond_the_term_cap():
    # the interior state keeps almost all its mass: radius 1 - 1e-9
    W = np.array([[1.0, 1e-9], [1e-9, 1.0]])
    net = mlap.build_network([0, 1], [1.0, 1.0], W)
    with pytest.raises(TrappedInterior, match="more than"):
        mlap.green_operator(net, [1], "neumann")
    np.testing.assert_allclose(mlap.green_operator(net, [1], "solve"), [[1.0 + 1e9]], rtol=1e-6)


def test_neumann_reports_a_series_stopped_unconverged(path, monkeypatch):
    # radius sqrt(1/2): the geometric bound predicts 63.4 terms for tol 7e-10,
    # but the entries of P_int^N decay only as 2^(-N/2) steps, and 64 terms
    # leave a tail bound of 7.9e-10; doubling reaches 128 once the cap exceeds 64
    import mlap.green as gr

    monkeypatch.setattr(gr, "NEUMANN_MAX_TERMS", 64)
    with pytest.raises(TrappedInterior, match="stopped at 64 terms"):
        mlap.green_operator(path, [2], "neumann", tol=7e-10)
    monkeypatch.setattr(gr, "NEUMANN_MAX_TERMS", 65)
    G = mlap.green_operator(path, [2], "neumann", tol=7e-10)
    np.testing.assert_allclose(G, [[2.0, 2.0], [1.0, 2.0]], atol=1e-11)


def test_truncated_series_gram_raises_beyond_the_term_cap(path, monkeypatch):
    import mlap.green as gr

    killed = mlap.killed_restriction(path, [2])
    want = mlap.kernel_gram(path, "K", [[0], [0, 1]], [2]).gram
    np.testing.assert_allclose(_truncated_series_gram(path, killed, [[0], [0, 1]]), want, atol=1e-12)
    monkeypatch.setattr(gr, "NEUMANN_MAX_TERMS", 64)
    with pytest.raises(TrappedInterior):
        _truncated_series_gram(path, killed, [[0], [0, 1]])


@settings(max_examples=80, deadline=None)
@given(valid_networks())
def test_series_routes_match_the_solve_on_random_networks(case):
    net, rng = case
    bnd = default_boundary(net)
    G = mlap.green_operator(net, bnd, "solve")
    Gn = mlap.green_operator(net, bnd, "neumann", tol=1e-12)
    assert Gn.shape == G.shape
    if G.size:
        np.testing.assert_allclose(Gn, G, rtol=0, atol=1e-10 * np.max(np.abs(G)))
    interior = list(mlap.boundary_config(net, bnd).interior)
    if not interior:
        return
    fam = [[i for i in interior if rng.random() < 0.5] or [interior[0]] for _ in range(4)]
    kgram = mlap.kernel_gram(net, "K", fam, bnd).gram
    trunc = _truncated_series_gram(net, mlap.killed_restriction(net, bnd), fam)
    np.testing.assert_allclose(trunc, kgram, rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(kgram))))


def test_nrho_matches_per_pair_green_energies(any_net, rng):
    bnd = default_boundary(any_net)
    interior = [i for i in range(any_net.n) if i not in set(bnd)]
    if not interior:
        pytest.skip("no interior")
    fam = [[i for i in interior if rng.random() < 0.5] or [interior[0]] for _ in range(4)]
    greens = [mlap.green_indicator(any_net, bnd, A) for A in fam]
    ngram = mlap.kernel_gram(any_net, "N_rho", fam, bnd).gram
    for a in range(4):
        for b in range(4):
            diff = greens[a] - greens[b]
            want = mlap.energy_inner(any_net, diff, diff)
            assert ngram[a, b] == pytest.approx(want, rel=1e-10, abs=1e-12)
