import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlap
from mlap import (
    AsymmetricCoupling,
    DimensionMismatch,
    EmptyTargetSet,
    NonpositiveMass,
    NonpositiveWeight,
    TrappedInterior,
    ZeroConductance,
)
from mlap.net import Network

from conftest import FIXTURE_MAKERS


def test_build_triangle_valid(tri):
    assert tri.n == 3
    assert tri.states == ("a", "b", "c")
    np.testing.assert_array_equal(tri.W, np.ones((3, 3)) - np.eye(3))


def test_build_rejects_asymmetric():
    W = np.zeros((2, 2))
    W[0, 1] = 1.0
    with pytest.raises(AsymmetricCoupling):
        mlap.build_network([0, 1], [1.0, 1.0], W)


def test_build_rejects_zero_rows():
    with pytest.raises(ZeroConductance):
        mlap.build_network([0, 1], [1.0, 1.0], np.zeros((2, 2)))


def test_build_rejects_nonpositive_mass():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonpositiveMass):
        mlap.build_network([0, 1], [1.0, 0.0], W)


def test_build_tolerates_roundoff_asymmetry():
    W = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
    net = mlap.build_network([0, 1], [1.0, 1.0], W)
    # stored matrix is exactly symmetric
    np.testing.assert_array_equal(net.W, net.W.T)


def test_arrays_are_immutable(tri):
    with pytest.raises(ValueError):
        tri.W[0, 1] = 5.0
    with pytest.raises(ValueError):
        tri.mu[0] = 5.0


def test_symmetrize_one_sided_edge():
    net = mlap.symmetrize([[0.0, 2.0], [0.0, 0.0]], [1.0, 1.0])
    np.testing.assert_allclose(net.W, [[0.0, 1.0], [1.0, 0.0]])


def test_symmetrize_fixed_point(tri):
    net = mlap.symmetrize(tri.W, tri.mu, tri.states)
    np.testing.assert_array_equal(net.W, tri.W)


def test_symmetrize_entrywise_average_oracle():
    W_raw = np.array([[0.0, 4.0], [2.0, 0.0]])
    expected = 0.5 * (W_raw + W_raw.T)  # direct entrywise average
    net = mlap.symmetrize(W_raw, [1.0, 1.0])
    np.testing.assert_allclose(net.W, expected)
    np.testing.assert_allclose(net.W, [[0.0, 3.0], [3.0, 0.0]])


def test_symmetrize_preserves_total_mass(rng):
    W_raw = rng.uniform(0.0, 2.0, (5, 5))
    net = mlap.symmetrize(W_raw, np.ones(5))
    assert net.W.sum() == pytest.approx(W_raw.sum(), rel=1e-15)


def test_derive_row_sum_oracle(tri, path):
    for net, c_expect in [(tri, [2.0, 2.0, 2.0]), (path, [1.0, 2.0, 1.0])]:
        d = mlap.derive(net)
        np.testing.assert_allclose(d.c, np.asarray(c_expect))
        np.testing.assert_allclose(d.nu, net.W.sum(axis=1))
        np.testing.assert_allclose(d.rho_x, net.W / net.mu[:, None])


def test_total_stationary_mass(any_net):
    d = mlap.derive(any_net)
    assert d.nu.sum() == pytest.approx(any_net.W.sum(), rel=1e-14)


def test_markov_rows_and_detailed_balance(any_net):
    d = mlap.derive(any_net)
    np.testing.assert_allclose(d.P.sum(axis=1), 1.0, atol=1e-12)
    flux = d.nu[:, None] * d.P
    np.testing.assert_allclose(flux, flux.T, atol=1e-12 * max(1.0, any_net.W.max()))


def test_pair_mass_symmetry_small_powers(any_net, rng):
    for n in range(7):
        for _ in range(3):
            A = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
            B = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [any_net.n - 1]
            ab = mlap.rho_n(any_net, A, B, n)
            ba = mlap.rho_n(any_net, B, A, n)
            assert ab == pytest.approx(ba, rel=1e-10, abs=1e-12)


def test_reweight_identity(tri):
    res = mlap.reweight(tri, np.ones(3))
    assert res.commutes
    np.testing.assert_array_equal(res.net2.mu, tri.mu)
    np.testing.assert_array_equal(res.net2.W, tri.W)


def test_reweight_triangle_commutator_oracle(tri):
    p = np.array([2.0, 1.0, 1.0])
    R = tri.W / tri.mu[:, None]
    commutator = np.diag(p) @ R - R @ np.diag(p)
    assert np.max(np.abs(commutator)) > 0.5  # genuinely non-commuting
    assert not mlap.reweight(tri, p).commutes


def test_reweight_blockwise_constant_commutes(two_comp):
    p = np.array([3.0, 3.0, 3.0, 0.5, 0.5])
    R = two_comp.W / two_comp.mu[:, None]
    commutator = np.diag(p) @ R - R @ np.diag(p)
    assert np.max(np.abs(commutator)) == 0.0
    res = mlap.reweight(two_comp, p)
    assert res.commutes
    np.testing.assert_allclose(res.net2.mu, p * two_comp.mu)


def test_reweight_rejects_nonpositive(tri):
    with pytest.raises(NonpositiveWeight):
        mlap.reweight(tri, [1.0, 0.0, 1.0])


def test_irreducibility_triangle(tri):
    info = mlap.irreducibility(tri)
    assert info.irreducible
    assert info.components == ((0, 1, 2),)


def test_irreducibility_two_blocks(two_comp):
    info = mlap.irreducibility(two_comp)
    assert not info.irreducible
    assert info.components == ((0, 1, 2), (3, 4))


def test_irreducibility_path_bfs_oracle(path):
    # breadth-first reachability computed by hand
    adj = path.W > 0
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.flatnonzero(adj[i]):
                if j not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    assert seen == set(range(path.n))
    assert mlap.irreducibility(path).irreducible


def test_irreducible_iff_no_harmonic(any_net):
    info = mlap.irreducibility(any_net)
    assert info.irreducible == (len(mlap.harmonic_basis(any_net)) == 0)


def test_attainability_direct_edge(tri):
    assert mlap.attainability(tri, 0, [1]) == 1


def test_attainability_matrix_power_oracle(path):
    # support of P^n computed by explicit powers
    P = mlap.derive(path).P
    hits = {}
    M = np.eye(path.n)
    for n in range(1, 7):
        M = M @ P
        for target in range(path.n):
            if M[0, target] > 0 and target not in hits:
                hits[target] = n
    assert mlap.attainability(path, 0, [2]) == hits[2] == 2
    assert mlap.attainability(path, 0, [0]) == hits[0] == 2


def test_attainability_unreachable(two_comp):
    assert mlap.attainability(two_comp, 0, [3, 4]) is None


def test_attainability_empty_set(tri):
    with pytest.raises(EmptyTargetSet):
        mlap.attainability(tri, 0, [])


def test_scaled_coupling_gives_proportional_stationary(any_net):
    scaled = mlap.build_network(any_net.states, any_net.mu, 4.0 * any_net.W)
    d1, d2 = mlap.derive(any_net), mlap.derive(scaled)
    np.testing.assert_allclose(d2.P, d1.P, atol=1e-14)
    np.testing.assert_allclose(d2.nu, 4.0 * d1.nu, rtol=1e-14)


def test_all_fixtures_valid():
    for name, make in FIXTURE_MAKERS.items():
        net = make()
        assert net.n >= 1, name


def test_build_symmetry_tolerance_scales_with_coupling():
    # one-ulp noise on couplings of size 1e6 is round-off, not asymmetry
    big = 1e6
    W = np.array([[0.0, big], [np.nextafter(big, np.inf), 0.0]])
    net = mlap.build_network([0, 1], [1.0, 1.0], W)
    np.testing.assert_array_equal(net.W, net.W.T)
    # a 2:1 mismatch is asymmetry at any scale
    with pytest.raises(AsymmetricCoupling):
        mlap.build_network([0, 1], [1.0, 1.0], 1e-14 * np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_derive_returns_the_same_readonly_arrays(any_net):
    d1, d2 = mlap.derive(any_net), mlap.derive(any_net)
    for name in ("c", "nu", "P"):
        a, b = getattr(d1, name), getattr(d2, name)
        assert a is b
        assert not a.flags.writeable
    assert not d1.rho_x.flags.writeable


def test_directly_built_network_derives_its_measures():
    net = Network(("a", "b"), np.array([1.0, 2.0]), np.array([[0.0, 2.0], [2.0, 1.0]]), None)
    np.testing.assert_array_equal(net.nu, [2.0, 3.0])
    np.testing.assert_array_equal(net.c, [2.0, 1.5])
    np.testing.assert_array_equal(mlap.derive(net).P, [[0.0, 1.0], [2.0 / 3.0, 1.0 / 3.0]])


def test_state_ids_with_colliding_string_forms_rejected():
    # 0 and "0" would be saved as two states with id "0", which the loader rejects
    with pytest.raises(DimensionMismatch):
        mlap.build_network((0, "0"), np.ones(2), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        mlap.build_network((1, 1.0), np.ones(2), np.ones((2, 2)))


def test_index_matches_string_form():
    net = mlap.build_network([10, 20, 30], np.ones(3), np.ones((3, 3)))
    assert net.index(20) == 1
    assert net.index("30") == 2
    with pytest.raises(DimensionMismatch):
        net.index("40")


# ---------------------------------------------------------------------------
# reachability against networkx on random networks, connected or not
# ---------------------------------------------------------------------------


@st.composite
def networks(draw):
    n = draw(st.integers(1, 9))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.where(np.triu(rng.random((n, n)) < density), rng.uniform(0.5, 2.0, (n, n)), 0.0)
    W = upper + np.triu(upper, 1).T
    lonely = np.flatnonzero(~np.any(W > 0.0, axis=1))
    W[lonely, lonely] = 1.0  # a self-loop keeps an isolated state's conductance positive
    net = mlap.build_network(range(n), rng.uniform(0.5, 2.0, n), W)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(zip(*np.nonzero(W)))
    return net, G, rng


@settings(max_examples=60, deadline=None)
@given(networks())
def test_components_match_networkx(case):
    net, G, _ = case
    expected = sorted(tuple(sorted(c)) for c in nx.connected_components(G))
    assert mlap.components(net) == expected
    assert mlap.irreducibility(net).irreducible == nx.is_connected(G)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_boundary_reachability_matches_networkx(case):
    net, G, rng = case
    boundary = np.flatnonzero(rng.random(net.n) < 0.3).tolist() or [net.n - 1]
    touched = set()
    for comp in nx.connected_components(G):
        if comp & set(boundary):
            touched |= comp
    if len(touched) < net.n:
        with pytest.raises(TrappedInterior):
            mlap.boundary_config(net, boundary)
        with pytest.raises(TrappedInterior):
            mlap.dipole(net, "mu", [], [], boundary=boundary)
    else:
        cfg = mlap.boundary_config(net, boundary)
        assert cfg.interior == tuple(i for i in range(net.n) if i not in boundary)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_attainability_matches_networkx(case):
    net, G, rng = case
    x = int(rng.integers(net.n))
    A = np.flatnonzero(rng.random(net.n) < 0.3).tolist() or [int(rng.integers(net.n))]
    # a walk of length >= 1 takes one step to a neighbour, then a shortest path into A
    dist = nx.multi_source_dijkstra_path_length(G, set(A))
    steps = [1 + dist[y] for y in G.neighbors(x) if y in dist]
    assert mlap.attainability(net, x, A) == (min(steps) if steps else None)
