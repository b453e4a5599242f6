import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlap
from mlap.energy import indicator
from mlap.learn import diagonal_network
from mlap.paths import PathBatch, _row_segments, _step, increment_orthogonality_residual, transition_counts
from mlap.suites import _transition_excess


def test_sample_paths_reproducible(tri):
    a = mlap.sample_paths(tri, 123, 5, 200, "nu")
    b = mlap.sample_paths(tri, 123, 5, 200, "nu")
    np.testing.assert_array_equal(a.paths, b.paths)
    c = mlap.sample_paths(tri, 124, 5, 200, "nu")
    assert np.any(a.paths != c.paths)


def test_sample_paths_per_path_blocks(tri):
    # path i consumes a fixed draw block, so a longer batch extends a shorter one
    small = mlap.sample_paths(tri, 9, 4, 50, "nu")
    large = mlap.sample_paths(tri, 9, 4, 120, "nu")
    np.testing.assert_array_equal(large.paths[:50], small.paths)


def test_sample_paths_fixed_start(tri):
    batch = mlap.sample_paths(tri, 5, 3, 100, "state:a")
    assert np.all(batch.paths[:, 0] == 0)


def test_diagonal_paths_are_constant():
    net = diagonal_network([1.0, 2.0, 3.0])
    batch = mlap.sample_paths(net, 77, 6, 500, "nu")
    for t in range(1, 7):
        np.testing.assert_array_equal(batch.paths[:, t], batch.paths[:, 0])


def test_empirical_transition_binomial_oracle(tri):
    batch = mlap.sample_paths(tri, 42, 1, 100000, "nu")
    starts0 = batch.paths[:, 0] == 0
    hits01 = np.sum(starts0 & (batch.paths[:, 1] == 1))
    p_hat = hits01 / np.sum(starts0)
    assert abs(p_hat - 0.5) <= 0.005  # binomial stderr ~ 0.0027 at ~33k starts


def test_empirical_start_law(tri):
    batch = mlap.sample_paths(tri, 11, 1, 60000, "nu")
    nu = tri.nu
    freq = np.bincount(batch.paths[:, 0], minlength=3) / batch.count
    np.testing.assert_allclose(freq, nu / nu.sum(), atol=0.01)


def test_cylinder_total_mass(any_net):
    full = list(range(any_net.n))
    assert mlap.cylinder_mass(any_net, [full]) == pytest.approx(any_net.W.sum(), rel=1e-14)


def test_cylinder_one_step_direct_summation(tri):
    got = mlap.cylinder_mass(tri, [[0], [1]])
    # nu_0 * P(0, 1) = W[0, 1]
    assert got == pytest.approx(tri.W[0, 1], rel=1e-14)
    assert got == pytest.approx(1.0)


def test_cylinder_matches_pair_mass(any_net, rng):
    full = list(range(any_net.n))
    for n in range(5):
        A = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
        B = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
        sets = [A] + [full] * max(0, n - 1) + [B] if n else [sorted(set(A) & set(B))]
        assert mlap.cylinder_mass(any_net, sets) == pytest.approx(
            mlap.rho_n(any_net, A, B, n), rel=1e-12, abs=1e-12
        )


def test_one_step_joint_symmetry(any_net, rng):
    for _ in range(10):
        A = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
        B = list(np.flatnonzero(rng.random(any_net.n) < 0.6)) or [0]
        ab = mlap.cylinder_mass(any_net, [A, B])
        ba = mlap.cylinder_mass(any_net, [B, A])
        assert ab == pytest.approx(ba, rel=1e-12, abs=1e-12)


def test_dissipation_constant(any_net):
    split = mlap.dissipation_norm(any_net, np.full(any_net.n, 1.3))
    assert split["variance_term"] == pytest.approx(0.0, abs=1e-12)
    assert split["dissipation_term"] == pytest.approx(0.0, abs=1e-12)
    assert split["total"] == pytest.approx(0.0, abs=1e-12)


def test_dissipation_triangle_direct_summation(tri):
    f = indicator(tri, [0])
    pf = mlap.apply_P(tri, f)
    var = mlap.apply_P(tri, f * f) - pf * pf
    assert float(np.sum(tri.nu * var)) == pytest.approx(1.0)
    split = mlap.dissipation_norm(tri, f)
    assert split["variance_term"] == pytest.approx(1.0)
    assert split["dissipation_term"] == pytest.approx(3.0)
    assert split["total"] == pytest.approx(2.0)
    assert split["total"] == pytest.approx(mlap.energy_inner(tri, f, f), rel=1e-12)


def test_dissipation_harmonic(two_comp):
    (h,) = mlap.harmonic_basis(two_comp)
    split = mlap.dissipation_norm(two_comp, h)
    assert split["dissipation_term"] == pytest.approx(0.0, abs=1e-12)
    assert split["total"] == pytest.approx(0.5 * split["variance_term"], abs=1e-12)


def test_dissipation_three_way(any_net, rng):
    for _ in range(50):
        f = rng.standard_normal(any_net.n)
        e1 = mlap.energy_inner(any_net, f, f)
        e2 = float(np.sum(any_net.mu * f * mlap.apply_Delta(any_net, f)))
        e3 = mlap.dissipation_norm(any_net, f)["total"]
        assert e1 == pytest.approx(e2, rel=1e-10, abs=1e-10)
        assert e1 == pytest.approx(e3, rel=1e-10, abs=1e-10)


def test_mc_constant_exact_zero(tri):
    est = mlap.mc_energy_estimate(tri, np.full(3, 4.0), 3, 1000)
    assert est.estimate == 0.0
    assert est.stderr == 0.0


def test_mc_diagonal_exact_zero():
    net = diagonal_network([1.0, 2.0, 3.0])
    est = mlap.mc_energy_estimate(net, np.array([5.0, -1.0, 2.0]), 3, 1000)
    assert est.estimate == 0.0


def test_mc_triangle_indicator(tri):
    est = mlap.mc_energy_estimate(tri, indicator(tri, [0]), 7, 100000)
    assert abs(est.estimate - 2.0) <= 4.0 * est.stderr


def test_mc_stderr_scaling(tri, rng):
    f = rng.standard_normal(3)
    est1 = mlap.mc_energy_estimate(tri, f, 21, 100000)
    est4 = mlap.mc_energy_estimate(tri, f, 22, 400000)
    ratio = est4.stderr / est1.stderr
    assert 0.4 <= ratio <= 0.6


def test_orthogonality_time_zero(any_net, rng):
    for _ in range(5):
        g1 = rng.standard_normal(any_net.n)
        g2 = rng.standard_normal(any_net.n)
        assert mlap.orthogonality_residual(any_net, g1, g2, 0) <= 1e-10


def test_orthogonality_small_times(any_net, rng):
    for n in range(5):
        for _ in range(5):
            g1 = rng.standard_normal(any_net.n)
            g2 = rng.standard_normal(any_net.n)
            assert mlap.orthogonality_residual(any_net, g1, g2, n) <= 1e-10
            assert increment_orthogonality_residual(any_net, g1, n) <= 1e-10


def test_variance_invariance_constant(any_net):
    first, nth = mlap.variance_invariance(any_net, np.full(any_net.n, 2.0), 3)
    assert first == pytest.approx(0.0, abs=1e-12)
    assert nth == pytest.approx(0.0, abs=1e-12)


def test_variance_invariance_triangle_matrix_power_oracle(tri):
    f = np.array([1.0, 0.0, 0.0])
    pf = tri.P @ f
    g = tri.P @ (f * f) - pf * pf  # one-step conditional variance profile
    m = tri.nu.copy()
    for _ in range(2):  # distribute nu over two more steps for n = 3
        m = m @ tri.P
    expected_nth = float(np.sum(m * g))
    first, nth = mlap.variance_invariance(tri, f, 3)
    assert nth == pytest.approx(expected_nth, rel=1e-14)
    assert first == pytest.approx(nth, rel=1e-10)
    assert first == pytest.approx(1.0)


def test_variance_invariance_diagonal():
    net = diagonal_network([1.0, 2.0, 3.0])
    first, nth = mlap.variance_invariance(net, np.array([1.0, 4.0, -2.0]), 4)
    assert first == pytest.approx(0.0, abs=1e-12)
    assert nth == pytest.approx(0.0, abs=1e-12)


def test_variance_invariance_random(any_net, rng):
    for n in range(1, 5):
        f = rng.standard_normal(any_net.n)
        first, nth = mlap.variance_invariance(any_net, f, n)
        assert first == pytest.approx(nth, rel=1e-10, abs=1e-12)


def test_step_norm_matches_pair_mass(any_net, rng):
    for n in range(5):
        A = list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0]
        v = indicator(any_net, A)
        for _ in range(n):
            v = any_net.P @ v
        lhs = float(np.sum(any_net.nu * v * v))
        assert lhs == pytest.approx(mlap.rho_n(any_net, A, A, 2 * n), rel=1e-10, abs=1e-12)


def test_step_inner_products_telescope(any_net, rng):
    for k in range(4):
        for l in range(4):
            A = list(np.flatnonzero(rng.random(any_net.n) < 0.5)) or [0]
            pk, pl = indicator(any_net, A), indicator(any_net, A)
            for _ in range(k):
                pk = any_net.P @ pk
            for _ in range(l):
                pl = any_net.P @ pl
            lhs = mlap.energy_inner(any_net, pk, pl)
            rhs = mlap.rho_n(any_net, A, A, k + l) - mlap.rho_n(any_net, A, A, k + l + 1)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_step_overshoot_takes_the_rows_last_positive_column():
    # this row's float cumsum ends at 0.9999999999999999, below the draw 1 - 2^-53
    row = np.array([[0.36974070148364635, 0.4804184990778926, 0.12548770403091666, 0.0]])
    segments = _row_segments(row)
    u = np.array([1.0 - 2.0**-53])
    assert u[0] >= np.cumsum(row, axis=1)[0, -1]
    assert _step(*segments, np.array([0]), u)[0] == 2
    assert _step(*segments, np.array([0]), np.array([0.5]))[0] == 1


def _dense_step(P, current, u):
    """Dense inverse-CDF step: count every column of the row's cumsum at or
    below the draw, clamped to the row's last positive column."""
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0.0, axis=1)
    nxt = np.sum(u[:, None] >= np.cumsum(P, axis=1)[current], axis=1)
    return np.minimum(nxt, last[current])


def _sample_dense_inverse_cdf(net, seed, m, count, start_law="nu"):
    """The sampler with the dense step."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    u = rng.random((count, m + 1))
    paths = np.empty((count, m + 1), dtype=np.int64)
    if start_law == "nu":
        cum_nu = np.cumsum(net.nu) / np.sum(net.nu)
        paths[:, 0] = np.minimum(np.searchsorted(cum_nu, u[:, 0], side="right"), net.n - 1)
    else:
        paths[:, 0] = net.index(start_law[len("state:"):])
    for t in range(m):
        paths[:, t + 1] = _dense_step(net.P, paths[:, t], u[:, t + 1])
    return paths


class _TopHeavyGenerator(np.random.Generator):
    """Philox draws, with every third path's draws replaced by the largest double below 1."""

    def random(self, shape):
        u = super().random(shape)
        u[::3] = 1.0 - 2.0**-53
        return u


@st.composite
def sampler_networks(draw):
    """Random valid networks: sparse (often disconnected), complete or star
    shaped, with diagonal atoms, and sometimes a coupling whose P underflows."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["random", "complete", "star"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        mask = rng.random((n, n)) < draw(st.floats(0.05, 0.9))
    elif shape == "complete":
        mask = np.ones((n, n), dtype=bool)
    else:
        mask = np.zeros((n, n), dtype=bool)
        mask[0, 1:] = True
    upper = np.where(np.triu(mask), rng.uniform(0.1, 3.0, (n, n)), 0.0)
    W = upper + np.triu(upper, 1).T
    W[np.diag_indices(n)] *= rng.random(n) < draw(st.floats(0.0, 1.0))
    lonely = ~np.any(W > 0.0, axis=1)
    W[lonely, lonely] = rng.uniform(0.5, 2.0, int(lonely.sum()))
    tiny = None
    free = np.argwhere(np.triu(W == 0.0, 1))
    if len(free) and draw(st.booleans()):
        i, j = free[draw(st.integers(0, len(free) - 1))]
        # nu >= 2 on both ends, so 5e-324 / nu rounds to 0
        W[i, i] += 2.0
        W[j, j] += 2.0
        W[i, j] = W[j, i] = 5e-324
        tiny = (i, j)
    net = mlap.build_network(range(n), rng.uniform(0.5, 2.0, n), W)
    if tiny is not None:
        assert net.W[tiny] > 0.0 and net.P[tiny] == 0.0
    start = draw(st.sampled_from(["nu", "state:%d" % draw(st.integers(0, n - 1))]))
    return net, start


@settings(max_examples=150, deadline=None)
@given(sampler_networks(), st.integers(0, 2**64 - 1), st.integers(1, 6))
def test_paths_bit_equal_to_the_dense_inverse_cdf(case, seed, m):
    net, start = case
    batch = mlap.sample_paths(net, seed, m, 500, start)
    np.testing.assert_array_equal(batch.paths, _sample_dense_inverse_cdf(net, seed, m, 500, start))
    assert np.all(net.P[batch.paths[:, :-1], batch.paths[:, 1:]] > 0.0)
    # draws on and next to every cumsum value of every row
    current, col = np.nonzero(net.P)
    cum = np.cumsum(net.P, axis=1)[current, col]
    current = np.repeat(current, 3)
    u = np.stack([np.nextafter(cum, 0.0), cum, np.nextafter(cum, 1.0)], axis=1).ravel()
    np.testing.assert_array_equal(_step(*_row_segments(net.P), current, u), _dense_step(net.P, current, u))
    # again with a third of the paths drawing 1 - 2^-53, which sits at or above
    # every row total below 1: the clamp must take the last column of P's
    # support, never a coupling whose P underflowed
    with mock.patch("numpy.random.Generator", _TopHeavyGenerator):
        batch = mlap.sample_paths(net, seed, m, 500, start)
        np.testing.assert_array_equal(batch.paths, _sample_dense_inverse_cdf(net, seed, m, 500, start))


def test_overshoot_never_takes_a_coupling_whose_p_underflows():
    # row 0's float cumsum of P ends at 0.9999999999999999, and its last
    # positive coupling W[0, 3] = 5e-324 gives P[0, 3] = 0
    W = np.array([[1.81, 0.93, 1.4, 5e-324], [0.93, 1.0, 0.0, 0.0], [1.4, 0.0, 1.0, 0.0], [5e-324, 0.0, 0.0, 1.0]])
    net = mlap.build_network(range(4), np.ones(4), W)
    assert np.cumsum(net.P[0])[-1] <= 1.0 - 2.0**-53
    assert net.W[0, 3] > 0.0 and net.P[0, 3] == 0.0
    with mock.patch("numpy.random.Generator", _TopHeavyGenerator):
        batch = mlap.sample_paths(net, 5, 1, 300, "state:0")
        np.testing.assert_array_equal(batch.paths, _sample_dense_inverse_cdf(net, 5, 1, 300, "state:0"))
    assert np.all(batch.paths[::3, 1] == 2)


def test_paths_bit_equal_to_the_dense_inverse_cdf_on_a_ring():
    net = _ring(800, 3)
    for seed in (1, 7):
        batch = mlap.sample_paths(net, seed, 20, 5000, "nu")
        np.testing.assert_array_equal(batch.paths, _sample_dense_inverse_cdf(net, seed, 20, 5000))


def test_sampler_memory_stays_below_a_count_by_n_block():
    # the dense step gathered a count x n float block per step (128 MB here)
    net = _ring(800, 1)
    net.P
    tracemalloc.start()
    try:
        mlap.sample_paths(net, 1, 5, 20000, "nu")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _sample_with_clamp_to_last_state(net, seed, m, count):
    """The sampler with an overshooting draw clamped to state n - 1."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    u = rng.random((count, m + 1))
    nu = net.W.sum(axis=1)
    cum_rows = np.cumsum(net.W / nu[:, None], axis=1)
    paths = np.empty((count, m + 1), dtype=np.int64)
    paths[:, 0] = np.minimum(np.searchsorted(np.cumsum(nu) / np.sum(nu), u[:, 0], side="right"), net.n - 1)
    for t in range(m):
        nxt = np.sum(u[:, t + 1, None] >= cum_rows[paths[:, t]], axis=1)
        paths[:, t + 1] = np.minimum(nxt, net.n - 1)
    return paths


def test_paths_unchanged_where_no_draw_overshoots(any_net):
    for seed in (0, 7, 123, 2**63 + 5):
        batch = mlap.sample_paths(any_net, seed, 6, 400, "nu")
        np.testing.assert_array_equal(batch.paths, _sample_with_clamp_to_last_state(any_net, seed, 6, 400))


def test_transition_counts(tri):
    batch = mlap.sample_paths(tri, 3, 4, 300, "nu")
    counts, visits = transition_counts(tri, batch)
    ref = np.zeros((3, 3))
    for t in range(4):
        np.add.at(ref, (batch.paths[:, t], batch.paths[:, t + 1]), 1.0)
    np.testing.assert_array_equal(counts, ref)
    np.testing.assert_array_equal(visits, ref.sum(axis=1))


def _ring(n, seed):
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    ring = np.arange(n)
    W[ring, (ring + 1) % n] = rng.uniform(0.5, 2.0, n)
    chords = rng.permutation(n).reshape(-1, 2)
    W[chords[:, 0], chords[:, 1]] += rng.uniform(0.5, 2.0, n // 2)
    return mlap.build_network(range(n), rng.uniform(0.5, 2.0, n), W + W.T)


@pytest.mark.parametrize("n", [50, 200])
def test_empirical_transitions_check_passes_a_correct_sampler(n):
    # the former fixed 0.05 bound failed every one of these
    net = _ring(n, n)
    for seed in range(5):
        batch = mlap.sample_paths(net, seed, 1, 20000, "nu")
        assert _transition_excess(net.P, *transition_counts(net, batch)) == 0.0


def test_empirical_transitions_check_catches_a_wrong_row():
    # planted bug: moves out of the state with the most uneven row ignore its
    # weights and pick a support neighbour uniformly (~1500 departures per run)
    net = _ring(12, 1)
    worst = int(np.argmax([np.ptp(row[row > 0.0]) for row in net.P]))
    support = np.flatnonzero(net.P[worst] > 0.0)
    for seed in range(5):
        batch = mlap.sample_paths(net, seed, 1, 20000, "nu")
        assert _transition_excess(net.P, *transition_counts(net, batch)) == 0.0
        paths = batch.paths.copy()
        leaving = paths[:, 0] == worst
        paths[leaving, 1] = np.random.default_rng(seed).choice(support, int(leaving.sum()))
        bad = PathBatch(batch.seed, 1, batch.count, "nu", paths)
        assert _transition_excess(net.P, *transition_counts(net, bad)) > 0.0


def test_empirical_transitions_check_fails_an_off_support_move():
    net = _ring(50, 1)
    batch = mlap.sample_paths(net, 11, 1, 20000, "nu")
    paths = batch.paths.copy()
    i = paths[0, 0]
    paths[0, 1] = int(np.flatnonzero(net.P[i] == 0.0)[0])
    bad = PathBatch(batch.seed, 1, batch.count, "nu", paths)
    assert _transition_excess(net.P, *transition_counts(net, bad)) >= 1.0
