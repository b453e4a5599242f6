"""The SPD factorization: dense and sparse branches agree, and both check SPD."""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlap
from mlap import SingularSystem, TrappedInterior
from mlap import factor
from mlap.factor import DenseSPD, SparseSPD, spd_factor


def ring(n, seed=0, boundary_weight=1.0):
    """Ring with one chord per state; the last state's couplings are ``boundary_weight``."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    i = np.arange(n)
    W[i, (i + 1) % n] = rng.uniform(0.5, 1.5, n)
    chords = rng.permutation(n).reshape(-1, 2)
    W[chords[:, 0], chords[:, 1]] += rng.uniform(0.1, 1.0, n // 2)
    W = W + W.T
    W[n - 1, W[n - 1] > 0] = boundary_weight
    W[W[:, n - 1] > 0, n - 1] = boundary_weight
    return mlap.build_network(range(n), rng.uniform(0.5, 2.0, n), W)


def branch(kind):
    """Force every factorization into one branch."""
    return mock.patch.object(factor, "SPARSE_FILL", np.inf if kind == "sparse" else -1.0)


@st.composite
def killed_networks(draw):
    """Random networks, connected or not, with a boundary every state can reach."""
    n = draw(st.integers(2, 10))
    density = draw(st.floats(0.15, 0.8))
    extra = draw(st.floats(0.0, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.where(np.triu(rng.random((n, n)) < density), rng.uniform(0.5, 2.0, (n, n)), 0.0)
    W = upper + np.triu(upper, 1).T
    lonely = np.flatnonzero(~np.any(W > 0.0, axis=1))
    W[lonely, lonely] = 1.0
    net = mlap.build_network(range(n), rng.uniform(0.5, 2.0, n), W)
    # one boundary state per component, plus a random few; interiors of size
    # 1 and 2 come from the smallest networks
    boundary = {comp[-1] for comp in mlap.components(net)}
    boundary |= set(np.flatnonzero(rng.random(n) < extra).tolist())
    return net, sorted(boundary), rng


@settings(max_examples=80, deadline=None)
@given(killed_networks())
def test_sparse_and_dense_branches_agree(case):
    net, boundary, rng = case
    idx = np.array([i for i in range(net.n) if i not in boundary], dtype=np.intp)
    if len(idx) == 0:
        return
    d = net.nu[idx]
    dense = DenseSPD(np.diag(d) - net.W[np.ix_(idx, idx)])
    sparse = SparseSPD(net, idx, d, 1.0)
    B = rng.standard_normal((len(idx), 3))
    want = dense.solve(B)
    np.testing.assert_allclose(sparse.solve(B), want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
    np.testing.assert_allclose(sparse.solve(B[:, 0]), want[:, 0], rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(want)))
    # killed spectral radius: ARPACK shift-invert against LAPACK eigvalsh
    radius = {}
    for kind in ("dense", "sparse"):
        with branch(kind):
            killed = mlap.killed_restriction(net, boundary)
        assert isinstance(killed.factor, DenseSPD if kind == "dense" else SparseSPD)
        radius[kind] = killed.spectral_radius
    assert radius["sparse"] == pytest.approx(radius["dense"], abs=1e-13)
    s = np.sqrt(d)
    S = net.W[np.ix_(idx, idx)] / np.outer(s, s)
    assert radius["dense"] == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(S))), abs=1e-13)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_indefinite_matrix_raises(kind, tri):
    # diag(nu / 2) - W sends the constant vector to a negative quadratic form
    with branch(kind), pytest.raises(SingularSystem):
        spd_factor(tri, range(tri.n), 0.5 * tri.nu)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_trapped_interiors_still_raise(kind, two_comp):
    with branch(kind):
        with pytest.raises(TrappedInterior):
            mlap.killed_restriction(two_comp, [0])
        # the boundary coupling vanishes next to nu in floating point, so the
        # interior weak form is singular although every state reaches the boundary
        faint = ring(40, boundary_weight=1e-20)
        with pytest.raises(TrappedInterior):
            mlap.killed_restriction(faint, [39])


def test_public_solves_agree_across_branches():
    net = ring(300, seed=3)
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(net.n)
    fam = [sorted(rng.choice(299, 5, replace=False).tolist()) for _ in range(6)]
    out = {}
    for kind in ("dense", "sparse"):
        with branch(kind):
            out[kind] = (
                mlap.solve_regularized(mlap.LearnProblem(net, psi, 2.5)),
                mlap.dipole(net, "nu", [3, 7], [11], boundary=[299]).v.values,
                mlap.kernel_gram(net, "K", fam, [299]).gram,
                mlap.kernel_gram(net, "N_rho", fam, [299]).gram,
                mlap.green_indicator(net, [299], [5, 6]),
            )
    for got, want in zip(out["sparse"], out["dense"]):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))


def test_large_ring_takes_sparse_branch_and_small_interiors_dense():
    net = ring(600)
    assert isinstance(spd_factor(net, np.arange(net.n), net.mu + net.nu, 1.0), SparseSPD)
    assert isinstance(mlap.killed_restriction(net, [599]).factor, SparseSPD)
    # nnz(W) >= n, so a handful of interior states always factor densely
    assert isinstance(mlap.killed_restriction(net, list(range(590))).factor, DenseSPD)
    small = ring(60)
    assert isinstance(spd_factor(small, np.arange(60), small.nu + 1.0, 1.0), DenseSPD)


def test_import_cli_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(mlap.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, mlap.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
