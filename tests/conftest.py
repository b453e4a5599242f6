import numpy as np
import pytest
from hypothesis import strategies as st

import mlap
from mlap.netio import (
    diagonal_fixture,
    joining_fixture,
    path3,
    product_fixture,
    triangle,
    two_component,
)

FIXTURE_MAKERS = {
    "triangle": triangle,
    "path3": path3,
    "two_component": two_component,
    "diagonal": diagonal_fixture,
    "product_measure": product_fixture,
    "joining_involution": joining_fixture,
}


@pytest.fixture(params=sorted(FIXTURE_MAKERS))
def any_net(request):
    return FIXTURE_MAKERS[request.param]()


@pytest.fixture
def tri():
    return triangle()


@pytest.fixture
def path():
    return path3()


@pytest.fixture
def two_comp():
    return two_component()


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def all_subsets(n):
    """Every nonempty subset of range(n), as index lists."""
    return [[i for i in range(n) if bits >> i & 1] for bits in range(1, 2**n)]


def energy_double_sum(net, f, g):
    """Brute-force energy inner product straight from the definition."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    total = 0.0
    for i in range(net.n):
        for j in range(net.n):
            total += net.W[i, j] * (f[i] - f[j]) * (g[i] - g[j])
    return 0.5 * total


@st.composite
def valid_networks(draw):
    """Random valid networks, often disconnected, with n = 1-9 states.

    The default boundary takes the last state of each component, so the
    interior has one state fewer per component than the network: 0 to 2
    states on the smallest networks.  Returns the network and a generator
    for further draws.
    """
    n = draw(st.integers(1, 9))
    density = draw(st.floats(0.0, 0.8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.where(np.triu(rng.random((n, n)) < density), rng.uniform(0.5, 2.0, (n, n)), 0.0)
    W = upper + np.triu(upper, 1).T
    lonely = np.flatnonzero(~np.any(W > 0.0, axis=1))
    W[lonely, lonely] = 1.0  # a self-loop keeps an isolated state's conductance positive
    return mlap.build_network(range(n), rng.uniform(0.5, 2.0, n), W), rng
