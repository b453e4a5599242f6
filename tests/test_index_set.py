"""One validator for index sets: every public function that takes a set of
state indices either rejects a bad entry with ``DimensionMismatch`` or
answers as it does on the sorted distinct set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlap
from mlap import DimensionMismatch
from mlap.energy import incidence, indicator, normalize_family
from mlap.net import index_set
from mlap.operators import mass_transport_check

from conftest import valid_networks


def _outcome(fn, *args):
    """``("ok", value)`` or ``("err", exception type)``."""
    try:
        return "ok", fn(*args)
    except mlap.MlapError as exc:
        return "err", type(exc)


def _same(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _calls(net):
    """Public functions of one index set ``S``, each as a one-argument callable."""
    f = np.linspace(-1.0, 1.0, net.n)
    other = [net.n - 1]

    def dipole(S):
        sol = mlap.dipole(net, "mu", S, other)
        return sol.A, sol.B, sol.v.values

    def dipole_boundary(S):
        sol = mlap.dipole(net, "nu", [0], [], boundary=S)
        return sol.v.values

    return {
        "index_set": lambda S: index_set(net.n, S),
        "indicator": lambda S: indicator(net, S),
        "incidence": lambda S: incidence(net, [S, other]),
        "normalize_family": lambda S: normalize_family(net, [S, other]),
        "kernel_gram": lambda S: mlap.kernel_gram(net, "K_nu", [S]).gram,
        "rho_n": lambda S: (mlap.rho_n(net, S, other, 2), mlap.rho_n(net, other, S, 1)),
        "mu_f": lambda S: mlap.mu_f(net, f, S),
        "mass_transport_check": lambda S: mass_transport_check(net, f, S),
        "cylinder_mass": lambda S: mlap.cylinder_mass(net, [S, other]),
        "boundary_config": lambda S: mlap.boundary_config(net, S),
        "attainability": lambda S: mlap.attainability(net, 0, S),
        "dipole": dipole,
        "dipole_boundary": dipole_boundary,
        "build_network": lambda S: mlap.build_network(net.states, net.mu, net.W, boundary=S).boundary,
    }


@st.composite
def index_lists(draw, n):
    """Index lists with repeats, negatives, floats and out-of-range values."""
    entry = st.one_of(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(-3, -1),
        st.integers(n, n + 3),
        st.floats(-1.0, n + 1.0),
    )
    raw = draw(st.lists(entry, max_size=6))
    if draw(st.booleans()):
        raw = raw + raw[: draw(st.integers(0, len(raw)))]  # repeats
    if draw(st.booleans()) and all(isinstance(i, int) for i in raw):
        return np.array(raw, dtype=np.int64)
    return raw


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_index_sets_are_cleaned_or_rejected(data):
    net, _ = data.draw(valid_networks())
    raw = data.draw(index_lists(net.n))
    entries = list(raw)
    valid = all(isinstance(i, (int, np.integer)) and 0 <= i < net.n for i in entries)
    cleaned = sorted(set(int(i) for i in entries)) if valid else None
    for name, call in _calls(net).items():
        got = _outcome(call, raw)
        if not valid:
            assert got == ("err", DimensionMismatch), name
            continue
        want = _outcome(call, cleaned)
        assert got[0] == want[0] and _same(got[1], want[1]), name


def test_repeated_index_counts_once(tri):
    assert mlap.rho_n(tri, [0, 0], [1], 1) == mlap.rho_n(tri, [0], [1], 1)


@pytest.mark.parametrize("bad", [[-1], [3], [0.7], [1.5], ["a"], [[0]], 0])
def test_bad_index_sets_are_rejected(tri, bad):
    for call in _calls(tri).values():
        with pytest.raises(DimensionMismatch):
            call(bad)


def test_boundary_repeats_are_stored_once(tri):
    once = mlap.build_network(tri.states, tri.mu, tri.W, boundary=[2])
    twice = mlap.build_network(tri.states, tri.mu, tri.W, boundary=[2, 2])
    assert twice.boundary == (2,)
    assert mlap.network_checksum(twice) == mlap.network_checksum(once)
