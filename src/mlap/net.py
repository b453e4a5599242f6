"""Finite atomic symmetric-measure networks.

A network is a finite state space with strictly positive atom masses ``mu``
and a symmetric nonnegative coupling matrix ``W`` whose entry ``W[i, j]``
is the mass the coupling measure puts on the ordered pair ``(i, j)``.
Diagonal entries are allowed.  Every row sum must be strictly positive so
that the conductance ``c = row_sum(W) / mu`` is finite and positive.

Derived objects: conductance ``c``, stationary measure ``nu = c * mu``
(equal to the row sums of ``W``), the row-stochastic transition matrix
``P[i, j] = W[i, j] / nu[i]``, and the conditional rows
``rho_x[i, j] = W[i, j] / mu[i]``.  ``nu``, ``c`` and ``P`` are computed
once per network, on first use, and cached on it, as are the nonzero count
and the CSR copy of ``W`` that the sparse solvers read; the support graph
is walked only by :func:`reachable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AsymmetricCoupling,
    DimensionMismatch,
    EmptyTargetSet,
    NonpositiveMass,
    NonpositiveWeight,
    TrappedInterior,
    ZeroConductance,
)

SYMMETRY_RTOL = 1e-12
COMMUTE_RTOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Network:
    """Validated finite symmetric-measure network.

    Attributes
    ----------
    states : tuple
        Ordered unique state identifiers.
    mu : ndarray, shape (n,)
        Strictly positive base-measure atoms.
    W : ndarray, shape (n, n)
        Exactly symmetric nonnegative coupling atoms; positive row sums.
    boundary : tuple of int, optional
        Indices of an absorbing set attached by the loader, if any.
    """

    states: tuple
    mu: np.ndarray
    W: np.ndarray
    boundary: Optional[tuple] = None

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def nu(self) -> np.ndarray:
        """Stationary weights: the row sums of ``W``."""
        return _readonly(self.W.sum(axis=1))

    @cached_property
    def c(self) -> np.ndarray:
        """Conductance ``nu / mu``."""
        return _readonly(self.nu / self.mu)

    @cached_property
    def P(self) -> np.ndarray:
        """Transition matrix ``W / nu``; the one n x n array a network caches."""
        return _readonly(self.W / self.nu[:, None])

    @cached_property
    def nnz(self) -> int:
        """Number of nonzero coupling atoms."""
        return int(np.count_nonzero(self.W))

    @cached_property
    def W_csr(self):
        """``W`` as a read-only scipy CSR array for the sparse solvers; ``W`` stays the stored form."""
        from scipy.sparse import csr_array

        W = csr_array(self.W)
        for a in (W.data, W.indices, W.indptr):
            a.flags.writeable = False
        return W

    @cached_property
    def _positions(self) -> dict:
        # build_network rejects identifiers whose string forms collide
        return {str(s): i for i, s in enumerate(self.states)}

    def index(self, state) -> int:
        """Index of a state, matched by its string form (CLI tokens and file ids)."""
        try:
            return self._positions[str(state)]
        except KeyError:
            raise DimensionMismatch(f"unknown state {state!r}") from None

    def support(self) -> np.ndarray:
        """Boolean adjacency of the coupling support {(i, j): W[i, j] > 0}."""
        return self.W > 0.0


@dataclass(frozen=True)
class DerivedMeasures:
    """Conductance, stationary measure, transition matrix and conditional rows.

    ``c``, ``nu`` and ``P`` are the network's cached arrays; ``rho_x`` is
    built on each access.
    """

    net: Network

    @property
    def c(self) -> np.ndarray:
        return self.net.c

    @property
    def nu(self) -> np.ndarray:
        return self.net.nu

    @property
    def P(self) -> np.ndarray:
        return self.net.P

    @property
    def rho_x(self) -> np.ndarray:
        return _readonly(self.net.W / self.net.mu[:, None])


@dataclass(frozen=True)
class BoundaryConfig:
    boundary: tuple
    interior: tuple


@dataclass(frozen=True)
class Irreducibility:
    irreducible: bool
    components: tuple


@dataclass(frozen=True)
class ReweightResult:
    net2: Network
    commutes: bool


def _check_vector(x, n, name) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return x


def build_network(states: Sequence, mu, W, boundary=None) -> Network:
    """Validate inputs and build a :class:`Network`.

    Symmetry of ``W`` is checked to tolerance 1e-12 relative to ``max |W|``,
    so round-off passes at every scale, and then the matrix is stored as the
    exact average ``(W + W.T) / 2`` so downstream identities see exact
    detailed balance.

    Raises
    ------
    AsymmetricCoupling
        ``W`` differs from its transpose beyond tolerance.
    ZeroConductance
        Some row of ``W`` sums to zero.
    NonpositiveMass
        Some ``mu[i] <= 0``.
    """
    states = tuple(states)
    n = len(states)
    if n < 1:
        raise DimensionMismatch("need at least one state")
    if len(set(states)) != n or len(set(map(str, states))) != n:
        raise DimensionMismatch("state identifiers and their string forms must be unique")
    mu = _check_vector(mu, n, "mu")
    W = np.asarray(W, dtype=float)
    if W.shape != (n, n):
        raise DimensionMismatch(f"W must have shape ({n}, {n}), got {W.shape}")
    if not np.all(np.isfinite(W)):
        raise DimensionMismatch("W contains non-finite entries")
    if np.any(W < 0.0):
        raise DimensionMismatch("W contains negative entries")
    gap = np.max(np.abs(W - W.T))
    if gap > SYMMETRY_RTOL * np.max(W):
        raise AsymmetricCoupling(f"W deviates from its transpose by {gap:.3e}")
    if np.any(mu <= 0.0):
        raise NonpositiveMass("all mu atoms must be strictly positive")
    W = 0.5 * (W + W.T)
    row = W.sum(axis=1)
    if np.any(row <= 0.0):
        dead = [states[i] for i in np.flatnonzero(row <= 0.0)]
        raise ZeroConductance(f"states with zero coupling mass: {dead}")
    bidx = None
    if boundary is not None:
        bidx = tuple(sorted(int(i) for i in boundary))
        if bidx and not (0 <= bidx[0] and bidx[-1] < n):
            raise DimensionMismatch("boundary indices out of range")
    return Network(states, _readonly(mu), _readonly(W), bidx)


def symmetrize(W_raw, mu, states=None) -> Network:
    """Build the network of the symmetrized coupling ``(W_raw + W_raw.T) / 2``.

    A symmetric input is a fixed point.  Raises :class:`ZeroConductance`
    if the symmetrization leaves a state without mass.
    """
    W_raw = np.asarray(W_raw, dtype=float)
    if W_raw.ndim != 2 or W_raw.shape[0] != W_raw.shape[1]:
        raise DimensionMismatch("W_raw must be square")
    if np.any(W_raw < 0.0) or not np.all(np.isfinite(W_raw)):
        raise DimensionMismatch("W_raw must be nonnegative and finite")
    n = W_raw.shape[0]
    if states is None:
        states = tuple(range(n))
    return build_network(states, mu, 0.5 * (W_raw + W_raw.T))


def derive(net: Network) -> DerivedMeasures:
    """Conductance, stationary measure, transition matrix, conditional rows."""
    return DerivedMeasures(net)


def reweight(net: Network, p) -> ReweightResult:
    """Replace the base measure by ``beta = p * mu``, keeping the coupling.

    ``commutes`` reports whether ``diag(p)`` commutes with the matrix of the
    coupling operator (relative tolerance 1e-10), which is equivalent to the
    measure built from the reweighted operator being symmetric; it holds
    exactly when ``p`` is constant on every connected component.
    """
    p = _check_vector(p, net.n, "p")
    if np.any(p <= 0.0):
        raise NonpositiveWeight("reweighting density must be strictly positive")
    R = derive(net).rho_x
    comm = p[:, None] * R - R * p[None, :]
    scale = max(1.0, float(np.max(np.abs(p[:, None] * R))))
    commutes = bool(np.max(np.abs(comm)) <= COMMUTE_RTOL * scale)
    net2 = build_network(net.states, p * net.mu, net.W, boundary=net.boundary)
    return ReweightResult(net2, commutes)


def reachable(net: Network, sources) -> np.ndarray:
    """Boolean mask of the states joined to ``sources`` by a support path."""
    seen = np.zeros(net.n, dtype=bool)
    seen[list(sources)] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = np.any(net.W[frontier] > 0.0, axis=0) & ~seen
        seen |= frontier
    return seen


def components(net: Network) -> list:
    """Connected components of the coupling support, ordered by smallest member."""
    seen = np.zeros(net.n, dtype=bool)
    out = []
    for start in range(net.n):
        if not seen[start]:
            comp = reachable(net, [start])
            seen |= comp
            out.append(tuple(np.flatnonzero(comp).tolist()))
    return out


def boundary_config(net: Network, boundary) -> BoundaryConfig:
    """Validate an absorbing boundary; every interior state must reach it."""
    bidx = sorted(set(int(i) for i in boundary))
    if not bidx:
        raise DimensionMismatch("boundary must be nonempty")
    if bidx[0] < 0 or bidx[-1] >= net.n:
        raise DimensionMismatch("boundary index out of range")
    trapped = np.flatnonzero(~reachable(net, bidx)).tolist()
    if trapped:
        raise TrappedInterior(f"interior states cannot reach boundary: {trapped}")
    interior = np.ones(net.n, dtype=bool)
    interior[bidx] = False
    return BoundaryConfig(tuple(bidx), tuple(np.flatnonzero(interior).tolist()))


def irreducibility(net: Network) -> Irreducibility:
    """Connectivity analysis of the coupling support.

    The measure is irreducible iff the support graph has exactly one
    component; otherwise any component ``A`` splits the support into
    ``(A x A) u (A^c x A^c)``.
    """
    comps = components(net)
    return Irreducibility(len(comps) == 1, tuple(comps))


def attainability(net: Network, x: int, A) -> Optional[int]:
    """Smallest ``n >= 1`` with positive n-step mass from ``x`` into ``A``.

    Returns ``None`` when no walk from ``x`` reaches ``A``.  Walk lengths are
    counted on the coupling support, so the answer is exact for the kernel
    powers (positive mass iff a walk of that exact length exists).
    """
    A = sorted(set(int(i) for i in A))
    if not A:
        raise EmptyTargetSet("target set is empty")
    if not (0 <= x < net.n) or A[0] < 0 or A[-1] >= net.n:
        raise DimensionMismatch("state index out of range")
    if not reachable(net, [x])[A].any():
        return None
    adj = net.support().astype(np.int64)
    target = np.zeros(net.n, dtype=bool)
    target[A] = True
    reach = np.zeros(net.n, dtype=np.int64)
    reach[x] = 1
    for n in range(1, 2 * net.n + 1):
        reach = np.minimum(adj.T @ reach, 1)  # states hit in exactly n steps
        if np.any((reach > 0) & target):
            return n
    return None
