"""Finite atomic symmetric-measure networks.

A network is a finite state space with strictly positive atom masses ``mu``
and a symmetric nonnegative coupling matrix ``W`` whose entry ``W[i, j]``
is the mass the coupling measure puts on the ordered pair ``(i, j)``.
Diagonal entries are allowed.  Every row sum must be strictly positive and
the conductance ``c = row_sum(W) / mu`` finite and positive; the loader
checks both.

:class:`Network` is the one holder of derived state: the conductance ``c``,
the stationary measure ``nu = c * mu`` (equal to the row sums of ``W``),
the row-stochastic transition matrix ``P[i, j] = W[i, j] / nu[i]``, the
nonzero count and the CSR copy of ``W`` that the sparse solvers read are
computed once per network, on first use, and cached on it; the conditional
rows ``rho_x[i, j] = W[i, j] / mu[i]`` are built on each access.  The
support graph is walked one frontier step at a time by :func:`_step`, which
serves :func:`reachable` and :func:`attainability`, and every set of state
indices is checked by :func:`index_set`.
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

    @property
    def rho_x(self) -> np.ndarray:
        """Conditional rows ``W / mu``, built on each access."""
        return _readonly(self.W / self.mu[:, None])

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


def index_set(n: int, idx, what: str = "index set") -> tuple:
    """Sorted distinct state indices of ``idx``.

    Raises :class:`DimensionMismatch` for an entry that is not an integer or
    lies outside ``range(n)``.
    """
    try:
        a = np.asarray(idx if isinstance(idx, np.ndarray) else list(idx))
    except (TypeError, ValueError, OverflowError):
        raise DimensionMismatch(f"{what} must be a list of state indices") from None
    if a.size == 0:
        return ()
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise DimensionMismatch(f"{what} must hold integer state indices")
    out = sorted(set(a.tolist()))
    if out[0] < 0 or out[-1] >= n:
        raise DimensionMismatch(f"{what} index out of range [0, {n})")
    return tuple(out)


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
        Some conductance ``row_sum(W) / mu`` is zero: the row sums to zero,
        or the quotient underflows.
    DimensionMismatch
        The symmetrized ``W``, one of its row sums or one conductance
        overflows to inf.
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
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        W = 0.5 * (W + W.T)
        c = W.sum(axis=1) / mu
    # W >= 0 and mu > 0, so an inf coupling or row sum makes c inf too
    if not np.all(np.isfinite(c)):
        bad = [states[i] for i in np.flatnonzero(~np.isfinite(c))]
        raise DimensionMismatch(f"conductance W / mu overflows at states: {bad}")
    if np.any(c <= 0.0):  # a zero row, or a row sum that underflows against mu
        dead = [states[i] for i in np.flatnonzero(c <= 0.0)]
        raise ZeroConductance(f"conductance W / mu is zero at states: {dead}")
    bidx = None if boundary is None else index_set(n, boundary, "boundary")
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


def derive(net: Network) -> Network:
    """Return ``net``, which holds every derived measure itself.

    Kept only because the benchmark's per-layer metric ``net.derive_s`` names
    it; it goes when the benchmark drops that metric.
    """
    return net


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
    R = net.rho_x
    comm = p[:, None] * R - R * p[None, :]
    scale = max(1.0, float(np.max(np.abs(p[:, None] * R))))
    commutes = bool(np.max(np.abs(comm)) <= COMMUTE_RTOL * scale)
    net2 = build_network(net.states, p * net.mu, net.W, boundary=net.boundary)
    return ReweightResult(net2, commutes)


def _step(net: Network, states: np.ndarray) -> np.ndarray:
    """Mask of the states with positive coupling from some state of the mask ``states``."""
    return np.any(net.W[states] > 0.0, axis=0)


def reachable(net: Network, sources) -> np.ndarray:
    """Boolean mask of the states joined to ``sources`` by a support path."""
    seen = np.zeros(net.n, dtype=bool)
    seen[list(sources)] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = _step(net, frontier) & ~seen
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
    bidx = index_set(net.n, boundary, "boundary")
    if not bidx:
        raise DimensionMismatch("boundary must be nonempty")
    trapped = np.flatnonzero(~reachable(net, bidx)).tolist()
    if trapped:
        raise TrappedInterior(f"interior states cannot reach boundary: {trapped}")
    interior = np.ones(net.n, dtype=bool)
    interior[list(bidx)] = False
    return BoundaryConfig(bidx, tuple(np.flatnonzero(interior).tolist()))


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
    powers (positive mass iff a walk of that exact length exists).  The set
    of states hit by a walk of exactly ``k`` steps is one :func:`_step` from
    the set for ``k - 1``; since a walk of length ``k`` extends to one of
    length ``k + 2``, these sets only grow along each parity, and ``2n``
    steps reach every attainable state.
    """
    A = list(index_set(net.n, A, "target set"))
    if not A:
        raise EmptyTargetSet("target set is empty")
    (x,) = index_set(net.n, [x], "start state")
    if not reachable(net, [x])[A].any():
        return None
    hit = np.zeros(net.n, dtype=bool)
    hit[x] = True
    for k in range(1, 2 * net.n + 1):
        hit = _step(net, hit)  # states hit in exactly k steps
        if hit[A].any():
            return k
    return None
