r"""Killed chains, Green's functions and reproducing kernels.

Formula sheet
-------------
Every Gram entry produced here is reproducible by hand from the following
conventions.  Fix a network with transition matrix ``P`` and stationary
weights ``nu`` (row sums of ``W``), and a nonempty absorbing boundary
whose complement (the interior) reaches it along the coupling support.

* ``P_int``: restriction of ``P`` to interior rows and columns.  It is
  substochastic with spectral radius < 1, so the killed chain is
  transient.
* Green matrix: ``G = (I - P_int)^{-1} = sum_n P_int^n``.
* Green indicator: for ``A`` inside the interior,
  ``G_A = G @ chi_A`` on the interior, extended by zero on the boundary.
  It satisfies ``(Delta G_A)_i = c_i * chi_A(i)`` for interior ``i`` and
  ``<f, G_A>_E = sum_{i in A} f_i nu_i`` for every ``f`` vanishing on the
  boundary.
* Killed pair masses use the full stationary weights restricted to the
  interior: ``rho_n(A x B) = sum_{i in A} nu_i (P_int^n chi_B)_i``.
* Kernels over set families:

  - ``K(A, B)   = sum_n rho_n(A x B) = <chi_A, G chi_B>_{L2(nu)}``
    (boundary required; sets inside the interior),
  - ``k_rho(A, B) = nu(A & B) - W-mass(A x B)`` (the indicator Gram),
  - ``K_nu(A, B)  = nu(A & B)``,
  - ``N_rho(A, B) = ||G_A - G_B||^2_E`` (boundary required); it is
    conditionally negative definite and embeds as squared Hilbert
    distances of the points ``alpha(A) = G_A``.

Worked example: the 3-path with unit masses and unit couplings,
boundary {2}.  Then ``nu = (1, 2, 1)``, ``P_int = [[0, 1], [1/2, 0]]``,
``G = [[2, 2], [1, 2]]``, and
``K({0}, {0}) = nu_0 * G[0, 0] = 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    FamilyTooSmall,
    MissingBoundary,
    SetMeetsBoundary,
    SingularSystem,
    TrappedInterior,
)
from .energy import KernelGram, incidence, indicator_gram, normalize_family
from .factor import DenseSPD, SparseSPD, spd_factor
from .net import BoundaryConfig, Network, boundary_config
from .operators import harmonic_basis, laplacian_matrix

KERNEL_IDS = ("K", "k_rho", "K_nu", "N_rho")
GREEN_METHODS = ("solve", "neumann")
RADIUS_MARGIN = 1e-12
NEUMANN_MAX_TERMS = 1000000


@dataclass(frozen=True)
class KilledRestriction:
    """The killed chain on the interior of a boundary.

    ``factor`` is the one factorization of the interior weak form
    ``L_int = diag(nu_int) - W_int = diag(nu_int) (I - P_int)`` that every
    Green column of a public call comes from.
    """

    net: Network
    config: BoundaryConfig
    spectral_radius: float
    factor: DenseSPD | SparseSPD

    @cached_property
    def P_int(self) -> np.ndarray:
        """Interior restriction of P; only :meth:`neumann` reads it, never the factor."""
        idx = list(self.config.interior)
        return self.net.W[np.ix_(idx, idx)] / self.net.nu[idx][:, None]

    def green(self, B: np.ndarray) -> np.ndarray:
        """``(I - P_int)^{-1} B = L_int^{-1} diag(nu_int) B`` for a k x m matrix ``B``."""
        nu_int = self.net.nu[list(self.config.interior)]
        return self.factor.solve(nu_int[:, None] * B)

    def operator(self, method: str, tol: float) -> np.ndarray:
        """Green matrix ``(I - P_int)^{-1}`` on the interior.

        ``method`` is "solve" (the factorization) or "neumann" (:meth:`neumann`,
        truncated at tail bound ``tol``); both agree entrywise and all entries
        are nonnegative.
        """
        if method == "neumann":
            return self.neumann(tol)
        if method == "solve":
            return self.green(np.eye(len(self.config.interior)))
        raise DimensionMismatch(f"method must be one of {GREEN_METHODS}, got {method!r}")

    def neumann(self, tol: float) -> np.ndarray:
        """Truncated Neumann series ``sum_{n<N} P_int^n``: ``G`` by a route apart from the factor.

        Doubling, ``S <- S + Q S`` and ``Q <- Q Q`` with ``Q = P_int^N``, stops
        at the first ``N`` whose tail bound ``max|P_int^N| / (1 - r)`` is below
        ``tol``.  Raises :class:`TrappedInterior` when the bound ``r^N * r / (1 - r)``
        needs more than ``NEUMANN_MAX_TERMS`` terms, or when the tail is still
        above ``tol`` once ``N`` reaches the first power of two at or above that cap.
        """
        if not tol > 0.0:
            raise DimensionMismatch("tol must be positive")
        r = self.spectral_radius
        if r > 0.0 and math.log(tol * (1.0 - r) / r) / math.log(r) > NEUMANN_MAX_TERMS:
            raise TrappedInterior(
                f"Neumann series needs more than {NEUMANN_MAX_TERMS} terms at radius {r}"
            )
        S = np.eye(len(self.config.interior))
        Q = self.P_int
        N = 1
        while (tail := float(np.max(Q, initial=0.0)) / (1.0 - r)) >= tol:
            if N >= NEUMANN_MAX_TERMS:
                raise TrappedInterior(
                    f"Neumann series stopped at {N} terms with tail bound {tail:.3e}"
                )
            S = S + Q @ S
            Q = Q @ Q
            N *= 2
        return S


def killed_restriction(net: Network, boundary) -> KilledRestriction:
    """Factor the interior weak form once and find the spectral radius (< 1).

    The radius of ``P_int`` is ``1 - lambda_min`` of the nu-symmetrized
    ``L_int``: by Perron-Frobenius the radius of the nonnegative matrix
    ``D^{1/2} P_int D^{-1/2}`` is its top eigenvalue.
    """
    cfg = boundary_config(net, boundary)
    idx = list(cfg.interior)
    nu_int = net.nu[idx]
    try:
        factor = spd_factor(net, idx, nu_int)
    except SingularSystem as exc:
        raise TrappedInterior(f"killed chain is not transient: {exc}") from None
    radius = 1.0 - factor.lowest_eigenvalue(np.sqrt(nu_int)) if idx else 0.0
    if radius >= 1.0 - RADIUS_MARGIN:
        raise TrappedInterior(f"killed chain is not transient: radius {radius}")
    return KilledRestriction(net, cfg, radius, factor)


def green_operator(net: Network, boundary, method: str = "solve", tol: float = 1e-12) -> np.ndarray:
    """Green matrix ``(I - P_int)^{-1}`` on the interior; see :meth:`KilledRestriction.operator`."""
    return killed_restriction(net, boundary).operator(method, tol)


def _interior_family(net: Network, family, cfg: BoundaryConfig) -> tuple:
    fam = normalize_family(net, family, allow_empty=True)
    bset = set(cfg.boundary)
    for A in fam:
        if set(A) & bset:
            raise SetMeetsBoundary("kernel sets must lie inside the interior")
    return fam


def _greens(net: Network, boundary, family):
    """Green indicators of a family from one killed restriction and one solve.

    Returns the validated family, its incidence matrix ``X``, the Green
    indicators as the columns of an ``(n, m)`` array (zero on the boundary,
    ``(I - P_int)^{-1} X^T`` inside) and the killed restriction.
    """
    killed = killed_restriction(net, boundary)
    fam = _interior_family(net, family, killed.config)
    X = incidence(net, fam)
    idx = list(killed.config.interior)
    greens = np.zeros((net.n, len(fam)))
    greens[idx] = killed.green(X[:, idx].T)
    return fam, X, greens, killed


def green_indicator(net: Network, boundary, A) -> np.ndarray:
    """Green function of a set: zero on the boundary, ``G @ chi_A`` inside."""
    _, _, greens, _ = _greens(net, boundary, [A])
    return greens[:, 0]


def kernel_gram(net: Network, kernel_id: str, family, boundary=None) -> KernelGram:
    """Gram matrix of one of the four set kernels over a family.

    ``K`` and ``N_rho`` describe the killed chain and require a boundary;
    ``k_rho`` and ``K_nu`` are boundary-free.  ``K``, ``k_rho`` and
    ``K_nu`` Grams are PSD; ``N_rho`` is conditionally negative definite.
    """
    if kernel_id not in KERNEL_IDS:
        raise DimensionMismatch(f"kernel_id must be one of {KERNEL_IDS}")
    if kernel_id == "k_rho":
        return indicator_gram(net, family)
    if kernel_id == "K_nu":
        fam = normalize_family(net, family, allow_empty=True)
        X = incidence(net, fam)
        return KernelGram("K_nu", fam, (X * net.nu) @ X.T)
    if boundary is None:
        raise MissingBoundary(f"kernel {kernel_id} requires an absorbing boundary")
    fam, X, greens, _ = _greens(net, boundary, family)
    if kernel_id == "K":
        gram = (X * net.nu) @ greens
        return KernelGram("K", fam, 0.5 * (gram + gram.T))
    # N_rho: squared energy distances of Green indicators
    L = laplacian_matrix(net)
    gram = np.zeros((len(fam), len(fam)))
    for a in range(len(fam)):
        diffs = greens[:, [a]] - greens[:, :a]
        gram[a, :a] = gram[:a, a] = np.sum(diffs * (L @ diffs), axis=0)
    return KernelGram("N_rho", fam, gram)


def isometry_suite(net: Network, boundary, family) -> dict:
    """Three independent evaluations of the killed-kernel norms.

    For each set ``A`` the report carries the kernel diagonal ``K(A, A)``
    (factored solve), the energy norm of the Green indicator (weak-form
    quadratic), and the L2(nu) norm of ``(I - P_int)^{-1/2} chi_A``
    (eigendecomposition of the symmetrized interior operator), together
    with the worst pairwise gap between ``<G_A, G_B>_E`` and ``K(A, B)``.
    """
    fam, X, greens, killed = _greens(net, boundary, family)
    gram = (X * net.nu) @ greens
    gram = 0.5 * (gram + gram.T)
    energies = greens.T @ laplacian_matrix(net) @ greens

    # (I - P_int)^{-1/2} through the nu-symmetrized conjugate.
    idx = list(killed.config.interior)
    s = np.sqrt(net.nu[idx])
    S = net.W[np.ix_(idx, idx)] / np.outer(s, s)
    evals, evecs = np.linalg.eigh(np.eye(len(idx)) - S)
    inv_sqrt_sym = (evecs * (1.0 / np.sqrt(evals))) @ evecs.T
    half = inv_sqrt_sym @ (s[:, None] * X[:, idx].T)  # columns D^{1/2} (I-P)^{-1/2} chi_A

    three = np.array([np.diag(gram), np.diag(energies), np.sum(half * half, axis=0)])
    rows = [
        {"set": A, "kernel_diag": float(k), "green_energy": float(e), "l2_half_power": float(h)}
        for A, (k, e, h) in zip(fam, three.T)
    ]
    scale = np.maximum(1.0, np.abs(three[0]))
    spread = (np.max(three, axis=0) - np.min(three, axis=0)) / scale
    pair_gap = np.abs(energies - gram) / np.maximum(1.0, np.abs(gram))
    return {
        "per_set": rows,
        "max_norm_spread": float(np.max(spread, initial=0.0)),
        "max_pair_gap": float(np.max(pair_gap, initial=0.0)),
    }


def mu_f_rkhs_norm(net: Network, f, family=None) -> float:
    """Norm of the induced set function in the indicator-kernel space.

    Uses the ``k_rho`` Gram pseudoinverse on the vector of energy pairings
    with the family indicators; for ``f`` in the indicator span of the
    family (modulo constants and harmonics) the value equals the energy
    norm of ``f``.  Raises :class:`FamilyTooSmall` when ``f`` lies outside
    that span.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n,):
        raise DimensionMismatch("f must be a length-n vector")
    if family is None:
        family = [[i] for i in range(net.n)]
    fam = normalize_family(net, family)
    X = incidence(net, fam)
    # Span membership is decided directly in vector space, independently of
    # the Gram route being verified.
    M = np.vstack([X, np.ones(net.n), harmonic_basis(net)]).T
    coef, *_ = np.linalg.lstsq(M, f, rcond=None)
    defect = float(np.linalg.norm(f - M @ coef))
    if defect > 1e-8 * (1.0 + float(np.linalg.norm(f))):
        raise FamilyTooSmall("f is outside the indicator span of the family")
    gram = indicator_gram(net, fam).gram
    m_vec = X @ (laplacian_matrix(net) @ f)  # mu_f(A) = <chi_A, f>_E for every A
    coeffs = np.linalg.pinv(gram, rcond=1e-12) @ m_vec
    return float(np.sqrt(max(float(coeffs @ gram @ coeffs), 0.0)))
