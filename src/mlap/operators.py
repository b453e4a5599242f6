"""The coupling operator, Markov operator and graph Laplacian.

For a network with coupling ``W``, base masses ``mu`` and row sums
``nu = W @ 1``:

* ``R f = (W f) / mu``  (coupling operator, symmetric in L2(mu)),
* ``P f = (W f) / nu``  (Markov operator, self-adjoint in L2(nu)),
* ``Delta f = c * f - R f = c * (I - P) f``  (graph Laplacian),

where ``c = nu / mu``.  The weak form ``diag(mu) @ Delta = D_W - W`` is the
symmetric PSD Laplacian matrix whose quadratic form is the energy inner
product (see :mod:`mlap.energy`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativePower
from .net import Network, components, derive


@dataclass(frozen=True)
class OperatorBundle:
    """Dense matrices of the three operators."""

    R_mat: np.ndarray
    P_mat: np.ndarray
    Delta_mat: np.ndarray


def _vec(net: Network, f, name="f") -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n,):
        raise DimensionMismatch(f"{name} must have shape ({net.n},), got {f.shape}")
    return f


def laplacian_matrix(net: Network) -> np.ndarray:
    """Weak-form Laplacian ``D_W - W`` (symmetric PSD)."""
    return np.diag(net.nu) - net.W


def operator_bundle(net: Network) -> OperatorBundle:
    delta = net.c[:, None] * (np.eye(net.n) - net.P)
    return OperatorBundle(derive(net).rho_x, net.P, delta)


def apply_R(net: Network, f) -> np.ndarray:
    """(R f)_i = sum_j W[i, j] f_j / mu_i.  R(1) equals the conductance c."""
    f = _vec(net, f)
    return net.W @ f / net.mu


def apply_P(net: Network, f) -> np.ndarray:
    """Markov action (P f)_i = sum_j P[i, j] f_j; fixes constants."""
    f = _vec(net, f)
    return net.W @ f / net.nu


def apply_Delta(net: Network, f) -> np.ndarray:
    """Laplacian action Delta f = c * f - R f."""
    f = _vec(net, f)
    return net.c * f - net.W @ f / net.mu


def markov_power(net: Network, n: int) -> np.ndarray:
    """n-step transition matrix by repeated multiplication; P_0 = I."""
    if n < 0:
        raise NegativePower("power index must be >= 0")
    out = np.eye(net.n)
    for _ in range(n):
        out = out @ net.P
    return out


def rho_n(net: Network, A, B, n: int) -> float:
    """n-step pair mass sum_{i in A} nu_i (P^n chi_B)_i; rho_0 = nu(A & B)."""
    if n < 0:
        raise NegativePower("power index must be >= 0")
    chi_B = np.zeros(net.n)
    chi_B[list(B)] = 1.0
    v = chi_B
    for _ in range(n):
        v = net.P @ v
    A = list(A)
    return float(np.sum(net.nu[A] * v[A]))


def spectrum_P(net: Network) -> np.ndarray:
    """Sorted real eigenvalues of P via its nu-symmetrized conjugate.

    The conjugate ``S = D^{1/2} P D^{-1/2}`` with ``D = diag(nu)`` equals
    ``W_ij / sqrt(nu_i nu_j)`` and is symmetric, so the spectrum is real and
    contained in [-1, 1]; eigenvalue 1 has multiplicity equal to the number
    of support components.
    """
    s = np.sqrt(net.nu)
    S = net.W / np.outer(s, s)
    return np.sort(np.linalg.eigvalsh(S))


def harmonic_basis(net: Network) -> np.ndarray:
    """L2(nu)-orthonormal basis of the harmonic space modulo constants.

    Harmonic functions (``Delta f = 0``) on a finite network are exactly the
    functions constant on each support component, so the basis has
    ``#components - 1`` vectors, each with zero nu-mean.  Returns an array of
    shape ``(k, n)``; empty when the network is irreducible.
    """
    nu = net.nu
    comps = components(net)
    k = len(comps) - 1
    if k == 0:
        return np.zeros((0, net.n))
    basis = []
    for comp in comps[:-1]:
        v = np.zeros(net.n)
        v[list(comp)] = 1.0
        v = v - np.dot(nu, v) / np.sum(nu)  # zero nu-mean
        for b in basis:
            v = v - np.dot(nu * b, v) * b
        v = v / np.sqrt(np.dot(nu * v, v))
        basis.append(v)
    return np.array(basis)


def iota_adjoint_residual(net: Network, f, g) -> float:
    """Normalized gap in the embedding-adjoint identity.

    Compares the energy inner product ``<f, g>_E`` with
    ``<f, (I - P) g>_{L2(nu)}``; the two agree exactly at finite size, so the
    returned residual is bounded by 1e-10 on valid inputs.
    """
    f = _vec(net, f)
    g = _vec(net, g, "g")
    lhs = float(f @ laplacian_matrix(net) @ g)
    rhs = float(np.sum(net.nu * f * (g - net.P @ g)))
    scale = 1.0 + float(np.linalg.norm(f) * np.linalg.norm(g))
    return abs(lhs - rhs) / scale


def mass_transport_check(net: Network, f, A) -> tuple:
    """Pair (integral of f over A d(mu), integral of R(chi_A f / c) d(mu)).

    The two agree to relative 1e-10: pushing the localized density through
    the coupling operator preserves its mu-mass because nu is stationary.
    """
    f = _vec(net, f)
    chi = np.zeros(net.n)
    chi[list(A)] = 1.0
    lhs = float(np.sum(net.mu * chi * f))
    rhs = float(np.sum(net.mu * apply_R(net, chi * f / net.c)))
    return lhs, rhs


def j_adjoint_residual(net: Network, phi, f) -> float:
    """Normalized gap between ``<phi, f>_E`` and ``<phi, Delta f>_{L2(mu)}``."""
    phi = _vec(net, phi, "phi")
    f = _vec(net, f)
    L = laplacian_matrix(net)
    lhs = float(phi @ L @ f)
    rhs = float(np.sum(net.mu * phi * apply_Delta(net, f)))
    scale = 1.0 + float(np.linalg.norm(phi) * np.linalg.norm(f))
    return abs(lhs - rhs) / scale
