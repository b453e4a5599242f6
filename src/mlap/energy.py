"""Finite-energy Hilbert space: inner products, dipoles, projections.

The energy inner product of two functions on the state space is

    <f, g>_E = 1/2 * sum_ij W[i, j] (f_i - f_j)(g_i - g_j) = f' (D_W - W) g,

a seminorm that vanishes exactly on functions constant per support
component.  Elements are treated modulo constants; the canonical
representative has zero nu-weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularSystem, UnbalancedSets
from .factor import spd_factor
from .net import Network, boundary_config, components, index_set
from .operators import apply_Delta, apply_P, laplacian_matrix

BALANCE_ATOL = 1e-12


@dataclass(frozen=True)
class EnergyElement:
    """Function on states considered modulo constants.

    ``canonical`` is True when ``values`` is the zero-nu-mean representative.
    """

    values: np.ndarray
    canonical: bool


@dataclass(frozen=True)
class DipoleSolution:
    v: EnergyElement
    kind: str  # "mu" | "nu"
    A: tuple
    B: tuple
    residual: float


@dataclass(frozen=True)
class KernelGram:
    """PSD (or conditionally negative definite) Gram over a set family."""

    kernel_id: str
    family: tuple
    gram: np.ndarray


def normalize_family(net: Network, family, allow_empty: bool = False) -> tuple:
    """Validate a family of index subsets; duplicate sets are permitted."""
    fam = tuple(index_set(net.n, A, "set family member") for A in family)
    if not allow_empty and not all(fam):
        raise DimensionMismatch("set family members must be nonempty")
    return fam


def indicator(net: Network, A) -> np.ndarray:
    chi = np.zeros(net.n)
    chi[list(index_set(net.n, A))] = 1.0
    return chi


def incidence(net: Network, family) -> np.ndarray:
    """0/1 matrix with one row per set of ``family`` and one column per state."""
    X = np.zeros((len(family), net.n))
    for a, A in enumerate(family):
        X[a, list(index_set(net.n, A))] = 1.0
    return X


def canonicalize(net: Network, f) -> EnergyElement:
    """Zero-nu-mean representative of the energy class of ``f``."""
    f = np.asarray(f, dtype=float)
    return EnergyElement(f - np.dot(net.nu, f) / np.sum(net.nu), True)


def energy_inner(net: Network, f, g) -> float:
    """Energy inner product <f, g>_E; invariant under adding constants."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (net.n,) or g.shape != (net.n,):
        raise DimensionMismatch("f and g must be length-n vectors")
    return float(f @ laplacian_matrix(net) @ g)


def indicator_gram(net: Network, family) -> KernelGram:
    """Gram of indicator functions: G[a, b] = nu(A & B) - W-mass(A x B).

    The matrix is PSD; diagonal entries equal the coupling mass between a
    set and its complement.  Computed from set masses, not from the
    Laplacian, so it is an independent route to the energy of indicators.
    """
    fam = normalize_family(net, family)
    X = incidence(net, fam)
    gram = (X * net.nu) @ X.T - X @ net.W @ X.T
    return KernelGram("k_rho", fam, 0.5 * (gram + gram.T))


def royden_project(net: Network, f) -> dict:
    """Split ``f = d + h`` with ``h`` harmonic (constant per component).

    ``h`` carries the per-component nu-means of ``f``; ``d`` has zero
    nu-mean on every component, lies in the indicator span, and is
    energy-orthogonal to ``h``.  Both parts are returned canonicalized.
    """
    f = np.asarray(f, dtype=float)
    nu = net.nu
    h = np.zeros(net.n)
    for comp in components(net):
        idx = list(comp)
        h[idx] = np.dot(nu[idx], f[idx]) / np.sum(nu[idx])
    d = f - h
    return {"d": canonicalize(net, d), "h": canonicalize(net, h)}


def dipole(net: Network, kind: str, A, B, boundary=None) -> DipoleSolution:
    """Solve for the energy element whose Laplacian is an indicator difference.

    kind "mu":  Delta v = chi_A - chi_B       (requires mu(A) = mu(B)),
    kind "nu":  Delta v = c * (chi_A - chi_B) (requires nu(A) = nu(B)).

    Without a boundary the stated mass balance is necessary on a finite
    space (the Laplacian image integrates to zero against mu) and must hold
    per support component.  The singular weak form is then grounded: the
    last state of each component is pinned to zero and the rest solved as a
    Dirichlet problem, exact because each component's rows sum to zero.
    Subtracting each component's mean gives the minimum-norm solution,
    returned canonicalized.  With a Dirichlet boundary the balance condition
    is dropped and the solution is pinned to zero on the boundary.
    """
    if kind not in ("mu", "nu"):
        raise DimensionMismatch(f"kind must be 'mu' or 'nu', got {kind!r}")
    A = index_set(net.n, A, "A")
    B = index_set(net.n, B, "B")
    chi = indicator(net, A) - indicator(net, B)
    weight = net.mu if kind == "mu" else net.nu
    b = weight * chi
    target = chi if kind == "mu" else net.c * chi

    free = boundary is None
    if free:
        scale = max(1.0, float(np.sum(np.abs(b))))
        if abs(float(np.sum(b))) > BALANCE_ATOL * scale:
            name = "mu" if kind == "mu" else "nu"
            raise UnbalancedSets(f"{name}(A) != {name}(B); dipole has no solution")
        comps = [list(comp) for comp in components(net)]
        for comp in comps:
            if abs(float(np.sum(b[comp]))) > BALANCE_ATOL * scale:
                raise SingularSystem(
                    "sets meet distinct components; system is inconsistent"
                )
        boundary = [comp[-1] for comp in comps]

    interior = list(boundary_config(net, boundary).interior)
    v = np.zeros(net.n)
    if interior:
        v[interior] = spd_factor(net, interior, net.nu[interior]).solve(b[interior])
    if free:
        for comp in comps:
            v[comp] -= np.mean(v[comp])
        elem = canonicalize(net, v)
        res_vec = apply_Delta(net, elem.values) - target
    else:
        elem = EnergyElement(v, False)
        res_vec = (apply_Delta(net, v) - target)[interior]
    residual = float(np.linalg.norm(res_vec) / (1.0 + np.linalg.norm(target)))
    return DipoleSolution(elem, kind, A, B, residual)


def mu_f(net: Network, f, A) -> float:
    """Induced set function <chi_A, f>_E; its mu-density is Delta f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n,):
        raise DimensionMismatch("f must be a length-n vector")
    return energy_inner(net, indicator(net, A), f)


def norm_bounds_report(net: Network, f) -> dict:
    """Slacks of the Laplacian norm inequalities for one function.

    All three reported slacks are nonnegative up to 1e-12 round-off:

    * ``energy >= 1/2 * ||c^{-1} Delta f||^2_{L2(nu)}``,
    * ``||Delta f||^2_{L2(mu/c)} <= 2 * energy``,
    * ``||f - P f||^2_{L2(nu)}  <= 2 * energy``.
    """
    f = np.asarray(f, dtype=float)
    energy = energy_inner(net, f, f)
    delta = apply_Delta(net, f)
    half_grad = float(np.sum(net.nu * (delta / net.c) ** 2))
    delta_c_inv_mu = float(np.sum((net.mu / net.c) * delta**2))
    defect = float(np.sum(net.nu * (f - apply_P(net, f)) ** 2))
    return {
        "energy": energy,
        "delta_seminorm_nu": half_grad,
        "delta_norm_c_inv_mu": delta_c_inv_mu,
        "one_step_defect_nu": defect,
        "slack_half_bound": energy - 0.5 * half_grad,
        "slack_delta_bound": 2.0 * energy - delta_c_inv_mu,
        "slack_defect_bound": 2.0 * energy - defect,
    }
