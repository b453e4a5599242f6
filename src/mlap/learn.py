"""Regularized least squares in the energy norm and special-case networks.

The objective is

    Q(h) = ||psi - h||^2_{L2(mu)} + gamma * ||h||^2_E,

minimized in closed form by the SPD weak-form system
``(diag(mu) + gamma * (D_W - W)) h = diag(mu) psi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeGamma,
    NotMeasurePreserving,
    SymmetryViolation,
    ValidationError,
)
from .factor import spd_factor
from .net import Network, build_network
from .operators import laplacian_matrix


@dataclass(frozen=True)
class LearnProblem:
    net: Network
    psi: np.ndarray
    gamma: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (self.net.n,) or not np.all(np.isfinite(psi)):
            raise DimensionMismatch("psi must be a finite length-n vector")
        object.__setattr__(self, "psi", psi)
        # written so that NaN fails too
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise NegativeGamma(f"gamma must be finite and >= 0, got {self.gamma}")


def objective(problem: LearnProblem, h) -> float:
    """Value of the penalized least-squares objective at ``h``."""
    h = np.asarray(h, dtype=float)
    net = problem.net
    misfit = float(np.sum(net.mu * (problem.psi - h) ** 2))
    penalty = float(h @ laplacian_matrix(net) @ h)
    return misfit + problem.gamma * penalty


def solve_regularized(problem: LearnProblem) -> np.ndarray:
    """Closed-form minimizer of the objective.

    gamma = 0 returns psi exactly; gamma -> infinity drives the solution to
    the constant mu-weighted mean of psi on a connected network.  The
    system matrix ``diag(mu + gamma * nu) - gamma * W`` is symmetric
    positive definite for every gamma >= 0; its factorization verifies
    positive pivots (see :mod:`mlap.factor`).
    """
    net = problem.net
    d = net.mu + problem.gamma * net.nu
    factor = spd_factor(net, np.arange(net.n), d, problem.gamma)
    return factor.solve(net.mu * problem.psi)


def optimality_check(problem: LearnProblem, h, trials: int = 20, eps: float = 1e-4, seed: int = 0) -> float:
    """Largest objective decrease found along random unit perturbations.

    For the solver output no perturbation decreases Q beyond round-off, so
    the returned maximum is <= 1e-10 * (1 + Q(h)).
    """
    if trials < 10:
        raise DimensionMismatch("need trials >= 10")
    h = np.asarray(h, dtype=float)
    rng = np.random.default_rng(seed)
    q0 = objective(problem, h)
    worst = -np.inf
    for _ in range(trials):
        k = rng.standard_normal(problem.net.n)
        k /= np.linalg.norm(k)
        worst = max(worst, q0 - objective(problem, h + eps * k))
        worst = max(worst, q0 - objective(problem, h - eps * k))
    return float(worst)


def product_measure_network(mu, r) -> Network:
    """Product-coupling network with atoms ``W[i, j] = r_i mu_i r_j mu_j``.

    Requires ``mu`` to be a probability vector and ``r`` nonnegative with
    positive mean.  The derived conductance is ``c_i = E_mu(r) * r_i`` and
    the energy norm has the closed form
    ``E_mu(r) E_{mu_r}(f^2) - E_{mu_r}(f)^2`` with ``d mu_r = r d mu``.
    """
    mu = np.asarray(mu, dtype=float)
    r = np.asarray(r, dtype=float)
    if mu.shape != r.shape or mu.ndim != 1:
        raise DimensionMismatch("mu and r must be equal-length vectors")
    if abs(float(np.sum(mu)) - 1.0) > 1e-12:
        raise ValidationError("mu must be a probability vector")
    if np.any(r < 0.0):
        raise DimensionMismatch("r must be nonnegative")
    w = r * mu
    return build_network(tuple(range(len(mu))), mu, np.outer(w, w))


def product_energy_closed_form(mu, r, f) -> float:
    """Closed-form energy norm on the product-coupling network."""
    mu = np.asarray(mu, dtype=float)
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    e_r = float(np.sum(mu * r))
    e_f = float(np.sum(mu * r * f))
    e_f2 = float(np.sum(mu * r * f * f))
    return e_r * e_f2 - e_f**2


def product_alpha_map(mu, r, f) -> np.ndarray:
    """Isometry of the product-coupling energy space into L2(mu_r)."""
    mu = np.asarray(mu, dtype=float)
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    e_r = float(np.sum(mu * r))
    e_f = float(np.sum(mu * r * f))
    return (e_r * f - e_f) / np.sqrt(e_r)


def joining_network(mu, S) -> Network:
    """Network of a measure-preserving endomorphism: ``W[i, j] = mu_i [S(i) = j]``.

    Accepts the map only when the induced pair measure is flip-invariant,
    i.e. ``mu_i [S(i) = j] = mu_j [S(j) = i]`` for every pair; the
    Laplacian of the accepted network is the coboundary ``f - f o S``.

    Raises
    ------
    NotMeasurePreserving
        preimage masses do not reproduce ``mu``.
    SymmetryViolation
        the symmetry condition fails; ``pair`` carries an offending (i, j).
    """
    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    S = [int(s) for s in S]
    if len(S) != n or any(not 0 <= s < n for s in S):
        raise DimensionMismatch("S must map state indices to state indices")
    pullback = np.zeros(n)
    for j, sj in enumerate(S):
        pullback[sj] += mu[j]
    if np.max(np.abs(pullback - mu)) > 1e-12 * max(1.0, float(np.max(mu))):
        raise NotMeasurePreserving("mu o S^{-1} != mu")
    for i in range(n):
        j = S[i]
        lhs = mu[i]
        rhs = mu[j] if S[j] == i else 0.0
        if abs(lhs - rhs) > 1e-12 * max(1.0, lhs, rhs):
            raise SymmetryViolation(
                f"pair measure is not flip-invariant at ({i}, {j})", pair=(i, j)
            )
    W = np.zeros((n, n))
    for i in range(n):
        W[i, S[i]] += mu[i]
    return build_network(tuple(range(n)), mu, W)


def diagonal_network(nu, mu=None) -> Network:
    """Purely diagonal coupling: pair mass ``nu_i`` on every ``(i, i)``.

    The induced chain is deterministic (P is the identity), the Laplacian
    vanishes, and every function has zero energy.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or np.any(nu <= 0.0):
        raise DimensionMismatch("nu must be a strictly positive vector")
    if mu is None:
        mu = np.ones_like(nu)
    return build_network(tuple(range(len(nu))), mu, np.diag(nu))
