"""Verification suites: run the package's numeric identities on a network.

Each suite evaluates a battery of identities and inequality bounds and
reports one named residual per check.  Residuals are normalized so that a
check passes iff ``residual <= tol``; inequality checks report the
violated amount (zero when satisfied).  Failures are reported, never
raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import energy as en
from . import green as gr
from . import learn as ln
from . import operators as op
from . import paths as pa
from .net import Network, build_network, components, symmetrize
from .netio import network_checksum

SUITE_IDS = ("core", "operators", "energy", "dissipation", "green", "rkhs", "learn", "all")
# A correct sampler fails ``empirical-transitions`` with probability at most
# this much per run.
TRANSITION_FALSE_ALARM = 1e-6
# ``monte-carlo-energy`` allows this many standard errors per trial.  With a
# normal estimator the nominal two-sided false-alarm rate is 2 * (1 - Phi(4.0))
# ~ 6.3e-5 per trial, ~1.3e-4 per suite run over its two trials.
MC_ENERGY_STDERRS = 4.0


@dataclass(frozen=True)
class IdentityResult:
    name: str
    residual: float
    tol: float
    passed: bool


@dataclass
class Report:
    command: str
    checksum: str
    suite: str
    seed: int
    results: list = field(default_factory=list)
    passed: bool = True
    elapsed_s: float = 0.0

    def check(self, name: str, residual: float, tol: float) -> None:
        ok = bool(residual <= tol)
        self.results.append(IdentityResult(name, float(residual), float(tol), ok))
        self.passed = self.passed and ok

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "checksum": self.checksum,
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "results": [
                {"name": r.name, "residual": r.residual, "tol": r.tol, "passed": r.passed}
                for r in self.results
            ],
        }


def default_boundary(net: Network):
    """Boundary used when the network does not carry one: the last state of
    every support component (reachable from the whole component)."""
    if net.boundary:
        return list(net.boundary)
    return [comp[-1] for comp in components(net)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _random_subset(rng, n):
    while True:
        mask = rng.random(n) < 0.5
        if mask.any():
            return list(np.flatnonzero(mask))


def _all_subsets(n):
    out = []
    for bits in range(1, 2**n):
        out.append([i for i in range(n) if bits >> i & 1])
    return out


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def _suite_core(net: Network, rng, tol, rep: Report) -> None:
    nu, P = net.nu, net.P
    rep.check("coupling-symmetry", float(np.max(np.abs(net.W - net.W.T))), 1e-15)
    rep.check("row-mass-positive", float(max(0.0, -np.min(nu))), 0.0)
    rep.check("stationary-equals-row-sums", float(np.max(np.abs(nu - net.W.sum(1)))), 1e-15)
    rep.check("markov-row-sums", float(np.max(np.abs(P.sum(1) - 1.0))), 1e-12)
    db = np.max(np.abs(nu[:, None] * P - (nu[:, None] * P).T))
    rep.check("detailed-balance", float(db), 1e-12 * max(1.0, float(np.max(net.W))))
    rep.check("stationarity", float(np.max(np.abs(nu @ P - nu))), 1e-12 * max(1.0, float(np.max(nu))))
    worst = 0.0
    for n_pow in range(7):
        for _ in range(4):
            A = _random_subset(rng, net.n)
            B = _random_subset(rng, net.n)
            worst = max(worst, _rel(op.rho_n(net, A, B, n_pow), op.rho_n(net, B, A, n_pow)))
    rep.check("pair-mass-symmetry-n<=6", worst, 1e-10)
    # symmetrization is idempotent and preserves total mass
    again = symmetrize(net.W, net.mu, net.states)
    rep.check("symmetrize-idempotent", float(np.max(np.abs(again.W - net.W))), 0.0)
    rep.check("symmetrize-mass", _rel(float(again.W.sum()), float(net.W.sum())), 1e-15)


def _suite_operators(net: Network, rng, tol, rep: Report) -> None:
    ones = np.ones(net.n)
    rep.check("coupling-op-of-ones", float(np.max(np.abs(op.apply_R(net, ones) - net.c))), 1e-12 * max(1.0, float(np.max(net.c))))
    rep.check("markov-fixes-constants", float(np.max(np.abs(op.apply_P(net, ones) - 1.0))), 1e-12)
    rep.check("laplacian-kills-constants", float(np.max(np.abs(op.apply_Delta(net, ones)))), 1e-12 * max(1.0, float(np.max(net.c))))
    L = net.mu[:, None] * (net.c[:, None] * (np.eye(net.n) - net.P))
    rep.check("weak-form-symmetric", float(np.max(np.abs(L - L.T))), 1e-12 * max(1.0, float(np.max(np.abs(L)))))
    worst_pair = worst_mean = worst_contr = worst_l1 = worst_rmass = 0.0
    worst_iota = worst_j = worst_mass = worst_iota_bound = 0.0
    for _ in range(20):
        f = rng.standard_normal(net.n)
        g = rng.standard_normal(net.n)
        pair = np.sum(net.mu * g * op.apply_R(net, f)) - np.sum(net.mu * op.apply_R(net, g) * f)
        worst_pair = max(worst_pair, abs(pair) / (1e-300 + np.linalg.norm(f) * np.linalg.norm(g)))
        worst_mean = max(worst_mean, abs(float(np.sum(net.mu * op.apply_Delta(net, f)))) / (1.0 + np.linalg.norm(f)))
        nf = float(np.sum(net.nu * f * f))
        npf = float(np.sum(net.nu * op.apply_P(net, f) ** 2))
        worst_contr = max(worst_contr, max(0.0, npf - nf) / max(nf, 1e-300))
        l1f = float(np.sum(net.nu * np.abs(f)))
        worst_l1 = max(worst_l1, max(0.0, float(np.sum(net.nu * np.abs(op.apply_P(net, f)))) - l1f) / max(l1f, 1e-300))
        worst_l1 = max(worst_l1, max(0.0, float(np.sum(net.mu * np.abs(op.apply_R(net, f)))) - l1f) / max(l1f, 1e-300))
        worst_rmass = max(worst_rmass, _rel(float(np.sum(net.mu * op.apply_R(net, f))), float(np.sum(f * net.nu))))
        worst_iota = max(worst_iota, op.iota_adjoint_residual(net, f, g))
        bound = 2.0 * nf - en.energy_inner(net, f, f)
        worst_iota_bound = max(worst_iota_bound, max(0.0, -bound) / max(nf, 1.0))
        worst_j = max(worst_j, op.j_adjoint_residual(net, g, f))
        lhs, rhs = op.mass_transport_check(net, f, _random_subset(rng, net.n))
        worst_mass = max(worst_mass, _rel(lhs, rhs))
    rep.check("coupling-op-symmetric-pairing", worst_pair, 1e-12)
    rep.check("laplacian-mu-mean-zero", worst_mean, 1e-12 * max(1.0, float(np.max(net.c))))
    rep.check("markov-l2-contraction", worst_contr, 1e-12)
    rep.check("markov-l1-contraction", worst_l1, 1e-12)
    rep.check("coupling-op-mass", worst_rmass, 1e-12)
    rep.check("embedding-adjoint", worst_iota, 1e-10)
    rep.check("embedding-norm-bound", worst_iota_bound, 1e-12)
    rep.check("inclusion-adjoint", worst_j, 1e-10)
    rep.check("mass-transport", worst_mass, 1e-10)
    spec = op.spectrum_P(net)
    rep.check("spectrum-in-unit-interval", float(max(0.0, np.max(np.abs(spec)) - 1.0)), 1e-9)
    n_comp = len(components(net))
    mult = int(np.sum(spec > 1.0 - 1e-8))
    rep.check("unit-eigenvalue-multiplicity", float(abs(mult - n_comp)), 0.0)
    basis = op.harmonic_basis(net)
    rep.check("harmonic-dimension", float(abs(len(basis) - (n_comp - 1))), 0.0)
    worst_h = 0.0
    for h in basis:
        worst_h = max(worst_h, float(np.max(np.abs(op.apply_Delta(net, h)))))
    rep.check("harmonic-basis-in-kernel", worst_h, 1e-12 * max(1.0, float(np.max(net.c))))
    if len(basis):
        gram = (basis * net.nu) @ basis.T
        rep.check("harmonic-basis-orthonormal", float(np.max(np.abs(gram - np.eye(len(basis))))), 1e-12)


def _suite_energy(net: Network, rng, tol, rep: Report) -> None:
    nu = net.nu
    subsets = _all_subsets(net.n) if net.n <= 6 else [_random_subset(rng, net.n) for _ in range(12)]
    worst_diag = worst_pair = 0.0
    for A in subsets:
        chi_A = en.indicator(net, A)
        cross = float(chi_A @ net.W @ (1.0 - chi_A))
        worst_diag = max(worst_diag, _rel(en.energy_inner(net, chi_A, chi_A), cross))
        B = subsets[rng.integers(len(subsets))]
        chi_B = en.indicator(net, B)
        inter = sorted(set(A) & set(B))
        expect = float(np.sum(nu[inter])) - float(chi_A @ net.W @ chi_B)
        worst_pair = max(worst_pair, _rel(en.energy_inner(net, chi_A, chi_B), expect))
    rep.check("indicator-norm-is-boundary-mass", worst_diag, 1e-12)
    rep.check("indicator-inner-product", worst_pair, 1e-12)
    fam = [_random_subset(rng, net.n) for _ in range(6)]
    gram = en.indicator_gram(net, fam).gram
    min_eig = float(np.min(np.linalg.eigvalsh(gram)))
    rep.check("indicator-gram-psd", max(0.0, -min_eig), 1e-9 * max(1.0, float(np.trace(gram))))
    worst_three = worst_mu_f = 0.0
    for _ in range(20):
        f = rng.standard_normal(net.n)
        e1 = en.energy_inner(net, f, f)
        e2 = float(np.sum(net.mu * f * op.apply_Delta(net, f)))
        e3 = pa.dissipation_norm(net, f)["total"]
        worst_three = max(worst_three, _rel(e1, e2), _rel(e1, e3))
        A = _random_subset(rng, net.n)
        worst_mu_f = max(worst_mu_f, _rel(en.mu_f(net, f, A), float(np.sum(net.mu[A] * op.apply_Delta(net, f)[A]))))
    rep.check("energy-three-way", worst_three, 1e-10)
    rep.check("set-energy-density", worst_mu_f, 1e-10)
    worst_orth = worst_pyth = 0.0
    for _ in range(10):
        f = rng.standard_normal(net.n)
        parts = en.royden_project(net, f)
        dv, hv = parts["d"].values, parts["h"].values
        scale = max(1.0, en.energy_inner(net, f, f))
        worst_orth = max(worst_orth, abs(en.energy_inner(net, dv, hv)) / scale)
        worst_pyth = max(
            worst_pyth,
            abs(en.energy_inner(net, f, f) - en.energy_inner(net, dv, dv) - en.energy_inner(net, hv, hv)) / scale,
        )
        recon = float(np.max(np.abs(en.canonicalize(net, dv + hv).values - en.canonicalize(net, f).values)))
        worst_pyth = max(worst_pyth, recon / scale)
    rep.check("royden-orthogonal", worst_orth, 1e-10)
    rep.check("royden-pythagoras", worst_pyth, 1e-9)
    bnd = default_boundary(net)
    interior = [i for i in range(net.n) if i not in set(bnd)]
    worst_dip = 0.0
    if interior:
        for kind in ("mu", "nu"):
            A = [interior[0]]
            B = [interior[-1]] if len(interior) > 1 else []
            sol = en.dipole(net, kind, A, B, boundary=bnd)
            worst_dip = max(worst_dip, sol.residual)
    rep.check("dipole-residual", worst_dip, 1e-9)
    worst_slack = 0.0
    for _ in range(30):
        f = rng.standard_normal(net.n)
        report = en.norm_bounds_report(net, f)
        scale = max(1.0, report["energy"])
        for key in ("slack_half_bound", "slack_delta_bound", "slack_defect_bound"):
            worst_slack = max(worst_slack, max(0.0, -report[key]) / scale)
    rep.check("laplacian-norm-bounds", worst_slack, 1e-12)


def _suite_dissipation(net: Network, rng, tol, rep: Report) -> None:
    worst_orth = 0.0
    for n_step in range(5):
        for _ in range(6):
            g1 = rng.standard_normal(net.n)
            g2 = rng.standard_normal(net.n)
            worst_orth = max(worst_orth, pa.orthogonality_residual(net, g1, g2, n_step))
            worst_orth = max(worst_orth, pa.increment_orthogonality_residual(net, g1, n_step))
    rep.check("martingale-increment-orthogonality", worst_orth, 1e-10)
    worst_var = 0.0
    for n_step in range(1, 5):
        f = rng.standard_normal(net.n)
        first, nth = pa.variance_invariance(net, f, n_step)
        worst_var = max(worst_var, _rel(first, nth))
    rep.check("conditional-variance-stationarity", worst_var, 1e-10)
    worst_cyl = worst_sym = worst_pn = worst_kl = 0.0
    full = list(range(net.n))
    for n_step in range(5):
        A = _random_subset(rng, net.n)
        B = _random_subset(rng, net.n)
        cyl = pa.cylinder_mass(net, [A] + [full] * max(0, n_step - 1) + [B] if n_step else [list(set(A) & set(B))])
        worst_cyl = max(worst_cyl, _rel(cyl, op.rho_n(net, A, B, n_step)))
        worst_sym = max(worst_sym, _rel(pa.cylinder_mass(net, [A, B]), pa.cylinder_mass(net, [B, A])))
        chi_A = en.indicator(net, A)
        v = chi_A.copy()
        for _ in range(n_step):
            v = net.P @ v
        worst_pn = max(worst_pn, _rel(float(np.sum(net.nu * v * v)), op.rho_n(net, A, A, 2 * n_step)))
    for k in range(4):
        for l in range(4):
            A = _random_subset(rng, net.n)
            pk = en.indicator(net, A)
            for _ in range(k):
                pk = net.P @ pk
            pl = en.indicator(net, A)
            for _ in range(l):
                pl = net.P @ pl
            worst_kl = max(
                worst_kl,
                _rel(en.energy_inner(net, pk, pl), op.rho_n(net, A, A, k + l) - op.rho_n(net, A, A, k + l + 1)),
            )
    rep.check("cylinder-vs-pair-mass", worst_cyl, 1e-12)
    rep.check("one-step-joint-symmetry", worst_sym, 1e-12)
    rep.check("step-norm-vs-pair-mass", worst_pn, 1e-10)
    rep.check("step-inner-product-telescopes", worst_kl, 1e-10)
    worst_mc = 0.0
    for trial in range(2):
        f = rng.standard_normal(net.n)
        exact = en.energy_inner(net, f, f)
        est = pa.mc_energy_estimate(net, f, int(rng.integers(2**31)), 20000)
        gap = abs(est.estimate - exact)
        allowed = MC_ENERGY_STDERRS * est.stderr + 1e-12
        worst_mc = max(worst_mc, gap - allowed)
    rep.check("monte-carlo-energy", max(0.0, worst_mc), 0.0)
    batch = pa.sample_paths(net, int(rng.integers(2**31)), 1, 20000, "nu")
    rep.check("empirical-transitions", _transition_excess(net.P, *pa.transition_counts(net, batch)), 0.0)


def _transition_excess(P, counts, visits) -> float:
    """Largest excess of an observed transition count over its binomial bound.

    Given ``visits[i]`` departures from state ``i``, the count of moves
    ``i -> j`` is Binomial(visits[i], P[i, j]).  Bernstein's inequality
    bounds ``|count - visits[i] P[i, j]|`` by ``t = L/3 + sqrt((L/3)^2 +
    2 var L)`` (var the binomial variance) except with probability
    ``2 exp(-L)``; ``L`` is Bonferroni-corrected over the in-support entries
    of visited rows so that the whole check has false-alarm rate at most
    ``TRANSITION_FALSE_ALARM``.  A move outside the support of ``P`` has
    bound 0, so a single one fails the check.
    """
    expect = visits[:, None] * P
    in_support = P > 0.0
    tested = int(np.count_nonzero(in_support & (visits[:, None] > 0)))
    L = np.log(2.0 * max(tested, 1) / TRANSITION_FALSE_ALARM)
    bound = L / 3.0 + np.sqrt((L / 3.0) ** 2 + 2.0 * expect * (1.0 - P) * L)
    bound = np.where(in_support, bound, 0.0)
    return float(max(0.0, np.max(np.abs(counts - expect) - bound)))


def _suite_green(net: Network, rng, tol, rep: Report) -> None:
    bnd = default_boundary(net)
    killed = gr.killed_restriction(net, bnd)
    rep.check("killed-radius", max(0.0, killed.spectral_radius - (1.0 - 1e-12)), 0.0)
    G = gr.green_operator(net, bnd, "solve")
    Gn = gr.green_operator(net, bnd, "neumann", tol=1e-12)
    gap = float(np.max(np.abs(G - Gn))) if G.size else 0.0
    rep.check("series-matches-solve", gap, 1e-10 * max(1.0, float(np.max(np.abs(G))) if G.size else 1.0))
    neg = float(max(0.0, -np.min(G))) if G.size else 0.0
    rep.check("green-nonnegative", neg, 1e-12)
    interior = list(killed.config.interior)
    worst_delta = worst_rep = 0.0
    if interior:
        for _ in range(5):
            take = rng.random(len(interior)) < 0.5
            A = [interior[k] for k in np.flatnonzero(take)] or [interior[0]]
            gA = gr.green_indicator(net, bnd, A)
            chi = en.indicator(net, A)
            resid = (op.apply_Delta(net, gA) - net.c * chi)[interior]
            worst_delta = max(worst_delta, float(np.max(np.abs(resid))) / max(1.0, float(np.max(net.c))))
            f = rng.standard_normal(net.n)
            f[list(killed.config.boundary)] = 0.0
            worst_rep = max(worst_rep, _rel(en.energy_inner(net, f, gA), float(np.sum(net.nu[A] * f[A]))))
    rep.check("green-indicator-density", worst_delta, 1e-9)
    rep.check("green-reproducing", worst_rep, 1e-10)


def _suite_rkhs(net: Network, rng, tol, rep: Report) -> None:
    bnd = default_boundary(net)
    fam = [_random_subset(rng, net.n) for _ in range(4)]
    krho = gr.kernel_gram(net, "k_rho", fam).gram
    worst_cross = 0.0
    for a, A in enumerate(fam):
        for b, B in enumerate(fam):
            worst_cross = max(
                worst_cross,
                _rel(krho[a, b], en.energy_inner(net, en.indicator(net, A), en.indicator(net, B))),
            )
    rep.check("indicator-kernel-matches-energy", worst_cross, 1e-12)
    knu = gr.kernel_gram(net, "K_nu", fam).gram
    for name, gram in (("indicator-kernel-psd", krho), ("mass-kernel-psd", knu)):
        min_eig = float(np.min(np.linalg.eigvalsh(gram)))
        rep.check(name, max(0.0, -min_eig), 1e-9 * max(1.0, float(np.trace(gram))))
    # mass-kernel representation of integral functionals
    coef = rng.standard_normal(len(fam))
    f_span = np.zeros(net.n)
    for cc, A in zip(coef, fam):
        f_span += cc * en.indicator(net, A)
    target = np.array([float(np.sum(net.nu[A] * f_span[A])) for A in fam])
    beta, *_ = np.linalg.lstsq(knu, target, rcond=None)
    rep.check("mass-kernel-representation", float(np.max(np.abs(knu @ beta - target))) / max(1.0, float(np.max(np.abs(target)))), 1e-9)
    worst_norm = 0.0
    for _ in range(5):
        f = rng.standard_normal(net.n)
        got = gr.mu_f_rkhs_norm(net, f)
        want = np.sqrt(max(en.energy_inner(net, f, f), 0.0))
        worst_norm = max(worst_norm, _rel(got**2, want**2))
    rep.check("set-function-norm", worst_norm, 1e-8)
    interior = [i for i in range(net.n) if i not in set(bnd)]
    if interior:
        fam_int = []
        for _ in range(4):
            take = rng.random(len(interior)) < 0.5
            fam_int.append([interior[k] for k in np.flatnonzero(take)] or [interior[0]])
        kgram = gr.kernel_gram(net, "K", fam_int, bnd).gram
        min_eig = float(np.min(np.linalg.eigvalsh(kgram)))
        rep.check("killed-kernel-psd", max(0.0, -min_eig), 1e-9 * max(1.0, float(np.trace(kgram))))
        killed = gr.killed_restriction(net, bnd)
        trunc = _truncated_series_gram(net, killed, fam_int)
        rep.check("killed-kernel-series", float(np.max(np.abs(kgram - trunc))) / max(1.0, float(np.max(np.abs(kgram)))), 1e-10)
        ngram = gr.kernel_gram(net, "N_rho", fam_int, bnd).gram
        worst_cnd = 0.0
        for _ in range(50):
            lam = rng.standard_normal(len(fam_int))
            lam -= lam.mean()
            worst_cnd = max(worst_cnd, float(lam @ ngram @ lam))
        rep.check("difference-kernel-cnd", max(0.0, worst_cnd), 1e-9 * max(1.0, float(np.trace(ngram))))
        worst_schoen = 0.0
        for a in range(len(fam_int)):
            for b in range(len(fam_int)):
                via_k = kgram[a, a] + kgram[b, b] - 2.0 * kgram[a, b]
                worst_schoen = max(worst_schoen, _rel(ngram[a, b], via_k))
        rep.check("difference-kernel-embedding", worst_schoen, 1e-9)
        iso = gr.isometry_suite(net, bnd, fam_int)
        rep.check("isometry-norms", iso["max_norm_spread"], 1e-9)
        rep.check("isometry-pairings", iso["max_pair_gap"], 1e-9)


def _truncated_series_gram(net: Network, killed, fam) -> np.ndarray:
    """``K`` over ``fam`` from the doubling Neumann series, apart from the factor.

    The series stops once its tail bound is below ``1e-13 / (max nu_int * k)``;
    a Gram entry, a ``nu``-weighted sum of at most ``k^2`` series entries, is
    then truncated by at most about ``k * 1e-13``.
    """
    idx = list(killed.config.interior)
    nu_int = net.nu[idx]
    chis = en.incidence(net, fam)[:, idx]
    tol = 1e-13 / (float(np.max(nu_int)) * len(idx))
    return (chis * nu_int) @ killed.neumann(tol) @ chis.T


def _suite_learn(net: Network, rng, tol, rep: Report) -> None:
    psi = rng.standard_normal(net.n)
    problem = ln.LearnProblem(net, psi, 1.0)
    h = ln.solve_regularized(problem)
    q = ln.objective(problem, h)
    rep.check("solver-optimality", max(0.0, ln.optimality_check(problem, h, trials=20, seed=int(rng.integers(2**31)))), 1e-10 * (1.0 + q))
    h0 = ln.solve_regularized(ln.LearnProblem(net, psi, 0.0))
    rep.check("zero-penalty-returns-target", float(np.max(np.abs(h0 - psi))), 1e-12 * max(1.0, float(np.max(np.abs(psi)))))
    worst_grad = 0.0
    eps = 1e-5
    for _ in range(5):
        k = rng.standard_normal(net.n)
        k /= np.linalg.norm(k)
        analytic = 2.0 * float(np.sum(net.mu * (h - psi) * k)) + 2.0 * problem.gamma * en.energy_inner(net, h, k)
        fd = (ln.objective(problem, h + eps * k) - ln.objective(problem, h - eps * k)) / (2 * eps)
        worst_grad = max(worst_grad, abs(analytic - fd) / max(1.0, abs(fd)))
    rep.check("gradient-check", worst_grad, 1e-6)
    big = ln.solve_regularized(ln.LearnProblem(net, psi, 1e8))
    worst_mean = 0.0
    for comp in components(net):
        idx = list(comp)
        mean = float(np.sum(net.mu[idx] * psi[idx]) / np.sum(net.mu[idx]))
        worst_mean = max(worst_mean, float(np.max(np.abs(big[idx] - mean))))
    rep.check("large-penalty-flattens", worst_mean, 1e-6 * max(1.0, float(np.max(np.abs(psi)))))
    scaled = build_network(net.states, 3.0 * net.mu, 3.0 * net.W)
    h_scaled = ln.solve_regularized(ln.LearnProblem(scaled, psi, problem.gamma))
    rep.check("scaling-invariance", float(np.max(np.abs(h_scaled - h))), 1e-10 * max(1.0, float(np.max(np.abs(h)))))


_SUITES = {
    "core": _suite_core,
    "operators": _suite_operators,
    "energy": _suite_energy,
    "dissipation": _suite_dissipation,
    "green": _suite_green,
    "rkhs": _suite_rkhs,
    "learn": _suite_learn,
}


def run_suite(net: Network, suite_id: str, seed: int, tol: float = 1e-10) -> Report:
    """Run one named suite (or "all") and return its report."""
    if suite_id not in SUITE_IDS:
        raise ValueError(f"suite must be one of {SUITE_IDS}, got {suite_id!r}")
    rep = Report(
        command=f"suite {suite_id} --seed {seed}",
        checksum=network_checksum(net),
        suite=suite_id,
        seed=int(seed),
    )
    t0 = time.perf_counter()
    names = list(_SUITES) if suite_id == "all" else [suite_id]
    for name in names:
        _SUITES[name](net, np.random.default_rng(seed), tol, rep)
    rep.elapsed_s = time.perf_counter() - t0
    return rep
