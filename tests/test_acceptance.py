"""Acceptance battery: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

import mlap
from mlap.energy import indicator
from mlap.learn import product_alpha_map, product_energy_closed_form
from mlap.suites import default_boundary

from conftest import FIXTURE_MAKERS, all_subsets

SEED = 20250810


def _nets():
    return {name: make() for name, make in FIXTURE_MAKERS.items()}


def _verdict(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} {name} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_reversibility_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for net in _nets().values():
        scale = max(1.0, float(np.max(net.W)))
        flux = net.nu[:, None] * net.P
        worst = max(worst, float(np.max(np.abs(flux - flux.T))) / scale)
        s = np.sqrt(net.nu)
        S = net.W / np.outer(s, s)
        worst = max(worst, float(np.max(np.abs(S - S.T))))
        worst = max(worst, float(np.max(np.abs(net.nu @ net.P - net.nu))) / scale)
        M = np.diag(net.nu).astype(float)
        for _ in range(7):
            # symmetry of diag(nu) P^n covers every pair-mass set pair at once
            worst = max(worst, float(np.max(np.abs(M - M.T))) / scale)
            M = M @ net.P
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, "reversibility-equivalence", ok, f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_energy_three_way():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for net in _nets().values():
        for _ in range(200):
            f = rng.standard_normal(net.n)
            e1 = mlap.energy_inner(net, f, f)
            e2 = float(np.sum(f * mlap.apply_Delta(net, f) * net.mu))
            e3 = mlap.dissipation_norm(net, f)["total"]
            scale = max(1.0, abs(e1))
            worst = max(worst, abs(e1 - e2) / scale, abs(e1 - e3) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 2.0
    _verdict(2, "energy-three-way", ok, f"max rel gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_indicator_geometry():
    worst = 0.0
    for net in _nets().values():
        assert net.n <= 6
        subsets = all_subsets(net.n)
        chis = {tuple(A): indicator(net, A) for A in subsets}
        for A in subsets:
            comp = [i for i in range(net.n) if i not in set(A)]
            cross = float(net.W[np.ix_(A, comp)].sum()) if comp else 0.0
            got = mlap.energy_inner(net, chis[tuple(A)], chis[tuple(A)])
            worst = max(worst, abs(got - cross) / max(1.0, abs(cross)))
            for B in subsets:
                inter = sorted(set(A) & set(B))
                want = float(np.sum(net.nu[inter])) - float(net.W[np.ix_(A, B)].sum())
                got = mlap.energy_inner(net, chis[tuple(A)], chis[tuple(B)])
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-12
    _verdict(3, "indicator-geometry", ok, f"max rel gap {worst:.2e}, exhaustive pairs")


def test_criterion_04_royden_harmonic():
    rng = np.random.default_rng(SEED)
    ok = True
    worst = 0.0
    for net in _nets().values():
        comps = mlap.components(net)
        basis = mlap.harmonic_basis(net)
        ok = ok and len(basis) == len(comps) - 1
        ok = ok and mlap.irreducibility(net).irreducible == (len(basis) == 0)
        for _ in range(20):
            f = rng.standard_normal(net.n)
            parts = mlap.royden_project(net, f)
            scale = max(1.0, mlap.energy_inner(net, f, f))
            worst = max(worst, abs(mlap.energy_inner(net, parts["d"].values, parts["h"].values)) / scale)
    ok = ok and worst <= 1e-10
    _verdict(4, "royden-harmonic", ok, f"max projection residual {worst:.2e}")


def test_criterion_05_dissipation_orthogonality():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for net in _nets().values():
        for n in range(5):
            for _ in range(10):
                g1 = rng.standard_normal(net.n)
                g2 = rng.standard_normal(net.n)
                worst = max(worst, mlap.orthogonality_residual(net, g1, g2, n))
    ok = worst <= 1e-10
    _verdict(5, "dissipation-orthogonality", ok, f"max residual {worst:.2e}")


def test_criterion_06_monte_carlo_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    worst_gap = 0.0
    ratios = []
    for net in _nets().values():
        fs = [indicator(net, [0]), np.arange(net.n, dtype=float)]
        fs.append(rng.standard_normal(net.n))
        for k, f in enumerate(fs):
            exact = mlap.energy_inner(net, f, f)
            est = mlap.mc_energy_estimate(net, f, SEED + k, 100000)
            gap = abs(est.estimate - exact)
            ok = ok and gap <= 4.0 * est.stderr + 1e-12
            worst_gap = max(worst_gap, gap - 4.0 * est.stderr)
        est1 = mlap.mc_energy_estimate(net, fs[2], SEED + 9, 100000)
        est4 = mlap.mc_energy_estimate(net, fs[2], SEED + 10, 400000)
        if est1.stderr > 0:
            ratio = est4.stderr / est1.stderr
            ratios.append(ratio)
            ok = ok and 0.4 <= ratio <= 0.6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    detail = f"max excess {max(worst_gap, 0.0):.2e}, stderr ratios {min(ratios):.3f}-{max(ratios):.3f}, {elapsed:.2f} s"
    _verdict(6, "monte-carlo-consistency", ok, detail)


def test_criterion_07_green_exactness():
    net = FIXTURE_MAKERS["path3"]()
    G = mlap.green_operator(net, [2], "solve")
    gap_exact = float(np.max(np.abs(G - np.array([[2.0, 2.0], [1.0, 2.0]]))))
    Gn = mlap.green_operator(net, [2], "neumann", tol=1e-12)
    gap_series = float(np.max(np.abs(G - Gn)))
    worst_delta = 0.0
    for A in ([0], [1], [0, 1]):
        gA = mlap.green_indicator(net, [2], A)
        resid = (mlap.apply_Delta(net, gA) - net.c * indicator(net, A))[[0, 1]]
        worst_delta = max(worst_delta, float(np.max(np.abs(resid))))
    ok = gap_exact <= 1e-12 and gap_series <= 1e-10 and worst_delta <= 1e-9
    detail = f"G gap {gap_exact:.2e}, series gap {gap_series:.2e}, density gap {worst_delta:.2e}"
    _verdict(7, "green-exactness", ok, detail)


def test_criterion_08_rkhs_isometries():
    rng = np.random.default_rng(SEED)
    ok = True
    worst_iso = worst_psd = worst_cnd = 0.0
    for net in _nets().values():
        fam_free = [list(np.flatnonzero(rng.random(net.n) < 0.5)) or [0] for _ in range(5)]
        for kind in ("k_rho", "K_nu"):
            gram = mlap.kernel_gram(net, kind, fam_free).gram
            floor = -1e-9 * max(1.0, float(np.trace(gram)))
            worst_psd = max(worst_psd, max(0.0, floor - float(np.min(np.linalg.eigvalsh(gram)))))
        bnd = default_boundary(net)
        interior = [i for i in range(net.n) if i not in set(bnd)]
        if not interior:
            continue
        fam = []
        for _ in range(4):
            take = [i for i in interior if rng.random() < 0.5]
            fam.append(take or [interior[0]])
        kgram = mlap.kernel_gram(net, "K", fam, bnd).gram
        floor = -1e-9 * max(1.0, float(np.trace(kgram)))
        worst_psd = max(worst_psd, max(0.0, floor - float(np.min(np.linalg.eigvalsh(kgram)))))
        report = mlap.isometry_suite(net, bnd, fam)
        worst_iso = max(worst_iso, report["max_norm_spread"], report["max_pair_gap"])
        ngram = mlap.kernel_gram(net, "N_rho", fam, bnd).gram
        for _ in range(50):
            lam = rng.standard_normal(len(fam))
            lam -= lam.mean()
            worst_cnd = max(worst_cnd, float(lam @ ngram @ lam) / max(1.0, float(np.trace(ngram))))
    ok = worst_iso <= 1e-9 and worst_psd <= 0.0 and worst_cnd <= 1e-9
    detail = f"isometry {worst_iso:.2e}, psd excess {worst_psd:.2e}, cnd {worst_cnd:.2e}"
    _verdict(8, "rkhs-isometries", ok, detail)


def test_criterion_09_product_closed_form():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(10):
        mu = rng.uniform(0.1, 1.0, 5)
        mu /= mu.sum()
        r = rng.uniform(0.3, 2.0, 5)
        net = mlap.product_measure_network(mu, r)
        for _ in range(20):
            f = rng.standard_normal(5)
            direct = mlap.energy_inner(net, f, f)
            closed = product_energy_closed_form(mu, r, f)
            alpha = product_alpha_map(mu, r, f)
            alpha_norm = float(np.sum(mu * r * alpha * alpha))
            scale = max(1.0, abs(direct))
            worst = max(worst, abs(direct - closed) / scale, abs(direct - alpha_norm) / scale)
    cov_worst = 0.0
    mu = np.full(4, 0.25)
    net = mlap.product_measure_network(mu, np.ones(4))
    for A in all_subsets(4):
        for B in all_subsets(4):
            got = mlap.energy_inner(net, indicator(net, A), indicator(net, B))
            want = 0.25 * len(set(A) & set(B)) - 0.25 * len(A) * 0.25 * len(B)
            cov_worst = max(cov_worst, abs(got - want))
    ok = worst <= 1e-10 and cov_worst <= 1e-12
    _verdict(9, "product-closed-form", ok, f"closed form {worst:.2e}, covariance {cov_worst:.2e}")


def test_criterion_10_learning_optimality():
    rng = np.random.default_rng(SEED)
    ok = True
    worst_opt = worst_grad = worst_far = 0.0
    for net in _nets().values():
        psi = rng.standard_normal(net.n)
        problem = mlap.LearnProblem(net, psi, 1.0)
        h = mlap.solve_regularized(problem)
        q = mlap.learn.objective(problem, h)
        worst_opt = max(worst_opt, mlap.optimality_check(problem, h, trials=20, seed=SEED) / (1.0 + q))
        h0 = mlap.solve_regularized(mlap.LearnProblem(net, psi, 0.0))
        ok = ok and float(np.max(np.abs(h0 - psi))) <= 1e-12 * max(1.0, float(np.max(np.abs(psi))))
        eps = 1e-5
        for _ in range(5):
            k = rng.standard_normal(net.n)
            k /= np.linalg.norm(k)
            analytic = 2.0 * float(np.sum(net.mu * (h - psi) * k)) + 2.0 * mlap.energy_inner(net, h, k)
            fd = (mlap.learn.objective(problem, h + eps * k) - mlap.learn.objective(problem, h - eps * k)) / (2 * eps)
            worst_grad = max(worst_grad, abs(analytic - fd) / max(1.0, abs(fd)))
        if mlap.irreducibility(net).irreducible:
            big = mlap.solve_regularized(mlap.LearnProblem(net, psi, 1e8))
            mean = float(np.sum(net.mu * psi) / np.sum(net.mu))
            worst_far = max(worst_far, float(np.max(np.abs(big - mean))))
    ok = ok and worst_opt <= 1e-10 and worst_grad <= 1e-6 and worst_far <= 1e-6
    detail = f"opt {worst_opt:.2e}, grad {worst_grad:.2e}, flat {worst_far:.2e}"
    _verdict(10, "learning-optimality", ok, detail)


def test_criterion_11_norm_bounds():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    nets = list(_nets().values())
    for k in range(500):
        net = nets[k % len(nets)]
        f = rng.standard_normal(net.n)
        report = mlap.norm_bounds_report(net, f)
        scale = max(1.0, report["energy"])
        for key in ("slack_half_bound", "slack_delta_bound", "slack_defect_bound"):
            worst = max(worst, -report[key] / scale)
    ok = worst <= 1e-12
    _verdict(11, "norm-bounds", ok, f"max violation {max(worst, 0.0):.2e} over 500 draws")
