"""Checks of every op's output against independent numpy computations.

Each checker returns a list of problems (empty when the output is right).
The references use the generator's own sparse coupling, never program code.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Identity checks known to fail at this commit.  They are reported by name
# and counted in ``checks_failed``; they do not fail the op.
KNOWN_FAILING = {
    # fixed 0.05 absolute bound on an empirical transition matrix with
    # ~20000 draws; miscalibrated for n >= 50 (ROADMAP item 4)
    "empirical-transitions",
}


class Reference:
    """Reference quantities of one generated network, from its edge list."""

    def __init__(self, net):
        self.net = net
        self.W = net.coupling()
        self.nu = net.nu()
        self.mu = net.mu
        self.c = self.nu / self.mu
        self.boundary = list(net.boundary)
        self.interior = net.interior()

    def laplacian(self, h):
        """Weak-form Laplacian (D_W - W) h."""
        return self.nu * h - self.W @ h

    @cached_property
    def killed_lu(self):
        """Sparse LU of the interior weak form diag(nu) - W, so that
        G chi = lu.solve(nu * chi) on the interior."""
        idx = self.interior
        A = sp.diags(self.nu[idx]) - self.W[idx][:, idx]
        return spla.splu(A.tocsc())

    def green_kernel(self, sets):
        """K(A, B) = <chi_A, G chi_B>_{L2(nu)} from a sparse solve."""
        pos = {state: row for row, state in enumerate(self.interior.tolist())}
        nu_int = self.nu[self.interior]
        chis = np.zeros((len(self.interior), len(sets)))
        for b, B in enumerate(sets):
            chis[[pos[i] for i in B], b] = 1.0
        G_chis = self.killed_lu.solve(nu_int[:, None] * chis)
        return (chis * nu_int[:, None]).T @ G_chis

    def energy(self, f, g):
        """1/2 sum_ij W_ij (f_i - f_j)(g_i - g_j), summed over edges i < j."""
        ei, ej, w = self.net.ei, self.net.ej, self.net.w
        df, dg = f[ei] - f[ej], g[ei] - g[ej]
        return float(np.sum(w * df * dg)), float(np.sum(w * np.abs(df * dg)))


def _close(got, want, scale, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(scale))


def check_learn(ref, payload, op):
    psi, gamma = op.expect["psi"], op.expect["gamma"]
    h = np.asarray(payload["h"])
    rhs = ref.mu * psi
    res = ref.mu * h + gamma * ref.laplacian(h) - rhs
    problems = []
    rel = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300)
    if not rel <= 1e-8:
        problems.append(f"learn residual {rel:.3e}")
    misfit = float(np.sum(ref.mu * (psi - h) ** 2))
    penalty, scale = ref.energy(h, h)
    if not _close(payload["misfit"], misfit, misfit, 1e-9):
        problems.append("learn misfit disagrees with its definition")
    if not _close(payload["penalty"], penalty, scale, 1e-9):
        problems.append("learn penalty disagrees with the edge-sum energy")
    return problems


def check_energy(ref, payload, op):
    f, g = op.expect["f"], op.expect["g"]
    problems = []
    inner, scale = ref.energy(f, g)
    if not _close(payload["inner"], inner, scale, 1e-9):
        problems.append(f"energy inner {payload['inner']!r} != edge sum {inner!r}")
    ff, scale = ref.energy(f, f)
    if not _close(payload["norms"]["energy"], ff, scale, 1e-9):
        problems.append("energy norm disagrees with the edge sum")
    return problems


def check_dipole(ref, payload, op):
    chi = np.zeros(ref.net.n)
    chi[op.expect["A"]] = 1.0
    chi[op.expect["B"]] -= 1.0
    target = chi if op.expect["kind"] == "mu" else ref.c * chi
    v = np.asarray(payload["values"])
    delta = ref.c * v - (ref.W @ v) / ref.mu
    res = np.linalg.norm((delta - target)[ref.interior]) / (1.0 + np.linalg.norm(target))
    problems = []
    if not res <= 1e-8:
        problems.append(f"dipole interior residual {res:.3e}")
    if np.any(v[ref.boundary] != 0.0):
        problems.append("dipole solution is not zero on the boundary")
    return problems


def check_kernel(ref, payload, op):
    sets = op.expect["sets"]
    gram = np.asarray(payload["gram"])
    problems = []
    if gram.shape != (len(sets), len(sets)):
        return [f"kernel gram has shape {gram.shape}"]
    if [list(A) for A in payload["family"]] != sets:
        problems.append("kernel family differs from the requested sets")
    if np.max(np.abs(gram - gram.T)) > 1e-12 * max(1.0, float(np.max(np.abs(gram)))):
        problems.append("kernel gram is not symmetric")
    nu_sets = np.array([ref.nu[A].sum() for A in sets])
    if np.any(np.diag(gram) < nu_sets * (1.0 - 1e-9)):
        problems.append("kernel diagonal below nu(A)")
    want = ref.green_kernel(sets)
    gap = np.max(np.abs(gram - want)) / np.max(np.abs(want))
    if not gap <= 1e-8:
        problems.append(f"kernel gram differs from a sparse Green solve by {gap:.3e}")
    return problems


def check_sample(ref, payload, op):
    problems = []
    for key in ("seed", "steps", "paths"):
        if payload[key] != op.expect[key]:
            problems.append(f"sample echoes {key}={payload[key]!r}")
    emp = np.asarray(payload["empirical_transitions"])
    support = ref.W.toarray() > 0.0
    if np.any((emp > 0.0) & ~support):
        problems.append("sample moved along a pair outside the support of W")
    rows = emp.sum(axis=1)
    visited = rows > 0.0
    if np.max(np.abs(rows[visited] - 1.0)) > 1e-9:
        problems.append("visited transition rows do not sum to 1")
    P = ref.W.toarray() / ref.nu[:, None]
    if not _close(payload["max_transition_gap"], float(np.max(np.abs(emp - P))), 1.0, 1e-12):
        problems.append("max_transition_gap disagrees with the reported rows")
    return problems


def check_suite(ref, payload, op, rc):
    problems = []
    results = payload["results"]
    for r in results:
        if r["passed"] != (r["residual"] <= r["tol"]):
            problems.append(f"suite check {r['name']} verdict disagrees with its residual")
    passed = all(r["passed"] for r in results)
    if payload["passed"] != passed or rc != (0 if passed else 2):
        problems.append("suite verdict or exit code disagrees with its results")
    if payload["seed"] != op.expect["seed"]:
        problems.append("suite echoes a different seed")
    unexpected = [r["name"] for r in results if not r["passed"] and r["name"] not in KNOWN_FAILING]
    if unexpected:
        problems.append(f"identity checks failed: {unexpected}")
    return problems


CHECKERS = {
    "learn": check_learn,
    "energy": check_energy,
    "dipole": check_dipole,
    "kernel": check_kernel,
    "sample": check_sample,
}


def check(ref, checksum, payload, op, rc):
    """Problems with one op's exit code and output."""
    if payload is None:
        return [f"no output (exit code {rc})"]
    problems = []
    if payload.get("checksum") != checksum:
        problems.append("network checksum differs from the generator's")
    if op.kind == "suite":
        return problems + check_suite(ref, payload, op, rc)
    if rc != 0:
        problems.append(f"exit code {rc}")
    return problems + CHECKERS[op.kind](ref, payload, op)
