"""Path space sampling and exact dissipation-space evaluators.

The path measure weights a trajectory started in state x by nu_x; its
restriction to finitely many coordinates is evaluated exactly by masked
matrix products.  Monte Carlo sampling is a statistical cross-check only.

Reproducibility contract: path sampling uses the counter-based Philox
generator keyed by the seed, and path ``i`` consumes exactly the uniform
draws ``[i * (m + 1), (i + 1) * (m + 1))`` of the keyed stream (one start
draw plus one draw per step).  Batches are therefore identical for
identical ``(seed, m, count, start_law, net)`` regardless of how path
generation is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import incidence
from .errors import DimensionMismatch, NegativePower
from .net import Network
from .operators import apply_P


@dataclass(frozen=True)
class PathBatch:
    seed: int
    steps: int
    count: int
    start_law: str
    paths: np.ndarray  # (count, steps + 1) state indices


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    count: int


def _parse_start_law(net: Network, start_law: str) -> int | None:
    """None for the nu-proportional law, else the fixed start index."""
    if start_law == "nu":
        return None
    if start_law.startswith("state:"):
        return net.index(start_law[len("state:"):])
    raise DimensionMismatch(f"start_law must be 'nu' or 'state:<id>', got {start_law!r}")


def _row_segments(P) -> tuple:
    """CSR-style segments of the transition rows: ``(indptr, cols, cum)``.

    Row ``x`` owns entries ``indptr[x]:indptr[x + 1]``: its positive columns
    in increasing order, each with the row's float cumsum at that column.
    The cumsum runs over the dense row, so the values are bit-equal to the
    dense inverse CDF's (adding an exact 0.0 changes nothing).  The support
    comes from ``P``, not ``W``: a coupling whose ``W / nu`` underflows to 0
    can never be drawn.
    """
    rows, cols = np.nonzero(P)
    cum = np.cumsum(P, axis=1)[rows, cols]
    indptr = np.zeros(P.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=P.shape[0]), out=indptr[1:])
    return indptr, cols, cum


def _step(indptr, cols, cum, current, u) -> np.ndarray:
    """Inverse-CDF draw of the next states from the rows of ``current``.

    Bisects each row's segment for the first cumsum entry above the draw:
    ``ceil(log2(max degree))`` gathers of ``len(current)`` in all.  A draw at or
    above a row's rounded total finds none and takes the segment's last
    entry, the row's last positive column.
    """
    lo = indptr[current]
    hi = indptr[current + 1] - 1
    for _ in range(int(np.max(np.diff(indptr)) - 1).bit_length()):
        mid = (lo + hi) >> 1
        above = cum[mid] > u
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, np.minimum(mid + 1, hi))
    return cols[lo]


def sample_paths(net: Network, seed: int, m: int, count: int, start_law: str = "nu") -> PathBatch:
    """Sample ``count`` trajectories of ``m`` steps.

    Starts follow ``start_law`` ("nu" for nu-proportional, "state:<id>" for
    a fixed start); each step draws from the transition row of the current
    state by inverse CDF over the row's support, so a step costs
    O(count * log(degree)).  The fixed-start law still consumes the start
    uniform so the per-path draw blocks stay aligned.
    """
    if m < 1 or count < 1:
        raise DimensionMismatch("need m >= 1 and count >= 1")
    fixed = _parse_start_law(net, start_law)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    u = rng.random((count, m + 1))
    segments = _row_segments(net.P)
    paths = np.empty((count, m + 1), dtype=np.int64)
    if fixed is None:
        cum_nu = np.cumsum(net.nu) / np.sum(net.nu)
        paths[:, 0] = np.minimum(
            np.searchsorted(cum_nu, u[:, 0], side="right"), net.n - 1
        )
    else:
        paths[:, 0] = fixed
    for t in range(m):
        paths[:, t + 1] = _step(*segments, paths[:, t], u[:, t + 1])
    return PathBatch(int(seed), int(m), int(count), start_law, paths)


def transition_counts(net: Network, batch: PathBatch) -> tuple:
    """Observed moves of a batch over all its steps.

    Returns ``(counts, visits)``: ``counts[i, j]`` is the number of steps
    from ``i`` to ``j`` and ``visits[i]`` the number of steps leaving ``i``.
    """
    src = batch.paths[:, :-1].ravel()
    moves = np.bincount(src * net.n + batch.paths[:, 1:].ravel(), minlength=net.n * net.n)
    visits = np.bincount(src, minlength=net.n)
    return moves.reshape(net.n, net.n).astype(float), visits.astype(float)


def cylinder_mass(net: Network, sets) -> float:
    """Exact path-measure mass of the cylinder X_0 in A_0, ..., X_k in A_k."""
    sets = list(sets)
    if not sets:
        raise DimensionMismatch("need at least one cylinder set")
    masks = incidence(net, sets)
    v = net.nu * masks[0]
    for chi in masks[1:]:
        v = (v @ net.P) * chi
    return float(np.sum(v))


def dissipation_norm(net: Network, f) -> dict:
    """Exact split of the energy norm into variance and dissipation parts.

    Returns the two raw integrals and their halved sum:

        total = 1/2 * (variance_term + dissipation_term) = <f, f>_E,

    where ``variance_term`` integrates the one-step conditional variance
    P(f^2) - (P f)^2 against nu and ``dissipation_term`` is
    ``||f - P f||^2_{L2(nu)}``.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n,):
        raise DimensionMismatch("f must be a length-n vector")
    pf = apply_P(net, f)
    var = apply_P(net, f * f) - pf * pf
    variance_term = float(np.sum(net.nu * var))
    dissipation_term = float(np.sum(net.nu * (f - pf) ** 2))
    return {
        "variance_term": variance_term,
        "dissipation_term": dissipation_term,
        "total": 0.5 * (variance_term + dissipation_term),
    }


def mc_energy_estimate(net: Network, f, seed: int, count: int) -> McEstimate:
    """Monte Carlo estimate of the energy norm from single transitions.

    Averages ``(f(X_1) - f(X_0))^2`` over nu-started one-step paths and
    rescales by ``nu(V) / 2``; the estimator mean is the exact energy and
    the standard error decays like count^{-1/2}.
    """
    if count < 100:
        raise DimensionMismatch("need count >= 100")
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n,):
        raise DimensionMismatch("f must be a length-n vector")
    batch = sample_paths(net, seed, 1, count, "nu")
    nu_total = float(np.sum(net.nu))
    d2 = (f[batch.paths[:, 1]] - f[batch.paths[:, 0]]) ** 2
    scale = 0.5 * nu_total
    estimate = scale * float(np.mean(d2))
    stderr = scale * float(np.std(d2, ddof=1)) / np.sqrt(count)
    return McEstimate(estimate, stderr, count)


def _distribution_after(net: Network, n: int) -> np.ndarray:
    """Row vector nu P^n computed by explicit multiplication."""
    m = net.nu.copy()
    for _ in range(n):
        m = m @ net.P
    return m


def orthogonality_residual(net: Network, g1, g2, n: int) -> float:
    """Exact dissipation inner product of g1 at time n against the step-n
    martingale increment of g2; zero up to round-off.

    Evaluates ``<g1 o X_n, P(g2) o X_n - g2 o X_{n+1}>`` in the path space
    through the n-step distribution and the joint (X_n, X_{n+1}) law, and
    normalizes by the magnitude of the two terms.
    """
    if n < 0:
        raise NegativePower("time index must be >= 0")
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != (net.n,) or g2.shape != (net.n,):
        raise DimensionMismatch("g1 and g2 must be length-n vectors")
    m = _distribution_after(net, n)
    pg2 = apply_P(net, g2)
    same_time = float(np.sum(m * g1 * pg2))
    joint = (m * g1) @ net.P @ g2
    scale = 1.0 + abs(same_time) + abs(joint)
    return 0.5 * abs(same_time - float(joint)) / scale


def increment_orthogonality_residual(net: Network, f, n: int) -> float:
    """Companion check: (I - P) f at time n against the same increment."""
    f = np.asarray(f, dtype=float)
    g = f - apply_P(net, f)
    return orthogonality_residual(net, g, f, n)


def variance_invariance(net: Network, f, n: int) -> tuple:
    """Pair of integrated one-step conditional variances at steps 1 and n.

    The step-n value integrates ``P^{n-1}(P(f^2) - (P f)^2)`` against nu;
    stationarity of nu makes the pair equal exactly.
    """
    if n < 1:
        raise NegativePower("step index must be >= 1")
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n,):
        raise DimensionMismatch("f must be a length-n vector")
    pf = apply_P(net, f)
    var1 = apply_P(net, f * f) - pf * pf
    first = float(np.sum(net.nu * var1))
    m = _distribution_after(net, n - 1)
    nth = float(np.sum(m * var1))
    return first, nth
