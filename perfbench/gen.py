"""Seeded input generators for the benchmark.

Networks are written as ``mlap-net/1`` JSON by this module alone, without
calling any program code, so set-up time measures no program work.  The
expected network checksum is computed here from the generator's own edge
list: it is the SHA-256 of the canonical document (states in order,
upper-triangle edges in row-major order, boundary) serialized with sorted
keys and ``repr`` floats, which is what ``mlap`` reports for the network.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SCHEMA = "mlap-net/1"


@dataclass
class Net:
    """A generated network: upper-triangle edges (i < j), masses, boundary."""

    n: int
    mu: np.ndarray
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    boundary: list

    def nu(self) -> np.ndarray:
        """Row sums of the symmetric coupling."""
        return np.bincount(self.ei, self.w, self.n) + np.bincount(self.ej, self.w, self.n)

    def coupling(self) -> sp.csr_matrix:
        W = sp.coo_matrix((self.w, (self.ei, self.ej)), shape=(self.n, self.n))
        return (W + W.T).tocsr()

    def interior(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n), self.boundary)


def ring_with_chords(rng: np.random.Generator, n: int) -> Net:
    """Ring plus one chord per state from a random perfect matching.

    The boundary is the last state.  Its three couplings are fixed at 1 so
    that the killed chain's mixing (1 / (1 - r)), which sets the cost of the
    Green-series checks, varies less from seed to seed.
    """
    mu = rng.uniform(0.5, 2.0, n)
    pairs = {}
    for i in range(n):
        j = (i + 1) % n
        pairs[(min(i, j), max(i, j))] = rng.uniform(0.5, 1.5)
    perm = rng.permutation(n).tolist()
    for x, y in zip(perm[0::2], perm[1::2]):
        pairs.setdefault((min(x, y), max(x, y)), rng.uniform(0.1, 1.0))
    for key in pairs:
        if n - 1 in key:
            pairs[key] = 1.0
    keys = sorted(pairs)
    ei = np.array([k[0] for k in keys], dtype=np.int64)
    ej = np.array([k[1] for k in keys], dtype=np.int64)
    w = np.array([pairs[k] for k in keys])
    return Net(n, mu, ei, ej, w, [n - 1])


def complete_graph(rng: np.random.Generator, n: int) -> Net:
    """Complete graph with uniform random weights; boundary is the last state."""
    mu = rng.uniform(0.5, 2.0, n)
    ei, ej = np.triu_indices(n, k=1)
    w = rng.uniform(0.05, 1.0, len(ei))
    return Net(n, mu, ei.astype(np.int64), ej.astype(np.int64), w, [n - 1])


def write_network(net: Net, path: str) -> str:
    """Write the network as compact ``mlap-net/1`` JSON; return its checksum.

    The file text is the canonical serialization itself, so the checksum is
    the SHA-256 of the bytes written.
    """
    states = ", ".join(f'{{"id": "{k}", "mu": {m!r}}}' for k, m in enumerate(net.mu.tolist()))
    edges = ", ".join(
        f'{{"i": "{i}", "j": "{j}", "w": {w!r}}}'
        for i, j, w in zip(net.ei.tolist(), net.ej.tolist(), net.w.tolist())
    )
    boundary = ", ".join(f'"{b}"' for b in net.boundary)
    text = (f'{{"boundary": [{boundary}], "edges": [{edges}], '
            f'"schema": "{SCHEMA}", "states": [{states}]}}')
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def killed_radius(net: Net) -> float:
    """Spectral radius of the interior restriction of P.

    Lanczos on the nu-symmetrized interior coupling; by Perron-Frobenius the
    radius is its largest eigenvalue.
    """
    idx = net.interior()
    s = sp.diags(1.0 / np.sqrt(net.nu()[idx]))
    S = s @ net.coupling()[idx][:, idx] @ s
    return float(spla.eigsh(S, k=1, which="LA", tol=1e-12, return_eigenvectors=False)[0])


def diagnostics(net: Net, path: str, l3_bytes: int) -> dict:
    """Input properties the program's cost depends on."""
    r = killed_radius(net)
    dense = 8 * net.n * net.n
    return {
        "n": net.n,
        "edges": int(len(net.w)),
        "density": 2.0 * len(net.w) / (net.n * (net.n - 1)),
        "killed_radius": r,
        "inv_one_minus_r": 1.0 / (1.0 - r),
        "dense_W_bytes": dense,
        "dense_W_over_L3": dense / l3_bytes,
        "file_bytes": os.path.getsize(path),
    }
