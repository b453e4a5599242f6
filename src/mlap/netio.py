"""Network file formats and canonical fixtures.

JSON schema ``mlap-net/1``::

    {
      "schema": "mlap-net/1",
      "states": [{"id": "a", "mu": 1.0}, ...],
      "edges":  [{"i": "a", "j": "b", "w": 1.0}, ...],
      "boundary": ["c"]            # optional
    }

Each undirected edge is listed exactly once; diagonal atoms appear as
``i == j`` entries.  The CSV alternative is an edge file with header
``i,j,w`` plus a sidecar ``<stem>.states.csv`` with header ``id,mu``
(no boundary support).  Floats are serialized with ``repr`` so that
emit/load round trips are bit exact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from .errors import MlapIOError, ParseError, SchemaVersionError
from .learn import joining_network, product_measure_network
from .net import Network, build_network

SCHEMA = "mlap-net/1"


def _is_id(x) -> bool:
    """State ids are strings or numbers; JSON booleans are not numbers."""
    return isinstance(x, (str, int, float)) and not isinstance(x, bool)


def _edges_to_matrix(n, index, edges):
    W = np.zeros((n, n))
    seen = set()
    for e in edges:
        try:
            i, j, w = e["i"], e["j"], float(e["w"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed edge entry {e!r}", reason="MalformedEdge") from exc
        try:
            a, b = index[i], index[j]
        except (KeyError, TypeError):  # TypeError: an unhashable id such as a list
            raise ParseError(f"edge references unknown state: {e!r}", reason="UnknownState") from None
        if not np.isfinite(w):
            raise ParseError(f"edge weight is not finite: {e!r}", reason="NonFiniteWeight")
        if w < 0.0:
            raise ParseError(f"edge weight is negative: {e!r}", reason="NegativeWeight")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ParseError(f"duplicate undirected edge ({i}, {j})", reason="DuplicateEdge")
        seen.add(key)
        W[a, b] = w
        W[b, a] = w
    return W


def _network_from_parts(states, mu, edges, boundary_ids):
    if not all(_is_id(s) for s in states):
        raise ParseError("state ids must be strings or numbers", reason="MalformedStates")
    index = {s: k for k, s in enumerate(states)}
    if len(index) != len(states):
        raise ParseError("duplicate state id", reason="DuplicateState")
    if not isinstance(edges, list):
        raise ParseError("edges must be a JSON list", reason="MalformedEdge")
    W = _edges_to_matrix(len(states), index, edges)
    bidx = None
    if boundary_ids is not None:
        if not isinstance(boundary_ids, list):
            raise ParseError("boundary must be a JSON list of state ids", reason="MalformedBoundary")
        missing = [b for b in boundary_ids if not (_is_id(b) and b in index)]
        if missing:
            raise ParseError(f"boundary references unknown states {missing}", reason="UnknownState")
        bidx = [index[b] for b in boundary_ids]
    return build_network(states, mu, W, boundary=bidx)


def load_network(path: str) -> Network:
    """Load a network from a ``mlap-net/1`` JSON file or a CSV pair."""
    if not os.path.exists(path):
        raise MlapIOError(f"no such file: {path}")
    if path.endswith(".csv"):
        return _load_csv(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}", reason="InvalidJSON") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SchemaVersionError(
            f"expected schema {SCHEMA!r}, got {doc.get('schema')!r}" if isinstance(doc, dict)
            else "network document must be a JSON object"
        )
    try:
        states = tuple(s["id"] for s in doc["states"])
        mu = [float(s["mu"]) for s in doc["states"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed states block", reason="MalformedStates") from exc
    return _network_from_parts(states, mu, doc.get("edges", []), doc.get("boundary"))


def _load_csv(path: str) -> Network:
    sidecar = path[: -len(".csv")] + ".states.csv"
    if not os.path.exists(sidecar):
        raise MlapIOError(f"missing sidecar state file: {sidecar}")
    with open(sidecar, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or set(rows[0]) != {"id", "mu"}:
        raise ParseError(f"sidecar must have header id,mu: {sidecar}", reason="MalformedStates")
    states = tuple(r["id"] for r in rows)
    try:
        mu = [float(r["mu"]) for r in rows]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"sidecar mu is not a number: {exc}", reason="MalformedStates") from None
    with open(path, newline="") as fh:
        edge_rows = list(csv.DictReader(fh))
    if edge_rows and set(edge_rows[0]) != {"i", "j", "w"}:
        raise ParseError(f"edge file must have header i,j,w: {path}", reason="MalformedEdge")
    return _network_from_parts(states, mu, edge_rows, None)


def network_document(net: Network) -> dict:
    """Canonical JSON document of a network (upper-triangle edge list)."""
    ids = [str(s) for s in net.states]
    rows, cols = np.nonzero(net.W)  # row-major, as the document lists edges
    w = net.W[rows, cols]
    upper = (rows <= cols) & (w > 0.0)
    edges = [
        {"i": ids[a], "j": ids[b], "w": x}
        for a, b, x in zip(rows[upper].tolist(), cols[upper].tolist(), w[upper].tolist())
    ]
    doc = {
        "schema": SCHEMA,
        "states": [{"id": str(s), "mu": float(m)} for s, m in zip(net.states, net.mu)],
        "edges": edges,
    }
    if net.boundary:
        doc["boundary"] = [str(net.states[i]) for i in net.boundary]
    return doc


def save_network(net: Network, path: str) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(network_document(net), fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise MlapIOError(str(exc)) from exc


def network_checksum(net: Network) -> str:
    blob = json.dumps(network_document(net), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Canonical fixtures
# ---------------------------------------------------------------------------

PRODUCT_FIXTURE_SEED = 90217


def triangle() -> Network:
    """Complete 3-cycle, unit masses and unit couplings."""
    W = np.ones((3, 3)) - np.eye(3)
    return build_network(("a", "b", "c"), np.ones(3), W)


def path3() -> Network:
    """3-path 0-1-2 with unit weights; state 2 marked as boundary."""
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    return build_network(("0", "1", "2"), np.ones(3), W, boundary=[2])


def two_component() -> Network:
    """Disjoint union of a unit triangle {0,1,2} and a unit edge {3,4}."""
    W = np.zeros((5, 5))
    for a, b in [(0, 1), (0, 2), (1, 2), (3, 4)]:
        W[a, b] = W[b, a] = 1.0
    return build_network(tuple(str(i) for i in range(5)), np.ones(5), W)


def diagonal_fixture() -> Network:
    """Diagonal coupling with pair masses (1, 2, 3) and unit base measure."""
    return build_network(("0", "1", "2"), np.ones(3), np.diag([1.0, 2.0, 3.0]))


def product_fixture() -> Network:
    """Product coupling on 5 states, uniform probability mu, seed-fixed r."""
    rng = np.random.default_rng(PRODUCT_FIXTURE_SEED)
    mu = np.full(5, 0.2)
    r = rng.uniform(0.5, 2.0, 5)
    net = product_measure_network(mu, r)
    return build_network(tuple(str(i) for i in range(5)), net.mu, net.W)


def joining_fixture() -> Network:
    """Measure-preserving involution (0<->1)(2<->3) with masses (1,1,2,2)."""
    net = joining_network([1.0, 1.0, 2.0, 2.0], [1, 0, 3, 2])
    return build_network(tuple(str(i) for i in range(4)), net.mu, net.W)


FIXTURES = {
    "triangle": triangle,
    "path3": path3,
    "two_component": two_component,
    "diagonal": diagonal_fixture,
    "product_measure": product_fixture,
    "joining_involution": joining_fixture,
}


def emit_fixtures(directory: str) -> list:
    """Write the canonical fixture files; returns the created paths."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise MlapIOError(str(exc)) from exc
    written = []
    for name, make in FIXTURES.items():
        path = os.path.join(directory, f"{name}.json")
        save_network(make(), path)
        written.append(path)
    return written
