"""The four workloads: seeded inputs and the CLI calls made on them.

Each workload's seed fixes its network and every op parameter.  An op is
one ``mlap`` CLI call; workloads with several op kinds run them
round-robin, cycling through a few seeded parameter sets per kind.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import gen

VARIANTS = 4
KERNEL_SETS = 8
SOLVE_KINDS = ("learn", "energy", "dipole", "kernel")

# name -> (tag mixed into the seed, network maker, n, networks, op kinds);
# BENCHMARK.json and README.md say why each workload is there.  The suite
# workload cycles over three networks: its cost follows each network's
# 1 / (1 - r), so one slow-mixing network would otherwise set a run's figure.
WORKLOADS = {
    "suite-ring150": (1, gen.ring_with_chords, 150, 3, ("suite",)),
    "solve-ring3200": (2, gen.ring_with_chords, 3200, 1, SOLVE_KINDS),
    "solve-dense800": (3, gen.complete_graph, 800, 1, SOLVE_KINDS),
    "sample-ring800": (4, gen.ring_with_chords, 800, 1, ("sample",)),
}


@dataclass
class Op:
    kind: str
    argv: list
    expect: dict
    net: int = 0  # index into Inputs.networks


@dataclass
class NetworkFile:
    net: gen.Net
    path: str
    checksum: str


@dataclass
class Inputs:
    networks: list  # of NetworkFile
    variants: dict  # kind -> list of Op
    kinds: tuple

    def op(self, i: int) -> Op:
        kind = self.kinds[i % len(self.kinds)]
        ops = self.variants[kind]
        return ops[(i // len(self.kinds)) % len(ops)]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _interior_set(rng, interior, size):
    return sorted(rng.choice(interior, size, replace=False).tolist())


def _solve_ops(rng, net, work) -> dict:
    n = net.n
    interior = net.interior()
    ops = {k: [] for k in SOLVE_KINDS}
    for v in range(VARIANTS):
        psi = rng.standard_normal(n)
        gamma = float(10.0 ** rng.uniform(-1.0, 1.0))
        path = os.path.join(work, f"target{v}.json")
        _write_json(path, psi.tolist())
        ops["learn"].append(Op("learn", ["learn", "--gamma", repr(gamma), "--target", "@" + path],
                               {"psi": psi, "gamma": gamma}))

        f, g = rng.standard_normal(n), rng.standard_normal(n)
        fp, gp = os.path.join(work, f"f{v}.json"), os.path.join(work, f"g{v}.json")
        _write_json(fp, f.tolist())
        _write_json(gp, g.tolist())
        ops["energy"].append(Op("energy", ["energy", "--f", "@" + fp, "--g", "@" + gp],
                                {"f": f, "g": g}))

        picks = _interior_set(rng, interior, 6)
        A, B = picks[:3], picks[3:]
        kind = ("mu", "nu")[v % 2]
        ops["dipole"].append(Op("dipole", [
            "dipole", "--kind", kind, "--A", ",".join(map(str, A)),
            "--B", ",".join(map(str, B)), "--use-boundary"], {"kind": kind, "A": A, "B": B}))

        size = max(1, n // 100)
        sets = [_interior_set(rng, interior, size) for _ in range(KERNEL_SETS)]
        sp = os.path.join(work, f"sets{v}.json")
        _write_json(sp, [[str(i) for i in s] for s in sets])
        ops["kernel"].append(Op("kernel", ["kernel", "--kind", "K", "--sets", sp], {"sets": sets}))
    return ops


def setup(name: str, seed: int, work: str) -> Inputs:
    """Generate the workload's inputs under ``work``."""
    tag, make, n, count, kinds = WORKLOADS[name]
    rng = np.random.default_rng([tag, seed])
    networks = []
    for k in range(count):
        net = make(rng, n)
        path = os.path.join(work, f"net{k}.json")
        networks.append(NetworkFile(net, path, gen.write_network(net, path)))
    if kinds == ("suite",):
        # two suite seeds per network, cycling over the networks
        seeds = rng.integers(0, 2**31, 2 * count).tolist()
        variants = {"suite": [Op("suite", ["--seed", str(s), "suite", "--suite", "all"],
                                 {"seed": s}, k % count) for k, s in enumerate(seeds)]}
    elif kinds == ("sample",):
        # two seeds alternate, so repeated calls can be checked for identical output
        seeds = rng.integers(0, 2**31, 2).tolist()
        variants = {"sample": [Op("sample", ["--seed", str(s), "sample", "--steps", "50",
                                             "--paths", "20000"], {"seed": s, "steps": 50,
                                                                   "paths": 20000})
                               for s in seeds]}
    else:
        variants = _solve_ops(rng, networks[0].net, work)
    return Inputs(networks, variants, kinds)
