"""Command-line surface: one binary, one subcommand per task.

Exit codes: 0 success, 1 validation error, 2 identity failure, 3 I/O error.
All randomness sits behind ``--seed``; JSON output serializes floats with
full precision for bit-faithful round trips.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import energy as en
from . import green as gr
from . import learn as ln
from . import operators as op
from . import paths as pa
from .errors import MlapIOError, ValidationError
from .net import irreducibility
from .netio import emit_fixtures, load_network, network_checksum
from .suites import SUITE_IDS, default_boundary, run_suite

KERNEL_ALIASES = {"K": "K", "krho": "k_rho", "Knu": "K_nu", "Nrho": "N_rho"}


def _vector_arg(net, text, name):
    """Parse a vector argument: inline JSON list or @file with a JSON list."""
    if text is None:
        raise ValidationError(f"missing required vector --{name}")
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                data = json.load(fh)
        else:
            data = json.loads(text)
        v = np.asarray(data, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"--{name} is not a JSON list of numbers: {exc}") from None
    if v.shape != (net.n,):
        raise ValidationError(f"--{name} must have length {net.n}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"--{name} has non-finite entries")
    return v


def _set_arg(net, text):
    """Comma-separated state ids -> sorted index list; empty string -> []."""
    if not text:
        return []
    return [net.index(tok) for tok in text.split(",")]


def _family_arg(net, path):
    """Set family from a JSON file holding a list of lists of state ids."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"--sets is not valid JSON: {exc}") from None
    if not isinstance(raw, list) or not all(isinstance(A, list) for A in raw):
        raise ValidationError("--sets must hold a JSON list of lists of state ids")
    return [[net.index(s) for s in A] for A in raw]


def _emit(payload, args):
    text = json.dumps(payload, sort_keys=True) + "\n"
    if getattr(args, "format", "json") == "csv" and "results" in payload:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "residual", "tol", "passed"])
        for row in payload["results"]:
            writer.writerow([row["name"], repr(row["residual"]), repr(row["tol"]), row["passed"]])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    if not args.net:
        raise ValidationError("this command requires --net PATH")
    return load_network(args.net)


def cmd_inspect(args):
    net = _load(args)
    irr = irreducibility(net)
    spec = op.spectrum_P(net)
    _emit(
        {
            "checksum": network_checksum(net),
            "n": net.n,
            "states": [str(s) for s in net.states],
            "mu_total": float(np.sum(net.mu)),
            "coupling_total": float(np.sum(net.W)),
            "conductance": net.c.tolist(),
            "stationary": net.nu.tolist(),
            "irreducible": irr.irreducible,
            "components": [list(c) for c in irr.components],
            "spectrum": spec.tolist(),
            "boundary": [str(net.states[i]) for i in (net.boundary or ())],
        },
        args,
    )
    return 0


def cmd_operators(args):
    net = _load(args)
    payload = {
        "checksum": network_checksum(net),
        "spectrum": op.spectrum_P(net).tolist(),
        "harmonic_dimension": int(len(op.harmonic_basis(net))),
    }
    if args.f is not None:
        f = _vector_arg(net, args.f, "f")
        payload["Rf"] = op.apply_R(net, f).tolist()
        payload["Pf"] = op.apply_P(net, f).tolist()
        payload["Delta_f"] = op.apply_Delta(net, f).tolist()
    _emit(payload, args)
    return 0


def cmd_energy(args):
    net = _load(args)
    f = _vector_arg(net, args.f, "f")
    g = _vector_arg(net, args.g, "g") if args.g is not None else f
    payload = {
        "checksum": network_checksum(net),
        "inner": en.energy_inner(net, f, g),
        "norms": en.norm_bounds_report(net, f),
    }
    _emit(payload, args)
    return 0


def cmd_dipole(args):
    net = _load(args)
    A = _set_arg(net, args.A)
    B = _set_arg(net, args.B)
    boundary = list(net.boundary) if (args.use_boundary and net.boundary) else None
    if args.boundary:
        boundary = _set_arg(net, args.boundary)
    sol = en.dipole(net, args.kind, A, B, boundary=boundary)
    _emit(
        {
            "checksum": network_checksum(net),
            "kind": sol.kind,
            "A": list(sol.A),
            "B": list(sol.B),
            "values": sol.v.values.tolist(),
            "canonical": sol.v.canonical,
            "residual": sol.residual,
        },
        args,
    )
    return 0


def cmd_decompose(args):
    net = _load(args)
    f = _vector_arg(net, args.f, "f")
    parts = en.royden_project(net, f)
    _emit(
        {
            "checksum": network_checksum(net),
            "d": parts["d"].values.tolist(),
            "h": parts["h"].values.tolist(),
            "energy_f": en.energy_inner(net, f, f),
            "energy_d": en.energy_inner(net, parts["d"].values, parts["d"].values),
        },
        args,
    )
    return 0


def cmd_sample(args):
    net = _load(args)
    batch = pa.sample_paths(net, args.seed, args.steps, args.paths, args.start)
    counts, visits = pa.transition_counts(net, batch)
    rows = visits[:, None]
    emp = np.divide(counts, rows, out=np.zeros_like(counts), where=rows > 0)
    payload = {
        "checksum": network_checksum(net),
        "seed": batch.seed,
        "steps": batch.steps,
        "paths": batch.count,
        "start": batch.start_law,
        "empirical_transitions": emp.tolist(),
        "max_transition_gap": float(np.max(np.abs(emp - net.P))),
    }
    if args.dump:
        ids = np.array([str(s) for s in net.states], dtype=object)
        with open(args.dump, "w", newline="") as fh:
            csv.writer(fh).writerows(ids[batch.paths].tolist())
        payload["dump"] = args.dump
    _emit(payload, args)
    return 0


def cmd_green(args):
    net = _load(args)
    boundary = _set_arg(net, args.boundary) if args.boundary else default_boundary(net)
    killed = gr.killed_restriction(net, boundary)
    G = gr.green_operator(net, boundary, args.method, tol=args.tol)
    _emit(
        {
            "checksum": network_checksum(net),
            "boundary": [str(net.states[i]) for i in killed.config.boundary],
            "interior": [str(net.states[i]) for i in killed.config.interior],
            "spectral_radius": killed.spectral_radius,
            "green": G.tolist(),
        },
        args,
    )
    return 0


def cmd_kernel(args):
    net = _load(args)
    kernel_id = KERNEL_ALIASES.get(args.kind)
    if kernel_id is None:
        raise ValidationError(f"--kind must be one of {sorted(KERNEL_ALIASES)}")
    family = _family_arg(net, args.sets)
    boundary = None
    if kernel_id in ("K", "N_rho"):
        boundary = _set_arg(net, args.boundary) if args.boundary else default_boundary(net)
    gram = gr.kernel_gram(net, kernel_id, family, boundary)
    _emit(
        {
            "checksum": network_checksum(net),
            "kernel_id": gram.kernel_id,
            "family": [list(A) for A in gram.family],
            "gram": gram.gram.tolist(),
        },
        args,
    )
    return 0


def cmd_learn(args):
    net = _load(args)
    psi = _vector_arg(net, args.target, "target")
    problem = ln.LearnProblem(net, psi, args.gamma)
    h = ln.solve_regularized(problem)
    misfit = float(np.sum(net.mu * (psi - h) ** 2))
    penalty = en.energy_inner(net, h, h)
    _emit(
        {
            "checksum": network_checksum(net),
            "gamma": args.gamma,
            "h": h.tolist(),
            "objective": misfit + args.gamma * penalty,
            "misfit": misfit,
            "penalty": penalty,
        },
        args,
    )
    return 0


def cmd_suite(args):
    net = _load(args)
    report = run_suite(net, args.suite, args.seed, tol=args.tol)
    _emit(report.to_dict(), args)
    return 0 if report.passed else 2


def cmd_fixtures(args):
    written = emit_fixtures(args.dir)
    _emit({"written": written}, args)
    return 0


def _add_global_flags(parser, suppress):
    # registered on the main parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work in either position
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--net", help="network file (mlap-net/1 JSON or CSV pair)", **kw)
    parser.add_argument("--seed", type=int, help="seed for all randomness",
                        **(kw or {"default": 0}))
    parser.add_argument("--out", help="write output to a file instead of stdout", **kw)
    parser.add_argument("--tol", type=float, help="base tolerance",
                        **(kw or {"default": 1e-10}))
    parser.add_argument("--format", choices=["json", "csv"],
                        **(kw or {"default": "json"}))


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1, one line); subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlap", description=__doc__)
    _add_global_flags(parser, suppress=False)
    parser.set_defaults(net=None, out=None)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", parents=[common], help="network summary and derived measures")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("operators", parents=[common], help="spectrum, harmonic dimension, operator actions")
    p.add_argument("--f", help="vector as JSON list or @file")
    p.set_defaults(func=cmd_operators)

    p = sub.add_parser("energy", parents=[common], help="energy inner product and norm bounds")
    p.add_argument("--f", required=True)
    p.add_argument("--g")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("dipole", parents=[common], help="solve an indicator-difference equation")
    p.add_argument("--kind", choices=["mu", "nu"], required=True)
    p.add_argument("--A", required=True, help="comma-separated state ids")
    p.add_argument("--B", default="", help="comma-separated state ids (may be empty)")
    p.add_argument("--boundary", help="override boundary (comma-separated ids)")
    p.add_argument("--use-boundary", action="store_true", help="use the network's boundary")
    p.set_defaults(func=cmd_dipole)

    p = sub.add_parser("decompose", parents=[common], help="split into indicator-span and harmonic parts")
    p.add_argument("--f", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sample", parents=[common], help="sample trajectories")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--start", default="nu", help="'nu' or 'state:<id>'")
    p.add_argument("--dump", help="write paths as CSV, one path per row")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("green", parents=[common], help="Green matrix of the killed chain")
    p.add_argument("--boundary", help="comma-separated ids (default: network boundary)")
    p.add_argument("--method", choices=["solve", "neumann"], default="solve")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("kernel", parents=[common], help="Gram matrix of a set kernel")
    p.add_argument("--kind", required=True, help="K | krho | Knu | Nrho")
    p.add_argument("--sets", required=True, help="JSON file: list of lists of state ids")
    p.add_argument("--boundary", help="comma-separated ids (default: network boundary)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("learn", parents=[common], help="penalized least squares in the energy norm")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--target", required=True, help="psi as JSON list or @file")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("suite", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=list(SUITE_IDS), default="all")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("fixtures", parents=[common], help="write the canonical fixture files")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not 0 <= args.seed < 2**64:
            raise ValidationError(f"--seed must lie in [0, 2**64), got {args.seed}")
        if not (np.isfinite(args.tol) and args.tol > 0.0):
            raise ValidationError(f"--tol must be finite and > 0, got {args.tol}")
        return args.func(args)
    except (MlapIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
