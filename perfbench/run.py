"""mlap benchmark: seeded workloads driven through ``mlap.cli.main`` in process.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-ring150 --seed 1 --seconds 20 --trace 0

One closed-loop client in one process calls ``mlap.cli.main(argv)`` with
``--out``, one op after another, until ``--seconds`` of op time have been
measured.  Every op's output is checked outside the timed region.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The line
before it is a JSON detail block (environment, input diagnostics, per-kind
latencies, failed checks by name, every span's self time, tracing overhead).
Reports and spans are also written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

if __name__ == "__main__":
    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_WARMUP = 1
IMPORT_CODE = ("import time; t = time.perf_counter(); import mlap.cli; "
               "print(time.perf_counter() - t)")
L3_FALLBACK = 105 * 2**20


def fresh_import_time():
    """Seconds for ``import mlap.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=dict(os.environ, PYTHONPATH=SRC),
                         cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    l3 = None
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        l3 = int(out.stdout.strip()) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "mlap"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "mlap", name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "l3_bytes": l3,
        "src_mlap_lines": lines,
    }


class Runner:
    """Runs ops through ``mlap.cli.main`` and checks each one."""

    def __init__(self, cli, inputs, work):
        self.cli = cli
        self.inputs = inputs
        self.refs = [validate.Reference(network.net) for network in inputs.networks]
        self.work = work
        self.records = []
        self.sample_digests = {}  # sample seed -> digest of its output
        self.failed_checks = defaultdict(int)
        self.suite_counts = []  # (checks, failed checks) per suite op
        self.problems = []

    def run(self, i, recorder=None):
        op = self.inputs.op(i)
        out = os.path.join(self.work, f"out{len(self.records)}.json")
        argv = ["--net", self.inputs.networks[op.net].path, "--out", out] + op.argv
        main = self.cli.main
        if recorder is not None:
            recorder.op = len(self.records)
            recorder.install()
            main = recorder.wrap("cli.main", main)
        gc.collect()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            error = f"exited {exc.code}"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if recorder is not None:
            recorder.uninstall()
        problems = [error] if error else self.check(op, out, rc)
        if os.path.exists(out):
            os.remove(out)
        rec = {"kind": op.kind, "latency": latency, "traced": recorder is not None,
               "failed": bool(problems)}
        if problems:
            self.problems.append({"op": len(self.records), "kind": op.kind, "problems": problems})
        self.records.append(rec)
        return rec

    def check(self, op, out, rc):
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            payload = json.loads(data)
        except (OSError, ValueError):
            data, payload = None, None
        network = self.inputs.networks[op.net]
        problems = validate.check(self.refs[op.net], network.checksum, payload, op, rc)
        if op.kind == "sample" and data is not None:
            digest = hashlib.sha256(data).hexdigest()
            if self.sample_digests.setdefault(op.expect["seed"], digest) != digest:
                problems.append("sample output differs for an identical seed")
        if op.kind == "suite" and payload is not None:
            failed = [r["name"] for r in payload["results"] if not r["passed"]]
            for name in failed:
                self.failed_checks[name] += 1
            self.suite_counts.append((len(payload["results"]), len(failed)))
        return problems


def kind_mean_of_medians(values_by_kind):
    """Mean over op kinds of each kind's median; the plain median for one kind."""
    return float(np.mean([statistics.median(v) for v in values_by_kind.values()]))


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, if any."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return {"value": None, "percentile": None, "samples": len(xs)}
    k = len(xs) - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs), "samples": len(xs)}


def layer_metrics(recorder, pairs, suite_counts):
    """Per-layer metrics from the traced ops, each the mean over op kinds of
    the per-kind median per op.  A span missing from an op counts as 0 there."""
    per_op = recorder.per_op()
    samples = defaultdict(lambda: defaultdict(list))  # metric -> kind -> values
    rates = []
    for plain, traced, op in pairs:
        kind, rec = plain["kind"], per_op[op]
        for name in recorder.names:
            seconds = rec["incl"] if name in recorder.inclusive else rec["self"]
            samples[f"{name}_s"][kind].append(seconds.get(name, 0.0))
        samples["netio.input_bytes"][kind].append(rec["count"].get("netio.load_network", 0))
        samples["trace.overhead_s"][kind].append(traced["latency"] - plain["latency"])
        if rec["count"].get("paths.sample_paths"):
            rates.append(rec["count"]["paths.sample_paths"] / rec["self"]["paths.sample_paths"])
    metrics = {key: kind_mean_of_medians(by_kind) for key, by_kind in samples.items()}
    # cli's own work (parsing, payload assembly, emit) is the op span's self time
    metrics["cli.self_s"] = metrics["cli.main_s"]
    metrics["paths.transitions_per_s"] = statistics.median(rates) if rates else 0.0
    counts = suite_counts or [(0, 0)]
    metrics["suites.checks"] = statistics.median(c for c, _ in counts)
    metrics["suites.checks_failed"] = statistics.median(f for _, f in counts)
    overhead = {k: statistics.median(v) for k, v in samples["trace.overhead_s"].items()}
    return metrics, {"tracing_overhead_s_by_kind": overhead, "traced_pairs": len(pairs),
                     "untraced_hooks": sorted(recorder.missing)}


def measure(args, spec, env, bench_dir, tag, work):
    for _ in range(IMPORT_WARMUP):  # fills the bytecode cache
        fresh_import_time()
    sys.path.insert(0, SRC)
    import mlap.cli as cli

    gen_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.setup(args.workload, args.seed, work)
        gen_times.append(time.perf_counter() - t0)
        import_times.append(fresh_import_time())
    diag = [gen.diagnostics(network.net, network.path, env["l3_bytes"] or L3_FALLBACK)
            for network in inputs.networks]
    runner = Runner(cli, inputs, work)

    recorder = spans.Recorder() if args.trace else None
    spent, i, pairs = 0.0, 0, []
    while spent < args.seconds or i < len(inputs.kinds):  # at least one op of each kind
        if recorder is None:
            spent += runner.run(i)["latency"]
        else:
            plain = runner.run(i)
            traced = runner.run(i, recorder)
            pairs.append((plain, traced, len(runner.records) - 1))
            spent += plain["latency"] + traced["latency"]
        # import samples spread over the run see the same machine load as the ops
        import_times.append(fresh_import_time())
        i += 1

    records = runner.records
    by_kind = defaultdict(list)
    for rec in records:
        if not rec["traced"]:
            by_kind[rec["kind"]].append(rec["latency"])
    failed = sum(r["failed"] for r in records)
    # fastest import: import times here are bimodal with machine load, and
    # their median moved 25-30% between runs of identical code
    import_s = min(import_times)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "inputs": diag,
        "setup_generation_s": gen_times,
        "import_s": import_s,
        "import_s_median": statistics.median(import_times),
        "import_s_samples": import_times,
        "ops": len(records),
        "op_latency_by_kind": {k: {"median_s": statistics.median(v), "samples": len(v)}
                               for k, v in by_kind.items()},
        "op_latencies_s": [[r["kind"], r["latency"], r["traced"]] for r in records],
        "op_tail_s": tail([lat for v in by_kind.values() for lat in v]),
        "failed_frac": failed / len(records),
        "checks_failed_per_suite_op": (statistics.median(f for _, f in runner.suite_counts)
                                       if runner.suite_counts else None),
        "checks_failed_by_name": dict(runner.failed_checks),
        "known_failing_checks": sorted(validate.KNOWN_FAILING),
        "problems": runner.problems[:20],
    }
    if recorder is None:
        metrics = {
            "setup_s": import_s + statistics.median(gen_times),
            "import_s": import_s,
            "ops_per_s": len(by_kind) / sum(statistics.mean(v) for v in by_kind.values()),
            "op_p50_s": kind_mean_of_medians(by_kind),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        metrics, extra = layer_metrics(recorder, pairs, runner.suite_counts)
        detail.update(extra)
        detail["per_layer_all"] = metrics
        recorder.write(os.path.join(bench_dir, f"spans-{tag}.jsonl"))
        wanted = spec["per_layer"]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(bench_dir, f"report-{tag}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "mlap", "cli.py")):
        print(f"error: no mlap sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    env = environment()
    bench_dir = os.path.join(ROOT, ".bench_work")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(bench_dir, f"{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, spec, env, bench_dir, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
