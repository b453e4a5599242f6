import csv
import io
import json

import numpy as np
import pytest

import mlap
import mlap.cli
from mlap import ParseError, SchemaVersionError
from mlap.cli import main
from mlap.net import Network
from mlap.netio import (
    FIXTURES,
    load_network,
    network_checksum,
    network_document,
    path3,
    save_network,
)
from mlap.suites import run_suite

from conftest import FIXTURE_MAKERS


def test_round_trip_bit_exact(tmp_path):
    for name, make in FIXTURE_MAKERS.items():
        net = make()
        path = tmp_path / f"{name}.json"
        save_network(net, str(path))
        back = load_network(str(path))
        assert back.states == net.states
        np.testing.assert_array_equal(back.mu, net.mu)
        np.testing.assert_array_equal(back.W, net.W)
        assert back.boundary == net.boundary
        assert network_checksum(back) == network_checksum(net)


def test_fixture_checksums_stable(tmp_path):
    first = mlap.emit_fixtures(str(tmp_path / "a"))
    second = mlap.emit_fixtures(str(tmp_path / "b"))
    for fa, fb in zip(first, second):
        assert open(fa).read() == open(fb).read()


def test_product_fixture_closed_form_on_load(tmp_path):
    mlap.emit_fixtures(str(tmp_path))
    net = load_network(str(tmp_path / "product_measure.json"))
    rng = np.random.default_rng(1)
    e_r = float(np.sum(net.W)) ** 0.5  # total coupling = E_mu(r)^2
    for _ in range(5):
        f = rng.standard_normal(net.n)
        w = net.nu / e_r  # recovers r_i mu_i
        closed = e_r * float(np.sum(w * f * f)) - float(np.sum(w * f)) ** 2
        assert mlap.energy_inner(net, f, f) == pytest.approx(closed, rel=1e-10)


def test_load_triangle_fixture(tmp_path):
    mlap.emit_fixtures(str(tmp_path))
    net = load_network(str(tmp_path / "triangle.json"))
    assert net.n == 3
    path_net = load_network(str(tmp_path / "path3.json"))
    assert path_net.boundary == (2,)


def _write(tmp_path, doc, name="bad.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "schema": "mlap-net/1",
    "states": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
    "edges": [{"i": "a", "j": "b", "w": 1.0}],
}


def test_load_negative_weight(tmp_path):
    doc = dict(BASE, edges=[{"i": "a", "j": "b", "w": -1.0}])
    with pytest.raises(ParseError) as info:
        load_network(_write(tmp_path, doc))
    assert info.value.reason == "NegativeWeight"


def test_load_duplicate_edge(tmp_path):
    doc = dict(BASE, edges=[{"i": "a", "j": "b", "w": 1.0}, {"i": "b", "j": "a", "w": 2.0}])
    with pytest.raises(ParseError) as info:
        load_network(_write(tmp_path, doc))
    assert info.value.reason == "DuplicateEdge"


def test_load_unknown_state(tmp_path):
    doc = dict(BASE, edges=[{"i": "a", "j": "zz", "w": 1.0}])
    with pytest.raises(ParseError) as info:
        load_network(_write(tmp_path, doc))
    assert info.value.reason == "UnknownState"


def test_load_schema_version(tmp_path):
    doc = dict(BASE, schema="mlap-net/2")
    with pytest.raises(SchemaVersionError):
        load_network(_write(tmp_path, doc))


def test_load_invalid_json(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(str(p))


def test_load_missing_file():
    with pytest.raises(mlap.MlapIOError):
        load_network("/nonexistent/net.json")


def test_load_csv_pair(tmp_path):
    (tmp_path / "net.states.csv").write_text("id,mu\na,1.0\nb,2.0\n")
    (tmp_path / "net.csv").write_text("i,j,w\na,b,3.0\n")
    net = load_network(str(tmp_path / "net.csv"))
    assert net.states == ("a", "b")
    np.testing.assert_allclose(net.mu, [1.0, 2.0])
    np.testing.assert_allclose(net.W, [[0.0, 3.0], [3.0, 0.0]])


def test_load_csv_missing_sidecar(tmp_path):
    (tmp_path / "solo.csv").write_text("i,j,w\na,b,1.0\n")
    with pytest.raises(mlap.MlapIOError):
        load_network(str(tmp_path / "solo.csv"))


@pytest.mark.parametrize(
    "doc, reason",
    [
        (dict(BASE, edges=5), "MalformedEdge"),
        (dict(BASE, states=[{"id": ["a"], "mu": 1.0}, {"id": "b", "mu": 1.0}]), "MalformedStates"),
        (dict(BASE, states=[{"id": True, "mu": 1.0}, {"id": "b", "mu": 1.0}]), "MalformedStates"),
        (dict(BASE, edges=[{"i": ["a"], "j": "b", "w": 1.0}]), "UnknownState"),
        (dict(BASE, boundary=[["a"]]), "UnknownState"),
    ],
)
def test_load_rejects_malformed_blocks(tmp_path, capsys, doc, reason):
    path = _write(tmp_path, doc)
    with pytest.raises(ParseError) as info:
        load_network(path)
    assert info.value.reason == reason
    assert main(["--net", path, "inspect"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_load_rejects_a_string_boundary(tmp_path, capsys):
    # a string is iterable: "ab" must not be read as the boundary ["a", "b"]
    doc = dict(BASE, states=BASE["states"] + [{"id": "ab", "mu": 1.0}],
               edges=BASE["edges"] + [{"i": "b", "j": "ab", "w": 1.0}], boundary="ab")
    path = _write(tmp_path, doc)
    with pytest.raises(ParseError) as info:
        load_network(path)
    assert info.value.reason == "MalformedBoundary"
    assert main(["--net", path, "inspect"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_load_csv_rejects_a_non_numeric_mu(tmp_path, capsys):
    (tmp_path / "net.states.csv").write_text("id,mu\na,x\nb,2.0\n")
    (tmp_path / "net.csv").write_text("i,j,w\na,b,3.0\n")
    path = str(tmp_path / "net.csv")
    with pytest.raises(ParseError) as info:
        load_network(path)
    assert info.value.reason == "MalformedStates"
    assert main(["--net", path, "inspect"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_suite_all_passes_on_fixtures():
    for name, make in FIXTURES.items():
        report = run_suite(make(), "all", seed=7)
        failed = [r.name for r in report.results if not r.passed]
        assert report.passed, f"{name}: {failed}"


def test_suite_detects_corrupted_coupling():
    # bypass validation to build a deliberately asymmetric coupling
    W = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    bad = Network(("a", "b", "c"), np.ones(3), W, None)
    report = run_suite(bad, "core", seed=7)
    assert not report.passed
    names = {r.name for r in report.results if not r.passed}
    assert "coupling-symmetry" in names or "detailed-balance" in names


def test_suite_reports_deterministic(tri):
    a = run_suite(tri, "all", seed=11).to_dict()
    b = run_suite(tri, "all", seed=11).to_dict()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_suite_unknown_id(tri):
    with pytest.raises(ValueError):
        run_suite(tri, "bogus", seed=0)


def test_harmonic_dimension_catches_merged_components(monkeypatch, two_comp):
    # one fault in ``components`` reaches both the basis and the suite's count;
    # the spectrum's unit multiplicity still sees two components
    def merged(net):
        comps = mlap.components(net)
        return [tuple(sorted(comps[0] + comps[1]))] + comps[2:]

    assert run_suite(two_comp, "operators", seed=0).passed
    monkeypatch.setattr(mlap.operators, "components", merged)
    monkeypatch.setattr(mlap.suites, "components", merged)
    failed = {r.name for r in run_suite(two_comp, "operators", seed=0).results if not r.passed}
    assert "harmonic-dimension" in failed


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def fixture_dir(tmp_path):
    mlap.emit_fixtures(str(tmp_path))
    return tmp_path


def test_cli_inspect(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"), "inspect"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert payload["irreducible"] is True


def test_cli_suite_pass_and_exit_code(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"), "--seed", "7", "suite", "--suite", "all"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["suite"] == "all"


def test_cli_suite_green_on_path(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "path3.json"), "suite", "--suite", "green"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_cli_green_matrix(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "path3.json"), "green"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["green"], [[2.0, 2.0], [1.0, 2.0]], atol=1e-12)


def test_cli_energy(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"), "energy", "--f", "[1,0,0]"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inner"] == pytest.approx(2.0)


def test_cli_dipole(fixture_dir, capsys):
    code = main([
        "--net", str(fixture_dir / "triangle.json"),
        "dipole", "--kind", "mu", "--A", "a", "--B", "b",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] <= 1e-9


def test_cli_sample_with_dump(fixture_dir, tmp_path, capsys):
    dump = tmp_path / "paths.csv"
    code = main([
        "--net", str(fixture_dir / "triangle.json"), "--seed", "3",
        "sample", "--steps", "2", "--paths", "50", "--dump", str(dump),
    ])
    assert code == 0
    rows = dump.read_text().strip().splitlines()
    assert len(rows) == 50
    assert all(len(r.split(",")) == 3 for r in rows)


def test_cli_sample_dump_matches_the_row_loop(tmp_path, capsys):
    # ids that CSV must quote, and integers written by str()
    W = np.array([[0.0, 1.0, 2.0, 0.0], [1.0, 0.5, 1.0, 0.0], [2.0, 1.0, 0.0, 3.0], [0.0, 0.0, 3.0, 0.0]])
    net = mlap.build_network(("a,b", 'q"x', 7, " s"), np.ones(4), W)
    save_network(net, str(tmp_path / "net.json"))
    dump = tmp_path / "paths.csv"
    code = main(["--net", str(tmp_path / "net.json"), "--seed", "4",
                 "sample", "--steps", "3", "--paths", "200", "--dump", str(dump)])
    assert code == 0
    loaded = load_network(str(tmp_path / "net.json"))
    batch = mlap.sample_paths(loaded, 4, 3, 200, "nu")
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    for row in batch.paths:
        writer.writerow([str(loaded.states[i]) for i in row])
    assert dump.read_bytes() == ref.getvalue().encode()


def test_cli_kernel(fixture_dir, tmp_path, capsys):
    sets = tmp_path / "sets.json"
    sets.write_text('[["0"], ["1"]]')
    code = main([
        "--net", str(fixture_dir / "path3.json"),
        "kernel", "--kind", "K", "--sets", str(sets),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_id"] == "K"
    assert payload["gram"][0][0] == pytest.approx(2.0)


def test_cli_learn(fixture_dir, capsys):
    code = main([
        "--net", str(fixture_dir / "triangle.json"),
        "learn", "--gamma", "1.0", "--target", "[1,0,0]",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == pytest.approx(payload["misfit"] + payload["penalty"], rel=1e-12)


def test_cli_decompose(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "two_component.json"), "decompose", "--f", "[1,1,1,0,0]"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energy_f"] == pytest.approx(0.0, abs=1e-12)


def test_cli_fixtures(tmp_path, capsys):
    code = main(["fixtures", "--dir", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["written"]) == 6


def test_cli_validation_exit_code(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"), "energy", "--f", "[1,0]"])
    assert code == 1


def test_cli_io_exit_code(capsys):
    code = main(["--net", "/does/not/exist.json", "inspect"])
    assert code == 3


def test_cli_unknown_state_exit_code(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"), "dipole", "--kind", "mu", "--A", "zz", "--B", "b"])
    assert code == 1


def test_cli_csv_format_suite(fixture_dir, capsys):
    code = main([
        "--net", str(fixture_dir / "triangle.json"), "--format", "csv",
        "suite", "--suite", "core",
    ])
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "name,residual,tol,passed"


def test_cli_out_file(fixture_dir, tmp_path):
    target = tmp_path / "report.json"
    code = main([
        "--net", str(fixture_dir / "triangle.json"), "--out", str(target),
        "suite", "--suite", "core",
    ])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["passed"] is True


def _edges_by_loop(net):
    """Upper-triangle edge list by the row-major double loop."""
    edges = []
    for a in range(net.n):
        for b in range(a, net.n):
            if net.W[a, b] > 0.0:
                edges.append({"i": str(net.states[a]), "j": str(net.states[b]), "w": float(net.W[a, b])})
    return edges


def test_network_document_edges_match_loop_reference(rng):
    nets = [make() for make in FIXTURE_MAKERS.values()]
    W = np.where(rng.random((7, 7)) < 0.5, rng.uniform(0.1, 3.0, (7, 7)), 0.0)
    nets.append(mlap.build_network(range(7), np.ones(7), W + W.T + np.eye(7)))
    for net in nets:
        assert network_document(net)["edges"] == _edges_by_loop(net)


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--f", "[1,"],
        ["energy", "--f", '["x",0,0]'],
        ["energy", "--f", '{"a": 1}'],
        ["energy", "--f", "[NaN,0,0]"],
        ["energy", "--f", "[1e999,0,0]"],
        ["learn", "--gamma", "1", "--target", "[Infinity,0,0]"],
        ["--seed", "-1", "sample"],
        ["--seed", str(2**64), "suite", "--suite", "core"],
        ["learn", "--gamma", "nan", "--target", "[1,0,0]"],
        ["learn", "--gamma", "inf", "--target", "[1,0,0]"],
        ["green", "--method", "neumann", "--tol", "inf"],
        ["green", "--method", "neumann", "--tol", "nan"],
        ["--tol", "0", "suite", "--suite", "core"],
        ["suite", "--suite", "core", "--tol=-1e-10"],
        # argparse usage errors
        ["suite", "--suite", "core", "--tol", "-1e-10"],
        ["learn", "--gamma", "x", "--target", "[1,0,0]"],
        ["learn", "--target", "[1,0,0]"],
        ["bogus"],
        [],
        # --tol belongs to green alone
        ["--tol", "1e-3", "green"],
        ["suite", "--suite", "core", "--tol", "1e-3"],
    ],
)
def test_cli_bad_input_is_a_one_line_validation_error(fixture_dir, capsys, argv):
    code = main(["--net", str(fixture_dir / "triangle.json")] + argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1,", '[[1, 2], [3]]', "[1, 0, 0"])
def test_cli_malformed_vector_file(fixture_dir, tmp_path, capsys, text):
    vec = tmp_path / "f.json"
    vec.write_text(text)
    code = main(["--net", str(fixture_dir / "triangle.json"), "energy", "--f", "@" + str(vec)])
    assert code == 1
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("text", ["[[", '{"a": ["0"]}', '["01"]', '[["0"], 1]', '[["9"]]'])
def test_cli_malformed_sets_file(fixture_dir, tmp_path, capsys, text):
    sets = tmp_path / "sets.json"
    sets.write_text(text)
    code = main(["--net", str(fixture_dir / "path3.json"), "kernel", "--kind", "K", "--sets", str(sets)])
    assert code == 1
    assert capsys.readouterr().err.count("\n") == 1


SUBCOMMANDS = ("inspect", "operators", "energy", "dipole", "decompose", "sample",
               "green", "kernel", "suite", "fixtures")


@pytest.mark.parametrize("argv", [["--help"], ["learn", "--help"]] + [[c, "--help"] for c in SUBCOMMANDS])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mlap")


def test_cli_largest_seed_is_accepted(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"), "--seed", str(2**64 - 1),
                 "sample", "--steps", "1", "--paths", "10"])
    assert code == 0


@pytest.mark.parametrize("weights", [[1e308], [8e307, 8e307, 8e307]])
def test_cli_loader_rejects_an_overflowing_coupling(tmp_path, capsys, weights):
    states = [{"id": str(k), "mu": 1.0} for k in range(len(weights) + 1)]
    edges = [{"i": "0", "j": str(k + 1), "w": w} for k, w in enumerate(weights)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": "mlap-net/1", "states": states, "edges": edges}))
    assert main(["--net", str(path), "inspect"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err


@pytest.mark.parametrize("mu0, w", [(1e-300, 1e10), (1e308, 1e-20)])
def test_cli_loader_rejects_a_conductance_out_of_range(tmp_path, capsys, mu0, w):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"schema": "mlap-net/1",
                                "states": [{"id": "a", "mu": mu0}, {"id": "b", "mu": 1.0}],
                                "edges": [{"i": "a", "j": "b", "w": w}]}))
    for argv in (["inspect"], ["energy", "--f", "[1,0]"]):
        assert main(["--net", str(path)] + argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: conductance W / mu") and err.count("\n") == 1


def test_cli_learn_rejects_a_gamma_that_overflows(fixture_dir, capsys):
    code = main(["--net", str(fixture_dir / "triangle.json"),
                 "learn", "--gamma", "1e308", "--target", "[1,0,0]"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: gamma 1e+308 overflows") and err.count("\n") == 1


PIPELINE_FORMS = {
    "inspect": ["inspect"],
    "operators": ["operators", "--f", "[1,0,0]"],
    "energy": ["energy", "--f", "[1,0,0]", "--g", "[0,1,0]"],
    "dipole": ["dipole", "--kind", "mu", "--A", "0", "--B", "1"],
    "decompose": ["decompose", "--f", "[1,0,0]"],
    "sample": ["sample", "--steps", "2", "--paths", "20"],
    "green": ["green"],
    "green-neumann": ["green", "--method", "neumann", "--tol", "1e-9"],
    "kernel-K": ["kernel", "--kind", "K", "--sets", "SETS"],
    "kernel-Nrho": ["kernel", "--kind", "Nrho", "--sets", "SETS"],
    "kernel-krho": ["kernel", "--kind", "krho", "--sets", "SETS"],
    "learn": ["learn", "--gamma", "1.0", "--target", "[1,0,0]"],
    "suite": ["suite", "--suite", "all"],
    "suite-csv": ["--format", "csv", "suite", "--suite", "core"],
}


def _count_calls(monkeypatch, counts, module, name, key):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def pipeline_counts(monkeypatch):
    counts = {"load": 0, "checksum": 0, "killed": 0}
    _count_calls(monkeypatch, counts, mlap.cli, "load_network", "load")
    _count_calls(monkeypatch, counts, mlap.cli, "network_checksum", "checksum")
    _count_calls(monkeypatch, counts, mlap.suites, "network_checksum", "checksum")
    _count_calls(monkeypatch, counts, mlap.green, "killed_restriction", "killed")
    return counts


@pytest.mark.parametrize("form", sorted(PIPELINE_FORMS))
def test_cli_op_loads_once_and_checksums_once(fixture_dir, tmp_path, capsys, pipeline_counts, form):
    sets = tmp_path / "sets.json"
    sets.write_text('[["0"], ["0", "1"]]')
    argv = [str(sets) if a == "SETS" else a for a in PIPELINE_FORMS[form]]
    assert main(["--net", str(fixture_dir / "path3.json")] + argv) == 0
    assert (pipeline_counts["load"], pipeline_counts["checksum"]) == (1, 1)
    if form.startswith("green"):
        assert pipeline_counts["killed"] == 1
    if not form.endswith("csv"):
        assert json.loads(capsys.readouterr().out)["checksum"] == network_checksum(path3())


def test_cli_fixtures_loads_and_checksums_nothing(tmp_path, capsys, pipeline_counts):
    assert main(["fixtures", "--dir", str(tmp_path / "fx")]) == 0
    assert pipeline_counts == {"load": 0, "checksum": 0, "killed": 0}
    assert "checksum" not in json.loads(capsys.readouterr().out)
