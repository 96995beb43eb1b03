import io
import json
from fractions import Fraction

import pytest

from posetpoly import cli, omegagraph
from posetpoly.cli import main

CHAIN = "elements: 2\n0 < 1\n"
STRICT_CHAIN = "elements: 2\nlabels: 2 1\n0 < 1\n"
VEE = "elements: 3\n0 < 2\n1 < 2\n"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def poset_file(tmp_path):
    def write(text, name="input.poset"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_order_poly_plain(poset_file, capsys):
    code, out, _ = run_cli(["order-poly", poset_file(CHAIN)], capsys)
    assert code == 0
    assert out.strip() == "1/2·t^2 + 1/2·t"


def test_order_poly_routes_agree(poset_file, capsys):
    path = poset_file(VEE)
    outputs = set()
    for route in ("recursive", "matrix", "oracle"):
        code, out, _ = run_cli(["order-poly", path, "--route", route], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_order_poly_unlabeled(poset_file, capsys):
    code, out, _ = run_cli(
        ["order-poly", poset_file(CHAIN), "--unlabeled", "strict"], capsys
    )
    assert code == 0
    assert out.strip() == "1/2·t^2 - 1/2·t"


def test_route_and_unlabeled_conflict(poset_file, capsys):
    code, _, err = run_cli(
        ["order-poly", poset_file(CHAIN), "--unlabeled", "weak", "--route", "matrix"],
        capsys,
    )
    assert code == 1
    assert "labeled" in err


def test_json_document(poset_file, capsys):
    path = poset_file(CHAIN)
    code, out, _ = run_cli(["order-poly", path, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["poset", "invariant", "coefficients", "metadata"]
    assert doc["poset"] == {"elements": 2, "labels": [1, 2], "covers": [[0, 1]]}
    assert [Fraction(c) for c in doc["coefficients"]] == [
        0,
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    assert doc["metadata"]["ideal_count"] == 3
    assert doc["metadata"]["path_counts"] == [0, 1, 1]

    code, again, _ = run_cli(["order-poly", path, "--json"], capsys)
    second = json.loads(again)
    for d in (doc, second):
        d["metadata"].pop("elapsed_seconds")
    assert doc == second


def test_bernoulli_routes(capsys):
    for route in ("oracle", "shrub", "multinomial"):
        code, out, _ = run_cli(["bernoulli", "--n", "2", "--route", route], capsys)
        assert code == 0
        assert out.strip() == "1/6"
    code, out, _ = run_cli(["bernoulli", "--n", "3"], capsys)
    assert out.strip() == "0"
    code, out, _ = run_cli(["bernoulli", "--n", "2", "--json"], capsys)
    assert json.loads(out)["value"] == "1/6"


def test_bernoulli_rejects_bad_n(capsys):
    code, _, err = run_cli(["bernoulli", "--n", "0", "--route", "shrub"], capsys)
    assert code == 1
    assert "n >= 1" in err


def test_phi(poset_file, capsys):
    code, out, _ = run_cli(["phi", poset_file(STRICT_CHAIN)], capsys)
    assert code == 0
    assert out.strip() == "-1/2"


def test_ideals(poset_file, capsys):
    code, out, _ = run_cli(["ideals", poset_file(CHAIN)], capsys)
    assert code == 0
    assert out.splitlines() == ["{}", "{0}", "{0, 1}"]


def test_omega_graph_dot(poset_file, capsys):
    code, out, _ = run_cli(["omega-graph", poset_file(CHAIN), "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert "v0 -> v2;" in out  # the doubleton difference is label-increasing


def test_omega_graph_plain(poset_file, capsys):
    code, out, _ = run_cli(["omega-graph", poset_file(STRICT_CHAIN)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 3"
    assert lines[1] == "arcs: 2"
    assert "{} -> {0, 1}" not in out


def test_omega_graph_builds_one_graph(poset_file, capsys, monkeypatch):
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)
    builds = []
    original = omegagraph.build_omega_graph

    def counting(lp):
        builds.append(lp)
        return original(lp)

    monkeypatch.setattr(cli, "build_omega_graph", counting)
    monkeypatch.setattr(omegagraph, "build_omega_graph", counting)
    code, out, _ = run_cli(["omega-graph", poset_file(VEE), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["path_counts"] == [0, 1, 3, 2]
    assert len(builds) == 1


def test_eulerian_routes_agree(poset_file, capsys):
    path = poset_file(STRICT_CHAIN)
    code, chains, _ = run_cli(["eulerian", path], capsys)
    assert code == 0
    assert chains.splitlines() == ["e: λ^2", "etilde: (λ^2) / (1 - λ)^3"]
    _, recursive, _ = run_cli(["eulerian", path, "--route", "recursive"], capsys)
    assert recursive == chains


def test_qsym_routes_agree(poset_file, capsys):
    path = poset_file(STRICT_CHAIN)
    code, direct, _ = run_cli(["qsym", path, "--vars", "2"], capsys)
    assert code == 0
    assert direct.strip() == "x1·x2"
    _, recursive, _ = run_cli(["qsym", path, "--vars", "2", "--route", "recursive"], capsys)
    assert recursive == direct


def test_qsym_direct_refuses_oversized_enumeration(poset_file, capsys):
    path = poset_file("elements: 9\n")
    code, out, err = run_cli(["qsym", path, "--vars", "50"], capsys)
    assert code == 1
    assert out == ""
    assert "POSET_ORACLE_MAX" in err


def test_invariant_specs(poset_file, capsys):
    path = poset_file(CHAIN)
    code, out, _ = run_cli(["invariant", path, "--spec", "omega"], capsys)
    assert code == 0
    assert out.strip() == "1/2·t^2 + 1/2·t"
    code, out, _ = run_cli(["invariant", path, "--spec", "eulerian"], capsys)
    assert out.strip() == "λ"
    code, out, _ = run_cli(["invariant", path, "--spec", "etilde"], capsys)
    assert out.strip() == "(λ) / (1 - λ)^3"
    code, out, _ = run_cli(["invariant", path, "--spec", "qsym:2"], capsys)
    assert out.strip() == "x1^2 + x1·x2 + x2^2"


def test_invariant_rejects_unknown_spec(poset_file, capsys):
    code, _, err = run_cli(["invariant", poset_file(CHAIN), "--spec", "zeta"], capsys)
    assert code == 1
    assert "zeta" in err


def test_parse_error_exit_code(poset_file, capsys):
    path = poset_file("elements: 2\n0 < 1\n1 < 0\n")
    code, _, err = run_cli(["order-poly", path], capsys)
    assert code == 2
    assert "line 3" in err


def test_missing_file(capsys):
    code, _, err = run_cli(["order-poly", "/nonexistent/p.poset"], capsys)
    assert code == 1
    assert "error" in err


def test_usage_errors(poset_file, capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 1
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 1
    code, _, _ = run_cli(["order-poly", poset_file(CHAIN), "--route", "psychic"], capsys)
    assert code == 1


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN))
    code, out, _ = run_cli(["order-poly", "-"], capsys)
    assert code == 0
    assert out.strip() == "1/2·t^2 + 1/2·t"
