"""Command-line surface: subcommands, exit codes, JSON files."""

import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ramex
from ramex import cli, expectation_engine, ramanujan_walk
from ramex.cli import main
from ramex.exact_algebra import InvariantViolation, TooLarge, UniPoly, rational_to_str
from ramex.matching_family import IsLeaf, NodeState, NotALeaf, NotRegular, Params, node_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_worked_case(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(out))
    assert code == 0
    assert "passed" in stdout
    graph = json.loads((out / "graph.json").read_text())
    assert graph == {"n": 4, "d": 3, "multiplicity": [[2, 1], [1, 2]]}
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["q"] == 8
    assert cert["nontrivial_charpoly"] == ["-1", "0", "1"]


def test_build_rejects_odd_n(tmp_path, capsys):
    code, _, stderr = run(capsys, "build", "--n", "3", "--d", "3", "--out", str(tmp_path))
    assert code == 2
    assert "even" in stderr


def test_build_single_pair(tmp_path, capsys):
    code, _, _ = run(capsys, "build", "--n", "2", "--d", "5", "--out", str(tmp_path))
    assert code == 0
    graph = json.loads((tmp_path / "graph.json").read_text())
    assert graph["multiplicity"] == [[5]]


def test_build_then_certify_round_trip(tmp_path, capsys):
    code, _, _ = run(capsys, "build", "--n", "6", "--d", "3", "--out", str(tmp_path))
    assert code == 0
    code, stdout, _ = run(capsys, "certify", str(tmp_path / "graph.json"))
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_build_trace_starts_at_the_identity(tmp_path, capsys):
    code, _, _ = run(
        capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path), "--trace"
    )
    assert code == 0
    transcript = json.loads((tmp_path / "transcript.json").read_text())
    assert transcript["params"] == {"n": 4, "d": 3}
    assert "canonical_first_matching" not in transcript
    assert transcript["stages"]
    stage = transcript["stages"][0]
    assert stage["node"] == {"complete": [[1, 2]], "partial": []}
    assert {"node", "node_poly_sha256", "children", "chosen"} <= set(stage)
    for child in stage["children"]:
        assert {"node", "poly_sha256", "passed"} <= set(child)
    assert transcript["certificate"]["passed"] is True


def test_build_trace_records_the_workers_started(tmp_path, capsys):
    # no stage of n = 4 has more than m = 2 children, so --jobs 50 starts 2
    code, _, _ = run(
        capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path), "--trace", "--jobs", "50"
    )
    assert code == 0
    assert json.loads((tmp_path / "transcript.json").read_text())["jobs"] == 2


@pytest.mark.parametrize("jobs", [2, 50])
def test_transcript_jobs_is_the_pool_the_walk_started(tmp_path, capsys, monkeypatch, jobs):
    """The transcript's "jobs" is the size of the pool the traced walk
    asked for, not a second copy of the rule that sizes it."""
    asked = []
    real = ramanujan_walk.ThreadPoolExecutor

    def recording_pool(max_workers):
        asked.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(ramanujan_walk, "ThreadPoolExecutor", recording_pool)
    argv = ("build", "--n", "6", "--d", "3", "--out", str(tmp_path), "--trace", "--jobs", str(jobs))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert asked == [min(jobs, 3)]
    assert json.loads((tmp_path / "transcript.json").read_text())["jobs"] == asked[0]


def test_traced_transcript_is_the_same_in_threads(tmp_path, capsys):
    """A traced build that evaluates children in two threads writes the
    serial build's transcript; only the threads started and the elapsed
    time differ."""
    transcripts = []
    for jobs in ("1", "2"):
        out = str(tmp_path / jobs)
        argv = ("build", "--n", "10", "--d", "3", "--out", out, "--trace", "--jobs", jobs)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        transcripts.append(json.loads((tmp_path / jobs / "transcript.json").read_text()))
    serial, threaded = transcripts
    assert (serial.pop("jobs"), threaded.pop("jobs")) == (1, 2)
    del serial["elapsed_ms"], threaded["elapsed_ms"]
    assert threaded == serial


def test_certify_failing_graph(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "d": 3, "multiplicity": [[3, 0], [0, 3]]}))
    code, stdout, _ = run(capsys, "certify", str(path))
    assert code == 1
    cert = json.loads(stdout)
    assert cert["passed"] is False
    assert cert["nontrivial_charpoly"] == ["-9", "0", "1"]


def test_certify_truncated_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"n": 4, "d": 3, "multip')
    code, _, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert "cannot read" in stderr


def test_certify_rejects_non_integer_multiplicity(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text('{"n": 4, "d": 3, "multiplicity": [[2.9, 1], [1, 2]]}')
    code, stdout, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert stdout == ""
    assert "JSON integer" in stderr


@pytest.mark.parametrize(
    "graph",
    [
        '{"n": 4, "d": 3, "multiplicity": [[true, 2], [2, 1]]}',
        '{"n": "4", "d": 3, "multiplicity": [[2, 1], [1, 2]]}',
        '{"n": 4.0, "d": 3, "multiplicity": [[2, 1], [1, 2]]}',
    ],
)
def test_certify_rejects_non_integer_fields(tmp_path, capsys, graph):
    path = tmp_path / "bad.json"
    path.write_text(graph)
    code, _, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert "JSON integer" in stderr


def test_certify_irregular_graph(tmp_path, capsys):
    path = tmp_path / "irr.json"
    path.write_text(json.dumps({"n": 4, "d": 3, "multiplicity": [[2, 1], [2, 1]]}))
    code, _, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert stderr == "error: cannot read multigraph: right vertex 1 has degree 4 != 3\n"


@pytest.mark.parametrize(
    "multiplicity, message",
    [
        ([[2, 1], [1, 1]], "left vertex 2 has degree 2 != 3"),
        ([[4, -1], [-1, 4]], "multiplicities must be nonnegative integers"),  # sums are 3
    ],
)
def test_certify_rejects_bad_multiplicities(tmp_path, capsys, multiplicity, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "d": 3, "multiplicity": multiplicity}))
    code, stdout, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: cannot read multigraph: {message}\n"


def test_certify_past_the_largest_modulus_exits_2(tmp_path, capsys):
    # the Gram [[d^2]] needs a modulus above 2 d^2 = 2^8845
    d = 2**4422
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "d": d, "multiplicity": [[d]]}))
    code, stdout, stderr = run(capsys, "certify", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and "exceeds the largest modulus" in stderr


# sha256 of `ramex certify`'s stdout on the union of 3 random matchings
# seeded by n, as the pure-Python Hessenberg kernel modulo one Mersenne
# prime printed it: m = n/2 is past the grid's MAX_GRID_M at every n
_PINNED_CERTIFY = {
    96: (0, "06b540f69cbf177d19724a0e69af5ca3b4d612b764dd0a0bb6836d87604c6551"),
    128: (0, "1d21dff9644232287523120b2bb950e49477eedf3ada18201bd19d6bff0c3f99"),
    256: (1, "185ec6e893920eedcd9cff6a1869200f1cba14a415d35025d776186630cff2e9"),
}


@pytest.mark.parametrize("n", sorted(_PINNED_CERTIFY))
def test_certify_beyond_the_grid_is_pinned(n, tmp_path, capsys):
    """certify reproduces its pinned output on a seeded graph, and verify
    accepts that output as the certificate, with the same exit code."""
    rng, m = random.Random(n), n // 2
    mult = [[0] * m for _ in range(m)]
    for _ in range(3):
        perm = list(range(m))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mult[i][j] += 1
    graph, cert = tmp_path / "graph.json", tmp_path / "certificate.json"
    graph.write_text(json.dumps({"n": n, "d": 3, "multiplicity": mult}))
    code, stdout, _ = run(capsys, "certify", str(graph))
    assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == _PINNED_CERTIFY[n]
    cert.write_text(stdout)
    code, stdout, _ = run(capsys, "verify", str(graph), str(cert))
    assert code == _PINNED_CERTIFY[n][0] and stdout.startswith("certificate matches")


@pytest.fixture(scope="module")
def built_6_3(tmp_path_factory):
    out = tmp_path_factory.mktemp("built_6_3")
    assert main(["build", "--n", "6", "--d", "3", "--out", str(out)]) == 0
    return out


def test_verify_build_output(built_6_3, capsys):
    code, stdout, stderr = run(
        capsys, "verify", str(built_6_3 / "graph.json"), str(built_6_3 / "certificate.json")
    )
    assert code == 0, stderr
    assert "matches" in stdout and "passed" in stdout


def _tamper_b(cert):
    cert["shifted_coeffs"][3]["b"] = "1/2"


def _flip_passed(cert):
    cert["passed"] = not cert["passed"]


def _add_key(cert):
    cert["note"] = "hand-edited"


@pytest.mark.parametrize(
    "tamper, field",
    [
        (_tamper_b, "shifted_coeffs[3].b"),
        (_flip_passed, "passed"),
        (_add_key, "note"),
    ],
)
def test_verify_names_first_mismatch(built_6_3, tmp_path, capsys, tamper, field):
    cert = json.loads((built_6_3 / "certificate.json").read_text())
    tamper(cert)
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(cert))
    code, stdout, stderr = run(capsys, "verify", str(built_6_3 / "graph.json"), str(path))
    assert code == 1
    assert stdout == ""
    assert f"mismatch at {field}:" in stderr


def test_verify_matching_failed_certificate(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 4, "d": 3, "multiplicity": [[3, 0], [0, 3]]}))
    code, stdout, _ = run(capsys, "certify", str(graph))
    assert code == 1
    cert = tmp_path / "certificate.json"
    cert.write_text(stdout)
    code, stdout, stderr = run(capsys, "verify", str(graph), str(cert))
    assert code == 1
    assert "mismatch" not in stderr
    assert "FAILED" in stdout


def test_verify_rejects_malformed_input(built_6_3, tmp_path, capsys):
    graph = str(built_6_3 / "graph.json")
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    code, _, stderr = run(capsys, "verify", graph, str(listed))
    assert code == 2
    assert "JSON object" in stderr
    code, _, stderr = run(capsys, "verify", graph, str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read certificate" in stderr
    irregular = tmp_path / "irr.json"
    irregular.write_text(json.dumps({"n": 4, "d": 3, "multiplicity": [[2, 1], [2, 1]]}))
    code, _, stderr = run(
        capsys, "verify", str(irregular), str(built_6_3 / "certificate.json")
    )
    assert code == 2
    assert "degree" in stderr


def test_build_cross_checks_walk_against_certificate(tmp_path, capsys, monkeypatch):
    """A certificate whose nontrivial polynomial is not the walk's leaf
    polynomial fails build's cross-check against certify: exit 3, no graph."""
    real = cli.certify

    def skewed(graph):
        cert = real(graph)
        return dataclasses.replace(
            cert, nontrivial_poly=cert.nontrivial_poly + UniPoly((1,))
        )

    monkeypatch.setattr(cli, "certify", skewed)
    code, _, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 3
    assert stderr == (
        "internal error: the walk's leaf polynomial differs from the certified "
        "nontrivial polynomial\n"
    )
    assert not (tmp_path / "graph.json").exists()


def test_build_and_verify_cross_check_the_elimination_test(
    built_6_3, tmp_path, capsys, monkeypatch
):
    """A certificate verdict that the elimination test contradicts is an
    internal fault: exit 3 from build (writing no graph) and from verify."""
    monkeypatch.setattr(cli, "certify_by_elimination", lambda graph: False)
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 3
    assert stdout == ""
    assert "elimination test of the Ramanujan bound disagrees" in stderr
    assert not (tmp_path / "graph.json").exists()
    code, stdout, stderr = run(
        capsys, "verify", str(built_6_3 / "graph.json"), str(built_6_3 / "certificate.json")
    )
    assert code == 3
    assert stdout == ""
    assert "elimination test of the Ramanujan bound disagrees" in stderr
    assert "Traceback" not in stderr


def test_internal_error_in_certify_exits_3(built_6_3, capsys, monkeypatch):
    """certify and verify map an internal fault to exit 3, not to a traceback
    with exit 1, which means a failed certificate."""

    def broken(graph):
        raise InvariantViolation("broken on purpose")

    monkeypatch.setattr(cli, "certify", broken)
    graph = str(built_6_3 / "graph.json")
    for argv in (["certify", graph], ["verify", graph, str(built_6_3 / "certificate.json")]):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 3
        assert stdout == ""
        assert stderr == "internal error: broken on purpose\n"


def test_irregular_leaf_in_build_exits_3(tmp_path, capsys, monkeypatch):
    """An irregular graph file is bad input, but the walk's own leaf being
    irregular is a bug."""

    def irregular(node, params):
        raise NotRegular("right vertex 1 has degree 4 != 3")

    monkeypatch.setattr(cli, "leaf_graph", irregular)
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 3
    assert stdout == ""
    assert stderr == "internal error: right vertex 1 has degree 4 != 3\n"


def test_build_engine_fault_exits_3(tmp_path, capsys, monkeypatch):
    # twice the true Gram polynomial is not monic: an engine fault, not a
    # failed certificate
    real = expectation_engine._contract

    def doubled(planes, lhat):
        coeffs, den = real(planes, lhat)
        return [2 * c for c in coeffs], den

    monkeypatch.setattr(expectation_engine, "_contract", doubled)
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 3
    assert stdout == ""
    assert "internal error: the expected Gram polynomial is not monic" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "graph.json").exists()


def test_sizes_beyond_the_grid_are_usage_errors(tmp_path, capsys):
    # m = 33 is above MAX_GRID_M: exit 2 with the reason, before any grid runs
    code, _, stderr = run(capsys, "build", "--n", "66", "--d", "3", "--out", str(tmp_path))
    assert code == 2 and "m <= 32, got m = 33" in stderr
    assert not (tmp_path / "graph.json").exists()
    node = '{"complete": [], "partial": [1]}'
    code, stdout, stderr = run(capsys, "node-poly", node, "--n", "66", "--d", "3")
    assert code == 2 and "m <= 32, got m = 33" in stderr and stdout == ""


def test_huge_sizes_exit_2_before_any_node_matrix(tmp_path, capsys, monkeypatch):
    # the size guard runs before half_adjacency's m x m count matrix, which at
    # this n would need tens of GB; the patch makes reaching it a test failure
    def unreachable(node, params):
        raise AssertionError("a node matrix was built for a size beyond the grid")

    monkeypatch.setattr(expectation_engine, "half_adjacency", unreachable)
    code, _, stderr = run(capsys, "build", "--n", "100000", "--d", "3", "--out", str(tmp_path))
    assert code == 2 and "m <= 32, got m = 50000" in stderr
    assert not (tmp_path / "graph.json").exists()
    node = '{"complete": []}'
    code, stdout, stderr = run(capsys, "node-poly", node, "--n", "100000", "--d", "3")
    assert code == 2 and "m <= 32, got m = 50000" in stderr and stdout == ""


def test_huge_sizes_exit_2_before_the_start_node(tmp_path, capsys, monkeypatch):
    # walk's start node holds an m-tuple, about 8 GB of pointers at n = 2e9;
    # the size guard must run before it is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the start node was built for a size beyond the grid")

    monkeypatch.setattr(ramanujan_walk, "NodeState", unreachable)
    code, _, stderr = run(capsys, "build", "--n", "100000", "--d", "3", "--out", str(tmp_path))
    assert code == 2 and "m <= 32, got m = 50000" in stderr


def test_node_poly_root(capsys):
    code, stdout, _ = run(
        capsys, "node-poly", '{"complete": [], "partial": []}', "--n", "4", "--d", "3"
    )
    assert code == 0
    assert json.loads(stdout) == ["-3", "0", "1"]


def test_node_poly_from_file_with_ctensor(tmp_path, capsys):
    path = tmp_path / "node.json"
    path.write_text(json.dumps({"complete": [], "partial": []}))
    code, stdout, _ = run(
        capsys, "node-poly", str(path), "--n", "6", "--d", "3", "--ctensor"
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["node_poly"][-1] == "1"
    assert data["ctensor"]["values"][0][0][0] == "1"


def test_node_poly_ctensor_on_leaf(capsys):
    # the empty block of a leaf gives the l_hat = 0 tensor of the plain
    # Gram [[5, 4], [4, 5]]: trace 10, determinant 9
    leaf = {"complete": [[1, 2], [1, 2], [2, 1]], "partial": []}
    code, stdout, _ = run(
        capsys, "node-poly", json.dumps(leaf), "--n", "4", "--d", "3", "--ctensor"
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["node_poly"] == ["-1", "0", "1"]
    assert data["ctensor"] == {"m": 2, "lhat": 0, "values": [[["1"]], [["10"]], [["9"]]]}


def test_node_poly_ctensor_on_root(capsys):
    # the root's fresh matching is folded, not averaged over a block, so
    # its tensor is the l_hat = 0 one of the zero matrix's Gram
    code, stdout, _ = run(
        capsys, "node-poly", '{"complete": [], "partial": []}', "--n", "8", "--d", "3",
        "--ctensor",
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["node_poly"] == ["-31/3", "0", "21", "0", "-9", "0", "1"]
    assert data["ctensor"] == {
        "m": 4, "lhat": 0, "values": [[["1"]], [["0"]], [["0"]], [["0"]], [["0"]]]
    }


def test_node_poly_ctensor_pins_the_grid_orientation(capsys):
    """A (10,3) node whose tensor is not symmetric in (p, q), unlike every
    golden node's: the counting weights are symmetric, so no node
    polynomial sees a transposed tensor, and this output pins t_r to the
    block's rows and t_c to its columns.  Its polynomial times x^2 - 9 is
    the oracle's."""
    node = '{"complete": [[3, 2, 5, 1, 4], [1, 2, 3, 4, 5]], "partial": [2]}'
    code, stdout, _ = run(capsys, "node-poly", node, "--n", "10", "--d", "3", "--ctensor")
    assert code == 0
    data = json.loads(stdout)
    assert data["node_poly"] == ["14/3", "0", "-109/3", "0", "217/6", "0", "-11", "0", "1"]
    assert (data["ctensor"]["m"], data["ctensor"]["lhat"]) == (5, 3)
    zero = ["0", "0", "0", "0"]
    assert data["ctensor"]["values"] == [
        [["1", "0", "0", "0"], zero, zero, zero],
        [["37/4", "5/4", "0", "0"], ["15/4", "11/4", "0", "0"], zero, zero],
        [["9/4", "45/4", "0", "0"], ["135/4", "59/2", "5/2", "0"], ["0", "10", "3/2", "0"], zero],
        [zero, ["0", "171/4", "45/2", "0"], ["0", "90", "22", "0"], ["0", "0", "5", "0"]],
        [zero, zero, ["0", "0", "153/2", "0"], ["0", "0", "45", "0"]],
        [zero, zero, zero, zero],
    ]


def test_node_poly_ctensor_runs_the_grid_once(capsys, monkeypatch):
    # the tensor printed is the one the node polynomial was built from
    calls = []

    def counting(real):
        def wrapped(*args):
            calls.append(args)
            return real(*args)

        return wrapped

    for module in (cli, expectation_engine):
        if hasattr(module, "trivariate_detpoly"):
            monkeypatch.setattr(module, "trivariate_detpoly", counting(module.trivariate_detpoly))
    node = '{"complete": [[1, 2, 3, 4]], "partial": [2]}'
    code, _, _ = run(capsys, "node-poly", node, "--n", "8", "--d", "3", "--ctensor")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["node-poly", "oracle"])
def test_node_argument_naming_a_directory(tmp_path, capsys, command):
    code, stdout, stderr = run(capsys, command, str(tmp_path), "--n", "4", "--d", "3")
    assert code == 2
    assert stdout == ""
    assert "cannot read node" in stderr


def test_build_out_naming_a_regular_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "cannot create output directory" in stderr
    assert out.read_text() == "keep me\n"


def test_build_output_not_writable(tmp_path, capsys):
    (tmp_path / "graph.json").mkdir()
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 2
    assert stdout == ""
    assert "cannot write output:" in stderr
    assert "Traceback" not in stderr


def test_build_failure_dump(tmp_path, capsys):
    # d = 1 has bound sqrt(0): the start node, the identity leaf, already
    # fails, and the walk stops.
    code, _, stderr = run(capsys, "build", "--n", "4", "--d", "1", "--out", str(tmp_path))
    assert code == 3
    assert "warning" not in stderr
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert set(failure) == {"error", "node", "children"}
    assert failure["node"] == {"complete": [[1, 2]], "partial": []}
    assert failure["children"] == []
    # the start polynomial as exact coefficient strings, as "children" has them
    assert failure["error"] == (
        "start node polynomial ['-1', '0', '1'] already violates the bound sqrt(0) "
        "(expected only in the degenerate d=1 regime)"
    )


def _assert_stuck_dumps_agree(tmp_path, capsys, monkeypatch, n, d, stage):
    """Patch the walk's rule so that every child of stage fails, then check
    that a plain and a traced build write the same failure.json, listing
    each child with its polynomial.  The rule sees only values, so stage's
    children must share none with the children decided before it."""
    stuck = stage.child_values
    real = ramanujan_walk._child_passes

    def rule(value, ints, q):
        return value not in stuck and real(value, ints, q)

    monkeypatch.setattr(ramanujan_walk, "_child_passes", rule)
    # the stuck node by its 1-based JSON, as failure.json's "node" has it
    node, q = json.dumps(node_to_json(stage.node)), 4 * (d - 1)
    message = f"no child of {node} passes the sqrt({q}) bound"
    dumps = []
    for extra in ([], ["--trace"]):
        out = tmp_path / ("traced" if extra else "plain")
        argv = ("build", "--n", str(n), "--d", str(d), "--out", str(out), *extra)
        code, _, stderr = run(capsys, *argv)
        assert code == 3
        assert stderr == f"internal error: {message}\n"
        assert not (out / "graph.json").exists()
        dumps.append((out / "failure.json").read_bytes())
    assert dumps[0] == dumps[1]
    failure = json.loads(dumps[0])
    assert failure["error"] == message
    assert failure["node"] == node_to_json(stage.node)
    assert failure["children"] == [
        {"node": node_to_json(c), "poly": [rational_to_str(x) for x in p.coeffs]}
        for c, p in zip(stage.child_nodes, stage.child_polys)
    ]


def test_stuck_stage_failure_dump_is_the_same_lazy_or_traced(tmp_path, capsys, monkeypatch):
    """Every child of one inner stage fails: the lazy walk, which decided
    them by value, then evaluates all of them, so a plain and a traced
    build write the same failure.json."""
    stages = ramanujan_walk.walk(Params(6, 3)).stages
    decided = {stages[0].node_value, *stages[0].child_values}
    for stage in stages[1:]:
        if len(stage.child_nodes) > 1 and decided.isdisjoint(stage.child_values):
            break
        decided.update(stage.child_values)
    else:
        pytest.fail("no inner stage whose children's values are all new")
    _assert_stuck_dumps_agree(tmp_path, capsys, monkeypatch, 6, 3, stage)


def test_last_matching_stuck_stage_failure_dump_is_the_same_lazy_or_traced(
    tmp_path, capsys, monkeypatch
):
    """The same for a stage of the last matching, whose children are
    nearest the leaf, with every value read as a failure."""
    n, d = 8, 3
    stages = ramanujan_walk.walk(Params(n, d)).stages
    decided = set()
    for stage in stages:
        if len(stage.node.complete) == d - 1 and len(stage.child_nodes) > 1:
            break
        decided.update(stage.child_values)
    assert decided.isdisjoint(stage.child_values)
    _assert_stuck_dumps_agree(tmp_path, capsys, monkeypatch, n, d, stage)


def test_build_failure_dump_not_writable(tmp_path, capsys):
    (tmp_path / "failure.json").mkdir()
    code, _, stderr = run(capsys, "build", "--n", "4", "--d", "1", "--out", str(tmp_path))
    assert code == 3
    assert "warning: cannot write failure.json:" in stderr


def test_audited_walk_names_a_child_whose_value_differs(tmp_path, capsys, monkeypatch):
    """A child whose value is not its own polynomial's at sqrt(q) is named
    by its 1-based JSON, as failure.json and node-poly have nodes: here
    the first child of the (4,3) start node, every value raised by 1."""
    real = ramanujan_walk.contraction_value
    monkeypatch.setattr(ramanujan_walk, "contraction_value", lambda *args: real(*args) + 1)
    argv = ("build", "--n", "4", "--d", "3", "--out", str(tmp_path), "--trace")
    child = '{"complete": [[1, 2]], "partial": [1]}'
    message = f"internal error: the polynomial of {child} differs from its value at sqrt(8)\n"
    assert run(capsys, *argv) == (3, "", message)


def test_node_poly_malformed(capsys):
    """A matching that is not a permutation is named 1-based, as the node
    file has it and as ``Multigraph``'s own messages name vertices."""
    code, _, stderr = run(
        capsys, "node-poly", '{"complete": [[1, 1]]}', "--n", "4", "--d", "3"
    )
    assert code == 2
    assert stderr == "error: malformed node: not a permutation of 1..2: [1, 1]\n"


@pytest.mark.parametrize(
    "node",
    [
        '{"complete": [[1.5, 2]], "partial": []}',
        '{"complete": [[true, 2]], "partial": []}',
        '{"complete": [], "partial": [1.0]}',
        '{"complete": [["1", 2]], "partial": []}',
        '{"complete": 5}',
    ],
)
def test_node_poly_rejects_non_integer_entries(capsys, node):
    code, stdout, stderr = run(capsys, "node-poly", node, "--n", "4", "--d", "3")
    assert code == 2
    assert stdout == ""
    assert "malformed node" in stderr


@pytest.mark.parametrize(
    "node",
    [
        '{"complete": [], "partial": false}',
        '{"complete": [], "partial": 0}',
        '{"complete": [], "partial": ""}',
        '{"complete": [], "partial": {}}',
        '{"complete": [], "partial": null}',
        '{"complete": {}}',
        '{"complete": ""}',
        '{"complete": [{}]}',
    ],
)
def test_node_poly_requires_json_lists(capsys, node):
    # an empty non-list once read as "no matchings"; only an absent partial means none
    code, stdout, stderr = run(capsys, "node-poly", node, "--n", "4", "--d", "3")
    assert code == 2
    assert stdout == ""
    assert "malformed node: expected a JSON array" in stderr
    assert run(capsys, "node-poly", '{"complete": []}', "--n", "4", "--d", "3")[0] == 0


def test_json_that_is_not_an_object_exits_2(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "node-poly", "[1]", "--n", "4", "--d", "3")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: malformed node: node JSON must be an object\n"
    path = tmp_path / "list.json"
    path.write_text("[1]")
    code, stdout, stderr = run(capsys, "certify", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: cannot read multigraph: multigraph JSON must be an object\n"


@pytest.mark.parametrize("command", ["node-poly", "oracle"])
def test_node_json_rejects_unknown_keys(capsys, command):
    node = '{"complete": [], "partal": [1]}'
    code, stdout, stderr = run(capsys, command, node, "--n", "4", "--d", "3")
    assert code == 2
    assert stdout == ""
    assert "malformed node: unknown key 'partal' in node JSON" in stderr


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_multigraph_json_rejects_unknown_keys(built_6_3, tmp_path, capsys, command):
    graph = json.loads((built_6_3 / "graph.json").read_text())
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(dict(graph, degree=3)))
    argv = [str(path)] + ([str(built_6_3 / "certificate.json")] if command == "verify" else [])
    code, stdout, stderr = run(capsys, command, *argv)
    assert code == 2
    assert stdout == ""
    assert "cannot read multigraph: unknown key 'degree' in multigraph JSON" in stderr


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"n": ' + b"9" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
    ids=["not-utf8", "over-long-integer", "too-deep"],
)
def test_unreadable_json_files_exit_2(built_6_3, tmp_path, capsys, content):
    # none of these is a JSONDecodeError: a UnicodeDecodeError, a plain
    # ValueError from int() and a RecursionError
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    graph = str(built_6_3 / "graph.json")
    for argv, what in (
        (["verify", graph, str(path)], "certificate"),
        (["verify", str(path), graph], "multigraph"),
        (["certify", str(path)], "multigraph"),
        (["node-poly", str(path), "--n", "4", "--d", "3"], "node"),
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: cannot read {what}: ")
        assert "Traceback" not in stderr


def test_node_file_errors_are_prefixed_once(tmp_path, capsys):
    # a file that cannot be read is not also reported as a malformed node
    path = tmp_path / "node.json"
    path.write_text('{"complete": [')
    code, _, stderr = run(capsys, "node-poly", str(path), "--n", "4", "--d", "3")
    assert code == 2
    assert stderr == "error: cannot read node: Expecting value: line 1 column 15 (char 14)\n"


def test_build_rejects_nonpositive_jobs(tmp_path, capsys):
    for jobs in ("0", "-2"):
        code, _, stderr = run(
            capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path), "--jobs", jobs
        )
        assert code == 2
        assert "--jobs" in stderr
    assert not (tmp_path / "graph.json").exists()


def _python(*args):
    """A fresh interpreter that imports ramex from this checkout."""
    src = str(Path(ramex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env
    )


def _skewed_build_under_optimize(out, *extra):
    """Run build under python -O with every child polynomial raised by 1,
    so that no parent is the average of its children."""
    script = textwrap.dedent(
        """
        import sys
        from ramex import cli, ramanujan_walk
        from ramex.exact_algebra import UniPoly
        from ramex.expectation_engine import node_polynomial
        from ramex.matching_family import NodeState, Params

        if __debug__:
            sys.exit("not running under -O")
        try:
            node_polynomial(NodeState(((0,),)), Params(4, 3))  # short matching
        except ValueError:
            pass
        else:
            sys.exit("the engine's node check did not run")
        # skew every child so that the parent is no longer their average
        real = ramanujan_walk._full_poly

        def skewed(node, params, contraction=None):
            poly, ints = real(node, params, contraction)
            return poly + UniPoly((1,)), (ints[0] + ints[-1], *ints[1:])

        ramanujan_walk._full_poly = skewed
        argv = ["build", "--n", "4", "--d", "3", "--out", sys.argv[1]] + sys.argv[2:]
        sys.exit(cli.main(argv))
        """
    )
    return _python("-O", "-c", script, str(out), *extra)


def test_the_oracle_never_loads_numpy(built_6_3):
    """oracle, first in a fresh interpreter, never imports numpy, nor does
    the one parser serving a usage error, --help and oracle again; certify
    and verify run the charpoly kernel and node-poly the grid, so they do,
    and the check can fail."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from ramex import cli

        graph, cert = sys.argv[1:]
        node = '{"complete": [], "partial": [1]}'
        for argv in (
            ["oracle", node, "--n", "6", "--d", "3"],
            ["oracle", node],
            ["--help"],
            ["oracle", node, "--n", "6", "--d", "3"],
            ["certify", graph],
            ["verify", graph, cert],
            ["node-poly", node, "--n", "6", "--d", "3"],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
            print(argv[0], code, "numpy" in sys.modules, file=sys.stderr)
        """
    )
    graph, cert = built_6_3 / "graph.json", built_6_3 / "certificate.json"
    proc = _python("-c", script, str(graph), str(cert))
    assert proc.stderr.splitlines() == [
        "oracle 0 False",
        "oracle 2 False",
        "--help 0 False",
        "oracle 0 False",
        "certify 0 True",
        "verify 0 True",
        "node-poly 0 True",
    ]


def test_no_process_machinery_is_loaded(tmp_path):
    """The walk runs in one process: importing the command line, a plain
    build and a traced build in two threads load neither multiprocessing
    nor concurrent.futures.process."""
    script = textwrap.dedent(
        """
        import sys
        from ramex import cli

        PROCESS = ("multiprocessing", "concurrent.futures.process")

        def loaded():
            return [name for name in PROCESS if name in sys.modules]

        print("import", loaded(), file=sys.stderr)
        for extra in ([], ["--trace", "--jobs", "2"]):
            code = cli.main(["build", "--n", "8", "--d", "3", "--out", sys.argv[1], *extra])
            print("build", *extra, code, loaded(), file=sys.stderr)
        """
    )
    proc = _python("-c", script, str(tmp_path))
    assert proc.stderr.splitlines() == [
        "import []",
        "build 0 []",
        "build --trace --jobs 2 0 []",
    ]


def test_invariant_violation_survives_optimize(tmp_path):
    """Invariant checks are real checks: under python -O a forced violation
    still raises InvariantViolation, and build maps it to exit code 3.  The
    averaging check runs on the audited walk of a traced build."""
    proc = _skewed_build_under_optimize(tmp_path, "--trace")
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "not the average of its children" in proc.stderr
    assert not (tmp_path / "graph.json").exists()


@pytest.mark.parametrize("which", [0, -1])
def test_traced_build_catches_one_skewed_child(tmp_path, capsys, monkeypatch, which):
    """The audit compares a stage's evaluated last child with c parent less
    the others, so raising the first or the last child alone is caught."""
    skewed = set()
    real_children, real_poly = ramanujan_walk.children, ramanujan_walk._full_poly

    def recording(node, params):
        kids = real_children(node, params)
        if len(kids) > 1:
            skewed.add(kids[which])
        return kids

    def full_poly(node, params, contraction=None):
        poly, ints = real_poly(node, params, contraction)
        if node in skewed:  # raised by 1: the integer form by its denominator
            return poly + UniPoly((1,)), (ints[0] + ints[-1], *ints[1:])
        return poly, ints

    monkeypatch.setattr(ramanujan_walk, "children", recording)
    monkeypatch.setattr(ramanujan_walk, "_full_poly", full_poly)
    out = str(tmp_path)
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", out, "--trace")
    assert code == 3
    assert stdout == ""
    # the first stage with two children is the start node's, named 1-based
    start = '{"complete": [[1, 2]], "partial": []}'
    assert stderr == f"internal error: polynomial of {start} is not the average of its children\n"
    assert skewed
    assert not (tmp_path / "graph.json").exists()


def test_skewed_lazy_build_fails_the_leaf_check(tmp_path):
    """A plain build walks lazily and runs no averaging check; the same skew
    then reaches the leaf, whose polynomial the stage that decides it checks
    against its value, as it does every polynomial it computes, before
    certify runs."""
    proc = _skewed_build_under_optimize(tmp_path)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ""
    leaf = '{"complete": [[1, 2], [1, 2], [2, 1]], "partial": []}'
    message = f"internal error: the polynomial of {leaf} differs from its value at sqrt(8)\n"
    assert proc.stderr == message
    assert not (tmp_path / "graph.json").exists()


def test_build_with_a_failing_leaf_exits_3(tmp_path, capsys, monkeypatch):
    """The walk's leaf has passed the sqrt(q) rule on the polynomial that
    certify reports, so a build whose certificate fails is an internal
    fault: exit 3 after the cross-checks, and no graph written.  The (4,3)
    leaf [[1, 2], [1, 2], [1, 2]] has nontrivial polynomial x^2 - 9."""

    def failing(params, jobs, audit):
        leaf = NodeState(((0, 1), (0, 1), (0, 1)))
        return ramanujan_walk.WalkResult(params, leaf, UniPoly((-9, 0, 1)))

    monkeypatch.setattr(cli, "walk", failing)
    code, stdout, stderr = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 3
    assert stdout == ""
    assert stderr == "internal error: the walk's leaf fails its certificate\n"
    assert not (tmp_path / "graph.json").exists()


def test_oracle_root(capsys):
    code, stdout, _ = run(
        capsys, "oracle", '{"complete": [], "partial": []}', "--n", "4", "--d", "3"
    )
    assert code == 0
    assert json.loads(stdout) == ["27", "0", "-12", "0", "1"]


def test_oracle_cap(capsys):
    code, _, stderr = run(
        capsys,
        "oracle",
        '{"complete": [], "partial": []}',
        "--n", "8", "--d", "3",
        "--oracle-cap", "10",
    )
    assert code == 2
    assert "cap" in stderr


def test_oracle_cap_far_past_the_count_limit(capsys):
    # the full count would have about 7,700 digits, past the int-to-str limit
    node = '{"complete": []}'
    code, stdout, stderr = run(capsys, "oracle", node, "--n", "2000", "--d", "3")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: the completions exceed cap 1000000\n"


def test_node_poly_matches_certified_nontrivial(tmp_path, capsys):
    """Leaf node-poly output agrees with certify's nontrivial polynomial."""
    code, _, _ = run(capsys, "build", "--n", "4", "--d", "3", "--out", str(tmp_path))
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    leaf = {"complete": [[1, 2], [1, 2], [2, 1]], "partial": []}
    code, stdout, _ = run(capsys, "node-poly", json.dumps(leaf), "--n", "4", "--d", "3")
    assert code == 0
    assert json.loads(stdout) == cert["nontrivial_charpoly"]


def test_every_ramex_exception_maps_to_an_exit_code(capsys, monkeypatch):
    """Exit codes follow two bases, so a new exception class needs no edit to
    cli: each one ramex defines is bad input (exit 2) or a bug (exit 3), or
    one of the caller errors IsLeaf and NotALeaf, which no command lets
    reach main."""
    classes = set()
    for info in pkgutil.iter_modules(ramex.__path__):
        module = importlib.import_module(f"ramex.{info.name}")
        classes.update(
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, Exception)
            and value.__module__ == module.__name__
        )
    names = {cls.__name__ for cls in classes}
    assert {"_UsageError", "TooLarge", "GridTooLarge", "NoPassingChild", "NotRegular"} <= names
    for cls in classes:

        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_oracle", fail)
        argv = ["oracle", "{}", "--n", "4", "--d", "3"]
        if cls in (IsLeaf, NotALeaf):
            with pytest.raises(cls):
                main(argv)
            continue
        assert issubclass(cls, (cli._UsageError, TooLarge, InvariantViolation, NotRegular)), cls
        code, stdout, stderr = run(capsys, *argv)
        assert code == (2 if issubclass(cls, (cli._UsageError, TooLarge)) else 3), cls
        assert stdout == ""
        assert stderr.endswith(": boom\n"), cls


def test_usage_error_exit_code(capsys):
    assert main(["build", "--n", "4"]) == 2  # missing --d
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_the_cached_parser_carries_no_state_between_calls(capsys):
    """Options of one parse leave the next at its defaults; a usage error or
    --help leaves the parser ready for the next command."""
    parser = cli._build_parser()
    args = parser.parse_args(["build", "--n", "4", "--d", "3", "--trace", "--jobs", "2"])
    assert (args.trace, args.jobs) == (True, 2)
    args = parser.parse_args(["build", "--n", "4", "--d", "3"])
    assert (args.trace, args.jobs, args.out) == (False, 1, ".")
    oracle = ["oracle", '{"complete": [], "partial": [1]}', "--n", "4", "--d", "3"]
    assert run(capsys, "oracle", "--n", "4")[0] == 2
    first = run(capsys, *oracle)
    assert first[0] == 0
    code, stdout, _ = run(capsys, "--help")
    assert (code, stdout.startswith("usage: ramex")) == (0, True)
    assert run(capsys, *oracle) == first
