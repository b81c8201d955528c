"""Command-line front end: build, certify, verify, node-poly, oracle.

Exit codes are fixed for scripting: 0 = certificate passed, 1 = certificate
failed (or, for verify, does not match its graph), 2 = usage / bad input,
3 = internal invariant violation.  Exit 1 belongs to certify and verify,
which read graphs from outside: build exits 0, 2 or 3, because the walk's
leaf has passed the sqrt(q) rule its certificate takes, so a failing
certificate there is an internal fault.  Commands raise; main alone turns an
exception into its exit code and its stderr line.  The argument parser is
built once per process, on the first call to main, and each call looks its
command up by name, so a process that calls main many times pays for the
parser once.  All JSON output uses exact "num/den" strings for any value
that may be non-integral.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
import time

from .exact_algebra import InvariantViolation, TooLarge, UniPoly, rational_to_str
from .expectation_engine import contract_node, contraction_poly
from .matching_family import (
    NotRegular,
    Params,
    leaf_graph,
    multigraph_from_json,
    multigraph_to_json,
    node_from_json,
    node_to_json,
)
from .oracle import DEFAULT_CAP, brute_expected_charpoly
from .ramanujan_walk import (
    NoPassingChild,
    certificate_to_json,
    certify,
    certify_by_elimination,
    walk,
    walk_workers,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    """Bad input found by the command line itself.  Not a ValueError, so a
    handler that prefixes a ValueError's message leaves this one alone."""


# What a command may raise, by exit code: bad input is 2, a broken invariant 3.
# An irregular graph file exits 2 through _certify_file; a NotRegular that
# reaches main comes from build's own leaf, which is a bug.
_USAGE_ERRORS = (_UsageError, TooLarge)
_INTERNAL_ERRORS = (InvariantViolation, NotRegular)


def _poly_strings(poly: UniPoly) -> list[str]:
    return [rational_to_str(c) for c in poly.coeffs]


def _poly_sha256(poly: UniPoly) -> str:
    blob = ",".join(_poly_strings(poly)).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_json(path: str, data) -> None:
    text = json.dumps(data, indent=2) + "\n"  # one write, not json.dump's one per token
    with open(path, "w") as fh:
        fh.write(text)


def _load_params(args) -> Params:
    try:
        return Params(args.n, args.d)
    except ValueError as exc:
        raise _UsageError(exc)


def _load_node(args):
    """(params, node) of a node argument: inline JSON, or a path to a JSON file."""
    params = _load_params(args)
    text = args.node
    try:
        data = _read_json(text, "node") if os.path.exists(text) else json.loads(text)
        return params, node_from_json(data, params)
    except (ValueError, RecursionError) as exc:
        raise _UsageError(f"malformed node: {exc}")


def cmd_build(args) -> int:
    params = _load_params(args)
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot create output directory: {exc}")
    started = time.monotonic()
    try:
        result = walk(params, jobs=args.jobs, audit=args.trace)
        graph = leaf_graph(result.leaf, params)
        cert = certify(graph)
        if result.leaf_poly != cert.nontrivial_poly:
            raise InvariantViolation(
                "the walk's leaf polynomial differs from the certified nontrivial polynomial"
            )
        _cross_check(cert)
        if not cert.passed:
            raise InvariantViolation("the walk's leaf fails its certificate")
    except NoPassingChild as exc:
        _dump_failed_walk(args.out, exc)
        raise
    elapsed = time.monotonic() - started

    graph_path = os.path.join(args.out, "graph.json")
    cert_path = os.path.join(args.out, "certificate.json")
    try:
        _write_json(graph_path, multigraph_to_json(graph))
        _write_json(cert_path, certificate_to_json(cert))
        if args.trace:
            _write_json(
                os.path.join(args.out, "transcript.json"),
                _transcript_json(result, cert, elapsed, args.jobs),
            )
    except OSError as exc:
        raise _UsageError(f"cannot write output: {exc}")
    print(
        f"built n={params.n} d={params.d}: certificate passed "
        f"(q={cert.bound_q}), wrote {graph_path} and {cert_path}"
    )
    return EXIT_PASS


def _cross_check(cert) -> None:
    """The certificate's verdict must match the elimination test, which
    shares no code with the characteristic polynomial path."""
    if certify_by_elimination(cert.graph) != cert.passed:
        raise InvariantViolation(
            f"the certificate says passed={cert.passed}, "
            "but the elimination test of the Ramanujan bound disagrees"
        )


def _transcript_json(result, cert, elapsed: float, jobs: int) -> dict:
    """A traced build's transcript; "jobs" is the number of threads its
    audited walk evaluated each stage's children in."""
    return {
        "params": {"n": result.params.n, "d": result.params.d},
        "q": result.params.q,
        "jobs": walk_workers(result.params, jobs, audit=True),
        "stages": [
            {
                "node": node_to_json(stage.node),
                "node_poly_sha256": _poly_sha256(stage.node_poly),
                "children": [
                    {
                        "node": node_to_json(child),
                        "poly_sha256": _poly_sha256(poly),
                        "passed": ok,
                    }
                    for child, poly, ok in zip(
                        stage.child_nodes, stage.child_polys, stage.child_passed
                    )
                ],
                "chosen": stage.chosen,
            }
            for stage in result.stages
        ],
        "leaf": node_to_json(result.leaf),
        "elapsed_ms": int(elapsed * 1000),  # integral: output files carry no floats
        "certificate": certificate_to_json(cert),
    }


def _dump_failed_walk(out_dir: str, exc: NoPassingChild) -> None:
    data = {
        "error": str(exc),
        "node": node_to_json(exc.node) if exc.node is not None else None,
        "children": [
            {"node": node_to_json(c), "poly": _poly_strings(p)}
            for c, p in zip(exc.child_nodes, exc.child_polys)
        ],
    }
    try:
        _write_json(os.path.join(out_dir, "failure.json"), data)
    except OSError as err:
        print(f"warning: cannot write failure.json: {err}", file=sys.stderr)


def _read_json(path: str, what: str):
    """A JSON file; a ValueError (bad JSON, bad UTF-8, an integer literal
    past Python's digit limit) or nesting too deep for the decoder is
    unreadable input, as a missing file is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError(f"cannot read {what}: {exc}")


def _certify_file(path: str):
    """Read a multigraph file strictly and certify it; bad input exits 2."""
    try:
        graph = multigraph_from_json(_read_json(path, "multigraph"))
    except ValueError as exc:
        raise _UsageError(f"cannot read multigraph: {exc}")
    return certify(graph)


def cmd_certify(args) -> int:
    cert = _certify_file(args.graph)
    print(json.dumps(certificate_to_json(cert), indent=2))
    return EXIT_PASS if cert.passed else EXIT_FAIL


_ABSENT = object()  # a key or list item that one side lacks


def _first_mismatch(expected, found, path: str = ""):
    """(path, expected, found) at the first difference, or None.

    Objects compare their expected keys in order, then any extra keys;
    lists compare item by item.  Scalars must agree in type as well as
    value, so true never matches 1.
    """
    if isinstance(expected, dict) and isinstance(found, dict):
        keys = list(expected) + [k for k in found if k not in expected]
        items = [
            (f"{path}.{k}" if path else k, expected.get(k, _ABSENT), found.get(k, _ABSENT))
            for k in keys
        ]
    elif isinstance(expected, list) and isinstance(found, list):
        pairs = itertools.zip_longest(expected, found, fillvalue=_ABSENT)
        items = [(f"{path}[{i}]", want, got) for i, (want, got) in enumerate(pairs)]
    elif type(expected) is type(found) and expected == found:
        return None
    else:
        return path, expected, found
    for sub, want, got in items:
        hit = _first_mismatch(want, got, sub)
        if hit is not None:
            return hit
    return None


def _show(value) -> str:
    return "nothing" if value is _ABSENT else json.dumps(value)


def cmd_verify(args) -> int:
    cert = _certify_file(args.graph)
    _cross_check(cert)
    found = _read_json(args.certificate, "certificate")
    if not isinstance(found, dict):
        raise _UsageError("certificate must be a JSON object")
    hit = _first_mismatch(certificate_to_json(cert), found)
    if hit is not None:
        path, want, got = hit
        print(
            f"mismatch at {path}: expected {_show(want)}, found {_show(got)}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    status = "passed" if cert.passed else "FAILED"
    print(f"certificate matches {args.graph}: {status} (q={cert.bound_q})")
    return EXIT_PASS if cert.passed else EXIT_FAIL


def cmd_node_poly(args) -> int:
    params, node = _load_node(args)
    contraction = contract_node(node, params)
    poly, _ = contraction_poly(contraction, params)
    if args.ctensor:
        payload = {"node_poly": _poly_strings(poly), "ctensor": contraction[1].to_json()}
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(_poly_strings(poly)))
    return EXIT_PASS


def cmd_oracle(args) -> int:
    params, node = _load_node(args)
    poly = brute_expected_charpoly(node, params, cap=args.oracle_cap)
    print(json.dumps(_poly_strings(poly)))
    return EXIT_PASS


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramex",
        description=(
            "Deterministically construct and exactly certify d-regular "
            "bipartite Ramanujan multigraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="walk the matching tree and emit a certified graph")
    p_build.add_argument("--n", type=int, required=True, help="total vertex count (even)")
    p_build.add_argument("--d", type=int, required=True, help="degree")
    p_build.add_argument("--out", default=".", help="output directory")
    p_build.add_argument(
        "--trace",
        action="store_true",
        help="run the full audited walk (every child evaluated, each parent checked to be "
        "their average) and also write transcript.json",
    )
    p_build.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="threads for child evaluation on a --trace build; a plain build "
        "evaluates one child at a time and starts no threads",
    )

    p_cert = sub.add_parser("certify", help="certify a multigraph JSON file")
    p_cert.add_argument("graph", help="path to multigraph JSON")

    p_ver = sub.add_parser(
        "verify", help="recompute a multigraph's certificate and compare it with a file"
    )
    p_ver.add_argument("graph", help="path to multigraph JSON")
    p_ver.add_argument("certificate", help="path to certificate JSON")

    p_np = sub.add_parser("node-poly", help="print a node's exact polynomial")
    p_np.add_argument("node", help="node JSON (inline or a file path)")
    p_np.add_argument("--n", type=int, required=True)
    p_np.add_argument("--d", type=int, required=True)
    p_np.add_argument("--ctensor", action="store_true", help="include the squared-minor tensor")

    p_or = sub.add_parser("oracle", help="brute-force a node's expected adjacency polynomial")
    p_or.add_argument("node", help="node JSON (inline or a file path)")
    p_or.add_argument("--n", type=int, required=True)
    p_or.add_argument("--d", type=int, required=True)
    p_or.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP, help="enumeration cap")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  The parser is the one
    cached for the process, which keeps no state between calls; the
    command is cmd_<name> looked up when main runs, not when the parser
    was built."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
