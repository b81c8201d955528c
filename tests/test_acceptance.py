"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one [PASS]/[FAIL] line; run with ``pytest -s
tests/test_acceptance.py`` to see them live.  All comparisons are exact
rational equality; there are no tolerances to tune anywhere.
"""

import random
import time
from fractions import Fraction

from ramex.cli import main
from ramex.exact_algebra import UniPoly
from ramex.exact_linalg import BlockSpec, Matrix, rationality_violation_count
from ramex.expectation_engine import fixed_plus_random_block_expected, node_polynomial
from ramex.matching_family import NodeState, Params, children, leaf_graph
from ramex.oracle import brute_expected_charpoly, brute_fixed_plus_permutation
from ramex.ramanujan_walk import certify, max_root_leq_sqrt, walk


def _report(number: int, description: str, check) -> None:
    try:
        detail = check()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {number}: {description}{suffix}")


def _all_nodes(params: Params):
    out = [NodeState()]
    frontier = [NodeState()]
    while frontier:
        nxt = []
        for node in frontier:
            if node.is_leaf(params):
                continue
            for child in children(node, params):
                out.append(child)
                nxt.append(child)
        frontier = nxt
    return out


def test_criterion_1_oracle_equivalence_full_trees():
    def check():
        started = time.monotonic()
        total = 0
        for n, d in [(4, 3), (6, 3)]:
            params = Params(n, d)
            trivial = UniPoly((Fraction(-d * d), Fraction(0), Fraction(1)))
            for node in _all_nodes(params):
                engine = node_polynomial(node, params) * trivial
                oracle = brute_expected_charpoly(node, params)
                assert engine == oracle, (n, d, node)
                total += 1
        elapsed = time.monotonic() - started
        assert elapsed < 120
        return f"{total} nodes exactly equal in {elapsed:.1f}s"

    _report(1, "node polynomials match brute enumeration on full (4,3) and (6,3) trees", check)


def test_criterion_2_quadrature_validation():
    def check():
        started = time.monotonic()
        rng = random.Random(60301)
        compared = 0
        for i in range(50):
            m = 2 + i % 4  # cycles sizes 2..5
            a = Matrix.from_rows(
                [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
            )
            for l in range(2, m + 1):
                block = BlockSpec(
                    tuple(sorted(rng.sample(range(m), l))),
                    tuple(sorted(rng.sample(range(m), l))),
                )
                assert fixed_plus_random_block_expected(a, block) == (
                    brute_fixed_plus_permutation(a, block)
                ), (a, block)
                compared += 1
        elapsed = time.monotonic() - started
        assert elapsed < 120
        return f"{compared} matrix/block pairs exactly equal in {elapsed:.1f}s"

    _report(2, "orthogonal quadrature equals permutation averaging on 50 random matrices", check)


def test_criterion_3_worked_values():
    def check():
        params = Params(4, 3)
        assert node_polynomial(NodeState(), params) == UniPoly((-3, 0, 1))
        leaf = walk(params).leaf
        assert leaf == NodeState(((0, 1), (0, 1), (1, 0)))  # [identity, identity, swap]
        cert = certify(leaf_graph(leaf, params))
        assert cert.nontrivial_poly == UniPoly((-1, 0, 1))
        assert cert.bound_q == 8
        assert cert.passed
        return "root x^2-3; leaf [id, id, swap]; certificate x^2-1 at q=8"

    _report(3, "worked (4,3) values: root polynomial, leaf identity, certificate", check)


def test_criterion_4_end_to_end_builds(tmp_path, capsys):
    def check():
        cases = [(n, d) for n in (4, 6, 8, 10) for d in (3, 4)] + [(12, 3)]
        timings = []
        for n, d in cases:
            out = tmp_path / f"build_{n}_{d}"
            started = time.monotonic()
            code = main(
                ["build", "--n", str(n), "--d", str(d), "--out", str(out), "--jobs", "1"]
            )
            elapsed = time.monotonic() - started
            assert code == 0, (n, d, code)
            assert main(["certify", str(out / "graph.json")]) == 0, (n, d)
            capsys.readouterr()
            limit = 900 if (n, d) == (12, 3) else 300
            assert elapsed < limit, (n, d, elapsed)
            timings.append(f"({n},{d}) {elapsed:.1f}s")
        return "; ".join(timings)

    _report(4, "cmd_build + cmd_certify pass for {4,6,8,10}x{3,4} and (12,3)", check)


def test_criterion_5_parent_child_averaging():
    def check():
        result = walk(Params(8, 3))
        for stage in result.stages:
            total = UniPoly()
            for poly in stage.child_polys:
                total = total + poly
            average = Fraction(1, len(stage.child_polys)) * total
            assert average == stage.node_poly, stage.node
        return f"{len(result.stages)} expanded nodes along the (8,3) walk"

    _report(5, "every expanded (8,3) walk node equals the exact average of its children", check)


def test_criterion_6_root_test_suite():
    def check():
        rng = random.Random(424242)
        decided = 0
        while decided < 200:
            q = rng.randint(1, 15)
            kind = decided % 4
            rational_roots = []
            sqrt_terms = []
            if kind == 0:  # rational roots only
                rational_roots = [
                    Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 4))
                ]
            elif kind == 1:  # sqrt-integer root pairs only
                sqrt_terms = [rng.randint(0, 18) for _ in range(rng.randint(1, 3))]
            elif kind == 2:  # mixed
                rational_roots = [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))
                ]
                sqrt_terms = [rng.randint(0, 18) for _ in range(rng.randint(1, 2))]
            else:  # forced equality: max root exactly sqrt(q)
                sqrt_terms = [q] + [rng.randint(0, q) for _ in range(rng.randint(0, 2))]
                rational_roots = [Fraction(-rng.randint(0, 3))]
            poly = UniPoly((Fraction(1),))
            for r in rational_roots:
                poly = poly * UniPoly((-r, Fraction(1)))
            for k in sqrt_terms:
                poly = poly * UniPoly((Fraction(-k), Fraction(0), Fraction(1)))
            rational_ok = all(r <= 0 or r * r <= q for r in rational_roots)
            sqrt_ok = all(k <= q for k in sqrt_terms)
            expected = rational_ok and sqrt_ok
            assert max_root_leq_sqrt(poly, q) is expected, (poly, q)
            decided += 1
        return f"{decided} constructed polynomials decided with zero errors"

    _report(6, "sqrt-q root test decides 200 known-root polynomials, equality cases included", check)


def test_criterion_7_rationality_cancellation():
    def check():
        # Violations raise on detection, so reaching this point with a zero
        # counter proves every extracted squared-minor sum across the
        # preceding criteria was rational and nonnegative.
        count = rationality_violation_count()
        assert count == 0
        return "0 violations recorded"

    _report(7, "no sqrt-l residue in any extracted coefficient across criteria 1-5", check)


def test_criterion_8_jobs_determinism(tmp_path, capsys):
    def check():
        outputs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"jobs{jobs}"
            code = main(
                ["build", "--n", "10", "--d", "3", "--out", str(out), "--jobs", jobs]
            )
            capsys.readouterr()
            assert code == 0
            outputs.append(
                (
                    (out / "graph.json").read_bytes(),
                    (out / "certificate.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
        return "graph.json and certificate.json byte-identical for --jobs 1 vs 8"

    _report(8, "(10,3) builds with --jobs 1 and --jobs 8 are byte-identical", check)
