"""Root test, greedy descent, and exact certification."""

import random
from fractions import Fraction

import pytest

from ramex.exact_algebra import UniPoly, quad_sign
from ramex.matching_family import Multigraph, NodeState, Params, leaf_graph
from ramex.oracle import _adjacency, _det_xid_minus
from ramex.ramanujan_walk import (
    Certificate,
    NoPassingChild,
    NotRegular,
    certificate_to_json,
    certify,
    max_root_leq_sqrt,
    walk,
)


def test_max_root_examples():
    assert max_root_leq_sqrt(UniPoly((-2, 0, 1)), 2) is True  # equality case
    assert max_root_leq_sqrt(UniPoly((-3, 0, 1)), 2) is False
    assert max_root_leq_sqrt(UniPoly((-6, 11, -6, 1)), 9) is True


def test_max_root_constant_and_degenerate_q():
    assert max_root_leq_sqrt(UniPoly((1,)), 8) is True
    assert max_root_leq_sqrt(UniPoly((0, 1)), 0) is True  # root exactly 0
    assert max_root_leq_sqrt(UniPoly((-1, 1)), 0) is False
    with pytest.raises(ValueError):
        max_root_leq_sqrt(UniPoly(), 4)


def test_max_root_against_known_roots_randomized():
    """1000 random products of rational linear factors: the sqrt-q verdict
    must agree with the exactly known maximum root."""
    rng = random.Random(1000003)
    for _ in range(1000):
        roots = [
            Fraction(rng.randint(-10, 10), rng.randint(1, 4))
            for _ in range(rng.randint(1, 5))
        ]
        poly = UniPoly((Fraction(1),))
        for r in roots:
            poly = poly * UniPoly((-r, Fraction(1)))
        q = rng.randint(1, 12)
        top = max(roots)
        expected = top <= 0 or top * top <= q
        assert max_root_leq_sqrt(poly, q) is expected, (roots, q)


def test_find_leaf_worked_case():
    leaf = walk(Params(4, 3)).leaf
    assert leaf == NodeState(((0, 1), (0, 1), (1, 0)))


def test_find_leaf_forced_case():
    assert walk(Params(2, 3)).leaf == NodeState(((0,), (0,), (0,)))


def test_find_leaf_n6_certifies():
    params = Params(6, 3)
    leaf = walk(params).leaf
    cert = certify(leaf_graph(leaf, params))
    assert cert.passed


def test_walk_invariant_and_transcript():
    params = Params(6, 3)
    result = walk(params)
    assert result.bound_q == 8
    for stage in result.stages:
        assert max_root_leq_sqrt(stage.node_poly, result.bound_q)
        assert stage.child_passed[stage.chosen]
        assert not any(stage.child_passed[: stage.chosen])  # first passing child
    assert result.stages[-1].child_nodes[result.stages[-1].chosen] == result.leaf


def test_walk_deterministic_and_jobs_agnostic():
    params = Params(6, 3)
    first = walk(params)
    second = walk(params)
    assert first == second
    parallel = walk(params, jobs=2)
    assert parallel == first


def test_walk_canonical_first_matching():
    params = Params(6, 3)
    result = walk(params, canonical_first=True)
    assert result.leaf.complete[0] == (0, 1, 2)
    assert certify(leaf_graph(result.leaf, params)).passed


def test_walk_degenerate_d1():
    # n=2, d=1 is the only d=1 case that can pass (bound q = 0)
    assert walk(Params(2, 1)).leaf == NodeState(((0,),))
    with pytest.raises(NoPassingChild):
        walk(Params(4, 1))


def test_certify_examples():
    cert = certify(Multigraph(Params(4, 3), ((2, 1), (1, 2))))
    assert cert.passed
    assert cert.nontrivial_poly == UniPoly((-1, 0, 1))
    assert cert.adjacency_charpoly == UniPoly((9, 0, -10, 0, 1))
    assert cert.bound_q == 8

    cert = certify(Multigraph(Params(4, 3), ((3, 0), (0, 3))))
    assert not cert.passed
    assert cert.nontrivial_poly == UniPoly((-9, 0, 1))

    cert = certify(Multigraph(Params(2, 3), ((3,),)))
    assert cert.passed
    assert cert.nontrivial_poly == UniPoly((1,))  # vacuous degree-0 pass


def test_certify_rejects_irregular():
    with pytest.raises(NotRegular):
        certify(Multigraph(Params(4, 3), ((2, 1), (2, 1))))
    with pytest.raises(NotRegular):
        certify(Multigraph(Params(4, 3), ((3, 0), (1, 2))))


def _random_regular(rng, m: int, d: int) -> tuple:
    """Multiplicity matrix of a union of d uniformly random perfect matchings."""
    mult = [[0] * m for _ in range(m)]
    for _ in range(d):
        perm = list(range(m))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mult[i][j] += 1
    return tuple(tuple(row) for row in mult)


def test_certify_charpoly_matches_adjacency_cofactor():
    """det(x^2 I - B^T B) from the m x m Gram equals det(xI - A) of the
    full 2m x 2m adjacency by the oracle's cofactor expansion, which
    shares no code with Berkowitz; n runs up to 16."""
    rng = random.Random(2026)
    for m in list(range(1, 9)) * 3:
        d = rng.randint(1, 5)
        mult = _random_regular(rng, m, d)
        cert = certify(Multigraph(Params(2 * m, d), mult))
        assert cert.adjacency_charpoly == UniPoly(tuple(_det_xid_minus(_adjacency(mult, m)))), mult


def test_certificate_consistency_invariant():
    cert = certify(Multigraph(Params(4, 3), ((2, 1), (1, 2))))
    assert cert.passed == all(quad_sign(a, b, cert.bound_q) >= 0 for a, b in cert.shifted_coeffs)
    assert len(cert.shifted_coeffs) == cert.nontrivial_poly.degree + 1


def test_certificate_json_schema():
    cert = certify(Multigraph(Params(4, 3), ((2, 1), (1, 2))))
    data = certificate_to_json(cert)
    assert data["n"] == 4 and data["d"] == 3 and data["q"] == 8
    assert data["adjacency_charpoly"] == ["9", "0", "-10", "0", "1"]
    assert data["nontrivial_charpoly"] == ["-1", "0", "1"]
    # (x + sqrt(8))^2 - 1 = x^2 + 2 sqrt(8) x + 7
    assert data["shifted_coeffs"] == [
        {"a": "7", "b": "0"},
        {"a": "0", "b": "2"},
        {"a": "1", "b": "0"},
    ]
    assert data["passed"] is True
    assert "reason" not in data


def test_walk_leaf_always_certifies_small_sweep():
    for n, d in [(4, 2), (4, 3), (6, 2), (6, 3), (8, 3)]:
        params = Params(n, d)
        result = walk(params)
        cert = certify(leaf_graph(result.leaf, params))
        assert cert.passed, (n, d)
        assert isinstance(cert, Certificate)
        # the leaf polynomial equals the certified nontrivial polynomial
        assert result.leaf_poly == cert.nontrivial_poly
