"""Root test, greedy descent, and exact certification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramex import ramanujan_walk
from ramex.exact_algebra import UniPoly, quad_sign
from ramex.expectation_engine import node_polynomial
from ramex.matching_family import (
    Multigraph,
    NodeState,
    NotRegular,
    Params,
    children,
    leaf_graph,
)
from ramex.oracle import _adjacency, _det_xid_minus
from ramex.ramanujan_walk import (
    Certificate,
    NoPassingChild,
    certificate_to_json,
    certify,
    certify_by_elimination,
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


@pytest.mark.parametrize("n, d", itertools.product(range(2, 11, 2), (2, 3, 4)))
def test_first_matching_children_share_the_parents_polynomial(n, d):
    """While the first matching is placed nothing else is in the graph, so
    every child of the root and of each identity prefix (0, ..., t-1) has
    its parent's polynomial: the walk may start at the identity matching."""
    params = Params(n, d)
    m = params.m
    for t in range(m):
        node = NodeState((), tuple(range(t)) if t else None)
        poly = node_polynomial(node, params)
        for kid in children(node, params):
            assert node_polynomial(kid, params) == poly, (node, kid)
    identity = NodeState((tuple(range(m)),), None)
    result = walk(params, audit=False)
    assert result.stages[0].node == identity
    assert result.leaf.complete[0] == identity.complete[0]


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


def _walk_or_stuck(params, **kwargs):
    """The walk's result, or the node and message of its NoPassingChild."""
    try:
        return walk(params, **kwargs)
    except NoPassingChild as exc:
        return exc.node, str(exc)


@pytest.mark.parametrize("n, d", itertools.product(range(2, 11, 2), range(1, 5)))
def test_lazy_walk_reaches_the_full_walks_leaf(n, d):
    """The contract of first-pass descent: the lazy walk reaches the leaf of
    the audited walk through the same choices, and evaluates only a prefix
    of each stage's children, ending at the chosen one."""
    params = Params(n, d)
    full = _walk_or_stuck(params)
    lazy = _walk_or_stuck(params, audit=False)
    if d == 1 and n > 2:
        assert isinstance(full, tuple)
    if isinstance(full, tuple):
        assert lazy == full
        return
    assert (lazy.leaf, lazy.leaf_poly) == (full.leaf, full.leaf_poly)
    assert len(lazy.stages) == len(full.stages)
    for lazy_stage, full_stage in zip(lazy.stages, full.stages):
        assert lazy_stage.node == full_stage.node
        assert lazy_stage.node_poly == full_stage.node_poly
        assert lazy_stage.child_nodes == full_stage.child_nodes
        assert lazy_stage.chosen == full_stage.chosen
        size = len(lazy_stage.child_polys)
        assert size == lazy_stage.chosen + 1
        assert lazy_stage.child_polys == full_stage.child_polys[:size]
        assert lazy_stage.child_passed == full_stage.child_passed[:size]


def test_lazy_walk_skips_forced_stages(monkeypatch):
    """Only the start node and the children of stages with a choice are
    evaluated; a single-child stage reuses the parent's polynomial."""
    calls = []
    real = ramanujan_walk.node_polynomial
    monkeypatch.setattr(
        ramanujan_walk, "node_polynomial", lambda *args: calls.append(1) or real(*args)
    )
    result = walk(Params(8, 4), audit=False)
    forced = [s for s in result.stages if len(s.child_nodes) == 1]
    assert forced
    for stage in forced:
        assert stage.child_polys == (stage.node_poly,)
    chosen = [s.chosen + 1 for s in result.stages if len(s.child_nodes) > 1]
    assert len(calls) == 1 + sum(chosen)


@pytest.mark.parametrize("n, d", [(8, 4), (10, 3)])
def test_lazy_walk_is_jobs_agnostic(n, d, monkeypatch):
    """The lazy walk evaluates one child at a time in this process: jobs
    changes nothing, stages included, and no worker pool is started."""

    def no_pool(*args, **kwargs):
        raise AssertionError("the lazy walk started a worker pool")

    params = Params(n, d)
    serial = walk(params, audit=False)
    monkeypatch.setattr(ramanujan_walk, "ProcessPoolExecutor", no_pool)
    assert walk(params, jobs=2, audit=False) == serial


def test_traced_walk_pool_is_bounded_by_stage_width(monkeypatch):
    """No stage has more than m children, so a traced walk asks for at most
    m workers however large jobs is; a pool starts all its workers at once."""
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    params = Params(6, 3)
    monkeypatch.setattr(ramanujan_walk, "ProcessPoolExecutor", FakePool)
    assert walk(params, jobs=10**6) == walk(params, jobs=1)
    assert asked == [3]


@settings(max_examples=300)
@given(st.integers(1, 16), st.sampled_from((1, 2, 3, 4, 5, 10)), st.integers(0, 2**32))
def test_elimination_agrees_with_certify(m, d, seed):
    """Unions of random matchings, disconnected ones and q = 0 included."""
    graph = Multigraph(Params(2 * m, d), _random_regular(random.Random(seed), m, d))
    assert certify_by_elimination(graph) is certify(graph).passed


@pytest.mark.parametrize(
    "d, mult, passed",
    [
        # top nontrivial eigenvalue of B^T B exactly q: the bound holds with equality
        (10, ((8, 2), (2, 8)), True),  # eigenvalues 100, 36
        (5, ((4, 0, 1), (1, 1, 3), (0, 4, 1)), True),  # q = 16 is an eigenvalue
        (2, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), True),  # disconnected, d^2 = q
        (2, ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1)), True),
        # just over the bound, and q = 0
        (3, ((3, 0), (0, 3)), False),  # disconnected: 9 > 8
        (3, ((2, 1, 0), (1, 2, 0), (0, 0, 3)), False),
        # elimination ends on a block with an all-zero diagonal but a nonzero entry
        (
            3,
            (
                (1, 0, 0, 1, 1, 0),
                (0, 0, 0, 2, 1, 0),
                (0, 1, 2, 0, 0, 0),
                (0, 1, 0, 0, 0, 2),
                (2, 0, 0, 0, 1, 0),
                (0, 1, 1, 0, 0, 1),
            ),
            False,
        ),
        (1, ((1,),), True),
        (1, ((1, 0), (0, 1)), False),
        (4, ((4,),), True),  # m = 1: no nontrivial eigenvalue
    ],
)
def test_elimination_hand_built_cases(d, mult, passed):
    graph = Multigraph(Params(2 * len(mult), d), mult)
    assert certify(graph).passed is passed
    assert certify_by_elimination(graph) is passed
