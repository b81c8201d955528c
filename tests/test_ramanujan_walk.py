"""Root test, greedy descent, and exact certification."""

import functools
import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramex import exact_linalg, expectation_engine, ramanujan_walk
from ramex.exact_algebra import InvariantViolation, UniPoly, poly_substitute_square, quad_sign
from ramex.exact_linalg import _PRIMES, Matrix, _primes_for, trace_bound
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

from matrices import charpoly, gram
from test_exact_algebra import _binomial_shift


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


@st.composite
def _fraction_polys(draw):
    """Real-rooted products of rational linear factors, or arbitrary
    rational coefficients (often with complex roots); a zero constant term
    either way when asked."""
    small = st.fractions(min_value=-12, max_value=12, max_denominator=6)
    if draw(st.booleans()):
        poly = UniPoly((Fraction(1),))
        for root in draw(st.lists(small, min_size=1, max_size=7)):
            poly = poly * UniPoly((-root, Fraction(1)))
    else:
        coeffs = draw(st.lists(small, min_size=1, max_size=8))
        poly = UniPoly(tuple(coeffs) + (draw(small.filter(bool)),))
    if draw(st.booleans()):
        poly = poly * UniPoly((0, 1))
    return poly


@settings(max_examples=400)
@given(_fraction_polys(), st.one_of(st.integers(0, 40), st.sampled_from((0, 4, 16, 25))))
@example(UniPoly((0, Fraction(-3, 2), 0, 1)), 0)
@example(UniPoly((Fraction(-16), 0, Fraction(1))), 16)  # max root exactly sqrt(q)
@example(UniPoly((Fraction(1), 0, Fraction(1))), 8)  # no real root
def test_max_root_matches_its_definition(p, q):
    """The early-exit integer test returns the boolean of its definition,
    every shifted pair nonnegative, on every input."""
    expected = all(quad_sign(a, b, q) >= 0 for a, b in _binomial_shift(p, q))
    assert max_root_leq_sqrt(p, q) is expected


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
    assert result.params.q == 8
    for stage in result.stages:
        assert max_root_leq_sqrt(stage.node_poly, result.params.q)
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


def test_certify_checks_the_trivial_eigenvector():
    """A Multigraph built past its own degree check reaches certify's exact
    check that every row of B^T B sums to d^2, which raises in place of a
    wrong polynomial."""
    graph = object.__new__(Multigraph)
    object.__setattr__(graph, "params", Params(4, 3))
    object.__setattr__(graph, "multiplicity", ((2, 1), (2, 1)))
    with pytest.raises(InvariantViolation, match=r"sum to d\^2 = 9"):
        certify(graph)


def _certify_recording(graph):
    """certify's certificate, the dtype of the deflated Gram it passes to
    ``charpoly_coeffs`` and the primes its kernel runs on."""
    coeffs, kernel, seen = ramanujan_walk.charpoly_coeffs, exact_linalg._hessenberg_charpoly, []

    def passed(mat, bound):
        seen.append(mat.dtype)
        return coeffs(mat, bound)

    def ran(mats, primes):
        seen.append(primes.tolist())
        return kernel(mats, primes)

    with mock.patch.object(ramanujan_walk, "charpoly_coeffs", passed):
        with mock.patch.object(exact_linalg, "_hessenberg_charpoly", ran):
            cert = certify(graph)
    dtype, primes = seen
    return cert, dtype, primes


def _maclaurin(n: int, trace: int) -> int:
    """max_k C(n, k) ceil((trace / n)^k), by Fractions (1 at n = 0)."""
    return max(math.comb(n, k) * math.ceil(Fraction(trace, n or 1) ** k) for k in range(n + 1))


def _assert_certifies_its_gram(graph, cert) -> UniPoly:
    """cert's polynomials are det(x^2 I - G) of the whole Gram G, by the
    Hessenberg reference with Hadamard's primes, and that over x^2 - d^2;
    returns det(yI - G)."""
    d = graph.params.d
    poly = charpoly(gram(Matrix(graph.multiplicity)))
    whole = poly_substitute_square(poly)
    assert cert.adjacency_charpoly == whole
    assert cert.nontrivial_poly * UniPoly((-d * d, 0, 1)) == whole
    return poly


@st.composite
def _regular_multigraphs(draw):
    """The union of d <= 6 matchings on m + m vertices, m <= 40, each
    drawn at random or, a third of the time, a repeat of an earlier one,
    so that multi-edges are common."""
    m, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    perms = []
    for _ in range(d):
        again = perms and draw(st.integers(0, 2)) == 0
        perms.append(draw(st.sampled_from(perms) if again else st.permutations(range(m))))
    mult = [[0] * m for _ in range(m)]
    for perm in perms:
        for i, j in enumerate(perm):
            mult[i][j] += 1
    return Multigraph(Params(2 * m, d), mult)


@settings(max_examples=120)
@given(_regular_multigraphs())
@example(Multigraph(Params(2, 3), ((3,),)))
@example(Multigraph(Params(4, 3), ((3, 0), (0, 3))))
def test_deflated_certify_matches_the_undeflated_charpoly(graph):
    """certify runs the kernel on the (m-1) x (m-1) deflated Gram; on
    regular multigraphs with multi-edges up to m = 40 its polynomials
    match charpoly of the whole Gram B^T B, y -> x^2, with the trivial
    factor x^2 - d^2 split off exactly, and its kernel runs on the primes
    of Maclaurin's bound from the whole m x m Gram's trace, which bounds
    every coefficient of det(yI - G).  The disconnected ((3, 0), (0, 3))
    has d^2 as a repeated eigenvalue."""
    m = graph.params.m
    cert, dtype, primes = _certify_recording(graph)
    poly = _assert_certifies_its_gram(graph, cert)
    bound = _maclaurin(m, sum(b * b for row in graph.multiplicity for b in row))
    assert dtype == np.int64 and primes == _primes_for(bound).tolist()
    assert max(map(abs, poly.coeffs)) <= bound


def _int64_edge(m: int) -> int:
    """The largest d with m d^2 < 2^63, where certify's Gram is int64."""
    return math.isqrt((2**63 - 1) // m)


def _spread(m: int, d: int) -> tuple:
    """A d-regular multiplicity matrix with d - m + 1 on the diagonal and
    1 elsewhere, so that G's entries are near d^2 and 2d."""
    return tuple(tuple(d - m + 1 if i == j else 1 for j in range(m)) for i in range(m))


@pytest.mark.parametrize(
    "mult, dtype",
    [
        (_spread(2, _int64_edge(2)), np.int64),
        (_spread(2, _int64_edge(2) + 1), object),
        (_spread(3, _int64_edge(3)), np.int64),
        (_spread(3, _int64_edge(3) + 1), object),
        (((2**40, 0), (0, 2**40)), object),
        (((2**40, 0, 0), (0, 0, 2**40), (0, 2**40, 0)), object),
    ],
    ids=["m2-below", "m2-past", "m3-below", "m3-past", "m2-2^40", "m3-2^40"],
)
def test_certify_takes_an_object_gram_past_int64(mult, dtype):
    """certify's Gram is int64 while m d^2 < 2^63, which bounds every
    product and sum of it, and an object array from there on: one d below
    and one past the edge, and B = 2^40 P, whose int64 Gram would wrap,
    each give the reference's polynomials."""
    graph = Multigraph(Params(2 * len(mult), sum(mult[0])), mult)
    cert, got, _ = _certify_recording(graph)
    assert got == np.dtype(dtype)
    _assert_certifies_its_gram(graph, cert)


def _root(x: int, k: int) -> int:
    """The largest r with r^k <= x."""
    r = round(x ** (1 / k))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@pytest.mark.parametrize("m, count", itertools.product((2, 3), (1, 2, 3)))
def test_certify_takes_one_more_prime_past_a_product_edge(m, count):
    """B = d I: G = d^2 I, whose e_k = C(m, k) d^(2k) meet Maclaurin's
    bound exactly, so certify's bound is d^(2m) at d >= 2.  At the largest
    d with 2 d^(2m) below the product of count table primes certify takes
    count primes, and at d + 1 one more."""
    d = _root((math.prod(_PRIMES[:count]) - 1) // 2, 2 * m)
    for side, want in ((d, count), (d + 1, count + 1)):
        graph = Multigraph(Params(2 * m, side), [[side * (i == j) for j in range(m)] for i in range(m)])
        cert, _, primes = _certify_recording(graph)
        assert primes == list(_PRIMES[:want])
        factor = UniPoly((-side * side, 0, 1))
        assert cert.nontrivial_poly == math.prod([factor] * (m - 1), start=UniPoly((1,)))


def test_trace_bound_rounds_up_at_a_product_edge():
    """n = 30, trace 31: C(30, k) (31/30)^k lies strictly between C(30, k)
    and 2 C(30, k) for 1 <= k <= 21, so each term rounded up makes the
    bound 2 C(30, 15), whose double needs two primes; rounded down it
    would be C(30, 15), whose double is below the first."""
    assert 2 * math.comb(30, 15) < _PRIMES[0] < 4 * math.comb(30, 15)
    assert trace_bound(30, 31) == _maclaurin(30, 31) == 2 * math.comb(30, 15)
    assert len(_primes_for(trace_bound(30, 31))) == 2


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


def test_child_rule_decides_by_sign_and_a_zero_by_the_root_test():
    """A child passes on a value > 0 and fails on < 0; a value of 0 takes
    the root test on the integer polynomial, and a sign that contradicts
    that test raises."""
    rule = ramanujan_walk._child_passes
    assert rule(Fraction(1, 3), None, 8) is True
    assert rule(Fraction(-1, 3), None, 8) is False
    # (x^2 - 8)(x^2 - 9) and x^2 - 8 are 0 at sqrt(8); the first has the root 3
    assert rule(Fraction(0), [72, 0, -17, 0, 1], 8) is False
    assert rule(Fraction(0), [-8, 0, 1], 8) is True
    # x^2 - 7 is 1 at sqrt(8) and x^2 - 9 is -1
    assert rule(Fraction(1), [-7, 0, 1], 8) is True
    assert rule(Fraction(-1), [-9, 0, 1], 8) is False
    with pytest.raises(InvariantViolation, match="contradicts the root test"):
        rule(Fraction(1), [-9, 0, 1], 8)


def _walk_or_stuck(params, **kwargs):
    """The walk's result, or the node and message of its NoPassingChild."""
    try:
        return walk(params, **kwargs)
    except NoPassingChild as exc:
        return exc.node, str(exc)


def _at_sqrt(poly: UniPoly, q: int) -> Fraction:
    """An even polynomial's exact value at sqrt(q)."""
    return sum(c * q ** (i // 2) for i, c in enumerate(poly.coeffs) if i % 2 == 0)


@pytest.mark.parametrize("n, d", itertools.product(range(2, 11, 2), range(1, 5)))
def test_lazy_walk_reaches_the_full_walks_leaf(n, d):
    """The contract of first-pass descent: the lazy walk reaches the leaf of
    the audited walk through the same choices, and evaluates only a prefix
    of each stage's children, ending at the chosen one; its last stage
    holds the audited walk's leaf polynomial."""
    params = Params(n, d)
    full = _walk_or_stuck(params)
    lazy = _walk_or_stuck(params, audit=False)
    # outside d = 1 a stuck walk is a bug (NoPassingChild), even when both walks agree
    assert isinstance(full, tuple) == (d == 1 and n > 2)
    if isinstance(full, tuple):
        assert lazy == full
        return
    assert (lazy.leaf, lazy.leaf_poly) == (full.leaf, full.leaf_poly)
    assert len(lazy.stages) == len(full.stages)
    q = 4 * (d - 1)
    for lazy_stage, full_stage in zip(lazy.stages, full.stages):
        assert lazy_stage.node == full_stage.node
        assert lazy_stage.node_poly in (None, full_stage.node_poly)
        assert lazy_stage.node_value == full_stage.node_value == _at_sqrt(full_stage.node_poly, q)
        assert lazy_stage.child_nodes == full_stage.child_nodes
        assert lazy_stage.chosen == full_stage.chosen
        size = len(lazy_stage.child_values)
        assert size == len(lazy_stage.child_polys) == lazy_stage.chosen + 1
        # the lazy values are the audited polynomials at sqrt(q), and a lazy
        # stage holds the polynomial of a child whose value is 0 or that is
        # the leaf, and only there
        polys = full_stage.child_polys[:size]
        assert lazy_stage.child_values == tuple(_at_sqrt(poly, q) for poly in polys)
        assert full_stage.child_values == tuple(_at_sqrt(p, q) for p in full_stage.child_polys)
        held = zip(polys, lazy_stage.child_values, lazy_stage.child_nodes)
        assert lazy_stage.child_polys == tuple(
            poly if value == 0 or child.is_leaf(params) else None for poly, value, child in held
        )
        assert lazy_stage.child_passed == full_stage.child_passed[:size]
    if lazy.stages:
        last, audited = lazy.stages[-1], full.stages[-1]
        assert last.child_polys[-1] == audited.child_polys[audited.chosen] == full.leaf_poly


def test_lazy_walk_skips_forced_stages(monkeypatch):
    """Only the start node, the leaf and the children of stages with a
    choice are evaluated, the children by value alone: a stage that
    reaches its last child takes its value as c parent - the others, which
    for a single child is the parent's, and decides it by that value."""
    calls = []
    real = ramanujan_walk.contract_node
    monkeypatch.setattr(
        ramanujan_walk, "contract_node", lambda *args: calls.append(1) or real(*args)
    )
    result = walk(Params(8, 4), audit=False)
    forced = [s for s in result.stages if len(s.child_nodes) == 1]
    assert forced
    for stage in forced:
        assert stage.child_values == (stage.node_value,)
        assert stage.child_passed == (True,)
    last = [s for s in result.stages if s.chosen == len(s.child_nodes) - 1 > 0]
    assert last
    for stage in last:
        assert not any(stage.child_passed[:-1])
    assert all(value for s in result.stages for value in s.child_values)
    chosen = [s.chosen + 1 for s in result.stages if len(s.child_nodes) > 1]
    assert len(calls) == 2 + sum(chosen) - len(last)


@pytest.mark.parametrize("n", [8, 10])
def test_lazy_d2_walk_runs_one_grid_per_node(n, monkeypatch):
    """At d = 2 the children the lazy walk decides read 0, so each takes
    its full polynomial: from the grid run that gave its value, and at the
    leaf from the stage that decided it.  No node's grid runs twice."""
    engine, nodes, grids = expectation_engine, [], []
    half, grid = engine.half_adjacency, engine.trivariate_detpoly
    monkeypatch.setattr(engine, "half_adjacency", lambda *a: nodes.append(a[0]) or half(*a))
    monkeypatch.setattr(engine, "trivariate_detpoly", lambda *a: grids.append(a) or grid(*a))
    result = walk(Params(n, 2), audit=False)
    assert 0 in (value for stage in result.stages for value in stage.child_values)
    assert len(grids) == len(set(nodes))


def test_lazy_walk_contracts_only_the_start_node_and_the_leaf(monkeypatch):
    """A lazy (14,3) walk decides every child by its value from the fused
    table, which needs no Gram polynomial: only the start node's and the
    leaf's polynomials run ``_contract``."""
    calls = []
    real = expectation_engine._contract
    monkeypatch.setattr(expectation_engine, "_contract", lambda *a: calls.append(a) or real(*a))
    walk(Params(14, 3), audit=False)
    assert len(calls) == 2


@pytest.mark.parametrize("n, d, word", [(14, 3, True), (10, 6, True), (24, 3, False)])
def test_small_walks_run_every_grid_on_one_word(n, d, word, monkeypatch):
    """Every grid of a lazy (14,3) or (10,6) walk fits one 64-bit word, so
    none takes a prime or the CRT; a lazy (24,3) walk still needs them for
    its larger grids."""
    calls = []
    for name in ("_primes_for", "_crt"):
        real = getattr(exact_linalg, name)
        monkeypatch.setattr(
            exact_linalg, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    walk(Params(n, d), audit=False)
    assert not calls if word else {"_primes_for", "_crt"} <= set(calls)


def test_lazy_walk_builds_interpolation_rows_only_for_the_primes_it_reads(monkeypatch):
    """A lazy (24,3) walk builds each interpolation table once per l_hat
    and modulus: mod p for the leading primes its prime grids at that
    l_hat read and no others, as many as the largest prime count there,
    none at an l_hat that only word grids take, and mod 2^64 at just the
    l_hats that word grids take."""
    built, reads, words = [], {}, set()
    build = exact_linalg._interp.__wrapped__

    def counted(lhat, modulus):
        built.append((lhat, modulus))
        return build(lhat, modulus)

    grid = exact_linalg._grid

    def recorded(a, rows, cols, n, primes):
        lhat = max(len(rows), 1) - 1
        reads[lhat] = max(reads.get(lhat, 0), 0 if primes is None else len(primes))
        if primes is None:
            words.add(lhat)
        return grid(a, rows, cols, n, primes)

    monkeypatch.setattr(exact_linalg, "_interp", functools.lru_cache(None)(counted))
    monkeypatch.setattr(exact_linalg, "_grid", recorded)
    walk(Params(24, 3), audit=False)
    assert 0 in reads.values() and any(reads.values())  # both moduli ran
    assert len(built) == len(set(built))  # one build per (l_hat, modulus)
    primes = {}
    for lhat, modulus in built:
        if modulus != exact_linalg._WORD:
            primes.setdefault(lhat, []).append(modulus)
    assert primes == {lhat: list(exact_linalg._PRIMES[:r]) for lhat, r in reads.items() if r}
    assert {lhat for lhat, modulus in built if modulus == exact_linalg._WORD} == words


@pytest.mark.parametrize("n, d", [(8, 4), (10, 3)])
def test_lazy_walk_is_jobs_agnostic(n, d, monkeypatch):
    """The lazy walk evaluates one child at a time in this thread: jobs
    changes nothing, stages included, and no thread pool is started."""

    def no_pool(*args, **kwargs):
        raise AssertionError("the lazy walk started a thread pool")

    params = Params(n, d)
    serial = walk(params, audit=False)
    monkeypatch.setattr(ramanujan_walk, "ThreadPoolExecutor", no_pool)
    assert walk(params, jobs=2, audit=False) == serial


def test_traced_walk_pool_is_bounded_by_stage_width(monkeypatch):
    """No stage has more than m children, so a traced walk asks for at most
    m threads however large jobs is, and at jobs = 1 it starts no pool."""
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
    monkeypatch.setattr(ramanujan_walk, "ThreadPoolExecutor", FakePool)
    serial = walk(params, jobs=1)
    assert asked == []
    assert walk(params, jobs=10**6) == serial
    assert asked == [3]


def test_audited_walk_checks_each_value_against_its_polynomial(monkeypatch):
    """An audited walk takes a child's value from its grid run and its
    polynomial from the same run's folds; a value off by one is caught."""
    real = ramanujan_walk.contraction_value
    monkeypatch.setattr(ramanujan_walk, "contraction_value", lambda *args: real(*args) + 1)
    with pytest.raises(InvariantViolation, match=r"differs from its value at sqrt\(8\)"):
        walk(Params(6, 3))


def _skewing_full_poly(monkeypatch, skew):
    """Raise by 1 the full polynomials of the nodes skew(node) picks (the
    integer form by its denominator); the nodes computed in full, in order."""
    real, computed = ramanujan_walk._full_poly, []

    def full_poly(node, params, contraction=None):
        poly, ints = real(node, params, contraction)
        computed.append(node)
        if skew(node):
            return poly + UniPoly((1,)), (ints[0] + ints[-1], *ints[1:])
        return poly, ints

    monkeypatch.setattr(ramanujan_walk, "_full_poly", full_poly)
    return computed


def test_lazy_walk_checks_a_zero_valued_child_against_its_value(monkeypatch):
    """A lazy walk computes in full only the children whose value is 0, and
    checks each polynomial against that value: the first such child, raised
    by 1, is caught and named."""
    computed = _skewing_full_poly(monkeypatch, lambda node: len(computed) == 1)
    child = '{"complete": [[1, 2, 3, 4]], "partial": [1]}'
    message = f"the polynomial of {child} differs from its value at sqrt(4)"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        walk(Params(8, 2), audit=False)
    assert computed == [NodeState(((0, 1, 2, 3),), (0,))]


def test_lazy_walk_checks_its_leaf_against_its_value(monkeypatch):
    """A lazy walk computes its leaf's polynomial in the stage that decides
    the leaf, as it does a zero-valued child's; one raised by 1 fails the
    stage's check of each polynomial against its value, which names the
    leaf."""
    computed = _skewing_full_poly(monkeypatch, lambda node: True)
    leaf = '{"complete": [[1, 2], [1, 2], [2, 1]], "partial": []}'
    message = f"the polynomial of {leaf} differs from its value at sqrt(8)"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        walk(Params(4, 3), audit=False)
    assert computed == [NodeState(((0, 1), (0, 1), (1, 0)))]


def test_lazy_walk_takes_the_root_test_on_its_leaf(monkeypatch):
    """The leaf is decided like every other child: by the sqrt(q) rule on
    its polynomial, whose sign must agree with its value.  x^2 - 4x - 1 has
    the (4,3) leaf's value at sqrt(8), 7 (the walk's values read only the
    even coefficients), but a root at 2 + sqrt(5) > sqrt(8)."""
    real = ramanujan_walk._full_poly

    def full_poly(node, params, contraction=None):
        if node.is_leaf(params):
            return UniPoly((-1, -4, 1)), (-1, -4, 1)
        return real(node, params, contraction)

    monkeypatch.setattr(ramanujan_walk, "_full_poly", full_poly)
    with pytest.raises(InvariantViolation, match=re.escape("p(sqrt(8)) = 7 contradicts")):
        walk(Params(4, 3), audit=False)


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
        # elimination ends on a negative diagonal entry
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
        # elimination ends on a block with an all-zero diagonal but a nonzero entry
        (4, ((0, 2, 2), (4, 0, 0), (0, 2, 2)), False),
    ],
)
def test_elimination_hand_built_cases(d, mult, passed):
    graph = Multigraph(Params(2 * len(mult), d), mult)
    assert certify(graph).passed is passed
    assert certify_by_elimination(graph) is passed
