"""Greedy descent through the matching tree and exact certification.

The walk starts at the identity first matching.  While the first matching
is being placed nothing else is in the graph, so relabeling the unused
right vertices turns any child of such a node into any other: every child
has its parent's polynomial, and a walk from the root would take child 0
down to the identity anyway.  From there it descends into the first child
(ascending partner order) whose max root is at most sqrt(q) with
q = 4(d-1).  The children of a passing node share a common interlacer, so
each has at most one root above sqrt(q), and one exact number decides a
child: its polynomial's value at sqrt(q), which passes if positive and
fails if negative; a value of 0 takes the exact root test on the integer
pairs (a, b) of the shifted coefficients a + b sqrt(q), the one sqrt(q)
rule (``_pairs_pass``) that the start node and the certificate take too.
A stage's c children average to their parent, so the last child's
polynomial, and its value, is c times the parent's less the other c - 1.
One loop serves both walks: a lazy walk computes values, one child at a
time until one passes, taking the last from the identity (a single child
is the parent itself), and a full polynomial only for a child whose value
is 0 and for the leaf, which the last stage decides like every other
child; an audited walk first evaluates every child in full and checks
their average and each verdict.  On both, every polynomial the walk
computes must have the value carried with it, and a child with a
polynomial is decided by the sqrt(q) rule on it, so the leaf has passed
the rule its certificate takes.  At a leaf the matchings combine into a
d-regular bipartite multigraph whose nontrivial spectrum is certified to
lie in [-2 sqrt(d-1), 2 sqrt(d-1)]: bipartite spectra are
symmetric about zero, so bounding the max root bounds the min root as
well.  The adjacency polynomial comes from the m x m Gram of the
multiplicity matrix, not the n x n adjacency, and its trivial factor is
deflated out of the Gram before the characteristic polynomial is taken,
so nothing is divided out after.  certify_by_elimination
reaches the same verdict with no characteristic polynomial at all, by
eliminating the (m-1) x (m-1) restriction of qI - B^T B to the vectors
orthogonal to all-ones.
"""

from __future__ import annotations

import contextlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from .exact_algebra import (
    InvariantViolation,
    UniPoly,
    poly_substitute_square,
    quad_sign,
    rational_to_str,
    sqrt_shift_pairs,
)
from .exact_linalg import charpoly_coeffs, check_grid_size, trace_bound
from .expectation_engine import contract_node, contraction_poly, contraction_value
from .matching_family import Multigraph, NodeState, Params, children, node_to_json


class NoPassingChild(InvariantViolation):
    """No child passed the root bound.

    Impossible for a correct implementation when the current node passes
    (the parent polynomial is an average of the children's, which share a
    common interlacing), so outside the degenerate d = 1 regime this
    always indicates a bug.  Carries the stuck node and every child with
    its polynomial: a lazy stage with no passing child evaluates them all
    in full before it raises.
    """

    def __init__(self, message: str, node=None, child_nodes=(), child_polys=()):
        super().__init__(message)
        self.node = node
        self.child_nodes = tuple(child_nodes)
        self.child_polys = tuple(child_polys)


def _pairs_pass(pairs, q: int) -> bool:
    """The one sqrt(q) rule: whether a real-rooted p with a positive
    leading coefficient has every root <= sqrt(q), from the pairs
    a + b sqrt(q) of p(x + sqrt(q)) (``sqrt_shift_pairs``, integer or
    rational).  The roots of p(x + sqrt(q)) are p's less sqrt(q), so they
    are all <= 0 exactly when no coefficient changes sign, that is when
    every pair is nonnegative, which exact signs decide one pair at a
    time.  Pair 0, p(sqrt(q)), comes first: every failing child measured
    so far is negative there, so a lazy shift costs one pass, not
    deg p + 1.  At q = 0 the pairs are p's own coefficients.
    """
    return all(quad_sign(a, b, q) >= 0 for a, b in pairs)


def max_root_leq_sqrt(p: UniPoly, q: int) -> bool:
    """Exact test whether the max root of real-rooted p is <= sqrt(q):
    ``_pairs_pass`` on the shift of p's own coefficients."""
    return _pairs_pass(sqrt_shift_pairs(p.coeffs, q), q)


@dataclass(frozen=True)
class Certificate:
    """Exact evidence about a multigraph's nontrivial spectrum."""

    graph: Multigraph
    bound_q: int
    adjacency_charpoly: UniPoly
    nontrivial_poly: UniPoly
    shifted_coeffs: tuple  # pairs (a, b): nontrivial(x + sqrt(q)) = sum (a + b sqrt(q)) x^j
    passed: bool


def certify(graph: Multigraph) -> Certificate:
    """Certify a d-regular bipartite multigraph exactly.

    With B the multiplicity matrix, the adjacency is [[0, B], [B^T, 0]], so
    det(xI - A) = det(x^2 I - G) with G = B^T B, the m x m Gram: the exact
    characteristic polynomial of G, with y -> x^2.  The Gram is one integer
    batch of array operations.  B is one array, int64 when m d^2 < 2^63
    and object otherwise: Multigraph's own checks make its entries
    nonnegative and every line sum to d, so no product or partial sum
    below exceeds m d^2, the sum of G's entries, and int64 holds each
    exactly.  G = B^T B is one product.  Every row and column of B sums to d, so G 1 = d^2 1; an
    exact check that every row of G sums to d^2 raises InvariantViolation
    otherwise.  With the unimodular T = I + (1 - e0) e0^T, T^-1 G T has
    first column d^2 e0 and trailing block G'[i][j] = G[i][j] - G[0][j]
    (i, j >= 1), so det(yI - G) = (y - d^2) det(yI - G'):
    ``charpoly_coeffs`` runs on the (m-1) x (m-1) array G', modulo
    word-size primes in one numpy batch, and gives the nontrivial
    polynomial directly, with nothing to divide out.  The primes come from
    the Maclaurin bound of G's exact trace (``trace_bound``): G is positive
    semidefinite, and e_k of a sub-multiset of nonnegative eigenvalues is
    at most e_k of them all, so it bounds det(yI - G') too.  Bounding G'
    over its m - 1 eigenvalues instead would let an absurd d past the size
    cap at m = 1.  The sqrt(q) rule, ``_pairs_pass`` with q = 4(d-1),
    decides the verdict on the same integer pairs of the shifted
    nontrivial polynomial that the certificate reports.
    """
    import numpy as np

    m, d = graph.params.m, graph.params.d
    mult = np.array(graph.multiplicity, dtype=np.int64 if m * d * d < 2**63 else object)
    gram = mult.T @ mult
    if (gram.sum(axis=1) != d * d).any():
        raise InvariantViolation(f"a row of the Gram B^T B does not sum to d^2 = {d * d}")
    # G' = rows and columns 1.. of T^-1 G T: each row of G less row 0
    rest = charpoly_coeffs(gram[1:, 1:] - gram[:1, 1:], trace_bound(m, int(gram.trace())))
    # det(yI - G) = (y - d^2) det(yI - G')
    full = [a - d * d * b for a, b in zip([0] + rest, rest + [0])]
    q = graph.params.q
    nontrivial = poly_substitute_square(UniPoly(tuple(rest)))
    shifted = tuple(sqrt_shift_pairs(nontrivial.coeffs, q))
    return Certificate(
        graph=graph,
        bound_q=q,
        adjacency_charpoly=poly_substitute_square(UniPoly(tuple(full))),
        nontrivial_poly=nontrivial,
        shifted_coeffs=shifted,
        passed=_pairs_pass(shifted, q),
    )


def certify_by_elimination(graph: Multigraph) -> bool:
    """The Ramanujan verdict of certify, reached without a characteristic
    polynomial.

    G = B^T B is symmetric with the all-ones vector as an eigenvector, so
    it maps the vectors orthogonal to all-ones, which the columns of
    C = [e_i - e_0] (i = 1..m-1) span, to themselves, and G's other
    eigenvalues are at most q = 4(d-1) exactly when
    S' = C^T (qI - G) C = q (I + J) - (BC)^T (BC) is positive
    semidefinite.  S' is built from B's rows, with no Gram: a row b of B
    is the row u of BC with u_i = b_i - b_0, nonzero only where
    b_i != b_0, and S' loses u u^T for each.  That is
    decided by fraction-free (Bareiss) symmetric elimination on integers,
    pivoting on the largest remaining diagonal entry: each pivot is a
    positive principal minor, and each step leaves that minor times the
    Schur complement.  A negative diagonal entry, or a nonzero block whose
    diagonal is all zero, means S' is not PSD.
    """
    m, q = graph.params.m, graph.params.q
    s = [[q * (i == j) + q for j in range(m - 1)] for i in range(m - 1)]
    for row in graph.multiplicity:
        u = [(i, b - row[0]) for i, b in enumerate(row[1:]) if b != row[0]]
        for i, a in u:
            for j, c in u:
                s[i][j] -= a * c
    rest = list(range(m - 1))
    prev = 1
    while rest:
        if min(s[i][i] for i in rest) < 0:
            return False
        k = max(rest, key=lambda i: s[i][i])
        pivot = s[k][k]
        if pivot == 0:
            return all(s[i][j] == 0 for i in rest for j in rest)
        rest.remove(k)
        for i in rest:
            for j in rest:
                s[i][j] = (pivot * s[i][j] - s[i][k] * s[k][j]) // prev
        prev = pivot
    return True


def _value(coeffs, q: int) -> Fraction:
    """A monic even polynomial at sqrt(q), exactly, from its coefficients
    or from its integer form, whose leading coefficient is the
    denominator."""
    return Fraction(sum(c * q**i for i, c in enumerate(coeffs[::2]))) / coeffs[-1]


def _child_passes(value, ints, q: int) -> bool:
    """The walk's one rule for a child of a passing node: it passes if its
    value p(sqrt(q)) is > 0 and fails if < 0.  The children share a common
    interlacer whose largest root is at most the parent's max root, at most
    sqrt(q) (Marcus, Spielman and Srivastava, Interlacing Families I), so a
    child has at most one root above sqrt(q), and its sign there is (-1) to
    the number of them.  Given ints, the child's integer polynomial (every
    child of an audited walk, and on a lazy one a child whose value is 0
    and the leaf), the sqrt(q) rule on its pairs decides, and a nonzero
    value whose sign contradicts that rule raises InvariantViolation.
    """
    if ints is None:
        return value > 0
    passed = _pairs_pass(sqrt_shift_pairs(ints, q), q)
    if value and passed != (value > 0):
        raise InvariantViolation(f"the sign of p(sqrt({q})) = {value} contradicts the root test")
    return passed


@dataclass(frozen=True)
class WalkStage:
    """One expansion of the walk: a node, its decided children, the pick.

    child_nodes lists every child; child_values and child_passed cover the
    decided prefix, which is all of them on an audited walk.  Values are
    the polynomials at sqrt(q).  node_poly and child_polys hold a
    polynomial where one was computed and None elsewhere: everywhere on an
    audited walk, and on a lazy walk only for the start node, the children
    whose value is 0 and the leaf, the last stage's one child.
    """

    node: NodeState
    node_poly: UniPoly | None
    node_value: Fraction
    child_nodes: tuple
    child_polys: tuple
    child_values: tuple
    child_passed: tuple
    chosen: int


@dataclass(frozen=True)
class WalkResult:
    params: Params
    leaf: NodeState
    leaf_poly: UniPoly
    stages: tuple = field(default_factory=tuple)


def _full_poly(node: NodeState, params: Params, contraction=None) -> tuple[UniPoly, tuple]:
    """A node's polynomial and its integer form, from its ``contract_node``
    if given, else from a grid run of its own: the one source of every full
    polynomial the walk computes after the start node's."""
    return contraction_poly(contraction or contract_node(node, params), params)


def _named(node: NodeState) -> str:
    """A node in its 1-based JSON form, as files and the command line have it."""
    return json.dumps(node_to_json(node))


def walk_workers(params: Params, jobs: int, audit: bool) -> int:
    """The threads a walk evaluates each stage's children in: min(jobs, m)
    on an audited walk, 1 on a lazy one."""
    return min(jobs, params.m) if audit else 1


def walk(params: Params, jobs: int = 1, audit: bool = True) -> WalkResult:
    """Descend from the identity first matching to a leaf, keeping the
    invariant that the current node's polynomial passes the sqrt(q) bound,
    q = 4(d-1).

    One loop serves both walks, and every child, the leaf included.  It
    takes a stage's children in ascending order, each child's value at
    sqrt(q) from its grid run (``contract_node``, ``contraction_value``)
    and its full polynomial from the same run where the walk is audited,
    the value is 0 or the child is a leaf; then ``_child_passes`` decides
    it.  A lazy walk stops at the first that passes and takes the last
    child's value as c times the parent's less the others (a single child
    is the parent, so the leaf's one grid run is its polynomial's).  An
    audited walk decides every child, evaluates each in full up front, in
    ``walk_workers`` threads, and checks that their polynomials average to
    the parent.  On both walks each value must be its own polynomial's
    wherever that polynomial was computed, so leaf_poly is the chosen
    leaf's polynomial, checked against its value and passed by the sqrt(q)
    rule.  A stage where none passes evaluates every child in full before
    NoPassingChild is raised.  The leaf never depends on audit or jobs.
    """
    check_grid_size(params.m)  # before the start node's m-tuple is built
    q = params.q
    current = NodeState((tuple(range(params.m)),), None)
    current_poly, ints = contraction_poly(contract_node(current, params), params)
    if not _pairs_pass(sqrt_shift_pairs(ints, q), q):
        raise NoPassingChild(
            f"start node polynomial {[rational_to_str(c) for c in current_poly.coeffs]} "
            f"already violates the bound sqrt({q}) (expected only in the degenerate d=1 regime)",
            node=current,
        )
    current_value = _value(ints, q)

    stages = []
    workers = walk_workers(params, jobs, audit)
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        evaluate = pool.map if pool else map
        while not current.is_leaf(params):
            kids = children(current, params)
            contractions = evaluated = [None] * len(kids)
            if audit:  # every child in full, up front: the polynomials average to the parent
                contractions = list(evaluate(contract_node, kids, repeat(params)))
                evaluated = list(map(_full_poly, kids, repeat(params), contractions))
                *others, last = (poly for poly, _ in evaluated)
                if last != len(kids) * current_poly + -1 * sum(others, UniPoly()):
                    raise InvariantViolation(
                        f"polynomial of {_named(current)} is not the average of its children"
                    )
            polys, values, passed = [], [], []
            for kid, contraction, full in zip(kids, contractions, evaluated):
                if not audit and kid is kids[-1]:  # c parent - the others
                    values.append(len(kids) * current_value - sum(values))
                else:
                    contraction = contraction or contract_node(kid, params)
                    values.append(contraction_value(contraction, params))
                if full is None and (not values[-1] or kid.is_leaf(params)):
                    full = _full_poly(kid, params, contraction)
                poly, ints = full or (None, None)
                if full and _value(ints, q) != values[-1]:
                    raise InvariantViolation(
                        f"the polynomial of {_named(kid)} differs from its value at sqrt({q})"
                    )
                polys.append(poly)
                passed.append(_child_passes(values[-1], ints, q))
                if passed[-1] and not audit:
                    break
            if not any(passed):
                raise NoPassingChild(
                    f"no child of {_named(current)} passes the sqrt({q}) bound",
                    node=current,
                    child_nodes=kids,
                    child_polys=[p or _full_poly(k, params)[0] for k, p in zip(kids, polys)],
                )
            idx = passed.index(True)
            stages.append(
                WalkStage(
                    node=current,
                    node_poly=current_poly,
                    node_value=current_value,
                    child_nodes=tuple(kids),
                    child_polys=tuple(polys),
                    child_values=tuple(values),
                    child_passed=tuple(passed),
                    chosen=idx,
                )
            )
            current, current_poly, current_value = kids[idx], polys[idx], values[idx]
    return WalkResult(params=params, leaf=current, leaf_poly=current_poly, stages=tuple(stages))


def certificate_to_json(cert: Certificate) -> dict:
    """Wire format: exact strings only, no floating point anywhere."""
    return {
        "n": cert.graph.params.n,
        "d": cert.graph.params.d,
        "q": cert.bound_q,
        "adjacency_charpoly": [rational_to_str(c) for c in cert.adjacency_charpoly.coeffs],
        "nontrivial_charpoly": [rational_to_str(c) for c in cert.nontrivial_poly.coeffs],
        "shifted_coeffs": [
            {"a": rational_to_str(a), "b": rational_to_str(b)} for a, b in cert.shifted_coeffs
        ],
        "passed": cert.passed,
    }
