"""Greedy descent through the matching tree and exact certification.

The walk starts at the identity first matching.  While the first matching
is being placed nothing else is in the graph, so relabeling the unused
right vertices turns any child of such a node into any other: every child
has its parent's polynomial, and a walk from the root would take child 0
down to the identity anyway.  From there it descends into the first child
(ascending partner order) whose max root is at most sqrt(q) with
q = 4(d-1), tested exactly on the rational pairs (a, b) of the shifted
coefficients a + b sqrt(q).  An audited walk evaluates every child and
checks that the parent's polynomial is their average; a lazy walk
evaluates children one at a time until one passes, and none at a stage
with a single child.  At a leaf the matchings combine into a d-regular
bipartite multigraph whose nontrivial spectrum is certified to lie in
[-2 sqrt(d-1), 2 sqrt(d-1)]: bipartite spectra are symmetric about zero,
so bounding the max root bounds the min root as well.  The adjacency
polynomial comes from the m x m Gram of the multiplicity matrix, not the
n x n adjacency.  certify_by_elimination reaches the same verdict with no
characteristic polynomial at all.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .exact_algebra import (
    InvariantViolation,
    UniPoly,
    poly_div_exact,
    poly_shift_by_sqrt,
    poly_substitute_square,
    quad_sign,
    rational_to_str,
)
from .exact_linalg import Matrix, charpoly, check_grid_size
from .expectation_engine import node_polynomial
from .matching_family import Multigraph, NodeState, Params, children


class NoPassingChild(RuntimeError):
    """No child passed the root bound.

    Impossible for a correct implementation when the current node passes
    (the parent polynomial is an average of the children's, which share a
    common interlacing), so outside the degenerate d = 1 regime this
    always indicates a bug.  Carries the stuck node and every child with
    its polynomial: a stage with no passing child has evaluated them all.
    """

    def __init__(self, message: str, node=None, child_nodes=(), child_polys=()):
        super().__init__(message)
        self.node = node
        self.child_nodes = tuple(child_nodes)
        self.child_polys = tuple(child_polys)


def max_root_leq_sqrt(p: UniPoly, q: int) -> bool:
    """Exact test whether the max root of real-rooted p is <= sqrt(q).

    Shifts to p(x + sqrt(q)), whose coefficients are pairs a + b sqrt(q);
    nonpositive roots of the shifted polynomial are equivalent to all its
    coefficients being nonnegative, decided by exact signs of the pairs.
    q = 0 degenerates to testing p's own coefficients.
    """
    return all(quad_sign(a, b, q) >= 0 for a, b in poly_shift_by_sqrt(p, q))


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
    det(xI - A) = det(x^2 I - B^T B): the exact characteristic polynomial
    of the m x m Gram, with y -> x^2.  The Gram is summed from each row's
    nonzero entries, and ``charpoly`` computes its polynomial modulo one
    Mersenne prime large enough to be exact.  The trivial factor y - d^2 is
    divided out of the Gram's integer polynomial once, as node_polynomial
    does, and the sqrt-q root test runs with q = 4(d-1).  The division is
    always exact: every row and column of B sums to d, so the all-ones
    vector is an eigenvector of B^T B with eigenvalue d^2.
    """
    m, d = graph.params.m, graph.params.d
    # B^T B from each row's nonzero entries, at most d of them
    gram = [[0] * m for _ in range(m)]
    for row in graph.multiplicity:
        support = [(j, b) for j, b in enumerate(row) if b]
        for j, b in support:
            for k, c in support:
                gram[j][k] += b * c
    gram_poly = charpoly(Matrix.from_rows(gram))
    q = 4 * (d - 1)
    nontrivial = poly_substitute_square(poly_div_exact(gram_poly, UniPoly((-(d * d), 1))))
    shifted = poly_shift_by_sqrt(nontrivial, q)
    return Certificate(
        graph=graph,
        bound_q=q,
        adjacency_charpoly=poly_substitute_square(gram_poly),
        nontrivial_poly=nontrivial,
        shifted_coeffs=shifted,
        passed=all(quad_sign(a, b, q) >= 0 for a, b in shifted),
    )


def certify_by_elimination(graph: Multigraph) -> bool:
    """The Ramanujan verdict of certify, reached without a characteristic
    polynomial.

    B^T B has the all-ones vector as an eigenvector with eigenvalue d^2,
    so its other eigenvalues are at most q = 4(d-1) exactly when
    S = m q I - m B^T B + d^2 J is positive semidefinite.  That is decided
    by fraction-free (Bareiss) symmetric elimination on integers, pivoting
    on the largest remaining diagonal entry: each pivot is a positive
    principal minor, and each step leaves that minor times the Schur
    complement.  A negative diagonal entry, or a nonzero block whose
    diagonal is all zero, means S is not PSD.
    """
    m, d = graph.params.m, graph.params.d
    cols = list(zip(*graph.multiplicity))
    s = [[d * d - m * sum(map(mul, ci, cj)) for cj in cols] for ci in cols]
    for i in range(m):
        s[i][i] += m * 4 * (d - 1)
    rest = list(range(m))
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


@dataclass(frozen=True)
class WalkStage:
    """One expansion of the walk: a node, its evaluated children, the pick.

    child_nodes lists every child; child_polys and child_passed cover only
    the evaluated prefix, which is all of them on an audited walk.
    """

    node: NodeState
    node_poly: UniPoly
    child_nodes: tuple
    child_polys: tuple
    child_passed: tuple
    chosen: int


@dataclass(frozen=True)
class WalkResult:
    params: Params
    bound_q: int
    leaf: NodeState
    leaf_poly: UniPoly
    stages: tuple = field(default_factory=tuple)
    # worker processes started, 1 when no pool ran; the walk's value never depends on it
    workers: int = field(default=1, compare=False)


def _child_poly_task(args) -> UniPoly:
    node, params = args
    return node_polynomial(node, params)


def walk(params: Params, jobs: int = 1, audit: bool = True) -> WalkResult:
    """Descend from the identity first matching to a leaf, keeping the
    invariant that the current node's polynomial passes the sqrt(q) bound,
    q = 4(d-1).

    The descent takes the first passing child in deterministic ascending
    order.  With audit, every child is evaluated, in up to jobs worker
    processes (never more than m, the most children a stage has), and the
    current node's polynomial must be their average.
    Without it, a single-child stage evaluates nothing (its child's
    polynomial is the parent's), and other stages evaluate children one at
    a time in this process until one passes; a stage where none passes has
    evaluated them all.  The leaf never depends on audit or the job count.
    """
    check_grid_size(params.m)  # before the start node's m-tuple is built
    q = 4 * (params.d - 1)
    current = NodeState((tuple(range(params.m)),), None)
    current_poly = node_polynomial(current, params)
    if not max_root_leq_sqrt(current_poly, q):
        raise NoPassingChild(
            f"start node polynomial {current_poly} already violates the bound "
            f"sqrt({q}) (expected only in the degenerate d=1 regime)",
            node=current,
        )

    stages = []
    workers = min(jobs, params.m)
    pooled = audit and workers > 1
    with ProcessPoolExecutor(max_workers=workers) if pooled else contextlib.nullcontext() as pool:
        # the builtin map is lazy, so a lazy walk stops at the first passing child
        evaluate = pool.map if pooled else map
        while not current.is_leaf(params):
            kids = children(current, params)
            if not audit and len(kids) == 1:  # forced: the only child's polynomial is the parent's
                polys, passed = [current_poly], [True]
            else:
                polys, passed = [], []
                for poly in evaluate(_child_poly_task, [(k, params) for k in kids]):
                    polys.append(poly)
                    passed.append(max_root_leq_sqrt(poly, q))
                    if passed[-1] and not audit:
                        break
                if audit and Fraction(1, len(polys)) * sum(polys, UniPoly()) != current_poly:
                    raise InvariantViolation(
                        f"polynomial of {current} is not the average of its children"
                    )
            try:
                idx = passed.index(True)
            except ValueError:
                raise NoPassingChild(
                    f"no child of {current} passes the sqrt({q}) bound",
                    node=current,
                    child_nodes=kids,
                    child_polys=polys,
                ) from None
            stages.append(
                WalkStage(
                    node=current,
                    node_poly=current_poly,
                    child_nodes=tuple(kids),
                    child_polys=tuple(polys),
                    child_passed=tuple(passed),
                    chosen=idx,
                )
            )
            current = kids[idx]
            current_poly = polys[idx]
    return WalkResult(
        params=params,
        bound_q=q,
        leaf=current,
        leaf_poly=current_poly,
        stages=tuple(stages),
        workers=workers if pooled else 1,
    )


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
