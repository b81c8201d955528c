"""Exact expected characteristic polynomials for matching-tree nodes.

The pipeline per node runs in y = x^2 until its last step: build the
fixed half-adjacency matrix, average the open partial matching over its
block by quadrature (the squared-minor sums of the trivariate determinant,
taken from an integer similarity of the fixed matrix plus the block mean,
weighted by counting binomials), divide the resulting Gram polynomial once
by the all-ones singular value factor (y - placed^2), fold in each
unplaced uniformly random matching with the linear convolution step, and
substitute y -> x^2.  All of it runs on integers, the counting weights
too, with coefficients over one common denominator; the node's polynomial
becomes Fractions once, at the end, because the public functions return
rationals.

Every node has one shape: a fixed matrix, an optional partial-matching
block, and folds; a pending fresh matching is folded like every later one.
``fixed_plus_random_block_expected`` and ``node_polynomial`` return plain
``UniPoly`` values, and ``evaluate_node`` the integer form and ``CTensor`` too.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from operator import mul

from .exact_algebra import (
    InvariantViolation,
    UniPoly,
    poly_div_exact,
    poly_substitute_square,
)
from .exact_linalg import BlockSpec, CTensor, Matrix, check_grid_size, trivariate_detpoly
from .matching_family import NodeState, Params, half_adjacency


@functools.lru_cache(maxsize=None)
def _weight_table(lhat: int) -> tuple:
    """(L, W) for one l_hat: L = lcm_j C(l_hat, j) and the integer counting
    weights W[j][p][q] = L C(l_hat-p, j) C(l_hat-q, j) / C(l_hat, j) for
    j, p, q in 0..l_hat, as nested tuples.

    The weight counts the completions of a minor by j = k - k' rows and
    columns inside the reduced block, which a row at overlap p has
    C(l_hat-p, j) of, times the expected squared minor of the random
    orthogonal part.  It vanishes past j = l_hat, and L // C(l_hat, j) is
    an integer, so every W is exact.
    """
    span = range(lhat + 1)
    scale = math.lcm(*(math.comb(lhat, j) for j in span))
    table = []
    for j in span:
        unit, ways = scale // math.comb(lhat, j), [math.comb(lhat - p, j) for p in span]
        table.append(tuple(tuple(unit * a * b for b in ways) for a in ways))
    return scale, tuple(table)


def _contract(tensor: CTensor) -> tuple[list, int]:
    """The expected Gram polynomial of a squared-minor tensor, on integers:
    the tensor's numerators over l^(4k') meet the cached integer weights
    W, giving ascending integer coefficients over the one denominator
    l^(4m) L.  At l_hat = 0, where W = ((1,),),
    this reads off the tensor.
    """
    lhat, m = tensor.lhat, tensor.m
    scale, weights = _weight_table(lhat)
    l4 = (lhat + 1) ** 4
    nums, flat = tensor.nums, chain.from_iterable  # a (p, q) plane read as one row
    coeffs = []
    for k in range(m + 1):
        # over l^(4k) L: the sum of l^(4j) W[j] . nums[k - j], j <= l_hat
        total = sum(
            l4**j * sum(map(mul, flat(weights[j]), flat(nums[k - j])))
            for j in range(min(k, lhat) + 1)
        )
        coeffs.append((total if k % 2 == 0 else -total) * l4 ** (m - k))
    return coeffs[::-1], tensor.denominator(m) * scale


def fixed_plus_random_block_expected(a: Matrix, block: BlockSpec) -> UniPoly:
    """E[det(yI - (A + P_B)^T (A + P_B))] over a uniformly random
    permutation P_B on the block.

    Every block size takes the grid; an empty block gives the plain Gram's
    polynomial.  Nodes pass only a partial matching's open cells: the full
    block, a whole random matching, is what ``add_random_matching`` folds.
    """
    coeffs, den = _contract(trivariate_detpoly(a, block))
    return UniPoly(tuple(Fraction(c, den) for c in coeffs))


def add_random_matching(coeffs: list, den: int) -> tuple[list, int]:
    """Fold one uniformly random perfect matching into a reduced Gram
    polynomial, in y = x^2, on integers: the ascending coefficients over
    den in, the folded ones over den L out.

    ``coeffs`` / den is the expected Gram polynomial of a regular bipartite
    multigraph with its all-ones singular value factor (y - c^2) divided
    out.  That singular vector stays aligned under any added matching (c^2
    just becomes (c+1)^2), so the fold is the full-block overlap
    specialization of the quadrature weights on the remaining (m-1)
    dimensions, and it does not depend on c.
    """
    if not coeffs or coeffs[-1] != den:
        raise ValueError("expected a monic reduced Gram polynomial")
    r = len(coeffs) - 1
    scale, weights = _weight_table(r)
    # signed coefficients s_k = (-1)^k [y^(r-k)], mixed by the weights at
    # full overlap p = q = k'
    s = [c if k % 2 == 0 else -c for k, c in enumerate(reversed(coeffs))]
    mixed = [sum(weights[k - kp][kp][kp] * s[kp] for kp in range(k + 1)) for k in range(r + 1)]
    return [c if k % 2 == 0 else -c for k, c in enumerate(mixed)][::-1], den * scale


def node_polynomial(node: NodeState, params: Params) -> UniPoly:
    """The node's expected characteristic polynomial after removing the
    trivial eigenvalue factor x^2 - d^2: monic, even, degree n - 2, exact.

    The trivial factor is split off the Gram polynomial once, as
    (y - placed^2) for the complete matchings and the partial one, every
    other matching (a pending fresh one too) is folded in y, and y -> x^2
    comes last.
    """
    return evaluate_node(node, params)[0]


def evaluate_node(node: NodeState, params: Params) -> tuple[UniPoly, tuple, CTensor]:
    """``node_polynomial``, its ascending integer coefficients over one
    positive denominator, and its block's squared-minor tensor, from one
    grid run.  Beyond the grid's sizes it raises ``GridTooLarge`` before
    building a node matrix; on a node outside the tree, ``ValueError``."""
    check_grid_size(params.m)
    node.validate(params)
    tensor = trivariate_detpoly(*half_adjacency(node, params))
    gram, den = _contract(tensor)
    if gram[-1] != den:
        raise InvariantViolation("the expected Gram polynomial is not monic of degree n/2")
    placed = len(node.complete) + (node.partial is not None)
    reduced = poly_div_exact(gram, placed * placed)
    for _ in range(placed, params.d):
        reduced, den = add_random_matching(reduced, den)
    body = poly_substitute_square(UniPoly(tuple(reduced)))
    if body.degree != params.n - 2 or body.coeffs[-1] != den:
        raise InvariantViolation("degree bookkeeping broken")
    # zeros, the odd coefficients among them, stay int 0
    return UniPoly(tuple(Fraction(c, den) if c else 0 for c in body.coeffs)), body.coeffs, tensor
