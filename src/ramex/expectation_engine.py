"""Exact expected characteristic polynomials for matching-tree nodes.

The pipeline per node runs in y = x^2 until its last step: build the
fixed half-adjacency matrix, average the in-progress matching over its
block by quadrature (the squared-minor sums of the trivariate determinant,
taken from an integer similarity of the fixed matrix plus the block mean,
weighted by counting binomials), divide the resulting Gram polynomial once
by the all-ones singular value factor (y - placed^2), fold in each still
unplaced uniformly random matching with the linear convolution step, and
substitute y -> x^2.  Nothing leaves the rationals.

Every node takes this one path: a leaf's empty block and a single open
cell run through the same grid at l_hat = 0.  The two entry points,
``fixed_plus_random_block_expected`` and ``node_polynomial``, return plain
``UniPoly`` values.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_algebra import (
    InvariantViolation,
    UniPoly,
    poly_div_exact,
    poly_substitute_square,
)
from .exact_linalg import BlockSpec, Matrix, trivariate_detpoly
from .matching_family import NodeState, Params, half_adjacency


def _comb0(a: int, b: int) -> int:
    """Binomial with the vanishing convention: 0 when b < 0 or b > a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def g_weight(lhat: int, k: int, kprime: int, p: int, q: int) -> Fraction:
    """Expected-minor counting weight C(lhat-p, k-k') C(lhat-q, k-k') / C(lhat, k-k').

    Counts the completions U of U' and V of V' whose off-part lies fully
    inside the reduced block, weighted by the expected squared minor of
    the random orthogonal part; zero whenever the denominator vanishes
    (the numerator vanishes first except in the 0/0 case).
    """
    denom = _comb0(lhat, k - kprime)
    if denom == 0:
        return Fraction(0)
    return Fraction(_comb0(lhat - p, k - kprime) * _comb0(lhat - q, k - kprime), denom)


def fixed_plus_random_block_expected(a: Matrix, block: BlockSpec) -> UniPoly:
    """E[det(yI - (A + P_B)^T (A + P_B))] over a uniformly random
    permutation P_B on the block.

    Every block size takes the grid: an empty block gives the plain Gram's
    sums at l_hat = 0, a single cell gives the bumped Gram's, and there
    g_weight(0, k, k', 0, 0) = [k == k'] reads off its coefficients.
    """
    m = a.nrows
    tensor = trivariate_detpoly(a, block)
    lhat = tensor.lhat
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        total = Fraction(0)
        for kp in range(k + 1):
            for p in range(lhat + 1):
                for q in range(lhat + 1):
                    c = tensor.get(kp, p, q)
                    if c:
                        w = g_weight(lhat, k, kp, p, q)
                        if w:
                            total += w * c
        coeffs[m - k] = total if k % 2 == 0 else -total
    return UniPoly(tuple(coeffs))


def add_random_matching(reduced: UniPoly) -> UniPoly:
    """Fold one uniformly random perfect matching into a reduced Gram
    polynomial, in y = x^2.

    ``reduced`` is the expected Gram polynomial of a regular bipartite
    multigraph with its all-ones singular value factor (y - c^2) divided
    out.  That singular vector stays aligned under any added matching (c^2
    just becomes (c+1)^2), so the fold is the full-block overlap
    specialization of the quadrature weights on the remaining (m-1)
    dimensions, and it does not depend on c.
    """
    if not reduced.is_monic:
        raise ValueError("expected a monic reduced Gram polynomial")
    r = reduced.degree
    # signed coefficients s_k = (-1)^k [y^(r-k)], mixed by the weights
    s = [(-1) ** k * reduced.coeff(r - k) for k in range(r + 1)]
    mixed = [sum(g_weight(r, k, kp, kp, kp) * s[kp] for kp in range(k + 1)) for k in range(r + 1)]
    return UniPoly(tuple((-1) ** k * mixed[k] for k in range(r, -1, -1)))


def node_polynomial(node: NodeState, params: Params) -> UniPoly:
    """The node's expected characteristic polynomial after removing the
    trivial eigenvalue factor x^2 - d^2: monic, even, degree n - 2, exact.

    The trivial factor is split off the Gram polynomial once, as
    (y - placed^2) for the placed matchings, each unplaced matching is
    folded in y, and y -> x^2 comes last.
    """
    gram = fixed_plus_random_block_expected(*half_adjacency(node, params))
    placed = len(node.complete) if node.is_leaf(params) else len(node.complete) + 1
    reduced = poly_div_exact(gram, UniPoly((-(placed * placed), 1)))
    for _ in range(placed, params.d):
        reduced = add_random_matching(reduced)
    body = poly_substitute_square(reduced)
    if body.degree != params.n - 2 or not body.is_monic:
        raise InvariantViolation("degree bookkeeping broken")
    return body
