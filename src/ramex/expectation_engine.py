"""Exact expected characteristic polynomials for matching-tree nodes.

The pipeline per node: build the fixed half-adjacency matrix, average the
in-progress matching over its block by quadrature (the squared-minor sums
of the trivariate determinant, taken from an integer similarity of the
fixed matrix plus the block mean, weighted by counting binomials), convert
the Gram polynomial to the adjacency polynomial via y -> x^2, fold in each
still unplaced uniformly random matching with the linear convolution step,
and finally divide out the trivial eigenvalue factor x^2 - d^2.  Nothing
leaves the rationals.

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


def add_random_matching(p_adj: UniPoly, params: Params, c: int) -> UniPoly:
    """Expected adjacency characteristic polynomial after adding one
    uniformly random perfect matching to a (random) c-regular bipartite
    multigraph whose expected adjacency polynomial is p_adj.

    Route: recover the Gram polynomial from the even coefficients, peel
    off the aligned singular value factor (y - c^2), apply the full-block
    overlap specialization of the quadrature weights on the reduced
    (m-1)-dimensional polynomial, re-attach (y - (c+1)^2), and substitute
    y -> x^2.  The aligned singular value moving from c^2 to (c+1)^2 is
    forced by regularity: the all-ones vector is always a singular vector.
    """
    m, n = params.m, params.n
    if c < 0:
        raise ValueError("c must be nonnegative")
    if p_adj.degree != n or not p_adj.is_monic:
        raise ValueError(f"expected a monic degree-{n} adjacency polynomial")
    if any(p_adj.coeff(i) for i in range(1, n + 1, 2)):
        raise ValueError("adjacency polynomial of a bipartite graph must be even")

    gram = UniPoly(p_adj.coeffs[0::2])
    reduced = poly_div_exact(gram, UniPoly((Fraction(-(c * c)), Fraction(1))))

    s_old = [
        (1 if k % 2 == 0 else -1) * Fraction(reduced.coeff(m - 1 - k))
        for k in range(m)
    ]
    s_new = [
        sum(
            (g_weight(m - 1, k, kp, kp, kp) * s_old[kp] for kp in range(k + 1)),
            Fraction(0),
        )
        for k in range(m)
    ]
    out = [Fraction(0)] * m
    for k in range(m):
        out[m - 1 - k] = s_new[k] if k % 2 == 0 else -s_new[k]
    lifted = UniPoly(tuple(out)) * UniPoly((Fraction(-((c + 1) ** 2)), Fraction(1)))
    return poly_substitute_square(lifted)


def node_polynomial(node: NodeState, params: Params) -> UniPoly:
    """The node's expected characteristic polynomial after removing the
    trivial eigenvalue factor: monic, even, degree n - 2, exact."""
    gram = fixed_plus_random_block_expected(*half_adjacency(node, params))
    p_adj = poly_substitute_square(gram)
    placed = len(node.complete) if node.is_leaf(params) else len(node.complete) + 1
    for c in range(placed, params.d):
        p_adj = add_random_matching(p_adj, params, c)
    d = params.d
    body = poly_div_exact(p_adj, UniPoly((Fraction(-(d * d)), Fraction(0), Fraction(1))))
    if body.degree != params.n - 2 or not body.is_monic:
        raise InvariantViolation("degree bookkeeping broken")
    if any(body.coeff(i) for i in range(1, body.degree + 1, 2)):
        raise InvariantViolation("node polynomial must be even")
    return body
