"""Exact expected characteristic polynomials for matching-tree nodes.

The pipeline per node runs in y = x^2 until its last step: build the
fixed half-adjacency matrix, average the open partial matching over its
block by quadrature (the squared-minor sums of the trivariate determinant,
taken from an integer similarity of the fixed matrix plus the block mean,
weighted by counting binomials) into the Gram polynomial with the
all-ones factor (y - placed^2) already out, as the grid stores only its
complement; fold in the f unplaced uniformly random matchings with F^f,
F the integer fold matrix (``_folds``), and substitute y -> x^2.  All of
it runs on integers, the counting weights too, with coefficients over one
common denominator; the node's polynomial becomes Fractions once, at the
end, because the public functions return rationals.

Every node has one shape: a fixed matrix, an optional partial-matching
block, and folds; a pending fresh matching is folded like every later one.
A node is one grid run, ``contract_node``, and two readers of it:
``contraction_value`` and ``contraction_poly``, behind ``node_value`` and
``node_polynomial``.  ``contraction_value`` stops at the tensor: the node
polynomial at x = sqrt(q) is one dot product of the planes with a cached
table (``_value_table``) that fuses the counting weights with the powers
of q pulled back through the same F^f, so a value builds no Gram
polynomial.  The planes, the weight table and the value table are all
flat in one order, (k', p, q) with q fastest, the order the grid produces
them in, so neither reshapes the tensor.  Only ``contraction_poly``
contracts to the Gram polynomial, checks it monic and returns the
integer form beside the ``UniPoly``; a caller can take both readers, and
the tensor itself, from one grid.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from .exact_algebra import InvariantViolation, UniPoly, poly_substitute_square
from .exact_linalg import BlockSpec, CTensor, Matrix, check_grid_size, trivariate_detpoly
from .matching_family import NodeState, Params, half_adjacency


@functools.lru_cache(maxsize=None)
def _weight_table(lhat: int) -> tuple:
    """(L, W) for one l_hat: L = lcm_j C(l_hat, j) and the integer counting
    weights W[j][p][q] = L C(l_hat-p, j) C(l_hat-q, j) / C(l_hat, j) for
    j, p, q in 0..l_hat, each W[j] one flat tuple in (p, q) order, as
    one plane of a tensor is: W[j][p][q] sits at p (l_hat+1) + q, so
    ``_contract`` and ``_value_table`` multiply W[j] by a plane's slice
    as it is.  Cached.

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
        table.append(tuple(unit * a * b for a in ways for b in ways))
    return scale, tuple(table)


def _contract(planes: tuple, lhat: int) -> tuple[list, int]:
    """The expected Gram polynomial of squared-minor planes of side
    l = l_hat + 1, flat in (k', p, q) order as ``CTensor`` stores them, on
    integers: numerators over l^(2k') meet the cached integer weights W,
    giving r + 1 ascending integer coefficients, one per plane, over the
    one denominator l^(2r) L.  Plane k' is the slice of l^2 numerators from
    k' l^2.  At l_hat = 0, where W = ((1,),), this reads off the planes.  A
    convolution in k', it maps a complement's planes to the reduced Gram
    polynomial.
    """
    scale, weights = _weight_table(lhat)
    l2 = (lhat + 1) ** 2
    r = len(planes) // l2 - 1
    rows = [planes[k * l2 : (k + 1) * l2] for k in range(r + 1)]
    coeffs = []
    for k in range(r + 1):
        # over l^(2k) L: the sum of l^(2j) W[j] . plane k - j, j <= l_hat
        total = sum(
            l2**j * sum(map(mul, weights[j], rows[k - j])) for j in range(min(k, lhat) + 1)
        )
        coeffs.append((total if k % 2 == 0 else -total) * l2 ** (r - k))
    return coeffs[::-1], l2**r * scale


def fixed_plus_random_block_expected(a: Matrix, block: BlockSpec) -> UniPoly:
    """E[det(yI - (A + P_B)^T (A + P_B))] over a uniformly random
    permutation P_B on the block.

    Every block size takes the grid; an empty block gives the plain Gram's
    polynomial.  a goes to the grid as an object array, which holds any
    entry, and the block as its index lists.  Nodes do not come here:
    ``contract_node`` passes a node's int64 counts and open cells straight
    to the grid, and a whole random matching, the full block, is one fold
    (``_folds``).
    """
    import numpy as np

    tensor = trivariate_detpoly(np.array(a.entries, dtype=object), list(block.rows), list(block.cols))
    coeffs, den = _contract(tensor.nums, tensor.lhat)
    return UniPoly(tuple(Fraction(c, den) for c in coeffs))


@functools.lru_cache(maxsize=None)
def _folds(r: int, f: int) -> tuple[tuple, int]:
    """(F^f, L^f), F the integer fold matrix on ascending coefficients of
    degree r: F[i][j] = (-1)^(i+j) W[j-i][r-j][r-j] for j >= i and 0
    below the diagonal, W and L from ``_weight_table(r)``, so F c / L folds
    one uniformly random perfect matching into c.  The diagonal
    W[j][k'][k'] sits at k' (r + 2) of a flat W[j], read here and nowhere
    else.  Rows of tuples, cached per (r, f).

    c is a reduced Gram polynomial in y = x^2: the expected Gram
    polynomial of a regular bipartite multigraph with its all-ones
    singular value factor (y - placed^2) divided out.  That singular vector
    stays aligned under any added matching (placed^2 just becomes
    (placed+1)^2), so the fold is the full-block overlap specialization of
    the quadrature weights on the remaining m - 1 dimensions, and it does
    not depend on placed.
    """
    span = range(r + 1)
    if f == 0:
        return tuple(tuple(int(i == j) for j in span) for i in span), 1
    scale, weights = _weight_table(r)
    fold = [
        [0] * i + [(-1) ** (i + j) * weights[j - i][(r - j) * (r + 2)] for j in range(i, r + 1)]
        for i in span
    ]
    power, total = _folds(r, f - 1)
    cols = list(zip(*power))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in fold), total * scale


@functools.lru_cache(maxsize=None)
def _value_table(params: Params, placed: int, lhat: int) -> tuple[tuple, int]:
    """(T, D): a node's value is sum_(k', p, q) C[k'][p][q] T[k'][p][q] / D
    for its tensor of m stored planes over l_hat, the counting weights of
    ``_contract`` fused with v, the powers of q = params.q times F^f
    (``_folds``), f = d - placed: the evaluation at y = q pulled back
    through the folds, so p(sqrt(q)) = sum_j gram[j] v[j] / (den L^f) for
    the node polynomial p of a reduced Gram polynomial gram / den.  With
    l2 = (l_hat + 1)^2, r = m - 1 and (L, W) = ``_weight_table(l_hat)``,

        T[k'] = l2^(r-k') sum_(j <= min(l_hat, r-k')) (-1)^(k'+j) v[r-k'-j] W[j]

    and D = l2^r L L^f; at l_hat = 0, T[k'] = (-1)^k' v[r-k'] and D = L^f.
    One flat tuple in the (k', p, q) order that ``CTensor.planes`` has, so
    the value is one dot product with the planes as stored; cached per
    (params, placed, l_hat).  The factors times W are one matmul of Python
    ints in object arrays, which builds a table in about half the time of a
    loop in Python.
    """
    import numpy as np

    scale, weights = _weight_table(lhat)
    power, folds = _folds(params.m - 1, params.d - placed)
    powers = [params.q**i for i in range(params.m)]
    v = [sum(map(mul, powers, col)) for col in zip(*power)]
    r, l2 = params.m - 1, (lhat + 1) ** 2
    factors = np.zeros((r + 1, lhat + 1), dtype=object)
    for k in range(r + 1):
        for j in range(min(lhat, r - k) + 1):
            factors[k, j] = (-1) ** (k + j) * l2 ** (r - k) * v[r - k - j]
    table = factors @ np.array(weights, dtype=object)
    return tuple(table.ravel().tolist()), l2**r * scale * folds


def contract_node(node: NodeState, params: Params) -> tuple[int, CTensor]:
    """A node's one grid run: the matchings placed and the block's tensor,
    which must have split the all-ones factor off.  ``contraction_value``
    and ``contraction_poly`` read it; neither runs the grid again."""
    check_grid_size(params.m)
    node.validate(params)
    tensor = trivariate_detpoly(*half_adjacency(node, params))
    if tensor.sigma_sq is None:
        raise InvariantViolation("the node's tensor has no all-ones factor split off")
    return len(node.complete) + (node.partial is not None), tensor


def contraction_value(contraction: tuple, params: Params) -> Fraction:
    """``node_value`` of a node's ``contract_node``: one dot product of the
    flat planes with the fused ``_value_table``, with no Gram polynomial."""
    placed, tensor = contraction
    table, den = _value_table(params, placed, tensor.lhat)
    return Fraction(sum(map(mul, tensor.planes, table)), den)


def contraction_poly(contraction: tuple, params: Params) -> tuple[UniPoly, tuple]:
    """``node_polynomial`` of a node's ``contract_node`` and its ascending
    integer coefficients, whose leading one is their positive common
    denominator: the reduced Gram polynomial (``_contract``), which must be
    monic, with F^f (``_folds``) applied to it in one product."""
    placed, tensor = contraction
    gram, den = _contract(tensor.planes, tensor.lhat)
    if gram[-1] != den:
        raise InvariantViolation("the expected Gram polynomial is not monic of degree n/2 - 1")
    power, scale = _folds(params.m - 1, params.d - placed)
    den *= scale
    body = poly_substitute_square(UniPoly(tuple(sum(map(mul, row, gram)) for row in power)))
    if body.degree != params.n - 2 or body.coeffs[-1] != den:
        raise InvariantViolation("degree bookkeeping broken")
    # zeros, the odd coefficients among them, stay int 0
    return UniPoly(tuple(Fraction(c, den) if c else 0 for c in body.coeffs)), body.coeffs


def node_value(node: NodeState, params: Params) -> Fraction:
    """The node polynomial at x = sqrt(q), q = 4(d-1), exactly: one
    rational, the tensor's planes dotted with a cached table
    (``_value_table``), with no Gram polynomial, no fold and no root test.
    The polynomial is even, so its value at sqrt(q) is rational."""
    return contraction_value(contract_node(node, params), params)


def node_polynomial(node: NodeState, params: Params) -> UniPoly:
    """The node's expected characteristic polynomial after removing the
    trivial eigenvalue factor x^2 - d^2: monic, even, degree n - 2, exact.

    The contraction gives the Gram polynomial without (y - placed^2),
    placed counting the complete matchings and the partial one; every other
    matching (a pending fresh one too) is folded in y, and y -> x^2 is last.
    Beyond the grid's sizes it raises ``GridTooLarge`` before building a
    node matrix; on a node outside the tree, ``ValueError``.
    """
    return contraction_poly(contract_node(node, params), params)[0]
