"""The expectation pipeline, cross-checked against brute enumeration."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramex import expectation_engine
from ramex.exact_algebra import NonzeroRemainder, UniPoly, poly_div_exact
from ramex.exact_linalg import BlockSpec, Matrix, charpoly, trivariate_detpoly
from ramex.expectation_engine import (
    _weight_table,
    add_random_matching,
    fixed_plus_random_block_expected,
    node_polynomial,
)
from ramex.matching_family import NodeState, Params, children, half_adjacency
from ramex.oracle import (
    TooLarge,
    _det_xid_minus,
    brute_expected_charpoly,
    brute_fixed_plus_permutation,
)

from matrices import gram, identity, zeros


def test_weight_table_matches_the_closed_form():
    """W[j][p][q] = L C(l_hat-p, j) C(l_hat-q, j) / C(l_hat, j), an exact
    integer for every j, p, q in 0..l_hat, cached as nested tuples."""
    for lhat in range(9):
        scale, table = _weight_table(lhat)
        assert _weight_table(lhat)[1] is table
        assert scale == math.lcm(*(math.comb(lhat, j) for j in range(lhat + 1)))
        assert type(table) is tuple and len(table) == lhat + 1
        assert all(type(plane) is tuple and all(type(r) is tuple for r in plane) for plane in table)
        span = range(lhat + 1)
        for j, p, q in itertools.product(span, repeat=3):
            weight = Fraction(math.comb(lhat - p, j) * math.comb(lhat - q, j), math.comb(lhat, j))
            assert type(table[j][p][q]) is int and table[j][p][q] == scale * weight
    scale, table = _weight_table(3)
    assert all(w == scale for row in table[0] for w in row)  # j = 0: the minor itself
    assert table[1][1][1] == scale * Fraction(4, 3)  # C(2, 1)^2 / C(3, 1)
    assert table[2][3][0] == 0  # a row at full overlap has no completion
    assert _weight_table(1) == (1, (((1, 1), (1, 1)), ((1, 0), (0, 0))))


def test_expected_block_examples():
    full2 = BlockSpec((0, 1), (0, 1))
    assert fixed_plus_random_block_expected(zeros(2), full2) == UniPoly((1, -2, 1))
    assert fixed_plus_random_block_expected(identity(2), full2) == UniPoly((8, -6, 1))
    forced = fixed_plus_random_block_expected(
        Matrix.from_rows([[1, 1], [0, 1]]), BlockSpec((1,), (0,))
    )
    assert forced == UniPoly((0, -4, 1))


def test_expected_block_empty_block_is_plain_gram():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    got = fixed_plus_random_block_expected(a, BlockSpec((), ()))
    assert got == UniPoly(tuple(_det_xid_minus([[1, 2], [2, 5]])))  # A^T A


@pytest.mark.parametrize("block", [BlockSpec((0, 5), (0, 1)), BlockSpec((1,), (3,))])
def test_block_outside_the_matrix_is_a_value_error(block):
    """An index past the 3 x 3 matrix, in a row or a column, is rejected
    before any array indexing could raise IndexError."""
    a = identity(3)
    for expected in (trivariate_detpoly, fixed_plus_random_block_expected):
        with pytest.raises(ValueError, match="^block index outside the 3 x 3 matrix$"):
            expected(a, block)


def test_expected_block_matches_permutation_average():
    """The quadrature route must equal literal averaging over block
    permutations, exactly, on random small integer matrices."""
    rng = random.Random(314)
    for _ in range(25):
        m = rng.randint(2, 4)
        a = Matrix.from_rows(
            [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
        )
        for l in range(2, m + 1):
            rows = tuple(sorted(rng.sample(range(m), l)))
            cols = tuple(sorted(rng.sample(range(m), l)))
            block = BlockSpec(rows, cols)
            assert fixed_plus_random_block_expected(a, block) == (
                brute_fixed_plus_permutation(a, block)
            )


@st.composite
def _matrix_and_block(draw):
    m = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    a = Matrix.from_rows(draw(st.lists(entries, min_size=m, max_size=m)))
    l = draw(st.integers(0, m))
    indices = st.lists(st.integers(0, m - 1), min_size=l, max_size=l, unique=True)
    rows, cols = draw(indices), draw(indices)
    return a, BlockSpec(tuple(sorted(rows)), tuple(sorted(cols)))


@settings(max_examples=400)
@given(_matrix_and_block())
@example((Matrix.from_rows([[-2, 1], [3, -1]]), BlockSpec((), ())))
@example((Matrix.from_rows([[-2, 1], [3, -1]]), BlockSpec((0,), (1,))))
@example((Matrix.from_rows([[-3, 0, 2], [1, -1, 0], [0, 2, -2]]), BlockSpec((0, 2), (1, 2))))
def test_expected_block_matches_permutation_average_signed(case):
    """Signed entries and every block size 0..m, degenerate ones included."""
    a, block = case
    assert fixed_plus_random_block_expected(a, block) == brute_fixed_plus_permutation(
        a, block
    )


@st.composite
def _valid_node(draw):
    m = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.sampled_from((2, 3, 4)))
    complete = draw(st.lists(st.permutations(range(m)), max_size=d))
    partial = None
    if len(complete) < d and draw(st.booleans()):
        t = draw(st.integers(1, m - 1))
        partial = draw(st.permutations(range(m)))[:t]
    return Params(2 * m, d), NodeState(tuple(complete), partial)


@settings(max_examples=250)
@given(_valid_node())
@example((Params(4, 3), NodeState()))
@example((Params(6, 2), NodeState(((0, 1, 2),), (1,))))
@example((Params(8, 4), NodeState(((3, 2, 1, 0), (0, 1, 2, 3)), (2, 0, 3))))
def test_node_polynomial_matches_oracle_on_random_nodes(case):
    """Engine vs exhaustive enumeration on random valid nodes, n <= 8;
    nodes with more completions than the cap are skipped."""
    params, node = case
    node.validate(params)
    try:
        brute = brute_expected_charpoly(node, params, cap=300)
    except TooLarge:
        return
    trivial = UniPoly((-(params.d**2), 0, 1))
    assert node_polynomial(node, params) * trivial == brute


def _as_poly(coeffs, den):
    """The UniPoly of integer coefficients over one denominator."""
    return UniPoly(tuple(Fraction(c, den) for c in coeffs))


def test_add_random_matching_examples():
    # Reduced Gram polynomials: the all-ones factor (y - c^2) is divided out.
    assert add_random_matching([0, 1], 1) == ([-1, 1], 1)
    assert add_random_matching([-1, 1], 1) == ([-2, 1], 1)
    assert add_random_matching([1], 1) == ([1], 1)
    # over a denominator: y, held as 2y / 2, folds to (y - 1) as (2y - 2) / 2
    assert add_random_matching([0, 2], 2) == ([-2, 2], 2)
    # (y - 1)^2 folds to y^2 - 4y + 3, over the weights' scale L = 2
    assert add_random_matching([1, -2, 1], 1) == ([6, -8, 2], 2)


def test_add_random_matching_rejects_bad_polys():
    with pytest.raises(ValueError):
        add_random_matching([1, 2], 1)  # not monic
    with pytest.raises(ValueError):
        add_random_matching([1, 1], 2)  # leading coefficient 1/2
    with pytest.raises(ValueError):
        add_random_matching([], 1)  # zero


def test_node_polynomial_requires_the_all_ones_factor(monkeypatch):
    """A Gram polynomial without the (y - placed^2) factor is a pipeline bug."""
    params = Params(4, 3)
    node = NodeState(((0, 1),), (1,))  # placed = 2
    # y^2 + 1 over the denominator 1: monic, but y - 4 does not divide it
    monkeypatch.setattr(expectation_engine, "_contract", lambda tensor: ([1, 0, 1], 1))
    with pytest.raises(NonzeroRemainder):
        node_polynomial(node, params)


@pytest.mark.parametrize(
    "node",
    [
        NodeState(((0, 0),)),  # not a permutation: once a NonzeroRemainder
        NodeState(((0, 1),) * 4),  # four matchings at d = 3: once x^2 - 16
        NodeState((), (5,)),  # partner out of range: once an IndexError
    ],
)
def test_node_polynomial_rejects_nodes_outside_the_tree(node):
    """The engine checks every node where it enters, so a node that is not
    one of the tree's is bad input, not a wrong answer or an engine fault."""
    with pytest.raises(ValueError):
        node_polynomial(node, Params(4, 3))


def _adjacency_charpoly(mult, m):
    n = 2 * m
    adj = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            adj[i][m + j] = mult[i][j]
            adj[m + j][i] = mult[i][j]
    return UniPoly(tuple(_det_xid_minus(adj)))


def _gram_of(p_adj):
    """det(yI - B^T B) from det(xI - A) = det(x^2 I - B^T B): the even coefficients."""
    assert not any(p_adj.coeffs[1::2])
    return UniPoly(p_adj.coeffs[0::2])


def test_add_random_matching_point_mass_average():
    """Adding a random matching to a fixed c-regular graph equals the direct
    average over all m! matchings (computed independently of the engine),
    both in y with the all-ones factor divided out."""

    rng = random.Random(2718)
    for m in (2, 3, 4):
        for _ in range(4):
            c = rng.randint(0, 2)
            mult = [[0] * m for _ in range(m)]
            for _ in range(c):
                perm = list(range(m))
                rng.shuffle(perm)
                for i, j in enumerate(perm):
                    mult[i][j] += 1
            reduced = poly_div_exact(_gram_of(_adjacency_charpoly(mult, m)).coeffs, c * c)
            direct_total = UniPoly()
            count = 0
            for perm in itertools.permutations(range(m)):
                bumped = [row[:] for row in mult]
                for i, j in enumerate(perm):
                    bumped[i][j] += 1
                direct_total = direct_total + _adjacency_charpoly(bumped, m)
                count += 1
            direct = poly_div_exact(_gram_of(direct_total).coeffs, (c + 1) ** 2)
            assert _as_poly(*add_random_matching(reduced, 1)) == Fraction(1, count) * UniPoly(
                tuple(direct)
            )


def _permutation_sum(perms, m):
    mult = [[0] * m for _ in range(m)]
    for perm in perms:
        for i, j in enumerate(perm):
            mult[i][j] += 1
    return Matrix.from_rows(mult)


@st.composite
def _permutation_sums(draw):
    m = draw(st.integers(2, 7))
    c = draw(st.integers(0, 3))
    return c, _permutation_sum([draw(st.permutations(range(m))) for _ in range(c)], m)


@settings(max_examples=40)
@given(_permutation_sums())
@example((3, _permutation_sum([range(7), range(7), range(7)], 7)))
@example((2, _permutation_sum([(1, 0, 3, 2, 5, 6, 4), (6, 5, 4, 3, 2, 1, 0)], 7)))
@example((0, zeros(7)))
def test_full_block_average_is_the_fold(case):
    """Averaging a c-regular A over a full random block, the grid route,
    equals folding one random matching into A's Gram polynomial, each with
    its all-ones factor divided out."""
    c, a = case
    m = a.nrows
    full = BlockSpec(tuple(range(m)), tuple(range(m)))
    averaged = fixed_plus_random_block_expected(a, full)
    gram_poly = charpoly(gram(a))
    assert UniPoly(tuple(poly_div_exact(averaged.coeffs, (c + 1) ** 2))) == _as_poly(
        *add_random_matching(poly_div_exact(gram_poly.coeffs, c * c), 1)
    )


def test_node_polynomial_examples():
    params = Params(4, 3)
    assert node_polynomial(NodeState(), params) == UniPoly((-3, 0, 1))
    assert node_polynomial(NodeState(((0, 1), (0, 1))), params) == UniPoly((-5, 0, 1))
    assert node_polynomial(NodeState(((0, 1), (0, 1), (1, 0))), params) == UniPoly(
        (-1, 0, 1)
    )


def test_node_polynomial_shape():
    for n, d in [(4, 3), (6, 3), (6, 2), (8, 3)]:
        params = Params(n, d)
        poly = node_polynomial(NodeState(), params)
        assert poly.degree == n - 2
        assert poly.coeffs[-1] == 1
        assert all(poly.coeff(i) == 0 for i in range(1, poly.degree + 1, 2))


def test_parent_is_average_of_children():
    for n, d in [(4, 3), (6, 3)]:
        params = Params(n, d)
        frontier = [NodeState()]
        seen = 0
        while frontier and seen < 25:
            node = frontier.pop(0)
            if node.is_leaf(params):
                continue
            kids = children(node, params)
            total = UniPoly()
            for child in kids:
                total = total + node_polynomial(child, params)
            avg = Fraction(1, len(kids)) * total
            assert avg == node_polynomial(node, params)
            frontier.extend(kids)
            seen += 1


def test_ctensor_debug_surface():
    params = Params(8, 3)
    tensor = trivariate_detpoly(*half_adjacency(NodeState((), (0,)), params))
    assert tensor.m == 4 and tensor.lhat == 2
    assert tensor.get(0, 0, 0) == 1
    assert all(num >= 0 for plane in tensor.nums for row in plane for num in row)
    data = tensor.to_json()
    assert data["m"] == 4 and data["lhat"] == 2
    assert data["values"][0][0][0] == "1"

    # A leaf (l = 0) and a single open cell (l = 1) take the grid too.  At
    # l_hat = 0, C[k'][0][0] is e_k' of the Gram of the fixed matrix, with
    # the open cell bumped to 1: both nodes below end at [[2, 1], [1, 2]].
    params = Params(4, 3)
    bumped = Matrix.from_rows([[2, 1], [1, 2]])
    gram_poly = charpoly(gram(bumped))
    e_k = [(-1) ** k * gram_poly.coeff(2 - k) for k in range(3)]
    for node, l in [
        (NodeState(((0, 1), (0, 1), (1, 0))), 0),
        (NodeState(((0, 1), (0, 1)), (1,)), 1),
    ]:
        a, block = half_adjacency(node, params)
        assert block.size == l
        tensor = trivariate_detpoly(a, block)
        assert tensor.m == 2 and tensor.lhat == 0
        assert [tensor.get(k, 0, 0) for k in range(3)] == e_k
