"""The expectation pipeline, cross-checked against brute enumeration."""

import itertools
import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramex import exact_linalg, expectation_engine
from ramex.exact_algebra import InvariantViolation, UniPoly
from ramex.exact_linalg import BlockSpec, CTensor, Matrix, trivariate_detpoly
from ramex.expectation_engine import (
    _contract,
    _folds,
    _value_table,
    _weight_table,
    contract_node,
    contraction_poly,
    fixed_plus_random_block_expected,
    node_polynomial,
    node_value,
)
from ramex.matching_family import NodeState, Params, children, half_adjacency
from ramex.oracle import (
    TooLarge,
    _det_xid_minus,
    brute_expected_charpoly,
    brute_fixed_plus_permutation,
)

from matrices import cell, charpoly, gram, identity, zeros


def test_weight_table_matches_the_closed_form():
    """W[j][p][q] = L C(l_hat-p, j) C(l_hat-q, j) / C(l_hat, j), an exact
    integer for every j, p, q in 0..l_hat, cached as one flat tuple per j
    in (p, q) order, with the diagonal W[j][k'][k'] at k' (l_hat + 2)."""
    for lhat in range(9):
        scale, table = _weight_table(lhat)
        assert _weight_table(lhat)[1] is table
        assert scale == math.lcm(*(math.comb(lhat, j) for j in range(lhat + 1)))
        assert type(table) is tuple and len(table) == lhat + 1
        assert all(type(row) is tuple and len(row) == (lhat + 1) ** 2 for row in table)
        span = range(lhat + 1)
        for j, p, q in itertools.product(span, repeat=3):
            weight = Fraction(math.comb(lhat - p, j) * math.comb(lhat - q, j), math.comb(lhat, j))
            flat = table[j][p * (lhat + 1) + q]
            assert type(flat) is int and flat == scale * weight
        for j, kp in itertools.product(span, repeat=2):
            diagonal = Fraction(math.comb(lhat - kp, j) ** 2, math.comb(lhat, j))
            assert table[j][kp * (lhat + 2)] == scale * diagonal
    scale, table = _weight_table(3)
    assert all(w == scale for w in table[0])  # j = 0: the minor itself
    assert table[1][1 * 4 + 1] == scale * Fraction(4, 3)  # C(2, 1)^2 / C(3, 1)
    assert table[2][3 * 4 + 0] == 0  # a row at full overlap has no completion
    assert _weight_table(1) == (1, ((1, 1, 1, 1), (1, 0, 0, 0)))


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
def _equal_line_sums(draw):
    """c (P_1 + ... + P_K) for permutation matrices P_i, plus a 0/1
    bijection from the non-block rows to the non-block columns, and the
    block: every row and column sum of l a + J_B is l (c K + 1), as on a
    walk node, but c may be 1, negative or up to 2^35."""
    m = draw(st.integers(1, 5))
    c = draw(st.one_of(st.just(1), st.integers(-3, -1), st.integers(2, 2**35)))
    a = [[0] * m for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        for i, j in enumerate(draw(st.permutations(range(m)))):
            a[i][j] += c
    l = draw(st.integers(0, m))
    rows = sorted(draw(st.permutations(range(m)))[:l])
    cols = sorted(draw(st.permutations(range(m)))[:l])
    free = draw(st.permutations([j for j in range(m) if j not in cols]))
    for i, j in zip([i for i in range(m) if i not in rows], free):
        a[i][j] += 1
    return Matrix.from_rows(a), BlockSpec(tuple(rows), tuple(cols)), True


def _big_diagonal(extra: int) -> tuple:
    """2^35 I_4 plus the 0/1 matching of rows 2, 3 to columns 2, 3 outside
    the block (0, 1) x (0, 1), and extra on the first entry."""
    c = 2**35
    return tuple(
        tuple((c + (i > 1) + extra * (i == 0)) * (i == j) for j in range(4)) for i in range(4)
    )


@settings(max_examples=60)
@given(_equal_line_sums())
# row sums of l a + J_B all 4, column sums 6, 2, 4, 4: no deflation; and
# the transpose
@example(
    (
        Matrix(((2, 0, 0, 0), (0, 0, 2, 0), (1, 0, 0, 0), (0, 0, 0, 1))),
        BlockSpec((2, 3), (1, 3)),
        False,
    )
)
@example(
    (
        Matrix(((2, 0, 1, 0), (0, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 1))),
        BlockSpec((1, 3), (2, 3)),
        False,
    )
)
# entries near 2^35, whose bounds need primes, not one word: equal line
# sums, and one entry more
@example((Matrix(_big_diagonal(0)), BlockSpec((0, 1), (0, 1)), True))
@example((Matrix(_big_diagonal(1)), BlockSpec((0, 1), (0, 1)), False))
def test_equal_line_sums_deflate_and_match_the_oracle(case):
    """The grid splits off the all-ones eigenvector exactly when every row
    and column sum of l a + J_B is equal, and matches literal averaging
    over the block permutations either way, on one word or on primes."""
    a, block, deflates = case
    kernel = exact_linalg._berkowitz_mod
    with mock.patch.object(exact_linalg, "_berkowitz_mod", wraps=kernel) as spy:
        got = fixed_plus_random_block_expected(a, block)
    assert spy.call_args.args[0].shape[-1] == a.nrows - deflates
    assert got == brute_fixed_plus_permutation(a, block)


@settings(max_examples=120)
@given(st.one_of(_equal_line_sums(), _matrix_and_block()))
def test_sigma_squared_is_recorded_exactly_when_line_sums_are_equal(case):
    """The tensor records sigma^2, the square of the common line sum of
    l a + J_B, when every row and column sum is equal, and None otherwise;
    the whole view then has one plane more than the m it stores."""
    a, block = case[:2]
    l = max(block.size, 1)
    ahat = [
        [l * x + (i in block.rows and j in block.cols) for j, x in enumerate(row)]
        for i, row in enumerate(a.entries)
    ]
    sums = {sum(row) for row in ahat} | {sum(col) for col in zip(*ahat)}
    tensor = trivariate_detpoly(a, block)
    if len(sums) == 1:
        assert tensor.sigma_sq == sums.pop() ** 2
        side = (tensor.lhat + 1) ** 2
        assert len(tensor.planes) == a.nrows * side and len(tensor.nums) == (a.nrows + 1) * side
    else:
        assert tensor.sigma_sq is None and tensor.nums == tensor.planes


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


@st.composite
def _node_up_to_12_vertices(draw):
    """A valid node with n <= 12 and d <= 6 of every kind: no matching yet,
    complete matchings with a fresh one pending, a partial one open, or a
    leaf."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    complete = draw(st.lists(st.permutations(range(m)), max_size=d))
    partial = None
    if len(complete) < d and m > 1 and draw(st.booleans()):
        partial = draw(st.permutations(range(m)))[: draw(st.integers(1, m - 1))]
    return Params(2 * m, d), NodeState(tuple(complete), partial)


@settings(max_examples=150)
@given(_node_up_to_12_vertices())
# d = 2, where q = 4 is placed^2, the root of the split-off all-ones factor
@example((Params(8, 2), NodeState(((0, 1, 2, 3),), (2, 0))))
@example((Params(8, 2), NodeState(((0, 1, 2, 3),))))
@example((Params(6, 2), NodeState(((0, 1, 2), (1, 2, 0)))))
@example((Params(12, 6), NodeState()))
def test_node_value_is_the_node_polynomial_at_sqrt_q(case):
    """node_value pulls the evaluation at q back through the folds; it must
    equal the full polynomial's value at sqrt(q), exactly."""
    params, node = case
    q = 4 * (params.d - 1)
    poly = node_polynomial(node, params)
    value = sum(c * q ** (i // 2) for i, c in enumerate(poly.coeffs) if i % 2 == 0)
    assert node_value(node, params) == value


def _as_poly(coeffs, den):
    """The UniPoly of integer coefficients over one denominator."""
    return UniPoly(tuple(Fraction(c, den) for c in coeffs))


def _fold_once(coeffs, den):
    """One uniformly random matching added to the reduced Gram polynomial
    coeffs / den: F coeffs over den L, (F, L) = ``_folds(r, 1)``."""
    fold, scale = _folds(len(coeffs) - 1, 1)
    return [sum(map(mul, row, coeffs)) for row in fold], den * scale


def test_add_random_matching_examples():
    # Reduced Gram polynomials: the all-ones factor (y - c^2) is divided out.
    assert _fold_once([0, 1], 1) == ([-1, 1], 1)
    assert _fold_once([-1, 1], 1) == ([-2, 1], 1)
    assert _fold_once([1], 1) == ([1], 1)
    # over a denominator: y, held as 2y / 2, folds to (y - 1) as (2y - 2) / 2
    assert _fold_once([0, 2], 2) == ([-2, 2], 2)
    # (y - 1)^2 folds to y^2 - 4y + 3, over the weights' scale L = 2
    assert _fold_once([1, -2, 1], 1) == ([6, -8, 2], 2)


def _closed_form_fold(r):
    """(F, L) from ``math.comb`` alone: L = lcm_j C(r, j) and
    F[i][j] = (-1)^(i+j) L C(j, j-i)^2 / C(r, j-i) for j >= i, else 0."""
    scale = math.lcm(*(math.comb(r, j) for j in range(r + 1)))
    fold = [
        [
            (-1) ** (i + j) * scale * math.comb(j, j - i) ** 2 // math.comb(r, j - i) if j >= i else 0
            for j in range(r + 1)
        ]
        for i in range(r + 1)
    ]
    return fold, scale


def _times(a, b):
    """The integer matrix product a b, rows of lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_folds_are_powers_of_the_closed_form_fold():
    """``_folds(r, f)`` is (F^f, L^f) for the closed-form fold F at every
    grid size r = 0..31 and f = 0..3, cached, and one fold of a monic
    polynomial is F c over den L."""
    rng = random.Random(31)
    for r in range(32):
        fold, scale = _closed_form_fold(r)
        power = [[int(i == j) for j in range(r + 1)] for i in range(r + 1)]
        for f in range(4):
            got = _folds(r, f)
            assert got is _folds(r, f)
            assert got == (tuple(map(tuple, power)), scale**f)
            power = _times(fold, power)
        coeffs = [rng.randint(-(10**6), 10**6) for _ in range(r)] + [7]
        folded = [sum(x * c for x, c in zip(row, coeffs)) for row in fold]
        assert _fold_once(coeffs, 7) == (folded, 7 * scale)


def _value_weights(params, placed):
    """(v, L^f) of ``_value_table``: the table at l_hat = 0 is v itself,
    T[k'] = (-1)^k' v[r-k'] over D = L^f, r = m - 1."""
    table, den = _value_table(params, placed, 0)
    r = params.m - 1
    return tuple((-1) ** (r - j) * table[r - j] for j in range(r + 1)), den


@pytest.mark.parametrize("n, d", [(4, 2), (8, 3), (10, 6), (16, 7), (12, 9)])
def test_value_weights_pull_q_powers_back_through_closed_form_folds(n, d):
    """The value weights v of ``_value_table(params, placed, l_hat)`` are
    the row of q's powers times f closed-form folds, f = d - placed, over
    L^f: they read the columns of F^f, and the d >= 7 cases take up to d
    folds."""
    params = Params(n, d)
    fold, scale = _closed_form_fold(params.m - 1)
    for placed in range(d + 1):
        row = [[params.q**i for i in range(params.m)]]
        for _ in range(d - placed):
            row = _times(row, fold)
        assert _value_weights(params, placed) == (tuple(row[0]), scale ** (d - placed))


@pytest.mark.parametrize("n, d", [(8, 2), (14, 3), (10, 6), (16, 8)])
def test_value_table_is_the_contraction_dotted_with_the_value_weights(n, d):
    """On random nonnegative integer planes, for every placed and l_hat,
    the fused table's dot product over D is ``_contract``'s Gram polynomial
    dotted with ``_value_weights``, numerators and denominators alike; at
    (16,8), (d-2)^2 > q."""
    params, rng = Params(n, d), random.Random(100 * n + d)
    for placed, lhat in itertools.product(range(d + 1), range(params.m)):
        planes = tuple(rng.randrange(10**6) for _ in range(params.m * (lhat + 1) ** 2))
        table, den = _value_table(params, placed, lhat)
        assert _value_table(params, placed, lhat)[0] is table
        gram, gram_den = _contract(planes, lhat)
        v, scale = _value_weights(params, placed)
        assert len(table) == len(planes) and den == gram_den * scale
        assert sum(map(mul, planes, table)) == sum(map(mul, gram, v))


_FIRST_24, _FIRST_28 = tuple(range(12)), tuple(range(14))
_SECOND_28 = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 9, 13, 12)
_THIRD_28 = (1, 2, 3, 0, 5, 6, 7, 8, 9, 4, 12, 10, 11, 13)


@pytest.mark.parametrize(
    "params, node",
    [
        (Params(24, 3), NodeState((_FIRST_24,), (0, 1, 2, 3, 5, 4))),
        (Params(28, 5), NodeState((_FIRST_28,), (0, 1, 2, 3, 4, 5, 6, 7, 8))),
        (Params(28, 5), NodeState((_FIRST_28, _SECOND_28), (1, 2, 3, 0, 5, 6, 7, 8, 9, 4))),
        (Params(28, 5), NodeState((_FIRST_28, _SECOND_28, _THIRD_28), (4, 5, 6, 1, 7, 8, 9, 0))),
    ],
    ids=["n24-matching2", "n28-matching2", "n28-matching3", "n28-matching4"],
)
def test_node_value_on_prime_grids_with_folds_left(params, node, monkeypatch):
    """Children that lazy (24,3) decided in its matching 2 and (28,5) in
    its matchings 2-4: each grid takes primes, and 1 to 3 matchings are
    still to be folded.  The value from the fused table is the node
    polynomial at sqrt(q)."""
    bounds = []
    real = exact_linalg._primes_for
    monkeypatch.setattr(exact_linalg, "_primes_for", lambda b: bounds.append(b) or real(b))
    value = node_value(node, params)
    assert bounds and params.d - len(node.complete) - 1 >= 1
    poly = node_polynomial(node, params)
    assert value == sum(c * params.q ** (i // 2) for i, c in enumerate(poly.coeffs) if i % 2 == 0)


def test_node_tensor_without_the_split_off_factor_is_an_engine_fault(monkeypatch):
    """A node's fixed matrix has equal line sums, so its tensor must record
    the all-ones factor it split off; one that records none (the whole
    tensor, patched in) is a pipeline bug, not a polynomial to contract."""
    real = expectation_engine.trivariate_detpoly

    def unsplit(a, block):
        tensor = real(a, block)
        return CTensor(tensor.m, tensor.lhat, tensor.nums)

    monkeypatch.setattr(expectation_engine, "trivariate_detpoly", unsplit)
    node = NodeState(((0, 1),), (1,))
    for evaluate in (node_polynomial, node_value):
        with pytest.raises(InvariantViolation, match="no all-ones factor split off"):
            evaluate(node, Params(4, 3))


def test_a_fold_scale_off_the_folds_is_an_engine_fault(monkeypatch):
    """The folded Gram polynomial must have degree n - 2 and the folds'
    scale times the Gram's denominator as its leading coefficient; a
    scale doubled apart from its fold matrix is caught there."""
    real = expectation_engine._folds

    def doubled(r, f):
        power, scale = real(r, f)
        return power, 2 * scale

    params = Params(6, 3)
    contraction = contract_node(NodeState(((0, 1, 2),), (1,)), params)
    monkeypatch.setattr(expectation_engine, "_folds", doubled)
    with pytest.raises(InvariantViolation, match="degree bookkeeping broken"):
        contraction_poly(contraction, params)


@pytest.mark.parametrize(
    "node",
    [
        NodeState(((0, 0),)),  # not a permutation: once an engine fault
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


def _div_exact(coeffs, root: int) -> list:
    """The quotient of sum_i coeffs[i] y**i by y - root, by synthetic
    division, asserting that the remainder is zero."""
    quot, carry = [0] * (len(coeffs) - 1), 0
    for i in range(len(coeffs) - 1, 0, -1):
        quot[i - 1] = carry = coeffs[i] + root * carry
    assert coeffs[0] + root * carry == 0
    return quot


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
            reduced = _div_exact(_gram_of(_adjacency_charpoly(mult, m)).coeffs, c * c)
            direct_total = UniPoly()
            count = 0
            for perm in itertools.permutations(range(m)):
                bumped = [row[:] for row in mult]
                for i, j in enumerate(perm):
                    bumped[i][j] += 1
                direct_total = direct_total + _adjacency_charpoly(bumped, m)
                count += 1
            direct = _div_exact(_gram_of(direct_total).coeffs, (c + 1) ** 2)
            assert _as_poly(*_fold_once(reduced, 1)) == Fraction(1, count) * UniPoly(
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
    assert UniPoly(tuple(_div_exact(averaged.coeffs, (c + 1) ** 2))) == _as_poly(
        *_fold_once(_div_exact(gram_poly.coeffs, c * c), 1)
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
        assert not any(poly.coeffs[1::2])


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
    assert cell(tensor, 0, 0, 0) == 1
    assert min(tensor.nums) >= 0
    data = tensor.to_json()
    assert data["m"] == 4 and data["lhat"] == 2
    assert data["values"][0][0][0] == "1"

    # A leaf (l = 0) and a single open cell (l = 1) take the grid too.  At
    # l_hat = 0, C[k'][0][0] is e_k' of the Gram of the fixed matrix, with
    # the open cell bumped to 1: both nodes below end at [[2, 1], [1, 2]].
    params = Params(4, 3)
    bumped = Matrix.from_rows([[2, 1], [1, 2]])
    gram_poly = charpoly(gram(bumped))
    e_k = [(-1) ** k * gram_poly.coeffs[2 - k] for k in range(3)]
    for node, l in [
        (NodeState(((0, 1), (0, 1), (1, 0))), 0),
        (NodeState(((0, 1), (0, 1)), (1,)), 1),
    ]:
        a, block = half_adjacency(node, params)
        assert block.size == l
        tensor = trivariate_detpoly(a, block)
        assert tensor.m == 2 and tensor.lhat == 0
        assert [cell(tensor, k, 0, 0) for k in range(3)] == e_k
