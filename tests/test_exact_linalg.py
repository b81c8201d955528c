"""Matrices, the batched Hessenberg charpoly modulo word-size primes (the
primes from Hadamard's bound, the per-prime pivots, the chunked sums and
the recurrence, and certify's deflated Gram), the multimodular trivariate
determinant grid."""

import itertools
import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ramex import exact_linalg
from ramex.exact_algebra import UniPoly, rational_to_str
from ramex.exact_linalg import (
    _CHUNK,
    _PRIMES,
    MAX_GRID_M,
    BlockSpec,
    CoefficientsTooLarge,
    CTensor,
    GridTooLarge,
    Matrix,
    RationalityViolation,
    _berkowitz_mod,
    _crt,
    _grid_table,
    _hessenberg_charpoly,
    _WORD,
    _interp,
    _matmul_mod,
    _primes_for,
    _toeplitz,
    rationality_violation_count,
    trivariate_detpoly,
)
from ramex.matching_family import Multigraph, NodeState, Params, half_adjacency
from ramex.oracle import _det_xid_minus
from ramex.ramanujan_walk import certify

from matrices import cell, charpoly, charpoly_primes, grid_args, gram, identity, planes, zeros


def naive_charpoly(mat: Matrix) -> UniPoly:
    """Sum-of-principal-minors definition, via cofactor determinants."""

    def det(rows, cols):
        if not rows:
            return Fraction(1)
        r0 = rows[0]
        total = Fraction(0)
        for pos, c in enumerate(cols):
            sub = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = Fraction(mat.entries[r0][c]) * sub
            total += term if pos % 2 == 0 else -term
        return total

    n = mat.nrows
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        ek = sum(
            (det(idx, idx) for idx in itertools.combinations(range(n), k)),
            Fraction(0),
        )
        coeffs[n - k] = ek if k % 2 == 0 else -ek
    return UniPoly(tuple(coeffs))


def test_charpoly_examples():
    assert charpoly(Matrix.from_rows([[2, 1], [1, 2]])) == UniPoly((3, -4, 1))
    assert charpoly(zeros(3)) == UniPoly((0, 0, 0, 1))
    assert charpoly(Matrix.from_rows([[0, 1], [1, 0]])) == UniPoly((-1, 0, 1))


def test_charpoly_matches_minor_sums_on_random_matrices():
    rng = random.Random(42)
    for _ in range(12):
        mat = Matrix.from_rows([[rng.randint(-15, 15) for _ in range(4)] for _ in range(4)])
        assert charpoly(mat) == naive_charpoly(mat)


@st.composite
def _kernel_matrix(draw):
    """Integer m x m, m in 0..8, small or up to 2^70 in size, with an
    optional zero row, zero column and repeated row."""
    m = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    if m:
        index = st.integers(0, m - 1)
        if draw(st.booleans()):
            rows[draw(index)] = [0] * m
        if draw(st.booleans()):
            j = draw(index)
            for row in rows:
                row[j] = 0
        if draw(st.booleans()):
            rows[draw(index)] = list(rows[draw(index)])
    return rows


# Column 0 below the diagonal vanishes mod _PRIMES[0] at row 1, or at
# every row, but not mod the other primes, so the batch's pivots differ.
_P0 = _PRIMES[0]
_PIVOT_DIFFERS = [[0, 1, 0, 2], [_P0, 0, 1, 0], [1, 1, 0, 1], [0, 2, 1, 0]]
_NO_PIVOT_MOD_P0 = [[1, 2, 0, 1], [_P0, 0, 1, 0], [_P0, 1, 0, 1], [2 * _P0, 0, 1, 1]]


@settings(max_examples=120)
@given(_kernel_matrix())
@example([])
@example([[2**70, -(2**70)], [2**70, -(2**70)]])
@example([[0] * 8 for _ in range(8)])
@example([[21, -18], [70, 84]])
@example([[10, 0, 6], [0, 0, 0], [-105, 30, 10]])
@example([[(3 * i - 2 * j) % 11 - 5 for j in range(6)] for i in range(6)])
@example([[0] * 5, [0] * 5, [1, 0, 0, 0, 1], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
@example(_PIVOT_DIFFERS)
@example(_NO_PIVOT_MOD_P0)
def test_charpoly_matches_cofactor_oracle(rows):
    """Integer matrices, with a few explicit examples.  In the last two an
    entry equal to the first table prime vanishes modulo it alone, so that
    prime swaps another row and column to the subdiagonal, or skips the
    column, while the other primes of the batch do not."""
    assert charpoly(Matrix.from_rows(rows)) == UniPoly(tuple(_det_xid_minus(rows)))


_KERNEL_PRIMES = (3, 7, 127, *_PRIMES[:2], _PRIMES[-1])


@settings(max_examples=120)
@given(_kernel_matrix(), st.lists(st.sampled_from(_KERNEL_PRIMES), min_size=1, max_size=4))
@example([[0] * 5, [0] * 5, [1, 0, 0, 0, 1], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]], [127, 3])
@example([[127 * (i != j) for j in range(4)] for i in range(4)], [127, 7])
@example(_PIVOT_DIFFERS, [_P0, _PRIMES[1]])
@example(_NO_PIVOT_MOD_P0, [_PRIMES[1], _P0, 3])
@example([], list(_KERNEL_PRIMES))
@example([[-(2**70)]], list(_KERNEL_PRIMES))
@example([[_P0]], list(_KERNEL_PRIMES))
def test_hessenberg_mod_is_reduced_and_similar(rows, primes):
    """Small primes, so that entries meet multiples of p, and table primes,
    one batch: after the kernel each matrix of the batch has every entry
    in 0..p-1 and zeros below its subdiagonal, and both it and the
    returned coefficients, in 0..p-1, give det(xI - M) mod its p; (1) at
    m = 0 and (-a, 1) at m = 1."""
    m, primes = len(rows), np.array(primes, dtype=np.int64)
    mats = np.array([[x % p for row in rows for x in row] for p in primes.tolist()])
    mats = mats.astype(np.int64).reshape(len(primes), m, m)
    coeffs = _hessenberg_charpoly(mats, primes)
    assert mats.dtype == coeffs.dtype == np.int64 and coeffs.shape == (len(primes), m + 1)
    want = _det_xid_minus(rows)
    for h, got, p in zip(mats.tolist(), coeffs.tolist(), primes.tolist()):
        assert all(0 <= x < p for row in h for x in row)
        assert all(not h[i][j] for i in range(m) for j in range(i - 1))
        assert [c % p for c in _det_xid_minus(h)] == [c % p for c in want]
        assert got == [c % p for c in want]


def test_kernel_sums_residues_near_p_in_chunks():
    """M = -J + 2 e_1 e_0^T at side 70 has rank 2, and on span(1, e_1) it
    acts as [[-70, -1], [2, 0]], so det(xI - M) = x^68 (x^2 + 70 x + 2).
    Column 0's factors are all -1, so the column update sums 68 products
    of residues p - 1 or p - 2: about 68 p^2 > 2^63, exact only in chunks
    of at most _CHUNK products."""
    m = 70
    rows = [[-1] * m for _ in range(m)]
    rows[1][0] = 1
    assert (m - 2) * (_PRIMES[-1] - 2) ** 2 > 2**63 > _CHUNK * (_P0 - 1) ** 2
    want = (0,) * (m - 2) + (2, m, 1)
    assert charpoly(Matrix(rows)) == UniPoly(want)


def test_chunk_width_does_not_follow_the_grid_cap(monkeypatch):
    """MAX_GRID_M is only a size policy: with the cap raised to 64, the
    side-70 matrix above still sums in chunks of _CHUNK products, which
    the primes alone bound, and keeps its polynomial x^68 (x^2 + 70 x + 2)."""
    assert _CHUNK * (_PRIMES[0] - 1) ** 2 < 2**63
    monkeypatch.setattr(exact_linalg, "MAX_GRID_M", 64)
    m = 70
    rows = [[-1] * m for _ in range(m)]
    rows[1][0] = 1
    assert charpoly(Matrix(rows)) == UniPoly((0,) * (m - 2) + (2, m, 1))


def test_word_product_wraps_modulo_2_to_the_64():
    """Given no modulus, ``_matmul_mod`` is numpy's uint64 product, reduced
    by wrap-around alone: on batches whose products wrap, with dot products
    of one chunk's length and longer, it equals the product of the Python
    ints mod 2^64."""
    rng = np.random.default_rng(64)
    for inner in (3, MAX_GRID_M + 5):
        x = rng.integers(0, 2**64, size=(2, 3, 4, inner), dtype=np.uint64)
        y = rng.integers(0, 2**64, size=(2, 3, inner, 5), dtype=np.uint64)
        exact = x.astype(object) @ y.astype(object)
        got = _matmul_mod(x, y, None)
        assert got.dtype == np.uint64 and (exact >= _WORD).all()
        assert (got.astype(object) == exact % _WORD).all()


def test_permuted_block_diagonal_charpoly_is_the_product_of_its_blocks():
    """Side 70, blocks of 7 to 10 with entries up to 2^16, rows and columns
    permuted alike: every dot product past MAX_GRID_M terms is summed in
    chunks, and the polynomial is the product of the blocks' polynomials
    by the cofactor oracle."""
    rng = random.Random(70)
    sizes = [9, 8, 10, 7, 9, 8, 10, 9]
    m = sum(sizes)
    rows, want, start = [[0] * m for _ in range(m)], UniPoly((1,)), 0
    for size in sizes:
        block = [[rng.randint(-(2**16), 2**16) for _ in range(size)] for _ in range(size)]
        for i, row in enumerate(block):
            rows[start + i][start : start + size] = row
        want = want * UniPoly(tuple(_det_xid_minus(block)))
        start += size
    perm = list(range(m))
    rng.shuffle(perm)
    permuted = [[rows[i][j] for j in perm] for i in perm]
    assert m == 70 and charpoly(Matrix(permuted)) == want


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 2.0])
def test_charpoly_rejects_non_integer_entries(entry):
    """A charpoly input is a Matrix, which holds only int entries."""
    with pytest.raises(ValueError, match="^a matrix must have integer entries$"):
        Matrix.from_rows([[1, entry], [0, 1]])


def test_matrix_and_block_spec_check_their_shape():
    """Ragged, wide and tall rows are not a Matrix, so charpoly and the
    grid never see them."""
    for rows in ([[1, 2], [3]], [[0, 0, 0], [0, 0, 0]], [[0, 0]] * 3, [[]]):
        with pytest.raises(ValueError, match="^a matrix must be square$"):
            Matrix(rows)
    with pytest.raises(ValueError, match="equally many"):
        BlockSpec((0, 1), (0,))
    for rows in ((1, 0), (0, 0), (-1, 0)):
        with pytest.raises(ValueError, match="distinct, ascending, nonnegative"):
            BlockSpec(rows, (0, 1))


def test_charpoly_at_the_hadamard_bound_edge():
    # 4 H for the 8 x 8 Sylvester H has (4 H)^2 = 128 I and trace 0, so its
    # charpoly is (x^2 - 128)^4, and |det| = 128^4 = 2^28 meets Hadamard's
    # bound: the product of the primes must exceed 2^29, and 2^28 exceeds
    # half the first table prime, so that prime alone would fold it
    mat = Matrix.from_rows([[4 * x for x in row] for row in _sylvester(8)])
    want = [0] * 9
    for i in range(5):
        want[2 * i] = math.comb(4, i) * (-128) ** (4 - i)
    assert 2 * 128**4 > _PRIMES[0] > 128**4
    assert charpoly_primes(mat.entries).tolist() == list(_PRIMES[:2])
    assert charpoly(mat) == UniPoly(tuple(want))


def _bareiss_det(rows) -> int:
    """Determinant by fraction-free Gaussian elimination with row swaps."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _at(poly: UniPoly, x: int) -> int:
    return sum(c * x**j for j, c in enumerate(poly.coeffs))


def _shifted_det(rows, x: int) -> int:
    """det(xI - M) by Bareiss."""
    return _bareiss_det([[x * (i == j) - g for j, g in enumerate(r)] for i, r in enumerate(rows)])


@pytest.mark.parametrize("m, seed", [(32, 1), (64, 2)])
def test_charpoly_of_large_grams_matches_bareiss_determinants(m, seed):
    """B^T B for B the union of 3 seeded random matchings on m + m
    vertices, the Gram certify forms at n = 2m, evaluated at integer
    points; x = 9 is the Gram's eigenvalue d^2.  certify's nontrivial
    polynomial R, from the deflated (m-1) x (m-1) Gram, is checked the
    same way as (y - 9) R(y)."""
    rng = random.Random(seed)
    mult = [[0] * m for _ in range(m)]
    for _ in range(3):
        perm = list(range(m))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mult[i][j] += 1
    b_gram = gram(Matrix.from_rows(mult))
    poly = charpoly(b_gram)
    nontrivial = certify(Multigraph(Params(2 * m, 3), mult)).nontrivial_poly
    reduced = UniPoly(nontrivial.coeffs[::2])  # R(y), nontrivial = R(x^2)
    assert poly.degree == m and poly.coeffs[m] == 1 and reduced.degree == m - 1
    for x in (-3, 0, 4, 9):
        det = _shifted_det(b_gram.entries, x)
        assert _at(poly, x) == det
        assert (x - 9) * _at(reduced, x) == det


def test_charpoly_of_a_dense_nonsymmetric_matrix_with_huge_entries():
    """24 x 24, every entry drawn up to 2^80 in size: the reduction runs
    22 steps deep, modulo each of 68 table primes."""
    rng = random.Random(24)
    rows = [[rng.randint(-(2**80), 2**80) for _ in range(24)] for _ in range(24)]
    poly = charpoly(Matrix(rows))
    assert poly.degree == 24 and poly.coeffs[24] == 1
    for x in (-5, 0, 2**40):
        assert _at(poly, x) == _shifted_det(rows, x)


def test_charpoly_past_the_largest_modulus_raises():
    # |det| = c, so the product of the primes must exceed 2c: the whole
    # table holds c = (M - 1) / 2, M the product of every table prime, and
    # every c the largest Mersenne prime before it, 2^4423 - 1, held
    table = math.prod(_PRIMES)
    assert table > 2**4423 > math.prod(_PRIMES[:-1])
    for c in ((table - 1) // 2, -((table - 1) // 2), 2**4421):
        assert charpoly(Matrix.from_rows([[c]])) == UniPoly((-c, 1))
    assert len(charpoly_primes([[2**4421]])) == len(_PRIMES)
    for c in ((table + 1) // 2, -((table + 1) // 2)):
        with pytest.raises(CoefficientsTooLarge, match="exceeds the largest modulus"):
            charpoly(Matrix.from_rows([[c]]))


def _e_k(poly: UniPoly, m: int) -> list:
    """Elementary symmetric functions of the roots of monic degree-m poly."""
    return [(-1) ** k * poly.coeffs[m - k] for k in range(m + 1)]


def test_trivariate_identity_example():
    # block {1} x {1} of I_2: the block mean is 1, so Abar = diag(1, 2); the
    # reduced block is empty and det(lam I + Abar^T Abar) = lam^2 + 5 lam + 4
    tensor = trivariate_detpoly(*grid_args(identity(2), BlockSpec((1,), (1,))))
    assert tensor.m == 2 and tensor.lhat == 0
    assert [cell(tensor, k, 0, 0) for k in range(3)] == [1, 5, 4]
    # full block of I_2: Abar = I + J/2; the reduced block is {1} x {1}
    tensor = trivariate_detpoly(*grid_args(identity(2), BlockSpec((0, 1), (0, 1))))
    # the reflected matrix is diag(2, 1), so det = (lam + 4)(lam + t_r t_c)
    assert tensor.lhat == 1
    assert cell(tensor, 0, 0, 0) == 1
    assert cell(tensor, 1, 0, 0) == 4 and cell(tensor, 1, 1, 1) == 1
    assert cell(tensor, 2, 1, 1) == 4
    assert cell(tensor, 2, 0, 0) == 0 and cell(tensor, 1, 1, 0) == 0


def test_trivariate_zero_matrix():
    # Abar = J_B / l, a rank-one matrix along the all-ones direction that
    # the reduction splits off: only C[1][0][0] = ||J_B / l||^2 = 1 survives
    for m in (2, 3):
        tensor = trivariate_detpoly(*grid_args(zeros(m), BlockSpec((0, 1), (0, 1))))
        assert cell(tensor, 0, 0, 0) == 1
        for kp in range(1, m + 1):
            for p in range(2):
                for q in range(2):
                    expected = 1 if (kp, p, q) == (1, 0, 0) else 0
                    assert cell(tensor, kp, p, q) == expected


def test_trivariate_empty_reduced_block():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    gram_poly = charpoly(gram(a))
    tensor = trivariate_detpoly(*grid_args(a, BlockSpec((), ())))
    assert tensor.lhat == 0
    assert [cell(tensor, k, 0, 0) for k in range(3)] == _e_k(gram_poly, 2)
    # a single-cell block leaves an empty reduced block: the bumped Gram
    tensor = trivariate_detpoly(*grid_args(a, BlockSpec((1,), (0,))))
    bumped = Matrix.from_rows([[1, 2], [1, 1]])
    assert tensor.lhat == 0
    assert [cell(tensor, k, 0, 0) for k in range(3)] == _e_k(charpoly(gram(bumped)), 2)


def _assert_at_ones_is_full_gram(base: Matrix, rows: tuple, cols: tuple):
    # l Abar = l A + J_B, the block mean l times over
    l = len(rows)
    scaled = Matrix.from_rows(
        [
            [l * x + 1 if i in rows and j in cols else l * x for j, x in enumerate(r)]
            for i, r in enumerate(base.entries)
        ]
    )
    tensor = trivariate_detpoly(*grid_args(base, BlockSpec(rows, cols)))
    # at t_r = t_c = 1 the polynomial is det(lam I + Abar^T Abar), whose
    # e_k is that of the scaled Gram over l^(2k)
    m, span = base.nrows, range(l)
    sums = [sum(cell(tensor, k, p, q) for p in span for q in span) for k in range(m + 1)]
    want = _e_k(charpoly(gram(scaled)), m)
    assert sums == [Fraction(e, l ** (2 * k)) for k, e in enumerate(want)]
    assert tensor.m == m and tensor.lhat == l - 1
    assert min(tensor.nums) >= 0


def test_trivariate_at_ones_is_full_gram():
    rng = random.Random(5)
    for _ in range(6):
        m = rng.randint(2, 4)
        l = rng.randint(2, m)
        base = Matrix.from_rows([[rng.randint(-1, 2) for _ in range(m)] for _ in range(m)])
        rows = tuple(sorted(rng.sample(range(m), l)))
        cols = tuple(sorted(rng.sample(range(m), l)))
        _assert_at_ones_is_full_gram(base, rows, cols)


_NEAR_P_ROWS, _NEAR_P_COLS = (0, 2, 5, 9, 14, 20, 27, 31), tuple(range(1, 32, 4))


def _dense(low: int, high: int) -> list:
    """A seeded MAX_GRID_M x MAX_GRID_M matrix of entries in low..high."""
    rng = random.Random(29)
    return [[rng.randint(low, high) for _ in range(MAX_GRID_M)] for _ in range(MAX_GRID_M)]


def _equal_line_sums_near_p() -> list:
    """-2 J - P plus a 0/1 bijection from the rows outside _NEAR_P_ROWS to
    the columns outside _NEAR_P_COLS, P a seeded permutation matrix: entries
    -3..-1, and at l = 8 every row and column sum of 8 a + J_B is -512."""
    rng = random.Random(29)
    m = MAX_GRID_M
    perm, free = list(range(m)), [j for j in range(m) if j not in _NEAR_P_COLS]
    rng.shuffle(perm)
    rng.shuffle(free)
    rows = [[-2 - (j == perm[i]) for j in range(m)] for i in range(m)]
    for i, j in zip([i for i in range(m) if i not in _NEAR_P_ROWS], free):
        rows[i][j] += 1
    return rows


@pytest.mark.parametrize(
    "base, rows, cols",
    [
        # dense, entries past 2^29: the residues fill [0, p); a block of
        # two, so four grid points
        (_dense(-(2**30), 2**30), (3, 17), (0, MAX_GRID_M - 1)),
        # small negative entries: every residue within 24 of p, so at l = 8
        # the Grams and s s^T would overflow int64 without their reductions
        (_dense(-3, -1), _NEAR_P_ROWS, _NEAR_P_COLS),
        # the same with equal line sums: the grid deflates, and the Grams'
        # row differences with row 0 lie in (-p, p)
        (_equal_line_sums_near_p(), _NEAR_P_ROWS, _NEAR_P_COLS),
    ],
    ids=["past-2^29-l2", "near-p-l8", "equal-sums-near-p-l8"],
)
def test_trivariate_at_the_int64_edge(base, rows, cols):
    """A dense MAX_GRID_M matrix whose residues reach the top of [0, p):
    every residue product and broadcast step runs near its int64 bound."""
    _assert_at_ones_is_full_gram(Matrix.from_rows(base), rows, cols)


def _interpolate(values: list) -> list:
    """Ascending coefficients of the polynomial of degree < len(values)
    that takes values[t] at t = 0, 1, ..., by Lagrange's formula."""
    total = UniPoly()
    for t, value in enumerate(values):
        basis = UniPoly((value,))
        for s in range(len(values)):
            if s != t:
                basis = basis * UniPoly((Fraction(-s, t - s), Fraction(1, t - s)))
        total = total + basis
    return list(total.coeffs) + [0] * (len(values) - len(total.coeffs))


def _product(a: list, b: list) -> list:
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


@st.composite
def _matrix_and_block(draw):
    """A random integer matrix and block of size l >= 2, or a walk node's
    fixed matrix and open block, whose equal line sums deflate the grid."""
    m = draw(st.integers(3, 5))
    perm = st.permutations(range(m))
    if draw(st.booleans()):
        entry = st.integers(-3, 3)
        rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
        l = draw(st.integers(2, m))
        return grid_args(Matrix(rows), BlockSpec(sorted(draw(perm)[:l]), sorted(draw(perm)[:l])))
    complete = tuple(draw(perm) for _ in range(draw(st.integers(1, 3))))
    node = NodeState(complete, draw(perm)[: draw(st.integers(1, m - 2))])
    return half_adjacency(node, Params(2 * m, len(complete) + 1))


@settings(max_examples=40)
@given(_matrix_and_block())
# a (10,3) node whose tensor is not symmetric in (p, q), so t_r and t_c swapped shows
@example(half_adjacency(NodeState(((2, 1, 4, 0, 3), (0, 1, 2, 3, 4)), (1,)), Params(10, 3)))
def test_grid_numerators_are_integers_over_l_squared(case):
    """The kernel's numerators over l^(2k'), times l^(2k'), equal the
    integer coefficients of det(lam I + l^4 X) from an independent
    big-integer determinant at every grid point, l^4 X = Ahat^T (l R) Ahat
    (l S) built from its definition, and exact interpolation; each plane
    sums to e_k'(G0), G0 = Ahat^T Ahat."""
    a, block_rows, block_cols = case
    m, l, rows, cols = len(a), len(block_rows), set(block_rows), set(block_cols)
    ahat = [
        [l * x + (i in rows and j in cols) for j, x in enumerate(row)]
        for i, row in enumerate(a.tolist())
    ]

    def scaled(t, index):  # l I + (t - 1)(l D - J) on the block's indices
        inside = [[i in index and j in index for j in range(m)] for i in range(m)]
        return [
            [l * (i == j) + (t - 1) * (l * (i == j) - 1) * inside[i][j] for j in range(m)]
            for i in range(m)
        ]

    # grid[k][t_r][t_c] = [lam^(m-k)] det(lam I + l^4 X) = [x^(m-k)] det(x I + l^4 X)
    grid = [[[0] * l for _ in range(l)] for _ in range(m + 1)]
    for tr, tc in itertools.product(range(l), repeat=2):
        right = _product(scaled(tr, rows), _product(ahat, scaled(tc, cols)))
        minus = [[-x for x in row] for row in _product(list(zip(*ahat)), right)]
        for k, c in enumerate(reversed(_det_xid_minus(minus))):
            grid[k][tr][tc] = c
    tensor = trivariate_detpoly(*case)
    assert tensor.lhat == l - 1
    g0 = _e_k(charpoly(gram(Matrix(ahat))), m)
    nums = planes(tensor.nums, l - 1)
    for k in range(m + 1):
        by_tr = [_interpolate(row) for row in grid[k]]  # by_tr[t_r][q]
        exact = [_interpolate(col) for col in zip(*by_tr)]  # exact[q][p]
        plane = nums[k]
        assert [[l ** (2 * k) * x for x in row] for row in plane] == [list(r) for r in zip(*exact)]
        assert sum(map(sum, plane)) == g0[k]


@settings(max_examples=40)
@given(_matrix_and_block())
def test_stored_planes_sum_to_the_deflated_gram(case):
    """With equal line sums (every node input) the tensor stores the m
    planes of the all-ones factor's complement, nonnegative, and plane k'
    sums to e_k' of the deflated Gram: rows and columns 1.. of
    G0 = Ahat^T Ahat, each row less row 0, as certify builds it.  Any other
    input stores the whole tensor's m + 1 planes."""
    a, block_rows, block_cols = case
    m, l, rows, cols = len(a), len(block_rows), set(block_rows), set(block_cols)
    ahat = [
        [l * x + (i in rows and j in cols) for j, x in enumerate(row)]
        for i, row in enumerate(a.tolist())
    ]
    sums = {sum(row) for row in ahat} | {sum(col) for col in zip(*ahat)}
    tensor = trivariate_detpoly(*case)
    if len(sums) > 1:
        assert tensor.sigma_sq is None and len(tensor.planes) == (m + 1) * (tensor.lhat + 1) ** 2
        return
    g0 = gram(Matrix(ahat)).entries
    deflated = Matrix([[g - t for g, t in zip(row[1:], g0[0][1:])] for row in g0[1:]])
    stored = planes(tensor.planes, tensor.lhat)
    assert tensor.sigma_sq == sums.pop() ** 2 and len(stored) == m
    assert [sum(map(sum, plane)) for plane in stored] == _e_k(charpoly(deflated), m - 1)
    assert min(tensor.planes) >= 0


@pytest.mark.parametrize("lhat", [*range(10), MAX_GRID_M - 1])
def test_interp_matrix_recovers_scaled_coefficients(lhat):
    """One function serves both moduli: W = V^-1 mod each of the first r
    table primes, r = 1 and every prime, stacked as a grid stacks them, and
    2^v W mod 2^64 for v = v2(l_hat!), get back the coefficients of
    integer polynomials (2^v times them on the word) from their values on
    0..l_hat, at scales from 1 to past the moduli; the tables are cached
    per (l_hat, modulus) and read-only."""
    v = sum(lhat // 2**i for i in range(1, lhat.bit_length() + 1))  # Legendre's formula
    word = _interp(lhat, _WORD)
    assert word is _interp(lhat, _WORD) and not word.flags.writeable
    assert word.shape == (lhat + 1, lhat + 1) and word.dtype == np.uint64
    rng = random.Random(lhat)
    for size in (1, 10**6, 2**100):
        coeffs = [rng.randint(-size, size) for _ in range(lhat + 1)]
        values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in range(lhat + 1)]
        for r in (1, len(_PRIMES)):
            tables = [_interp(lhat, p) for p in _PRIMES[:r]]
            assert all(t is _interp(lhat, p) for t, p in zip(tables, _PRIMES))
            assert not any(t.flags.writeable for t in tables)
            interp = np.stack(tables)
            assert interp.shape == (r, lhat + 1, lhat + 1) and interp.dtype == np.int64
            moduli = np.array(_PRIMES[:r], dtype=object)[:, None]
            got = interp.astype(object) @ np.array(values, dtype=object) % moduli
            assert (got == np.array(coeffs, dtype=object) % moduli).all()
        got = word.astype(object) @ np.array(values, dtype=object) % 2**64
        assert got.tolist() == [(c << v) % 2**64 for c in coeffs]


@st.composite
def _sparse_matrix_and_block(draw):
    """A mostly zero m x m matrix, m up to 9, and a block of any size: its
    grid fits one word up to l_hat = 7 or 8 about as often as not."""
    m = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from((-1, 1, 2)))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    perm = st.permutations(range(m))
    l = draw(st.integers(0, m))
    return grid_args(Matrix(rows), BlockSpec(sorted(draw(perm)[:l]), sorted(draw(perm)[:l])))


@settings(max_examples=80)
@given(st.one_of(_matrix_and_block(), _sparse_matrix_and_block()))
# l_hat = 11, v = 8: Ahat = J splits to a zero complement
@example(grid_args(zeros(12), BlockSpec(tuple(range(12)), tuple(range(12)))))
def test_word_grid_equals_the_prime_grid(case):
    """A grid whose bound fits one word takes the word, with no prime.  Its
    one uint64 row, 4^v times each numerator, shifted right by 2v as a
    signed word, equals the CRT of the prime grid's int64 rows, the
    reference, run here at three primes, a modulus past 2^64, and both
    equal the tensor's numerators; with equal line sums and without."""
    a, rows, cols = case
    with mock.patch.object(exact_linalg, "_primes_for", wraps=_primes_for) as primes_for:
        tensor = trivariate_detpoly(a, rows, cols)
    assume(not primes_for.called)
    primes = _primes_for(2**63)
    assert len(primes) == 3
    lhat, size = tensor.lhat, len(tensor.planes)
    n, v = size // (lhat + 1) ** 2 - 1, lhat - lhat.bit_count()
    word = exact_linalg._grid(a, rows, cols, n, None)
    residues = exact_linalg._grid(a, rows, cols, n, primes)
    assert word.dtype == np.uint64 and word.shape == (1, size)
    assert residues.dtype == np.int64 and residues.shape == (3, size)
    want = _crt(residues).tolist()
    assert (word.view(np.int64)[0] >> 2 * v).tolist() == want and tensor.planes == tuple(want)


@st.composite
def _int64_matrix_and_block(draw):
    """An m x m int64 matrix, m up to 5, with entries of either sign up to
    2, 20, 40 or 63 bits, and a block of any size: small entries take the
    word and large ones the primes."""
    m = draw(st.integers(1, 5))
    bits = draw(st.sampled_from((2, 20, 40, 63)))
    entry = st.integers(-(2**bits), 2**bits - 1)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    perm = st.permutations(range(m))
    l = draw(st.integers(0, m))
    return np.array(rows, dtype=np.int64), sorted(draw(perm)[:l]), sorted(draw(perm)[:l])


@settings(max_examples=60)
@given(_int64_matrix_and_block())
# one word with negative entries, and primes at int64's two ends
@example((np.array([[-1, 2], [0, -3]], dtype=np.int64), [1], [0]))
@example((np.array([[-(2**63), 2**63 - 1], [3, -(2**62)]], dtype=np.int64), [0, 1], [0, 1]))
def test_int64_and_object_arrays_give_the_same_tensor(case):
    """The grid takes an int64 array as it is, its words read as uint64 on
    the word and reduced by numpy's % on primes, and an object array by
    Python's %: the same matrix as either dtype gives the same tensor by
    the same modulus, on both sides of the word's edge."""
    a, rows, cols = case
    tensors, words = [], []
    for mat in (a, a.astype(object)):
        with mock.patch.object(exact_linalg, "_primes_for", wraps=_primes_for) as primes_for:
            tensors.append(trivariate_detpoly(mat, rows, cols))
        words.append(not primes_for.called)
    assert tensors[0] == tensors[1] and words[0] == words[1]


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        ([0, 1], [0], "^block must have equally many rows and columns$"),
        ([1, 0], [0, 1], "^block indices must be strictly ascending$"),
        ([0, 1], [1, 1], "^block indices must be strictly ascending$"),
        ([0, 2, 1], [0, 1, 2], "^block indices must be strictly ascending$"),
        ([-1, 0], [0, 1], "^block index outside the 3 x 3 matrix$"),
        ([0, 1], [1, 3], "^block index outside the 3 x 3 matrix$"),
    ],
    ids=["unequal", "descending", "repeated", "unordered", "negative", "past-m"],
)
def test_grid_checks_its_index_lists(rows, cols, message):
    """``trivariate_detpoly`` checks the block's index lists once, before
    any array indexing: equally long, strictly ascending and within the
    matrix, so a repeated or unordered index cannot slip past the range
    check, which reads only the ends."""
    with pytest.raises(ValueError, match=message):
        trivariate_detpoly(np.eye(3, dtype=np.int64), rows, cols)


_FULL_RANK = ((1, 0, 2, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1))
# rows 0 and 1 equal, both in the block below, so Ahat is singular
_SINGULAR = ((1, 0, 2, 0), (1, 0, 2, 0), (1, 1, 0, 0), (0, 0, 1, 1))


# (matrix, grid point to perturb, power of lam, change), applied to the
# batched kernel's output on the block (0, 1, 3) x (0, 2, 3):
# - the point (0, 0) in the leading coefficient moves C[0][0][0];
# - the point (1, 1), flat index 4 of the 3 x 3 grid, in the constant
#   coefficient drives some C[4][p][q] of the singular matrix, all 0,
#   negative;
# - the point (0, 0) in lam^2 moves C[2][0][0] of the full-rank matrix by
#   1 and every other C[2][p][q] by an odd multiple of 1/2 or 1/4; all are
#   at least 9, so none turns negative, and only a word's low-bit check or
#   a half-integer's symmetric residue mod the primes shows it.
# At scale 1 the grid fits one word; at 2^20 its bound needs primes.
@pytest.mark.parametrize("scale, word", [(1, True), (2**20, False)], ids=["word", "primes"])
@pytest.mark.parametrize(
    "rows, point, power, delta",
    [(_FULL_RANK, 0, 4, 1), (_SINGULAR, 4, 0, -1), (_FULL_RANK, 0, 2, 1)],
    ids=["leading", "constant", "middle"],
)
def test_perturbed_grid_value_is_a_rationality_violation(
    monkeypatch, rows, point, power, delta, scale, word
):
    real = exact_linalg._berkowitz_mod
    paths = []

    def perturbed(mats, primes):
        coeffs = real(mats, primes)
        index = mats.shape[-1] - power  # the kernel's coefficients are descending
        paths.append(primes is None)
        if primes is None:  # a word, which wraps modulo 2^64
            coeffs[:, point, index] += delta % 2**64
        else:
            coeffs[:, point, index] = (coeffs[:, point, index] + delta) % primes
        return coeffs

    monkeypatch.setattr(exact_linalg, "_berkowitz_mod", perturbed)
    monkeypatch.setattr(exact_linalg, "RATIONALITY_VIOLATIONS", 0)  # a scratch counter
    a = Matrix.from_rows([[scale * x for x in row] for row in rows])
    with pytest.raises(RationalityViolation):
        trivariate_detpoly(*grid_args(a, BlockSpec((0, 1, 3), (0, 2, 3))))
    assert rationality_violation_count() == 1 and paths == [word]


def _residues(values, primes):
    """Exact integers, nested lists, reduced mod each prime: int64, with
    the primes on a new leading axis."""
    exact = np.array(values, dtype=object)
    moduli = np.array(primes.tolist(), dtype=object).reshape((-1,) + (1,) * exact.ndim)
    return (exact % moduli).astype(np.int64)


def _multimodular_charpolys(batch: list) -> list:
    """Charpolys of a batch of equal-size integer matrices through the
    batched kernel: primes for twice each matrix's Hadamard bound
    prod_i (isqrt(|row_i|^2) + 2), residues, Berkowitz mod p, Garner."""
    m = len(batch[0])
    bound = max(
        math.prod(math.isqrt(sum(x * x for x in row)) + 2 for row in rows) for rows in batch
    )
    primes = _primes_for(bound)
    mats = _residues(batch, primes).reshape(len(primes), len(batch), m, m)
    coeffs = _berkowitz_mod(mats, primes)
    exact = _crt(coeffs.reshape(len(primes), -1)).reshape(len(batch), m + 1)
    return [UniPoly(tuple(reversed(row))) for row in exact.tolist()]


def _sylvester(m: int) -> list:
    """The m x m Sylvester Hadamard matrix, m a power of 2."""
    rows = [[1]]
    while len(rows) < m:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return rows


@st.composite
def _kernel_batch(draw):
    """1 to 3 integer m x m matrices, m in 0..MAX_GRID_M, entries small or
    up to 2^40 in size, each with an optional zero leading entry, zero row
    or repeated row."""
    m = draw(st.one_of(st.integers(0, 8), st.integers(9, MAX_GRID_M)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
    batch = draw(
        st.lists(
            st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m),
            min_size=1,
            max_size=3,
        )
    )
    for rows in batch if m else ():
        index = st.integers(0, m - 1)
        if draw(st.booleans()):
            rows[0][0] = 0
        if draw(st.booleans()):
            rows[draw(index)] = [0] * m
        if draw(st.booleans()):
            rows[draw(index)] = list(rows[draw(index)])
    return batch


@settings(max_examples=60)
@given(_kernel_batch())
@example([[]])
@example([[[0] * 5 for _ in range(5)], [[2**40] * 5 for _ in range(5)]])
@example([[[(-1) ** (i * j) * 2**39 + i - j for j in range(16)] for i in range(16)]])
@example([[[(i * 7 + j * 3) % 11 - 5 for j in range(MAX_GRID_M)] for i in range(MAX_GRID_M)]])
def test_batched_kernel_matches_big_int_charpoly(batch):
    """Singular, zero-led and repeated-row batches; the 2^39-sized 16 x 16
    example needs 23 primes.  Given no primes, the kernel wraps a uint64
    batch modulo 2^64 to the big-integer coefficients mod 2^64."""
    want = [charpoly(Matrix.from_rows(rows)) for rows in batch]
    assert _multimodular_charpolys(batch) == want
    m = len(batch[0])
    words = np.array(batch, dtype=object) % 2**64
    words = _berkowitz_mod(words.astype(np.uint64).reshape(1, len(batch), m, m), None)
    assert words.dtype == np.uint64
    assert words.tolist() == [[[c % 2**64 for c in reversed(p.coeffs)] for p in want]]


@pytest.mark.parametrize("m", [0, 1])
def test_berkowitz_mod_at_the_smallest_sizes(m):
    """A build at n = 2 runs 0 x 0 grid matrices.  At m = 0 the kernel
    gives (1), at m = 1 (1, -a), both reduced: below p on primes and
    modulo 2^64 on the word.  Its cached gather indices are read-only."""
    entries = [0, 1, 5, _PRIMES[0] - 1]
    want = [[1, -a] if m else [1] for a in entries]
    primes = _primes_for(2**40)
    mats = np.zeros((len(primes), len(entries), m, m), dtype=np.int64)
    mats[...] = np.array(entries).reshape(-1, 1, 1)
    coeffs = _berkowitz_mod(mats, primes)
    assert coeffs.dtype == np.int64
    assert coeffs.tolist() == [[[c % p for c in row] for row in want] for p in primes.tolist()]
    coeffs = _berkowitz_mod(mats[:1].astype(np.uint64), None)
    assert coeffs.dtype == np.uint64
    assert coeffs.tolist() == [[[c % _WORD for c in row] for row in want]]
    assert _toeplitz(m) is _toeplitz(m) and not _toeplitz(m).flags.writeable


def test_toeplitz_indices_gather_the_lower_triangle():
    """Index i - j on and below the diagonal and -1, the Toeplitz buffer's
    zero slot, above it; step k reads the leading (k + 1, k) block."""
    for m in range(MAX_GRID_M + 1):
        table = _toeplitz(m)
        want = [[i - j if j <= i else -1 for j in range(m)] for i in range(m + 1)]
        assert table.shape == (m + 1, m) and table.tolist() == want


def test_prime_count_covers_a_nearly_tight_hadamard_bound():
    # c H for a Sylvester Hadamard H has |det| = prod |row_i|, within a
    # factor (1 + 2/(c sqrt(m)))^m of the bound, so one prime fewer than
    # _primes_for gives would leave some of these determinants ambiguous
    for m in (4, 16):
        h = _sylvester(m)
        for shift in range(0, 61, 3):
            scaled = [[x << shift for x in row] for row in h]
            assert _multimodular_charpolys([scaled]) == [charpoly(Matrix.from_rows(scaled))]


@pytest.mark.parametrize("m", [1, 2, 7, 16, 32])
def test_prime_count_is_tight_for_a_scaled_identity(m):
    # Ahat = c I_m has equal line sums c, so the stored planes are the
    # complement's, the coefficients C(m-1, k) c^(2k) of (lam + c^2)^(m-1).
    # They meet the complement's bound exactly, so one prime fewer than
    # _primes_for gives folds the largest; c = 2^e + 1 runs from a few
    # primes to the table.  At m = 1 the complement is empty: the bound is 1.
    table = math.prod(_PRIMES)
    for e in range(0, table.bit_length(), max(1, table.bit_length() // (40 * m))):
        c = 2**e + 1
        want = tuple(math.comb(m - 1, k) * c ** (2 * k) for k in range(m))
        if 2 * max(want) >= table:
            break
        scaled = Matrix.from_rows([[c * (i == j) for j in range(m)] for i in range(m)])
        tensor = trivariate_detpoly(*grid_args(scaled, BlockSpec((), ())))
        assert tensor.sigma_sq == c * c and tensor.planes == want
        assert tensor.nums == tuple(math.comb(m, k) * c ** (2 * k) for k in range(m + 1))


@pytest.mark.parametrize("m", [2, 7, 16, 32])
def test_word_limit_is_tight_for_a_scaled_identity(m):
    # As above, Ahat = c I_m stores C(m-1, k) c^(2k), the largest of them
    # exactly the bound.  At l_hat = 0 (v = 0) a word holds the grid while
    # twice the bound is below 2^64: the last c = 2^e + 1 that fits and the
    # last c that fits take the word, the next of each takes primes, and
    # all four are exact.  At m = 32 no c = 2^e + 1 fits.
    def largest(c):
        return max(math.comb(m - 1, k) * c ** (2 * k) for k in range(m))

    low, high = 1, 2**32  # largest(low) fits a word, largest(high) does not
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if 2 * largest(mid) < 2**64 else (low, mid)
    cases = [(low, True), (high, False)]
    fits = [e for e in range(64) if 2 * largest(2**e + 1) < 2**64]
    if fits:
        cases += [(2 ** fits[-1] + 1, True), (2 ** (fits[-1] + 1) + 1, False)]
    for c, word in cases:
        scaled = Matrix.from_rows([[c * (i == j) for j in range(m)] for i in range(m)])
        with mock.patch.object(exact_linalg, "_primes_for", wraps=_primes_for) as primes_for:
            tensor = trivariate_detpoly(*grid_args(scaled, BlockSpec((), ())))
        assert primes_for.called is not word
        assert tensor.planes == tuple(math.comb(m - 1, k) * c ** (2 * k) for k in range(m))
    assert len(cases) == (2 if m == 32 else 4)


@pytest.mark.parametrize("count", [1, 2, len(_PRIMES)])
def test_crt_round_trips_the_edges_of_the_symmetric_range(count):
    primes = _primes_for(math.prod(_PRIMES[:count]) // 2 - 1)
    assert len(primes) == count
    half = (math.prod(_PRIMES[:count]) - 1) // 2
    values = [0, 1, -1, half, -half]
    assert _crt(_residues(values, primes)).tolist() == values


def test_primes_are_distinct_primes_below_2_to_the_29():
    assert len(set(_PRIMES)) == len(_PRIMES) >= 64
    for p in _PRIMES:
        assert 2 < p < 2**29 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))
        assert _CHUNK * (p - 1) ** 2 < 2**63
        # the grid at the largest block, one matmul of the (l^2, 4) table
        # with the basis, entries reduced below p: a row of the table sums
        # to (l-1)^2 in size, so every grid value is below (l-1)^2 (p-1) < 2^63
        l = MAX_GRID_M
        assert (l - 1) ** 2 * (p - 1) < 2**39 < 2**63
    table = np.abs(_grid_table(MAX_GRID_M, np.int64))
    assert table.max() == (MAX_GRID_M - 2) ** 2
    assert table.sum(axis=1).max() == (MAX_GRID_M - 1) ** 2


def test_prime_table_is_the_largest_primes_below_2_to_the_29():
    """Every odd number above the table's last prime and below 2^29 that
    the table lacks is composite, and the table descends."""
    assert list(_PRIMES) == sorted(_PRIMES, reverse=True)
    table = set(_PRIMES)
    for x in range(_PRIMES[-1], 2**29, 2):
        if x not in table:
            assert any(x % q == 0 for q in range(3, math.isqrt(x) + 1, 2)), x


def test_grid_size_guards_raise_grid_too_large():
    """m past MAX_GRID_M is GridTooLarge; a bound past the prime table is
    CoefficientsTooLarge, the one class of that limit, for the grid too."""
    with pytest.raises(GridTooLarge):
        trivariate_detpoly(*grid_args(zeros(MAX_GRID_M + 1), BlockSpec((), ())))
    with pytest.raises(CoefficientsTooLarge, match="exceeds the largest modulus"):
        _primes_for(math.prod(_PRIMES))
    assert len(_primes_for(math.prod(_PRIMES) // 2 - 1)) == len(_PRIMES)
    assert _primes_for(1).tolist() == [_PRIMES[0]]
    # the largest matrix the grid holds, with its largest block
    tensor = trivariate_detpoly(*grid_args(identity(MAX_GRID_M), BlockSpec((0, 1), (0, 1))))
    assert tensor.m == MAX_GRID_M and cell(tensor, 0, 0, 0) == 1


def test_ctensor_checks_its_numerators(monkeypatch):
    monkeypatch.setattr(exact_linalg, "RATIONALITY_VIOLATIONS", 0)  # a scratch counter
    # l_hat = 1: C[k'] is over 2^(2k'), so these numerators mean C = 1, 1, 1/4
    tensor = CTensor(1, 1, (1, 0, 0, 0, 4, 0, 0, 1))
    assert cell(tensor, 1, 0, 0) == 1 and cell(tensor, 1, 1, 1) == Fraction(1, 4)
    assert tensor.to_json()["values"] == [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "1/4"]]]
    with pytest.raises(RationalityViolation, match="expected 1"):
        CTensor(1, 2, (4,) + (0,) * 17)
    # the sign check runs in one pass; a failure still names the cell
    with pytest.raises(RationalityViolation, match=r"negative squared-minor sum C\[1\]\[1\]\[0\] "):
        CTensor(1, 1, (1, 0, 0, 0, 4, 0, -1, 0))
    assert rationality_violation_count() == 2


def test_ctensor_requires_the_unit_plane_0(monkeypatch):
    """Plane 0 is the coefficient of lam^m, 1 at every grid point: C[0][0][0]
    = 1 and every other C[0][p][q] = 0, which also makes the contracted Gram
    polynomial monic.  An off-diagonal 1 there is a violation."""
    monkeypatch.setattr(exact_linalg, "RATIONALITY_VIOLATIONS", 0)  # a scratch counter
    with pytest.raises(RationalityViolation, match=r"C\[0\]\[0\]\[1\] = 1, expected 0"):
        CTensor(1, 1, (1, 1, 0, 0, 4, 0, 0, 1))
    with pytest.raises(RationalityViolation, match=r"C\[0\]\[2\]\[1\] = 1, expected 0"):
        CTensor(1, 2, (1, 0, 0, 0, 0, 0, 0, 1, 0) + (0,) * 9)
    assert rationality_violation_count() == 2


@pytest.mark.parametrize(
    "a, rows, cols",
    [
        half_adjacency(NodeState(((1, 2, 0, 3),), (2,)), Params(8, 3)),  # equal line sums
        grid_args(
            Matrix.from_rows([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [0, 1, 0, 2]]),
            BlockSpec((0, 1, 3), (0, 2, 3)),
        ),
    ],
    ids=["split", "unsplit"],
)
def test_flat_tensor_views_agree(a, rows, cols):
    """The flat (k', p, q) numerators read the same through every view:
    ``to_json``'s nested planes are each cell of ``nums`` over the
    denominator of its minor size, and ``nums`` is the stored planes plus
    sigma^2 times the stored planes one plane down, the coefficients of
    (lam + sigma^2) times the complement, or the stored planes themselves
    when nothing was split."""
    tensor = trivariate_detpoly(a, rows, cols)
    size, stored = tensor.lhat + 1, planes(tensor.planes, tensor.lhat)
    whole = planes(tensor.nums, tensor.lhat)
    assert tensor.lhat == 2 and len(whole) == len(a) + 1
    values = tensor.to_json()["values"]
    span = range(size)
    assert values == [
        [[rational_to_str(cell(tensor, k, p, q)) for q in span] for p in span]
        for k in range(len(whole))
    ]
    if tensor.sigma_sq is None:
        assert tensor.nums is tensor.planes and whole == stored
        return
    blank = [[0] * size for _ in span]
    assert stored and len(stored) == len(a)
    for k, plane in enumerate(whole):
        hi = stored[k] if k < len(stored) else blank
        lo = stored[k - 1] if k else blank
        want = [[x + tensor.sigma_sq * y for x, y in zip(*pair)] for pair in zip(hi, lo)]
        assert plane == want


@pytest.mark.parametrize(
    "flat, message",
    [
        ((1, 3, -2, 0, 4, 0, 0, 1), r"C\[0\]\[0\]\[1\] = 3, expected 0"),
        ((1, 0, -2, 3, 4, 0, 0, 1), r"negative squared-minor sum C\[0\]\[1\]\[0\] = -2$"),
        ((1, 0, 0, 0, 4, -1, -1, 1), r"negative squared-minor sum C\[1\]\[0\]\[1\] = -1/4$"),
    ],
    ids=["stray-then-negative", "negative-then-stray", "two-negatives"],
)
def test_ctensor_names_its_first_bad_cell_in_flat_order(flat, message, monkeypatch):
    """A hand-built l_hat = 1 tensor with two bad cells reports the first in
    (k', p, q) order, q fastest, whichever of the two checks it fails."""
    monkeypatch.setattr(exact_linalg, "RATIONALITY_VIOLATIONS", 0)  # a scratch counter
    with pytest.raises(RationalityViolation, match=message):
        CTensor(1, 1, flat)
    assert rationality_violation_count() == 1
