"""Matrices, the Hessenberg charpoly mod a Mersenne prime, the multimodular
trivariate determinant grid."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramex import exact_linalg
from ramex.exact_algebra import UniPoly
from ramex.exact_linalg import (
    _MERSENNE_EXPONENTS,
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
    _interp_residues,
    _primes_for,
    charpoly,
    rationality_violation_count,
    trivariate_detpoly,
)
from ramex.oracle import _det_xid_minus

from matrices import gram, identity, zeros


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


@settings(max_examples=120)
@given(_kernel_matrix())
@example([])
@example([[2**70, -(2**70)], [2**70, -(2**70)]])
@example([[0] * 8 for _ in range(8)])
@example([[21, -18], [70, 84]])
@example([[10, 0, 6], [0, 0, 0], [-105, 30, 10]])
@example([[(3 * i - 2 * j) % 11 - 5 for j in range(6)] for i in range(6)])
def test_charpoly_matches_cofactor_oracle(rows):
    """Integer matrices, with a few explicit examples."""
    assert charpoly(Matrix.from_rows(rows)) == UniPoly(tuple(_det_xid_minus(rows)))


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
    # 5 H for the 8 x 8 Sylvester H has (5 H)^2 = 200 I and trace 0, so its
    # charpoly is (x^2 - 200)^4, and |det| = 200^4 meets Hadamard's bound:
    # the modulus must exceed 2 * 200^4 > 2^31 - 1, and 200^4 exceeds
    # (2^31 - 1) / 2, so the table entry below the right one folds it
    mat = Matrix.from_rows([[5 * x for x in row] for row in _sylvester(8)])
    want = [0] * 9
    for i in range(5):
        want[2 * i] = math.comb(4, i) * (-200) ** (4 - i)
    assert 2 * 200**4 > 2**31 - 1 > 200**4
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


@pytest.mark.parametrize("m, seed", [(32, 1), (64, 2)])
def test_charpoly_of_large_grams_matches_bareiss_determinants(m, seed):
    """B^T B for B the union of 3 seeded random matchings on m + m
    vertices, the Gram certify forms at n = 2m, evaluated at integer
    points; x = 9 is the Gram's eigenvalue d^2."""
    rng = random.Random(seed)
    mult = [[0] * m for _ in range(m)]
    for _ in range(3):
        perm = list(range(m))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mult[i][j] += 1
    b_gram = gram(Matrix.from_rows(mult))
    poly = charpoly(b_gram)
    assert poly.degree == m and poly.coeff(m) == 1
    for x in (-3, 0, 4, 9):
        shifted = [
            [x * (i == j) - g for j, g in enumerate(row)] for i, row in enumerate(b_gram.entries)
        ]
        assert sum(c * x**j for j, c in enumerate(poly.coeffs)) == _bareiss_det(shifted)


def _lucas_lehmer(e: int) -> bool:
    """Whether 2^e - 1 is prime, for a prime exponent e."""
    if e == 2:
        return True
    p = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = s * s - 2
        s = (s & p) + (s >> e)  # s mod p, folded twice: 2^e = 1 mod p
        s = (s & p) + (s >> e)
    return s % p == 0


def test_mersenne_exponents_give_primes():
    assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))
    for e in _MERSENNE_EXPONENTS:
        assert all(e % q for q in range(2, math.isqrt(e) + 1)) and _lucas_lehmer(e), e
    # the test rejects composites: 2^11 - 1 = 23 * 89, 2^29 - 1 = 233 * 1103 * 2089
    assert not _lucas_lehmer(11) and not _lucas_lehmer(29)


def test_charpoly_past_the_largest_modulus_raises():
    # |det| = c, so the modulus must exceed 2c
    top = _MERSENNE_EXPONENTS[-1]
    assert charpoly(Matrix.from_rows([[2 ** (top - 2)]])) == UniPoly((-(2 ** (top - 2)), 1))
    with pytest.raises(CoefficientsTooLarge):
        charpoly(Matrix.from_rows([[2 ** (top - 1)]]))


def _e_k(poly: UniPoly, m: int) -> list:
    """Elementary symmetric functions of the roots of monic degree-m poly."""
    return [(-1) ** k * poly.coeff(m - k) for k in range(m + 1)]


def test_trivariate_identity_example():
    # block {1} x {1} of I_2: the block mean is 1, so Abar = diag(1, 2); the
    # reduced block is empty and det(lam I + Abar^T Abar) = lam^2 + 5 lam + 4
    tensor = trivariate_detpoly(identity(2), BlockSpec((1,), (1,)))
    assert tensor.m == 2 and tensor.lhat == 0
    assert [tensor.get(k, 0, 0) for k in range(3)] == [1, 5, 4]
    # full block of I_2: Abar = I + J/2; the reduced block is {1} x {1}
    tensor = trivariate_detpoly(identity(2), BlockSpec((0, 1), (0, 1)))
    # the reflected matrix is diag(2, 1), so det = (lam + 4)(lam + t_r t_c)
    assert tensor.lhat == 1
    assert tensor.get(0, 0, 0) == 1
    assert tensor.get(1, 0, 0) == 4 and tensor.get(1, 1, 1) == 1
    assert tensor.get(2, 1, 1) == 4
    assert tensor.get(2, 0, 0) == 0 and tensor.get(1, 1, 0) == 0


def test_trivariate_zero_matrix():
    # Abar = J_B / l, a rank-one matrix along the all-ones direction that
    # the reduction splits off: only C[1][0][0] = ||J_B / l||^2 = 1 survives
    for m in (2, 3):
        tensor = trivariate_detpoly(zeros(m), BlockSpec((0, 1), (0, 1)))
        assert tensor.get(0, 0, 0) == 1
        for kp in range(1, m + 1):
            for p in range(2):
                for q in range(2):
                    expected = 1 if (kp, p, q) == (1, 0, 0) else 0
                    assert tensor.get(kp, p, q) == expected


def test_trivariate_empty_reduced_block():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    gram_poly = charpoly(gram(a))
    tensor = trivariate_detpoly(a, BlockSpec((), ()))
    assert tensor.lhat == 0
    assert [tensor.get(k, 0, 0) for k in range(3)] == _e_k(gram_poly, 2)
    # a single-cell block leaves an empty reduced block: the bumped Gram
    tensor = trivariate_detpoly(a, BlockSpec((1,), (0,)))
    bumped = Matrix.from_rows([[1, 2], [1, 1]])
    assert tensor.lhat == 0
    assert [tensor.get(k, 0, 0) for k in range(3)] == _e_k(charpoly(gram(bumped)), 2)


def _assert_at_ones_is_full_gram(base: Matrix, rows: tuple, cols: tuple):
    # l Abar = l A + J_B, the block mean l times over
    l = len(rows)
    scaled = Matrix.from_rows(
        [
            [l * x + 1 if i in rows and j in cols else l * x for j, x in enumerate(r)]
            for i, r in enumerate(base.entries)
        ]
    )
    tensor = trivariate_detpoly(base, BlockSpec(rows, cols))
    # at t_r = t_c = 1 the polynomial is det(lam I + Abar^T Abar), whose
    # e_k is that of the scaled Gram over l^(2k)
    m, span = base.nrows, range(l)
    sums = [sum(tensor.get(k, p, q) for p in span for q in span) for k in range(m + 1)]
    want = _e_k(charpoly(gram(scaled)), m)
    assert sums == [Fraction(e, l ** (2 * k)) for k, e in enumerate(want)]
    assert tensor.m == m and tensor.lhat == l - 1
    assert all(num >= 0 for plane in tensor.nums for row in plane for num in row)


def test_trivariate_at_ones_is_full_gram():
    rng = random.Random(5)
    for _ in range(6):
        m = rng.randint(2, 4)
        l = rng.randint(2, m)
        base = Matrix.from_rows([[rng.randint(-1, 2) for _ in range(m)] for _ in range(m)])
        rows = tuple(sorted(rng.sample(range(m), l)))
        cols = tuple(sorted(rng.sample(range(m), l)))
        _assert_at_ones_is_full_gram(base, rows, cols)


@pytest.mark.parametrize(
    "entries, rows, cols",
    [
        # dense, entries past 2^29: the residues fill [0, p); a block of
        # two, so four grid points
        ((-(2**30), 2**30), (3, 17), (0, MAX_GRID_M - 1)),
        # small negative entries: every residue within 24 of p, so at l = 8
        # the Grams and s s^T would overflow int64 without their reductions
        ((-3, -1), (0, 2, 5, 9, 14, 20, 27, 31), tuple(range(1, 32, 4))),
    ],
    ids=["past-2^29-l2", "near-p-l8"],
)
def test_trivariate_at_the_int64_edge(entries, rows, cols):
    """A dense MAX_GRID_M matrix whose residues reach the top of [0, p):
    every residue product and broadcast step runs near its int64 bound."""
    rng = random.Random(29)
    base = Matrix.from_rows(
        [[rng.randint(*entries) for _ in range(MAX_GRID_M)] for _ in range(MAX_GRID_M)]
    )
    _assert_at_ones_is_full_gram(base, rows, cols)


@pytest.mark.parametrize("lhat", range(10))
def test_interp_matrix_recovers_scaled_coefficients(lhat):
    """W = V^-1 mod every table prime gets back the coefficients of integer
    polynomials from their values on 0..l_hat, at scales from 1 to past
    the primes; the table is cached and read-only."""
    interp = _interp_residues(lhat)
    assert interp is _interp_residues(lhat) and not interp.flags.writeable
    assert interp.shape == (len(_PRIMES), lhat + 1, lhat + 1) and interp.dtype == np.int64
    moduli = np.array(_PRIMES, dtype=object)[:, None]
    rng = random.Random(lhat)
    for size in (1, 10**6, 2**100):
        coeffs = [rng.randint(-size, size) for _ in range(lhat + 1)]
        values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in range(lhat + 1)]
        got = interp.astype(object) @ np.array(values, dtype=object) % moduli
        assert (got == np.array(coeffs, dtype=object) % moduli).all()


# (grid point to perturb, power of lam, change), applied to the batched
# kernel's residues: the point (0, 0) in the leading coefficient, which moves
# C[0][0][0], and the point (1, 1), flat index 4 of the 3 x 3 grid, in the
# constant coefficient, which drives some C[m][p][p] negative
@pytest.mark.parametrize("point, power, delta", [(0, 4, 1), (4, 0, -(10**9))])
def test_perturbed_grid_value_is_a_rationality_violation(monkeypatch, point, power, delta):
    real = exact_linalg._berkowitz_mod

    def perturbed(mats, primes):
        coeffs = real(mats, primes)
        index = mats.shape[-1] - power  # the kernel's coefficients are descending
        coeffs[:, point, index] = (coeffs[:, point, index] + delta) % primes
        return coeffs

    monkeypatch.setattr(exact_linalg, "_berkowitz_mod", perturbed)
    monkeypatch.setattr(exact_linalg, "RATIONALITY_VIOLATIONS", 0)  # a scratch counter
    a = Matrix.from_rows([[1, 0, 2, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
    with pytest.raises(RationalityViolation):
        trivariate_detpoly(a, BlockSpec((0, 1, 3), (0, 2, 3)))
    assert rationality_violation_count() == 1


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
    example needs 23 primes."""
    want = [charpoly(Matrix.from_rows(rows)) for rows in batch]
    assert _multimodular_charpolys(batch) == want


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
    # Ahat = c I_m meets the trace bound exactly: every numerator is
    # C(m, k) c^(2k), its plane's bound, so one prime fewer than _primes_for
    # gives folds the largest; c = 2^e + 1 runs from a few primes to the table
    table = math.prod(_PRIMES)
    for e in itertools.count(0, max(1, table.bit_length() // (40 * m))):
        c = 2**e + 1
        want = tuple(((math.comb(m, k) * c ** (2 * k),),) for k in range(m + 1))
        if 2 * max(plane[0][0] for plane in want) >= table:
            break
        scaled = Matrix.from_rows([[c * (i == j) for j in range(m)] for i in range(m)])
        assert trivariate_detpoly(scaled, BlockSpec((), ())).nums == want


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
        assert MAX_GRID_M * (p - 1) ** 2 < 2**63
        # the grid's broadcasts at the largest block, unreduced in between:
        # L = l G0 + (t_r - 1) G1 with |t_r - 1| < l, then the grid matrix
        # -(l L + (t_c - 1) L P_c) with |t_c - 1| < l and |L P_c| <= 2 l |L|
        l = MAX_GRID_M
        top = l * (p - 1) + (l - 1) * (p - 1)
        assert l * top + (l - 1) * 2 * l * top < 2**46 < 2**63


def test_grid_size_guards_raise_grid_too_large():
    with pytest.raises(GridTooLarge):
        trivariate_detpoly(zeros(MAX_GRID_M + 1), BlockSpec((), ()))
    with pytest.raises(GridTooLarge):
        _primes_for(math.prod(_PRIMES))
    assert len(_primes_for(math.prod(_PRIMES) // 2 - 1)) == len(_PRIMES)
    assert _primes_for(1).tolist() == [_PRIMES[0]]
    # the largest matrix the grid holds, with its largest block
    tensor = trivariate_detpoly(identity(MAX_GRID_M), BlockSpec((0, 1), (0, 1)))
    assert tensor.m == MAX_GRID_M and tensor.get(0, 0, 0) == 1


def test_ctensor_checks_its_numerators(monkeypatch):
    monkeypatch.setattr(exact_linalg, "RATIONALITY_VIOLATIONS", 0)  # a scratch counter
    # l_hat = 1: C[k'] is over 2^(4k'), so these numerators mean C = 1, 1, 1/16
    tensor = CTensor(1, 1, (((1, 0), (0, 0)), ((16, 0), (0, 1))))
    assert tensor.get(1, 0, 0) == 1 and tensor.get(1, 1, 1) == Fraction(1, 16)
    assert tensor.to_json()["values"] == [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "1/16"]]]
    with pytest.raises(RationalityViolation, match="expected 1"):
        CTensor(1, 2, (((4, 0, 0),) + ((0,) * 3,) * 2, ((0,) * 3,) * 3))
    with pytest.raises(RationalityViolation, match="negative"):
        CTensor(1, 1, (((1, 0), (0, 0)), ((16, 0), (-1, 0))))
    assert rationality_violation_count() == 2
