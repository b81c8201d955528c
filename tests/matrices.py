"""Reference matrices for the tests: the all-zero and identity matrices and
the Gram A^T A, built from plain rows; ramex's Matrix only holds and checks
rows.  ``charpoly`` is a Matrix's characteristic polynomial by the
Hessenberg kernel certify runs, on the primes Hadamard's bound takes
(``charpoly_primes``), which hold for any integer matrix, in place of
certify's trace bound.  ``planes`` nests a tensor's flat numerators into
its square planes, and ``cell`` reads one of them as the rational it
stands for."""

import math
from fractions import Fraction
from operator import mul

import numpy as np

from ramex.exact_algebra import UniPoly
from ramex.exact_linalg import Matrix, _primes_for, charpoly_coeffs


def zeros(n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(n)])


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def planes(flat: tuple, lhat: int) -> list:
    """The planes [k'][p][q] of numerators stored flat in (k', p, q) order,
    each plane l_hat + 1 rows of l_hat + 1."""
    size = lhat + 1
    rows = [list(flat[i : i + size]) for i in range(0, len(flat), size)]
    return [rows[k : k + size] for k in range(0, len(rows), size)]


def cell(tensor, kprime: int, p: int, q: int) -> Fraction:
    """C[k'][p][q]: its numerator in the flat ``nums``, over the
    denominator of minor size k'."""
    return Fraction(planes(tensor.nums, tensor.lhat)[kprime][p][q], tensor.denominator(kprime))


def _hadamard_bound(rows) -> int:
    """A bound on every coefficient of det(xI - M), for M given by its rows
    (square, integer): the coefficient of x^(m-k) is -+ e_k, a sum of
    C(m, k) principal minors, each at most R^k by Hadamard's inequality
    with R the largest row norm, so every coefficient is at most
    b = max_k C(m, k) R^k in size.  b^2 is exact on integers, and an
    integer coefficient is then at most isqrt(b^2)."""
    m = len(rows)
    norm_sq = max((sum(x * x for x in row) for row in rows), default=0)
    return math.isqrt(max(math.comb(m, k) ** 2 * norm_sq**k for k in range(m + 1)))


def charpoly_primes(rows):
    """The leading table primes whose product exceeds twice Hadamard's
    bound on det(xI - M); an int64 array, or CoefficientsTooLarge past the
    table."""
    return _primes_for(_hadamard_bound(rows))


def charpoly(a: Matrix) -> UniPoly:
    """det(xI - A), exact and monic: ``charpoly_coeffs`` on A as an object
    array, with Hadamard's bound, which holds for any integer matrix."""
    mat = np.array(a.entries, dtype=object).reshape(a.nrows, a.nrows)
    return UniPoly(tuple(charpoly_coeffs(mat, _hadamard_bound(a.entries))))


def gram(a: Matrix) -> Matrix:
    """A^T A: entry (j, k) is the dot product of columns j and k."""
    cols = list(zip(*a.entries))
    return Matrix([[sum(map(mul, cj, ck)) for ck in cols] for cj in cols])
