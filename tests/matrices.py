"""Reference matrices for the tests: the all-zero and identity matrices and
the Gram A^T A, built from plain rows; ramex's Matrix only holds and checks
rows.  ``charpoly`` is a Matrix's characteristic polynomial by the
Hessenberg kernel certify runs.  ``planes`` nests a tensor's flat
numerators into its square planes, and ``cell`` reads one of them as the
rational it stands for."""

from fractions import Fraction
from operator import mul

from ramex.exact_algebra import UniPoly
from ramex.exact_linalg import Matrix, charpoly_coeffs, charpoly_primes


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


def charpoly(a: Matrix) -> UniPoly:
    """det(xI - A), exact and monic: ``charpoly_coeffs`` modulo the primes
    ``charpoly_primes`` takes from Hadamard's bound."""
    return UniPoly(tuple(charpoly_coeffs(a.entries, charpoly_primes(a.entries))))


def gram(a: Matrix) -> Matrix:
    """A^T A: entry (j, k) is the dot product of columns j and k."""
    cols = list(zip(*a.entries))
    return Matrix([[sum(map(mul, cj, ck)) for ck in cols] for cj in cols])
