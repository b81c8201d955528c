"""Reference matrices for the tests: the all-zero and identity matrices and
the Gram A^T A, built from plain rows; ramex's Matrix only holds and checks
rows."""

from operator import mul

from ramex.exact_linalg import Matrix


def zeros(n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(n)])


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def gram(a: Matrix) -> Matrix:
    """A^T A: entry (j, k) is the dot product of columns j and k."""
    cols = list(zip(*a.entries))
    return Matrix([[sum(map(mul, cj, ck)) for ck in cols] for cj in cols])
