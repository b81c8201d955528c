"""Reference matrices for the tests: the all-zero and identity matrices and
the Gram A^T A, built from plain rows; ramex's Matrix only holds and checks
rows.  ``planes`` nests a tensor's flat numerators into its square planes."""

from operator import mul

from ramex.exact_linalg import Matrix


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


def gram(a: Matrix) -> Matrix:
    """A^T A: entry (j, k) is the dot product of columns j and k."""
    cols = list(zip(*a.entries))
    return Matrix([[sum(map(mul, cj, ck)) for ck in cols] for cj in cols])
