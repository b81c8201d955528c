"""Exact dense linear algebra over the integers and rationals.

Provides the Berkowitz (division-free) characteristic polynomial and the
squared-minor tensor of a fixed integer matrix plus a random block
permutation, computed by integer evaluation on the grid {0..l_hat}^2 and
integer interpolation, and kept as integer numerators over one known
denominator per minor size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact_algebra import UniPoly, rational_to_str


class RationalityViolation(ArithmeticError):
    """A squared-minor sum that must be a nonnegative rational was not.

    The coefficients of the trivariate determinant polynomial are sums of
    squared minors, so each must come out nonnegative, and the constant
    term must be exactly 1; anything else is a hard implementation error.
    """


# Count of detected violations, for audit by the acceptance suite.  Every
# violation also raises, so a completed run implies a zero count.
RATIONALITY_VIOLATIONS = 0


def rationality_violation_count() -> int:
    return RATIONALITY_VIOLATIONS


def _violation(message: str) -> RationalityViolation:
    global RATIONALITY_VIOLATIONS
    RATIONALITY_VIOLATIONS += 1
    return RationalityViolation(message)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rectangular matrix over an exact scalar ring."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(tuple((0,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().entries
        return Matrix(
            tuple(
                tuple(sum(map(mul, row, col)) for col in cols)
                for row in self.entries
            )
        )


@dataclass(frozen=True)
class BlockSpec:
    """Ordered row and column index sets of a square sub-block."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        cols = tuple(self.cols)
        if len(rows) != len(cols):
            raise ValueError("block must have equally many rows and columns")
        for idx in (rows, cols):
            if any(i < 0 for i in idx) or list(idx) != sorted(set(idx)):
                raise ValueError("block indices must be distinct, ascending, nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def size(self) -> int:
        return len(self.rows)


def charpoly(matrix: Matrix) -> UniPoly:
    """det(xI - M) by the division-free Berkowitz algorithm; exact, monic.

    Works over any exact commutative ring (here: ints and Fractions); being
    division-free, it keeps integer matrices on Python ints throughout.
    Step k slices the leading (k-1) x (k-1) block once and forms its
    row-vector products with ``sum(map(mul, ...))``.
    """
    if not matrix.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    a = matrix.entries
    coeffs = [1]  # descending; charpoly of the empty matrix
    for k in range(1, len(a) + 1):
        lead = [r[: k - 1] for r in a[: k - 1]]
        row = a[k - 1][: k - 1]
        col = [r[k - 1] for r in a[: k - 1]]
        # Toeplitz sequence: t0 = 1, t1 = -a[k-1][k-1], t_i = -(row . lead^(i-2) . col)
        t = [1, -a[k - 1][k - 1]]
        vec = col
        for i in range(2, k + 1):
            t.append(-sum(map(mul, row, vec)))
            if i < k:
                vec = [sum(map(mul, r, vec)) for r in lead]
        coeffs = [sum(map(mul, t[i::-1], coeffs)) for i in range(k + 1)]
    return UniPoly(tuple(reversed(coeffs)))


@dataclass(frozen=True)
class CTensor:
    """Squared-minor sums C[k'][p][q] of the block-reduced matrix, indexed
    by minor size k' and row/column overlap (p, q) with the reduced block.

    Held as integer numerators nums[k'][p][q] over the one known
    denominator (l_hat+1)^(4k') l_hat!^2 of minor size k'.  Every C is an
    exact nonnegative rational and C[0][0][0] == 1; both are checked here,
    on the numerators.
    """

    m: int
    lhat: int
    nums: tuple

    def __post_init__(self):
        for kprime, plane in enumerate(self.nums):
            for p, row in enumerate(plane):
                for q, num in enumerate(row):
                    if num < 0:
                        raise _violation(
                            f"negative squared-minor sum C[{kprime}][{p}][{q}] = "
                            f"{self.get(kprime, p, q)}"
                        )
        if self.nums[0][0][0] != self.denominator(0):
            raise _violation(f"C[0][0][0] = {self.get(0, 0, 0)}, expected 1")

    def denominator(self, kprime: int) -> int:
        return (self.lhat + 1) ** (4 * kprime) * math.factorial(self.lhat) ** 2

    def get(self, kprime: int, p: int, q: int) -> Fraction:
        return Fraction(self.nums[kprime][p][q], self.denominator(kprime))

    @property
    def values(self) -> tuple:
        return tuple(
            tuple(tuple(Fraction(num, self.denominator(k)) for num in row) for row in plane)
            for k, plane in enumerate(self.nums)
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "lhat": self.lhat,
            "values": [
                [[rational_to_str(c) for c in row] for row in plane] for plane in self.values
            ],
        }


@functools.lru_cache(maxsize=None)
def _interp_matrix(lhat: int) -> tuple:
    """Integer M with lhat! * f_k = sum_t M[k][t] f(t) for every polynomial
    f = sum_k f_k t^k of degree <= lhat; cached, as a tuple of rows.

    Newton's forward form f(t) = sum_j (Delta^j f)(0) falling(t, j) / j!,
    with (Delta^j f)(0) = sum_t (-1)^(j-t) C(j, t) f(t); every lhat!/j! is
    an integer, and so are the falling-factorial coefficients.
    """
    size = lhat + 1
    out = [[0] * size for _ in range(size)]
    falling = [1]  # ascending coefficients of t (t-1) ... (t-j+1)
    for j in range(size):
        scale = math.factorial(lhat) // math.factorial(j)
        for t in range(j + 1):
            weight = scale * (-1) ** (j - t) * math.comb(j, t)
            for k, s in enumerate(falling):
                out[k][t] += weight * s
        falling = [0] + falling
        for k in range(len(falling) - 1):
            falling[k] -= j * falling[k + 1]
    return tuple(map(tuple, out))


def trivariate_detpoly(a: Matrix, block: BlockSpec) -> CTensor:
    """Squared-minor sums of a + J_B/l after the block's all-ones row and
    column directions are split off, J_B the all-ones block of size l.

    C[k'][p][q] is the coefficient of lam**(m-k') t_r**p t_c**q in
    det(lam I + X) with X = Abar^T R Abar S, Abar = a + J_B/l,
    R = I + (t_r-1)(D_r - J_r/l) and S = I + (t_c-1)(D_c - J_c/l), where
    D and J are the identity and all-ones on the block rows (r) and
    columns (c).  A reflector H sending the all-ones direction to a
    coordinate satisfies H (D - e e^T) H = D - J/l, so this is the
    polynomial of the reflected matrix with t_r, t_c on the l_hat = l - 1
    reduced block rows and columns; no reflection is needed to get it.

    Scaled by l, everything is integral: with Ahat = l a + J_B and
    P = l D - J, l^4 X = l M + (t_c-1) M P_c for M = l G0 + (t_r-1) G1,
    G0 = Ahat^T Ahat and G1 = Ahat^T P_r Ahat = l Ahat_r^T Ahat_r - s^T s,
    where Ahat_r is Ahat's block rows and s their sum.  Right
    multiplication by P_c is l times the block columns minus each row's
    sum over them, so the only matrix products are the two Grams.
    For each t_r the grid matrix -(l^4 X) at t_c = 0 is built once, and
    each step to t_c + 1 subtracts M P_c.  Integer Berkowitz runs at every
    (t_r, t_c) in {0..l_hat}^2, and integer interpolation through the
    cached ``_interp_matrix`` yields each C's numerator over
    l^(4k') l_hat!^2; nothing here leaves the integers.  An empty block
    gives the plain Gram's sums at l_hat = 0.
    """
    if not a.is_square:
        raise ValueError("square matrix required")
    if any(not isinstance(x, int) for row in a.entries for x in row):
        raise ValueError("trivariate_detpoly needs an integer matrix")
    m = a.nrows
    l = max(block.size, 1)
    lhat = l - 1
    rows, cols = set(block.rows), set(block.cols)
    ahat_cols = [
        [l * a.entries[i][j] + (1 if i in rows and j in cols else 0) for i in range(m)]
        for j in range(m)
    ]
    g0 = [[sum(map(mul, ci, cj)) for cj in ahat_cols] for ci in ahat_cols]
    # G1 = l Ahat_r^T Ahat_r - s^T s, Ahat_r the block rows and s their sum
    ahat_r_cols = [[col[i] for i in block.rows] for col in ahat_cols]
    s = [sum(col) for col in ahat_r_cols]
    g1 = [
        [l * sum(map(mul, ahat_r_cols[i], ahat_r_cols[j])) - s[i] * s[j] for j in range(m)]
        for i in range(m)
    ]

    def centered(g):
        # g (l D_c - J_c): l g on the block columns minus the row's sum over them
        out = []
        for row in g:
            total = sum(row[j] for j in block.cols)
            out.append([l * x - total if j in cols else 0 for j, x in enumerate(row)])
        return out

    span = range(lhat + 1)
    grid = [[[0] * (lhat + 1) for _ in span] for _ in range(m + 1)]  # [lam power][t_r][t_c]
    for tr in span:
        big_m = [[l * x + (tr - 1) * y for x, y in zip(r0, r1)] for r0, r1 in zip(g0, g1)]
        step = centered(big_m)
        # -(l^4 X) at t_c = 0, so that charpoly yields det(lam I + l^4 X)
        neg = [[y - l * x for x, y in zip(rm, rs)] for rm, rs in zip(big_m, step)]
        for tc in span:
            if tc:
                neg = [[x - y for x, y in zip(rn, rs)] for rn, rs in zip(neg, step)]
            for i, c in enumerate(charpoly(Matrix(neg)).coeffs):
                grid[i][tr][tc] = c

    interp = _interp_matrix(lhat)
    nums = []
    for kprime in range(m + 1):
        # l^(4k') lhat!^2 C = I V I^T, I = interp and V the grid of lam**(m-k')
        mv = [[sum(map(mul, ip, col)) for col in zip(*grid[m - kprime])] for ip in interp]
        # tuples from lists, not generators: a generator's tuple is allocated
        # oversized and shrunk, which showed as about 0.5 MB more peak RSS
        plane = [tuple([sum(map(mul, row, iq)) for iq in interp]) for row in mv]
        nums.append(tuple(plane))
    return CTensor(m, lhat, tuple(nums))
