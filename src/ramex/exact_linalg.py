"""Exact dense linear algebra over the integers and rationals.

Provides the Berkowitz (division-free) characteristic polynomial and the
squared-minor tensor of a fixed integer matrix plus a random block
permutation, computed by integer evaluation on the grid {0..l_hat}^2 and
integer interpolation, with one rational division per coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
        rows = tuple(tuple(r) for r in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
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
                tuple(_dot(row, col) for col in cols)
                for row in self.entries
            )
        )


def _dot(xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


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
    """
    if not matrix.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.nrows
    a = matrix.entries
    coeffs = [1]  # descending; charpoly of the empty matrix
    for k in range(1, n + 1):
        corner = a[k - 1][k - 1]
        row = [a[k - 1][j] for j in range(k - 1)]
        col = [a[i][k - 1] for i in range(k - 1)]
        # Toeplitz sequence: t0 = 1, t1 = -corner, t_i = -(row . A^(i-2) . col)
        t = [1, -corner]
        vec = col
        for i in range(2, k + 1):
            t.append(-_dot(row, vec))
            if i < k:
                vec = [_dot(a[r][: k - 1], vec) for r in range(k - 1)]
        new = []
        for i in range(k + 1):
            acc = 0
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                cj = coeffs[j]
                if cj:
                    acc = acc + t[i - j] * cj
            new.append(acc)
        coeffs = new
    return UniPoly(tuple(reversed(coeffs)))


@dataclass(frozen=True)
class CTensor:
    """Squared-minor sums C[k'][p][q] of the block-reduced matrix, indexed
    by minor size k' and row/column overlap (p, q) with the reduced block.

    All entries are exact nonnegative rationals; C[0][0][0] == 1.
    """

    m: int
    lhat: int
    values: tuple

    def __post_init__(self):
        if self.values[0][0][0] != 1:
            raise _violation(f"C[0][0][0] = {self.values[0][0][0]}, expected 1")

    def get(self, kprime: int, p: int, q: int) -> Fraction:
        return self.values[kprime][p][q]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "lhat": self.lhat,
            "values": [
                [[rational_to_str(c) for c in row] for row in plane] for plane in self.values
            ],
        }


def _interp_matrix(lhat: int) -> list[list[int]]:
    """Integer M with lhat! * f_k = sum_t M[k][t] f(t) for every polynomial
    f = sum_k f_k t^k of degree <= lhat.

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
    return out


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
    P = l D - J, l^4 X = l^2 G0 + l (t_c-1) G0 P_c + l (t_r-1) G1
    + (t_r-1)(t_c-1) G1 P_c for G0 = Ahat^T Ahat and G1 = Ahat^T P_r Ahat
    = l Ahat_r^T Ahat_r - s^T s, where Ahat_r is Ahat's block rows and s
    their sum.  Right multiplication by P_c is l times the block columns
    minus each row's sum over them, so the only matrix products are the
    two Grams.
    Integer Berkowitz runs at every (t_r, t_c) in {0..l_hat}^2, integer
    interpolation recovers l_hat!^2 times each coefficient, and one exact
    division per coefficient by l^(4k') l_hat!^2 yields C.  An empty block
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
    ahat = Matrix(
        tuple(
            tuple(
                l * x + (1 if i in rows and j in cols else 0) for j, x in enumerate(row)
            )
            for i, row in enumerate(a.entries)
        )
    )
    g0 = (ahat.transpose() @ ahat).entries
    # G1 = l Ahat_r^T Ahat_r - s^T s, Ahat_r the block rows and s their sum
    ahat_r_cols = [[ahat.entries[i][j] for i in block.rows] for j in range(m)]
    s = [sum(col) for col in ahat_r_cols]
    g1 = [
        [l * _dot(ahat_r_cols[i], ahat_r_cols[j]) - s[i] * s[j] for j in range(m)]
        for i in range(m)
    ]

    def centered(g):
        # g (l D_c - J_c): l g on the block columns minus the row's sum over them
        out = []
        for row in g:
            total = sum(row[j] for j in block.cols)
            out.append([l * x - total if j in cols else 0 for j, x in enumerate(row)])
        return out

    terms = [[cell for row in g for cell in row] for g in (g0, centered(g0), g1, centered(g1))]

    grid = {}
    for tr in range(lhat + 1):
        for tc in range(lhat + 1):
            # -(l^4 X), so that charpoly yields det(lam I + l^4 X)
            weights = (-l * l, -l * (tc - 1), -l * (tr - 1), -(tr - 1) * (tc - 1))
            flat = [sum(w * x for w, x in zip(weights, cells)) for cells in zip(*terms)]
            neg = Matrix(tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(m)))
            grid[tr, tc] = charpoly(neg)

    interp = _interp_matrix(lhat)
    span = range(lhat + 1)
    fact_sq = math.factorial(lhat) ** 2
    values = []
    for kprime in range(m + 1):
        i = m - kprime
        # lhat!^2 coefficients = M V M^T, V the grid of lam**i coefficients
        mv = [
            [sum(interp[p][tr] * grid[tr, tc].coeff(i) for tr in span) for tc in span]
            for p in span
        ]
        denom = l ** (4 * kprime) * fact_sq
        plane = []
        for p in span:
            row = []
            for q in span:
                c = Fraction(sum(mv[p][tc] * interp[q][tc] for tc in span), denom)
                if c < 0:
                    raise _violation(
                        f"negative squared-minor sum C[{kprime}][{p}][{q}] = {c}"
                    )
                row.append(c)
            plane.append(tuple(row))
        values.append(tuple(plane))
    return CTensor(m, lhat, tuple(values))
