"""Exact dense linear algebra over the integers.

``Matrix`` is a square integer matrix by construction, so the functions
that take one never check its shape or entries.

Provides the exact characteristic polynomial of one integer matrix and the
squared-minor tensor of a fixed integer matrix plus a random block
permutation, whose rational sums are integer numerators over known
denominators.  ``charpoly`` reduces the matrix to Hessenberg form modulo
one Mersenne prime above twice Hadamard's bound on its coefficients, in
pure Python.  The tensor comes from characteristic polynomials on the grid
{0..l_hat}^2 and interpolation by the inverse Vandermonde matrix, all on
int64 residues of the fixed matrix modulo word-size primes in one numpy
batch, Grams included, with Berkowitz's recurrence; its integer
numerators, the coefficients of an integer polynomial over one power of l
per minor size, are rebuilt exactly by the Chinese remainder
theorem from enough primes for a bound taken from the trace of the fixed
matrix's Gram alone.  Only constant tables (interpolation residues, CRT
bases) are cached.  ``charpoly`` is the independent reference for the
batched kernel and serves certification, which never depends on the
modular batch: numpy is imported inside the functions that run the batch,
so certification never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact_algebra import InvariantViolation, TooLarge, UniPoly, rational_to_str


class RationalityViolation(InvariantViolation):
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
    """Immutable square integer matrix, stored as tuples of rows: building
    one raises ValueError unless each row is as long as there are rows and
    each entry is an int, so no function that takes a Matrix checks either."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("a matrix must be square")
        if any(not isinstance(x, int) for row in rows for x in row):
            raise ValueError("a matrix must have integer entries")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)


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


# Exponents e of the Mersenne primes 2^e - 1 up to 2^4423 - 1, a literal
# table so that importing computes nothing; a test proves each one prime.
# Every d = 3 certify Gram up to m = 1024 needs at most e = 4253.
_MERSENNE_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
)


class CoefficientsTooLarge(TooLarge):
    """The charpoly's coefficient bound exceeds half the largest Mersenne
    prime in the table, so no modulus there makes the result exact."""


def _mersenne_prime_above(bound_sq: int) -> int:
    """The smallest table Mersenne prime p with p > 2 sqrt(bound_sq)."""
    for e in _MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p * p > 4 * bound_sq:
            return p
    raise CoefficientsTooLarge(
        f"a {bound_sq.bit_length() // 2}-bit characteristic polynomial coefficient bound "
        f"exceeds the largest modulus, 2^{_MERSENNE_EXPONENTS[-1]} - 1"
    )


def charpoly(matrix: Matrix) -> UniPoly:
    """det(xI - M), exact and monic.

    It is computed modulo one Mersenne prime p, by reduction to upper
    Hessenberg form (pivot on the first nonzero entry below the
    subdiagonal, inverses mod p) and the Hessenberg recurrence (Cohen,
    Alg. 2.2.9), in O(m^3) operations.  p is exact, not probabilistic: the
    coefficient of x^(m-k) is -+ e_k, a sum of C(m, k) principal minors,
    each at most R^k by Hadamard's inequality with R the largest row norm,
    so p > 2 C(m, k) R^k for every k makes each coefficient its symmetric
    residue; the bound is compared squared, on integers.
    """
    m = matrix.nrows
    norm_sq = max((sum(x * x for x in row) for row in matrix.entries), default=0)
    p = _mersenne_prime_above(max(math.comb(m, k) ** 2 * norm_sq**k for k in range(m + 1)))
    h = [[x % p for x in row] for row in matrix.entries]
    # upper Hessenberg form by similarity: below the subdiagonal of column j
    for j in range(m - 2):
        pivot = next((i for i in range(j + 1, m) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[pivot], h[j + 1] = h[j + 1], h[pivot]
            for row in h:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        top = h[j + 1][j:]
        inverse = pow(top[0], -1, p)
        # row i -= u_i row (j+1), then column (j+1) += sum_i u_i column i
        factors = [h[i][j] * inverse % p for i in range(j + 2, m)]
        for i, u in enumerate(factors, j + 2):
            if u:
                h[i][j:] = [(x - u * y) % p for x, y in zip(h[i][j:], top)]
        if any(factors):
            for row in h:
                row[j + 1] = (row[j + 1] + sum(map(mul, factors, row[j + 2 :]))) % p
    # polys[k] = det(xI - H_k), H_k the leading k x k block, ascending, mod p:
    # polys[k+1] = (x - h_kk) polys[k]
    #     - sum_{i=1..k} h_(k-i),k h_(k-i+1),(k-i) ... h_k,(k-1) polys[k-i]
    polys = [[1]]
    for k in range(m):
        new = [0] + polys[k]
        for idx, c in enumerate(polys[k]):
            new[idx] -= h[k][k] * c
        product = 1
        for i in range(1, k + 1):
            product = product * h[k - i + 1][k - i] % p
            if not product:
                break
            factor = product * h[k - i][k] % p
            for idx, c in enumerate(polys[k - i]):
                new[idx] -= factor * c
        polys.append([c % p for c in new])
    return UniPoly(tuple(c - p if 2 * c > p else c for c in polys[m]))


@dataclass(frozen=True)
class CTensor:
    """Squared-minor sums C[k'][p][q] of the block-reduced matrix, indexed
    by minor size k' and row/column overlap (p, q) with the reduced block.

    Held as integer numerators nums[k'][p][q] over the one known
    denominator (l_hat+1)^(4k') of minor size k'.  Every C is an exact
    nonnegative rational and C[0][0][0] == 1; both are checked here, on the
    numerators.
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
        if self.nums[0][0][0] != 1:
            raise _violation(f"C[0][0][0] = {self.get(0, 0, 0)}, expected 1")

    def denominator(self, kprime: int) -> int:
        return (self.lhat + 1) ** (4 * kprime)

    def get(self, kprime: int, p: int, q: int) -> Fraction:
        return Fraction(self.nums[kprime][p][q], self.denominator(kprime))

    def to_json(self) -> dict:
        values = []
        for k, plane in enumerate(self.nums):
            den = self.denominator(k)
            values.append([[rational_to_str(Fraction(num, den)) for num in row] for row in plane])
        return {"m": self.m, "lhat": self.lhat, "values": values}


# The largest 96 primes below 2^29, a literal table so that importing
# computes nothing.  Residues stay below p < 2^29, so a dot product of at
# most MAX_GRID_M products stays below 32 (p - 1)^2 < 2^63: every int64 sum
# in the batch is exact before it is reduced.  Their product exceeds 2^2783.
_PRIMES = (
    536870909, 536870879, 536870869, 536870849, 536870839, 536870837, 536870819, 536870813,
    536870791, 536870779, 536870767, 536870743, 536870729, 536870723, 536870717, 536870701,
    536870683, 536870657, 536870641, 536870627, 536870611, 536870603, 536870599, 536870573,
    536870569, 536870563, 536870561, 536870513, 536870501, 536870497, 536870473, 536870401,
    536870363, 536870317, 536870303, 536870297, 536870273, 536870267, 536870239, 536870233,
    536870219, 536870171, 536870167, 536870153, 536870123, 536870063, 536870057, 536870041,
    536870027, 536869999, 536869951, 536869943, 536869937, 536869919, 536869901, 536869891,
    536869831, 536869829, 536869793, 536869787, 536869777, 536869771, 536869769, 536869747,
    536869693, 536869679, 536869651, 536869637, 536869633, 536869631, 536869607, 536869603,
    536869589, 536869583, 536869573, 536869559, 536869549, 536869523, 536869483, 536869471,
    536869447, 536869423, 536869409, 536869387, 536869331, 536869283, 536869247, 536869217,
    536869189, 536869159, 536869153, 536869117, 536869097, 536869043, 536868979, 536868977,
)

MAX_GRID_M = 32


class GridTooLarge(TooLarge):
    """The batched grid cannot be exact for this matrix: m exceeds
    MAX_GRID_M, so an int64 dot product of residues could overflow, or the
    coefficient bound exceeds half the product of every prime in the table.
    """


def check_grid_size(m: int) -> None:
    """Raise GridTooLarge unless the batched grid holds an m x m matrix."""
    if m > MAX_GRID_M:
        raise GridTooLarge(f"the batched grid holds m <= {MAX_GRID_M}, got m = {m}")


def _primes_for(bound: int):
    """The fewest leading table primes whose product exceeds 2 * bound, so
    that every integer of absolute value at most bound is its symmetric
    residue modulo that product; an int64 array."""
    import numpy as np

    modulus, count = 1, 0
    while modulus <= 2 * bound:
        if count == len(_PRIMES):
            raise GridTooLarge(f"a {bound.bit_length()}-bit bound exceeds the prime table")
        modulus *= _PRIMES[count]
        count += 1
    return np.array(_PRIMES[:count], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _interp_residues(lhat: int):
    """W = V^-1 mod every table prime, V[t][k] = t^k on the points 0..lhat:
    f_k = sum_t W[k][t] f(t) mod p for every polynomial f = sum_k f_k t^k
    of degree <= lhat.  Read-only int64, cached.

    Lagrange's basis: column t is prod_{s != t} (x - s), P = prod_s (x - s)
    divided by x - t, over prod_{s != t} (t - s) = (-1)^(lhat-t) t! (lhat-t)!,
    a unit mod p: one inverse per (prime, t), residue products below 2^58.
    """
    import numpy as np

    size = lhat + 1
    poly = [1]  # ascending coefficients of P
    for s in range(size):
        poly = [a - s * b for a, b in zip([0] + poly, poly + [0])]
    primes = np.array(_PRIMES, dtype=np.int64).reshape(-1, 1)
    residues = np.array([[c % p for c in poly] for p in _PRIMES], dtype=np.int64)
    out = np.empty((len(_PRIMES), size, size), dtype=np.int64)
    quotient, t = 0, np.arange(size)
    for k in range(size, 0, -1):  # [x^(k-1)] P/(x - t) = [x^k] P + t [x^k] P/(x - t)
        out[:, k - 1] = quotient = (residues[:, k : k + 1] + t * quotient) % primes
    dens = [(-1) ** (lhat - i) * math.factorial(i) * math.factorial(lhat - i) for i in range(size)]
    inverse = np.array([[pow(d, -1, p) for d in dens] for p in _PRIMES], dtype=np.int64)
    out = out * inverse[:, None] % primes[:, None]
    out.flags.writeable = False
    return out


def _berkowitz_mod(mats, primes):
    """Descending coefficients of det(x I - M) mod p for a batch of int64
    residue matrices of shape (r, g, m, m), the prime of row i of the batch
    being primes[i]; the result has shape (r, g, m + 1).

    The division-free Berkowitz recurrence, batched: no pivot and no
    inverse mod p, so one code path serves every matrix of the batch.
    ``charpoly``, by Hessenberg reduction, is its independent reference.
    At step k one matmul per power gives the next mat-vec of the leading
    block and the Toeplitz entry of the row below it, and the coefficients
    are multiplied by the lower-triangular Toeplitz matrix, gathered from
    the entries.  Every product is reduced mod p before the next one, and
    no dot product is longer than m <= MAX_GRID_M.
    """
    import numpy as np

    r, g, m, _ = mats.shape
    p = primes.reshape(r, 1, 1)
    coeffs = np.ones((r, g, 1), dtype=np.int64)
    # toeplitz[i][j] = max(i - j, 0): index 0 reads u_0 = 0 on and above the diagonal
    toeplitz = np.maximum(np.subtract.outer(np.arange(m + 1), np.arange(m)), 0)
    for k in range(1, m + 1):
        top = mats[:, :, :k, : k - 1]  # the leading (k-1) x (k-1) block and the row below
        vec = mats[:, :, : k - 1, k - 1 : k]
        # t = (1, -u_1, ..., -u_k): u_1 = a[k-1][k-1], u_i = row . lead^(i-2) . col
        u = np.zeros((r, g, k + 1), dtype=np.int64)
        u[..., 1] = mats[:, :, k - 1, k - 1]
        for i in range(2, k + 1):
            prod = top @ vec % p[..., None]
            u[..., i] = prod[..., k - 1, 0]
            vec = prod[..., : k - 1, :]
        # new_i = c_i - sum_{j < i} u_(i-j) c_j
        shifted = -(u[..., toeplitz[: k + 1, :k]] @ coeffs[..., None])[..., 0]
        shifted[..., :k] += coeffs
        coeffs = shifted % p
    return coeffs


@functools.lru_cache(maxsize=None)
def _crt_basis(count: int) -> tuple:
    """M and the cofactors (M/p_i) ((M/p_i)^-1 mod p_i) of the first count primes; cached."""
    modulus = math.prod(_PRIMES[:count])
    return modulus, tuple(modulus // p * pow(modulus // p, -1, p) for p in _PRIMES[:count])


def _crt(residues):
    """Signed ints, as an object array, from residues (r, N) mod the first r
    table primes: the textbook CRT sum mod M, folded to 2|x| < M."""
    import numpy as np

    modulus, basis = _crt_basis(len(residues))
    value = np.array(basis, dtype=object) @ residues.astype(object) % modulus
    return np.where(value > modulus // 2, value - modulus, value)


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
    P = l D - J, l^4 X = l L + (t_c-1) L P_c for L = l G0 + (t_r-1) G1,
    G0 = Ahat^T Ahat and G1 = Ahat^T P_r Ahat = l Ahat_r^T Ahat_r - s^T s,
    where Ahat_r is Ahat's block rows and s their sum.  Right
    multiplication by P_c is l times the block columns minus each row's
    sum over them, so the only matrix products are the two Grams.

    Only Ahat and its trace are exact: Ahat is reduced once mod each
    word-size prime by Python's %, and the rest is int64 residues in one
    numpy batch: batched Gram matmuls, then one broadcast of L over t_r and
    of L P_c over t_c for the grid matrices -(l^4 X) over {0..l_hat}^2,
    each value below 2^46 before its reduction mod p.  Batched Berkowitz
    (``_berkowitz_mod``) and interpolation by W = V^-1 mod p
    (``_interp_residues``) give each C's numerator over l^(4k'), the
    integer coefficient of lam**(m-k') t_r**p t_c**q in det(lam I + l^4 X),
    as W V W^T mod p, V the grid of a coefficient, and the CRT (``_crt``)
    rebuilds them exactly.  Only W and the CRT basis are cached, never
    anything of a matrix.  The primes are exact, not probabilistic: each
    numerator is a sum of squared minors, so >= 0, and at t_r = t_c = 1
    (R = S = I) plane k' sums to e_k'(Abar^T Abar), so its numerators sum
    to l^(2k') e_k'(G0).  G0 is positive semidefinite, so by
    Maclaurin's inequality e_k'(G0) <= C(m, k') (tr G0 / m)^k', with
    tr G0 = sum Ahat^2; enough primes are taken for twice the largest
    plane bound, rounded up to an integer.  ``CTensor`` checks the exact
    numerators for sign and C[0][0][0].  An empty block gives the plain
    Gram's sums at l_hat = 0; an out-of-range index raises ValueError.
    """
    import numpy as np

    m = a.nrows
    if any(i >= m for i in block.rows + block.cols):
        raise ValueError(f"block index outside the {m} x {m} matrix")
    check_grid_size(m)
    l = max(block.size, 1)
    lhat = l - 1
    rows, cols = list(block.rows), list(block.cols)
    ahat = [[l * x for x in row] for row in a.entries]  # Ahat = l a + J_B, exact
    for i in rows:
        for j in cols:
            ahat[i][j] += 1
    # numerator plane k sums to at most l^(2k) C(m, k) (tr G0 / m)^k
    trace = sum(x * x for row in ahat for x in row)
    bound = max(l ** (2 * k) * math.comb(m, k) * -(-(trace**k) // m**k) for k in range(m + 1))
    primes = _primes_for(bound)

    r, side = len(primes), lhat + 1
    p = primes.reshape(r, 1, 1)
    res = np.array([[x % q for row in ahat for x in row] for q in primes.tolist()], dtype=np.int64)
    res = res.reshape(r, m, m)
    res_r = res[:, rows]
    s = res_r.sum(axis=1) % p[:, 0]
    g0 = res.transpose(0, 2, 1) @ res % p
    g1 = (l * (res_r.transpose(0, 2, 1) @ res_r % p) - s[:, :, None] * s[:, None, :]) % p
    t = np.arange(-1, lhat).reshape(-1, 1, 1)  # t - 1 for t in 0..l_hat
    big_l = l * g0[:, None] + t * g1[:, None]  # L(t_r), unreduced
    # L P_c: l L on the block columns less each row's sum over them
    l_pc = np.zeros_like(big_l)
    l_pc[..., cols] = l * big_l[..., cols] - big_l[..., cols].sum(axis=-1, keepdims=True)
    # grid[prime][t_r][t_c] = -(l L + (t_c-1) L P_c)
    grid = -(l * big_l[:, :, None] + t * l_pc[:, :, None]) % p[:, None, None]
    coeffs = _berkowitz_mod(grid.reshape(r, side * side, m, m), primes)
    # l^(4k') C = W V W^T, V the grid of lam**(m-k') and W = V^-1, all mod p
    values = coeffs.reshape(r, side, side, m + 1).transpose(0, 3, 1, 2)
    weights = _interp_residues(lhat)[:r, None]
    nums = (weights @ values % p[:, None]) @ weights.transpose(0, 1, 3, 2) % p[:, None]
    exact = _crt(nums.reshape(r, -1)).reshape(m + 1, side, side)
    # tuples from lists, not generators: a generator's tuple is allocated
    # oversized and shrunk, which showed as about 0.5 MB more peak RSS
    nums = tuple([tuple([tuple(row) for row in plane]) for plane in exact.tolist()])
    return CTensor(m, lhat, nums)
