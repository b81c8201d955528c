"""Exact dense linear algebra over the integers.

``Matrix`` is a square integer matrix by construction and ``BlockSpec``
two ascending index tuples, for callers outside the walk
(``fixed_plus_random_block_expected``, the oracle).  The grid takes an
(m, m) int64 or object array and the block's two index lists, which
``trivariate_detpoly`` checks once, so a walk node reaches it as the int64
counts ``half_adjacency`` builds, with no Matrix, BlockSpec or object
array on the way.

Provides the exact characteristic polynomial of one integer matrix and the
squared-minor tensor of a fixed integer matrix plus a random block
permutation, whose rational sums are integer numerators over known
denominators.

Both can run on int64 residues modulo the leading primes of one literal
table of word-size primes, as many as a bound on the result needs, and
rebuild each integer by the Chinese remainder theorem; the tensor runs on
the 2^64 word instead when its bound allows.  ``charpoly_coeffs`` takes
an int64 or object array, reduces it modulo every prime by one broadcast
% (``_residues``) and to Hessenberg form in one numpy batch
(``_hessenberg_charpoly``), with as many primes as twice a bound its
caller gives needs.  Both bounds, certify's and the grid's, come from
``trace_bound``: Maclaurin's bound on the characteristic polynomial of a
positive semidefinite matrix from its trace, the whole Gram's for
certify, which runs the kernel on the deflated (m-1) x (m-1) block, and
the fixed matrix's Gram's for the grid.  A bound past the whole table
raises ``CoefficientsTooLarge``, for the grid as for the characteristic
polynomial.

The tensor comes from characteristic polynomials on the grid
{0..l_hat}^2 and interpolation by the inverse Vandermonde matrix, in one
numpy batch (``_grid``): one matmul gives a basis of four Grams, one
more with a cached table of coefficients gives every grid matrix,
Berkowitz's division-free recurrence their characteristic polynomials,
and two more the interpolated residues, one row per modulus.  When the
scaled fixed matrix has all row and column sums equal, as on every walk
node, every grid matrix has the all-ones eigenvector, and that factor is
split off once, here: Berkowitz runs on (m-1) x (m-1) matrices and the
tensor stores the complement.  The stored integer numerators over
l^(2k') for minor size k' are bounded from the trace of the fixed
matrix's Gram alone.  ``trivariate_detpoly`` alone reads that bound: it
picks the modulus of the one grid pipeline and rebuilds the numerators
from its rows.  The modulus is 2^64 when 2 4^v times the bound is below
2^64, v = v2(l_hat!), on uint64 words reduced by wrap-around alone, with
2^v V^-1, whose denominators are odd: the word's one row holds 4^v times
each numerator, whose low 2v bits must be zero and are shifted off.
``_interp`` reads v from the modulus: v2(l_hat!) on 2^64 and 0 on a
prime.
Otherwise it is enough word-size primes, one int64 row each, rebuilt by
the Chinese remainder theorem.  Both kernels take their input by
``_residues`` and reduce every product by ``_matmul_mod``, which sums in
chunks modulo a prime and wraps on the word.  Only constant tables
are cached: grid coefficients, Berkowitz's gather indices per size, CRT
bases and interpolation matrices, the latter built by one function per
(l_hat, modulus), 2^64 or one prime, for the moduli a grid reads and no
others.  ``charpoly_coeffs``, by Hessenberg reduction with per-prime
pivots, is the independent reference for the grid's division-free
Berkowitz batch; the two share only the prime table and the CRT.  numpy
is imported inside the functions that run a batch, so importing the
module never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import lt

from .exact_algebra import InvariantViolation, TooLarge, UniPoly, rational_to_str


class RationalityViolation(InvariantViolation):
    """A squared-minor sum that must be a nonnegative rational was not.

    The coefficients of the trivariate determinant polynomial are sums of
    squared minors, so each must come out nonnegative, and plane 0 must be
    the unit plane; anything else is a hard implementation error.
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
        if set(map(len, rows)) - {len(rows)}:
            raise ValueError("a matrix must be square")
        if not all(map(isinstance, chain.from_iterable(rows), repeat(int))):
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
            if not all(map(lt, idx, idx[1:])) or min(idx, default=0) < 0:
                raise ValueError("block indices must be distinct, ascending, nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def size(self) -> int:
        return len(self.rows)


class CoefficientsTooLarge(TooLarge):
    """A bound on exact integers, a characteristic polynomial's
    coefficients or the grid's numerators, exceeds half the product of
    every prime in the table, so no modulus the table gives makes them
    exact."""


def trace_bound(n: int, trace: int) -> int:
    """Maclaurin's bound on every elementary symmetric function e_k of n
    nonnegative reals that sum to trace: e_k <= C(n, k) (trace/n)^k, so an
    integer e_k is at most C(n, k) ceil(trace^k / n^k).  The largest of
    these over k = 0..n (1 at n = 0) bounds every coefficient of the
    characteristic polynomial of a positive semidefinite matrix with n rows
    and that trace, whose coefficient of x^(n-k) is -+ e_k of its
    eigenvalues."""
    return max(math.comb(n, k) * -(-(trace**k) // n**k) for k in range(n + 1))


def _matmul_mod(x, y, p):
    """x @ y mod p for int64 batches of residues above -p and below p, p
    broadcast against the product, which is reduced below p: every dot
    product is summed in chunks of at most _CHUNK products, each chunk's
    sum, below _CHUNK (p-1)^2 < 2^63, reduced below p before it is added
    to the reduced sum of the chunks before it, so no int64 sum overflows
    however long the dot product or large the grid.  Given p None, x @ y of
    uint64 words, which wraps modulo 2^64 and needs no reduction."""
    if p is None:
        return x @ y
    width, size = _CHUNK, x.shape[-1]
    out = x @ y if size <= width else x[..., :width] @ y[..., :width, :]
    out %= p
    for start in range(width, size, width):
        out += x[..., start : start + width] @ y[..., start : start + width, :] % p
        out %= p
    return out


def _residues(mat, primes):
    """An integer matrix, an (m, m) int64 or object array, by one broadcast
    %: mod 2^64 as an (m, m) uint64 array given no primes, an int64
    array's own words read as uint64 (two's complement is the residue mod
    2^64) and an object array by Python's % (int64 cannot hold 2^64), else
    mod each of primes as an (r, m, m) int64 array."""
    import numpy as np

    if primes is None:
        return mat.view(np.uint64) if mat.dtype == np.int64 else (mat % _WORD).astype(np.uint64)
    return (mat % primes.reshape(-1, 1, 1)).astype(np.int64, copy=False)


def _hessenberg_charpoly(mats, primes):
    """Ascending coefficients of det(x I - M) mod p, an (r, m + 1) array,
    for an (r, m, m) int64 batch of residues below p, the prime of row i of
    the batch being primes[i] (each below 2^29); mats is reduced in place
    to an upper Hessenberg matrix H similar to M mod p.

    Hessenberg reduction (Cohen, Alg. 2.2.9), column by column: the first
    entry of column j below the diagonal that is nonzero mod p is swapped
    to the subdiagonal, rows and columns both; row i -= u_i row (j+1)
    clears the entries below it, u_i = h[i][j] / h[j+1][j], and column
    (j+1) += sum_i u_i column i completes the similarity.  Its exactness
    rules, on every row of the batch:
    - The pivot is chosen per prime.  An entry can vanish modulo one prime
      only, so different rows of the batch can swap different rows and
      columns, or none.
    - A prime with no pivot in column j skips that column: its factors
      are 0.
    - The inverse of each pivot is ``pow(t, -1, p)``, for each prime.
    - Every product is reduced below p < 2^29 before the next one, so
      every entry is below p at every step.
    - Every dot product is summed in chunks of at most _CHUNK products
      (``_matmul_mod``), so no int64 sum overflows at any m.
    Then the Hessenberg recurrence over H's leading blocks H_k:

        det(xI - H_(k+1)) = x det(xI - H_k) - sum_(s <= k) w_s det(xI - H_s),

    w_s = h[s][k] h[s+1][s] ... h[k][k-1]: the suffix products of the
    subdiagonal are kept for s < k and multiplied by the new subdiagonal
    entry h[k][k-1] at each step, and the sum is one chunked product of
    the weights with the coefficients of det(xI - H_s), s = 0..k, in
    O(m^3) multiplications overall.
    """
    import numpy as np

    r, m = mats.shape[:2]
    p = primes.reshape(r, 1)
    batch = np.arange(r)[:, None]
    for j in range(m - 2):
        if not mats[:, j + 1, j].all():
            pivot = j + 1 + (mats[:, j + 1 :, j] != 0).argmax(axis=1)  # j + 1 when none
            pair = np.stack([pivot, np.full(r, j + 1)], axis=1)  # swap rows, then columns
            mats[batch, pair] = mats[batch, pair[:, ::-1]]
            mats[batch, :, pair] = mats[batch, :, pair[:, ::-1]]
        top = mats[:, j + 1, j:]
        inverse = [pow(t, -1, q) if t else 0 for t, q in zip(top[:, 0].tolist(), primes.tolist())]
        factors = mats[:, j + 2 :, j] * np.array(inverse, dtype=np.int64)[:, None] % p
        mats[:, j + 2 :, j:] -= factors[:, :, None] * top[:, None, :]
        mats[:, j + 2 :, j:] %= p[..., None]
        column = _matmul_mod(mats[:, :, j + 2 :], factors[:, :, None], p[..., None])
        mats[:, :, j + 1] = (mats[:, :, j + 1] + column[..., 0]) % p
    # coeffs[:, s, i] is [x^i] det(xI - H_s); suffix[:, s] is h[s+1][s] ... h[k][k-1]
    coeffs = np.zeros((r, m + 1, m + 1), dtype=np.int64)
    coeffs[:, 0, 0] = 1
    suffix = np.ones((r, m), dtype=np.int64)
    for k in range(m):
        if k:
            suffix[:, :k] = suffix[:, :k] * mats[:, k, k - 1, None] % p
        weights = mats[:, : k + 1, k] * suffix[:, : k + 1] % p
        total = _matmul_mod(weights[:, None, :], coeffs[:, : k + 1, : k + 1], p[..., None])
        coeffs[:, k + 1, 1 : k + 2] = coeffs[:, k, : k + 1]
        coeffs[:, k + 1, : k + 1] = (coeffs[:, k + 1, : k + 1] - total[:, 0]) % p
    return coeffs[:, m]


def charpoly_coeffs(mat, bound: int) -> list:
    """Ascending coefficients of det(xI - M), for M an (m, m) int64 or
    object array, exact when bound is at least every coefficient's size: M
    is reduced modulo each of the primes ``_primes_for`` takes for bound
    (``_residues``), ``_hessenberg_charpoly`` runs on the batch and ``_crt``
    rebuilds each coefficient.  The bound may come from another matrix:
    certify takes it from the Gram G, not from the deflated G' it passes
    here (its docstring says why)."""
    primes = _primes_for(bound)
    return _crt(_hessenberg_charpoly(_residues(mat, primes), primes)).tolist()


@dataclass(frozen=True)
class CTensor:
    """Squared-minor sums C[k'][p][q] of the block-reduced matrix, indexed
    by minor size k' and row/column overlap (p, q) with the reduced block.

    Stored as one flat tuple of integer numerators in (k', p, q) order, the
    order ``_grid`` produces and the engine's tables read: C[k'][p][q] sits
    at (k' (l_hat+1) + p)(l_hat+1) + q, over the one known denominator
    (l_hat+1)^(2k') of minor size k' (``trivariate_detpoly`` says why that
    is exact).  ``planes`` holds the whole tensor when sigma_sq is None,
    else the m planes of its complement of the all-ones factor
    lam + sigma_sq, which ``nums`` multiplies back; only ``to_json`` nests
    them.  Every stored C is an exact nonnegative rational, and plane 0,
    the coefficient of lam^m, is the unit plane: C[0][0][0] = 1 and every
    other C[0][p][q] = 0.  Both are checked here, so ``nums`` has them too.
    The unit plane makes the contracted Gram polynomial monic, so a node
    value, which contracts none, keeps that check.
    """

    m: int
    lhat: int
    planes: tuple
    sigma_sq: int | None = None

    def __post_init__(self):
        size = self.lhat + 1
        unit = (1,) + (0,) * (size * size - 1)
        if min(self.planes) < 0 or self.planes[: size * size] != unit:
            # one pass each; the loop only names the first bad cell
            for cell, num in enumerate(self.planes):
                kprime, p, q = cell // size**2, cell // size % size, cell % size
                if num < 0:
                    raise _violation(
                        f"negative squared-minor sum C[{kprime}][{p}][{q}] = "
                        f"{Fraction(num, self.denominator(kprime))}"
                    )
                if kprime == 0 and num != unit[cell]:
                    raise _violation(f"C[0][{p}][{q}] = {num}, expected {unit[cell]}")

    @functools.cached_property
    def nums(self) -> tuple:
        """The whole tensor's numerators, flat: plane k' + sigma_sq plane
        (k'-1) of the stored ones, the coefficients of (lam + sigma^2)
        times the complement's polynomial; the stored planes when nothing
        was split."""
        if self.sigma_sq is None:
            return self.planes
        zero = (0,) * (self.lhat + 1) ** 2
        return tuple(x + self.sigma_sq * y for x, y in zip(self.planes + zero, zero + self.planes))

    def denominator(self, kprime: int) -> int:
        return (self.lhat + 1) ** (2 * kprime)

    def to_json(self) -> dict:
        s, size = (self.lhat + 1) ** 2, self.lhat + 1
        values = []
        for k, start in enumerate(range(0, len(self.nums), s)):
            den = self.denominator(k)
            cells = [rational_to_str(Fraction(num, den)) for num in self.nums[start : start + s]]
            values.append([cells[i : i + size] for i in range(0, s, size)])
        return {"m": self.m, "lhat": self.lhat, "values": values}


# The largest 153 primes below 2^29, a literal table so that importing
# computes nothing.  Residues stay above -p and below p < 2^29, so a chunk
# of at most _CHUNK = 32 products stays below 32 (p - 1)^2 < 2^63: every
# int64 chunk sum of ``_matmul_mod``, the one reduced product of both
# kernels, is exact before it is reduced.  Their product exceeds 2^4423.
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
    536868973, 536868961, 536868953, 536868901, 536868863, 536868821, 536868811, 536868799,
    536868797, 536868781, 536868749, 536868743, 536868707, 536868697, 536868659, 536868649,
    536868623, 536868593, 536868589, 536868587, 536868583, 536868569, 536868547, 536868539,
    536868511, 536868467, 536868443, 536868433, 536868419, 536868407, 536868403, 536868379,
    536868377, 536868341, 536868289, 536868223, 536868221, 536868209, 536868197, 536868193,
    536868191, 536868181, 536868149, 536868107, 536868103, 536868091, 536868083, 536868071,
    536868067, 536868053, 536868019, 536867993, 536867941, 536867927, 536867917, 536867911,
    536867897,
)

_CHUNK = 32  # products per int64 sum in ``_matmul_mod``, set by the primes alone

MAX_GRID_M = 32

_WORD = 2**64  # the one-word grid's modulus: uint64 arithmetic wraps modulo it


class GridTooLarge(TooLarge):
    """The batched grid will not run this matrix: m exceeds MAX_GRID_M, a
    cap on its size alone (its sums are chunked by _CHUNK, which the
    primes set, so no int64 sum overflows past it)."""


def check_grid_size(m: int) -> None:
    """Raise GridTooLarge unless the batched grid holds an m x m matrix."""
    if m > MAX_GRID_M:
        raise GridTooLarge(f"the batched grid holds m <= {MAX_GRID_M}, got m = {m}")


def _primes_for(bound: int):
    """The fewest leading table primes whose product exceeds 2 * bound, so
    that every integer of absolute value at most bound is its symmetric
    residue modulo that product; an int64 array.  Past the whole table it
    raises CoefficientsTooLarge."""
    import numpy as np

    modulus, count = 1, 0
    while modulus <= 2 * bound:
        if count == len(_PRIMES):
            raise CoefficientsTooLarge(
                f"a {bound.bit_length()}-bit coefficient bound exceeds the largest modulus, "
                f"the product of the {len(_PRIMES)} table primes"
            )
        modulus *= _PRIMES[count]
        count += 1
    return np.array(_PRIMES[:count], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _interp(lhat: int, modulus: int):
    """2^v W mod modulus, W = V^-1, V[t][k] = t^k on the points 0..lhat:
    2^v f_k = sum_t out[k][t] f(t) mod modulus for every integer polynomial
    f = sum_k f_k t^k of degree <= lhat, with v = v2(lhat!) on 2^64 and
    v = 0 modulo a table prime.  W is Lagrange's basis, W[k][t] =
    nums[k][t] / dens[t] with nums[k][t] = [x^k] P/(x - t), P = prod_s
    (x - s), UniPoly's product of the linear factors, and dens[t] =
    prod_(s != t) (t - s) = (-1)^(lhat-t) t! (lhat-t)!, so lhat! W is the
    integer matrix nums[k][t] (-1)^(lhat-t) C(lhat, t), and 2^v W is that
    times one unit, (lhat!/2^v)^-1 mod modulus: odd on the word, prime to
    every table prime.  Read-only uint64 for 2^64 and int64 for a prime;
    cached, so a grid builds the tables of just the moduli it reads."""
    import numpy as np

    size = lhat + 1
    poly = math.prod((UniPoly((-s, 1)) for s in range(size)), start=UniPoly((1,))).coeffs
    nums = [[0] * size for _ in range(size)]
    for t in range(size):
        quotient = 0
        for k in range(size, 0, -1):  # [x^(k-1)] P/(x - t) = [x^k] P + t [x^k] P/(x - t)
            nums[k - 1][t] = quotient = poly[k] + t * quotient
    v = lhat - lhat.bit_count() if modulus == _WORD else 0  # v2(lhat!) on the word
    unit = pow(math.factorial(lhat) >> v, -1, modulus)
    scales = [(-1) ** (lhat - t) * math.comb(lhat, t) * unit for t in range(size)]
    dtype = np.uint64 if modulus == _WORD else np.int64
    out = np.array([[x * s % modulus for x, s in zip(row, scales)] for row in nums], dtype=dtype)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _toeplitz(m: int):
    """``_berkowitz_mod``'s gather indices for m x m matrices, an (m + 1, m)
    array: i - j on and below the diagonal, and -1, the last slot of the
    Toeplitz buffer, which holds 0, above it.  Step k reads its leading
    (k + 1, k) block.  Read-only int64; cached."""
    import numpy as np

    out = np.subtract.outer(np.arange(m + 1), np.arange(m))
    out[out < 0] = -1
    out.flags.writeable = False
    return out


def _berkowitz_mod(mats, primes):
    """Descending coefficients of det(x I - M) mod p for a batch of int64
    residue matrices of shape (r, g, m, m), the prime of row i of the batch
    being primes[i]; the result has shape (r, g, m + 1).  Given no primes,
    a uint64 batch, r = 1, is reduced modulo 2^64 by wrap-around alone.

    The division-free Berkowitz recurrence, batched: no pivot and no
    inverse, so one code path serves every matrix of the batch and every
    commutative ring, Z/2^64 too.  ``charpoly_coeffs``, by Hessenberg
    reduction, is its independent reference.
    One loop grows the leading block from 1 x 1, coefficients (1, -a[0][0])
    ((1) at m = 0, where the loop does not run), to m x m.  Step k takes
    the Toeplitz vector t = (1, -u_1, ..., -u_k) of the new row and column,
    -u_1 = -a[k-1][k-1] and -u_i = -row . lead^(i-2) . col, from the last
    entries of the Krylov vectors of the negated column -a[:k][k-1], one
    matmul per power with the leading (k-1) x (k-1) block and the row
    below it.  The coefficients become T c, T[i][j] = t[i-j]
    below and on the diagonal and 0 above it: one product with T gathered
    from t by the indices ``_toeplitz`` caches per m; t lives in one buffer
    with the 1 in slot 0 and a 0 in its last slot for every index above the
    diagonal.  Every product is ``_matmul_mod``'s: with primes it is
    reduced below p before the next one, and the first block's
    coefficients are reduced too, so the output is below p at every m; the
    negated column's entries are above -p, and every dot product is summed
    in chunks of at most _CHUNK products, so no int64 sum overflows at
    any m.  On the word the products wrap modulo 2^64.
    """
    import numpy as np

    r, g, m, _ = mats.shape
    p = None if primes is None else primes.reshape(r, 1, 1, 1)
    t = np.zeros((r, g, m + 2), dtype=mats.dtype)
    t[..., 0] = 1
    toeplitz = _toeplitz(m)
    # the leading 1 x 1 block's coefficients (1, -a[0][0]) as a column; (1) at m = 0
    coeffs = np.ones((r, g, min(m, 1) + 1, 1), dtype=mats.dtype)
    if m:
        coeffs[..., 1, 0] = -mats[..., 0, 0]
    if p is not None:
        coeffs %= p
    for k in range(2, m + 1):
        top = mats[:, :, :k, : k - 1]  # the leading (k-1) x (k-1) block and the row below
        vec = -mats[:, :, :k, k - 1 : k]
        t[..., 1] = vec[..., k - 1, 0]
        for i in range(2, k + 1):
            vec = _matmul_mod(top, vec[..., : k - 1, :], p)
            t[..., i] = vec[..., k - 1, 0]
        coeffs = _matmul_mod(t[..., toeplitz[: k + 1, :k]], coeffs, p)
    return coeffs[..., 0]


@functools.lru_cache(maxsize=None)
def _crt_basis(count: int) -> tuple:
    """M and the cofactors (M/p_i) ((M/p_i)^-1 mod p_i) of the first count primes; cached."""
    modulus = math.prod(_PRIMES[:count])
    return modulus, tuple(modulus // p * pow(modulus // p, -1, p) for p in _PRIMES[:count])


def _crt(residues):
    """Signed ints from residues (r, N) mod the first r table primes, folded
    to 2|x| < M, M their product: the sum of the residues times the
    cofactors, mod M, in object arrays."""
    import numpy as np

    modulus, basis = _crt_basis(len(residues))
    value = np.array(basis, dtype=object) @ residues.astype(object) % modulus
    return np.where(value > modulus // 2, value - modulus, value)


@functools.lru_cache(maxsize=None)
def _grid_table(l: int, dtype):
    """The grid matrices' coefficients in the integer basis (B0, B1, B2, B3)
    of ``trivariate_detpoly``: row l t_r + t_c is -(1, t_r-1, t_c-1,
    (t_r-1)(t_c-1)) for t_r, t_c in 0..l-1, every entry at most
    max(1, (l-2)^2) in size.  Read-only int64, or its uint64 view (mod 2^64)
    given dtype uint64; cached."""
    import numpy as np

    shift = np.arange(-1, l - 1)  # t - 1 for t in 0..l-1
    row, col = np.repeat(shift, l), np.tile(shift, l)  # t_r - 1 and t_c - 1
    out = -np.stack([np.ones(l * l, dtype=np.int64), row, col, row * col], axis=1)
    out = out.view(dtype)
    out.flags.writeable = False
    return out


def _grid(a, rows: list, cols: list, n: int, primes):
    """``trivariate_detpoly``'s interpolated residues, one row per modulus
    in (k', p, q) order, from one batch: given no primes a (1, N) uint64
    row modulo 2^64 of 4^v times each numerator, v = v2(l_hat!), else an
    (r, N) int64 array of the numerators, row i modulo primes[i].  The
    caller rebuilds the numerators.

    ``_residues`` takes a, an (m, m) int64 or object array, to either with
    no other conversion; the integer basis B0..B3 times
    ``_grid_table`` gives every grid matrix, ``_berkowitz_mod`` their
    coefficients and ``_interp`` on both sides the numerators, every
    product through ``_matmul_mod``.  The batch axes lead: (r, 4, m, m)
    for the operands of the basis (the word has no r axis until the
    table's product), then (r, l^2, n, n) and (r, n + 1, l, l)."""
    import numpy as np

    m, l = len(a), max(len(rows), 1)
    low = _residues(a, primes)
    r, p = (1, None) if primes is None else (len(primes), primes.reshape(-1, 1, 1, 1))
    in_r = np.zeros(m, dtype=low.dtype)
    in_c = np.zeros(m, dtype=low.dtype)
    in_r[rows] = in_c[cols] = 1
    in_r = in_r[:, None]  # a column, and in_r.T a row, for a batch of residues too
    # Ahat = l a + J_B, P_r a, a P_c twice: P_r a is l times a's block rows
    # less their sum, a P_c l times its block columns less each row's sum
    right = np.empty(low.shape[:-2] + (4, m, m), dtype=low.dtype)
    scaled = l * low
    right[..., 0, :, :] = scaled + in_r * in_c
    right[..., 1, :, :] = (scaled - in_r.T @ low) * in_r
    right[..., 2:, :, :] = ((scaled - (low @ in_c)[..., None]) * in_c)[..., None, :, :]
    if p is not None:
        right %= p
    # Ahat^T three times and (P_r a)^T, rows 1.. less row 0 when split
    left = right[..., [0, 0, 0, 1], :, :].swapaxes(-1, -2)
    if n < m:
        left = left[..., 1:, :] - left[..., :1, :]
    basis = _matmul_mod(left, right[..., m - n :], p)  # B0, B1, B2, B3
    grid = _matmul_mod(_grid_table(l, low.dtype), basis.reshape(r, 1, 4, n * n), p)
    coeffs = _berkowitz_mod(grid.reshape(r, l * l, n, n), primes)
    # 4^v l^(2k') C = (2^v W) V (2^v W)^T mod 2^64, or l^(2k') C = W V W^T
    # mod p, V the grid of lam**(n-k'): _interp reads v from the modulus
    values = coeffs.reshape(r, l, l, n + 1).transpose(0, 3, 1, 2)
    if primes is None:
        weights = _interp(l - 1, _WORD)
    else:
        weights = np.stack([_interp(l - 1, q) for q in primes.tolist()])[:, None]
    nums = _matmul_mod(_matmul_mod(weights, values, p), weights.swapaxes(-1, -2), p)
    return nums.reshape(r, -1)


def trivariate_detpoly(a, rows, cols) -> CTensor:
    """Squared-minor sums of a + J_B/l after the block's all-ones row and
    column directions are split off, J_B the all-ones block of size l; on
    equal line sums, stored as the complement of the all-ones factor.

    a is an (m, m) integer array, int64 (a walk node's counts, from
    ``half_adjacency``) or object for entries past int64, and goes to the
    grid as it is; rows and cols are the block's index lists (lists: numpy
    reads a tuple as one index per axis), checked once here: equally long,
    strictly ascending and within 0..m-1, else ValueError.

    C[k'][p][q] is the coefficient of lam**(m-k') t_r**p t_c**q in
    det(lam I + X) with X = Abar^T R Abar S, Abar = a + J_B/l,
    R = I + (t_r-1)(D_r - J_r/l) and S = I + (t_c-1)(D_c - J_c/l), where
    D and J are the identity and all-ones on the block rows (r) and
    columns (c).  A reflector H sending the all-ones direction to a
    coordinate satisfies H (D - e e^T) H = D - J/l, so this is the
    polynomial of the reflected matrix with t_r, t_c on the l_hat = l - 1
    reduced block rows and columns; no reflection is needed to get it.

    Scaled by l^2, X is an integer matrix.  With Ahat = l a + J_B, the
    projectors Pi = D - J/l and P = l Pi = l D - J: Pi_r J_B = J_B Pi_c = 0,
    so Pi_r Ahat = P_r a and Ahat Pi_c = a P_c are integer matrices, and

        l^2 X = Ahat^T R Ahat S = (Ahat + (t_r-1) P_r a)^T (Ahat + (t_c-1) a P_c).

    So C[k'][p][q] is an integer numerator over l^(2k'): the coefficient of
    lam**(m-k') t_r**p t_c**q in det(lam I + l^2 X).  P_r Ahat = l P_r a and
    Ahat P_c = l a P_c, so with the integer basis B0 = Ahat^T Ahat,
    B1 = Ahat^T (P_r a), B2 = Ahat^T (a P_c) and B3 = (P_r a)^T (a P_c),
    the grid matrix is

        M = -(l^2 X) = -(B0 + (t_r-1) B1 + (t_c-1) B2 + (t_r-1)(t_c-1) B3).

    P = l D - J multiplies as l times the block rows (on the left) or
    columns (on the right) less their sum.  Only Ahat, its line sums and
    its trace are exact Python ints, from a.tolist(), so none overflows
    whatever a holds; the grid is one numpy batch
    (``_grid``), and only its modulus depends on the numerators' bound b
    (below), and it is picked here: 2^64 when 2 4^v b < 2^64,
    v = v2(l_hat!), else the product of enough word-size primes.
    ``_residues`` takes a mod 2^64 into uint64 words, an int64 array by a
    view of its words and an object array by %, or mod each prime into
    int64 residues; one matmul gives the basis and
    one more, of the cached table -(1, t_r-1, t_c-1, (t_r-1)(t_c-1))
    (``_grid_table``), every grid matrix.  Berkowitz (``_berkowitz_mod``)
    is division-free, so exact over Z/2^64 and Z/p alike.  Every product
    is ``_matmul_mod``'s: words wrap, and residues are reduced below p
    after each matmul, so a chunk of a dot product stays below 32 (p-1)^2
    and a grid value below (l-1)^2 (p-1), both under 2^63.  Interpolation
    by W = V^-1 (denominators t! (l_hat-t)!, divisors of l_hat!) ends the
    batch, from one function (``_interp``), l_hat! W, an integer matrix,
    times the inverse of l_hat!'s odd part on the word and of l_hat! on a
    prime: on the word 2^v W mod 2^64 gives (2^v W) V (2^v W)^T, V the
    grid of a coefficient: 4^v times each numerator, below 2^63 in size;
    mod primes W mod p, built for just the primes the grid reads, gives
    W V W^T mod p.  v is read here only for the word's bound test and
    shift.  ``_grid`` returns these rows, and the one rebuild is
    here: the word's row, read as signed words, must have its low 2v bits
    zero (else ``RationalityViolation``), and they are shifted off; the
    primes' rows are rebuilt by the CRT (``_crt``).
    Only the interpolation matrices, the tables and the CRT basis are
    cached, never anything of a matrix.  An empty block gives the plain
    Gram's sums at l_hat = 0.

    The all-ones factor.  When Ahat's row and column sums all equal sigma,
    as on every walk node, l^2 X 1 = sigma^2 1 and 1^T l^2 X = sigma^2 1^T
    for every (t_r, t_c), since R 1 = S 1 = 1 and Ahat 1 = Ahat^T 1 =
    sigma 1.  The reduced block's directions lie in 1^perp, so
    det(lam I + l^2 X) = (lam + sigma^2) det(lam I + l^2 X on 1^perp), and
    only the second factor's m planes are stored, with sigma^2.  With
    T = I + (1 - e0) e0^T, T^-1 M T has first column -sigma^2 e0 and
    trailing block M'[i][j] = M[i][j] - M[0][j] (i, j >= 1), from the
    basis's rows 1.. less row 0 (Ahat^T's, before the matmul) and columns
    1..: Berkowitz runs on the (m-1) x (m-1) residues of M'.  Callers may
    pass any matrix, and 1 is then in general not an eigenvector, so an
    exact O(m^2) check of Ahat's sums gates the split; other inputs take
    the full m x m grid and record no sigma^2.  The stored numerators are
    exact, not probabilistic:
    - Each is a sum of squared minors (on 1^perp when split), so >= 0, and
      dividing by the monic lam + sigma^2 keeps them integers over l^(2k').
    - At t_r = t_c = 1 (l^2 X = G0, positive semidefinite) plane k' sums to
      e_k' of n eigenvalues of G0 with sum s: all m, s = tr G0 = sum Ahat^2,
      or when split the m - 1 others, s = tr G0 - sigma^2.  Maclaurin
      bounds plane k' by C(n, k') ceil(s^k' / n^k') (1 when n = 0), and b
      is the largest of these bounds (``trace_bound``): the word, or the
      primes' product, is above 2 b, so that a faulty negative value
      still shows.
    - The engine's contraction is a convolution in k', so it commutes with
      multiplying by lam + sigma^2, which is y - placed^2 up to the scale
      of y (sigma = l placed): the complement contracts to the reduced Gram
      polynomial.
    The tensor stores the rebuilt numerators as one flat tuple in
    ``_grid``'s (k', p, q) order, and ``CTensor`` checks them for sign and
    the unit plane 0.
    """
    m = len(a)
    if len(rows) != len(cols):
        raise ValueError("block must have equally many rows and columns")
    for idx in (rows, cols):
        if not all(map(lt, idx, idx[1:])):
            raise ValueError("block indices must be strictly ascending")
        if idx and not 0 <= idx[0] <= idx[-1] < m:
            raise ValueError(f"block index outside the {m} x {m} matrix")
    check_grid_size(m)
    l = max(len(rows), 1)
    lhat = l - 1
    ahat = [[l * x for x in row] for row in a.tolist()]  # Ahat = l a + J_B, exact
    for i in rows:
        for j in cols:
            ahat[i][j] += 1
    # equal line sums sigma: (lam + sigma^2) divides det(lam I + l^2 X)
    sums = {sum(row) for row in ahat} | {sum(col) for col in zip(*ahat)}
    sigma_sq = sums.pop() ** 2 if len(sums) == 1 else None
    # stored plane k sums to e_k of n eigenvalues of G0 (all, or all but
    # sigma^2) that sum to trace: at most C(n, k) (trace / n)^k
    n = m if sigma_sq is None else m - 1
    trace = sum(x * x for row in ahat for x in row) - (sigma_sq or 0)
    bound = trace_bound(n, trace)
    v = lhat - lhat.bit_count()  # v2(lhat!): a word holds 4^v times each numerator
    if bound << (2 * v + 1) < _WORD:  # one signed word, whose low 2v bits must be zero
        words = _grid(a, rows, cols, n, None).view("int64")
        if (words & ((1 << 2 * v) - 1)).any():
            raise _violation(f"a grid word is not 4^{v} times an integer: its low {2 * v} bits are set")
        exact = words[0] >> 2 * v
    else:
        exact = _crt(_grid(a, rows, cols, n, _primes_for(bound)))
    return CTensor(m, lhat, tuple(exact.tolist()), sigma_sq)
