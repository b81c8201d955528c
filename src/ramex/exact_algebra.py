"""Exact scalar and polynomial arithmetic.

Scalars are Python ints, and arbitrary-precision rationals
(``fractions.Fraction``) only where a public value is rational;
polynomials are dense and univariate over them.  The one irrational number
the pipeline meets, sqrt(q) with q = 4(d-1), is carried as a pair (a, b)
denoting a + b*sqrt(q): the shift p(x + sqrt(q)) of a polynomial with
integer or rational coefficients is computed as such pairs, one at a
time, over the coefficients' own ring, and their signs are decided by
exact comparison.  Nothing here ever rounds; every
operation is exact, and exactness is what makes the root tests downstream
trustworthy.

Rationals serialize as decimal strings "numerator/denominator", with the
denominator omitted when it is 1 (this is exactly ``str(Fraction)``);
``rational_to_str`` is the one serializer behind every JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InvariantViolation(RuntimeError):
    """An internal invariant failed: always an implementation bug, never
    bad input.  Raised explicitly, so the checks also run under -O."""


class TooLarge(ValueError):
    """The input is beyond what a computation here is built to handle."""


def rational_to_str(value: Fraction | int) -> str:
    """Serialize an exact rational as "num/den" ("num" when den == 1)."""
    return str(value)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def quad_sign(a, b, q: int) -> int:
    """Exact sign of a + b*sqrt(q) for rational a, b and integer q >= 0.

    Same-sign a and b are immediate; opposite signs are resolved by
    comparing a**2 against b**2 * q (squaring the inequality a >= -b*sqrt(q)
    is valid because both sides are then nonnegative).  Correct whether or
    not q is a perfect square.
    """
    sa = _sign(a)
    sb = _sign(b) if q else 0
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    lhs = a * a
    rhs = b * b * q
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else sb


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] belongs to x**i.

    The zero polynomial is the empty tuple; otherwise the trailing
    coefficient is nonzero.  Coefficients are ints or Fractions.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(tuple(out))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] = out[i + j] + c * d
        return UniPoly(tuple(out))

    def __rmul__(self, other):
        return UniPoly(tuple(other * c for c in self.coeffs))


def sqrt_shift_pairs(coeffs, q: int):
    """Yield, from j = 0 on, the pairs (a_j, b_j) of
    P(x + sqrt(q)) = sum_j (a_j + b_j sqrt(q)) x**j, P = sum_i coeffs[i] x**i.

    The coefficients are integers or rationals, and so are the pairs: the
    shift only adds and multiplies by q.  A Taylor shift: pass j is
    Horner's rule by sqrt(q) on the coefficients from j up, with
    sqrt(q) (a + b sqrt(q)) = q b + a sqrt(q), and leaves pair j final, so
    pair 0, P(sqrt(q)), costs one pass.  At q = 0 every b_j is 0 and
    a_j = coeffs[j].
    """
    if q < 0:
        raise ValueError("q must be a nonnegative integer")
    if not any(coeffs):
        raise ValueError("p must be nonzero")
    a, b = list(coeffs), [0] * len(coeffs)
    top = len(a) - 1
    for j in range(top):
        for i in range(top - 1, j - 1, -1):
            a[i] += q * b[i + 1]
            b[i] += a[i + 1]
        yield a[j], b[j] if q else 0
    yield a[top], 0


def poly_substitute_square(p: UniPoly) -> UniPoly:
    """Return the polynomial x -> p(x**2); degree doubles, odd coefficients zero."""
    if p.is_zero:
        return UniPoly()
    out = [0] * (2 * p.degree + 1)
    for i, c in enumerate(p.coeffs):
        out[2 * i] = c
    return UniPoly(tuple(out))

