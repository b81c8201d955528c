"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision rationals (``fractions.Fraction``) and
quadratic-field numbers a + b*sqrt(m) with rational a, b over a fixed
nonnegative integer radicand m.  Polynomials are dense and univariate over
either scalar kind.  Nothing here ever rounds; every operation is exact,
and exactness is what makes the root tests downstream trustworthy.

Rationals serialize as decimal strings "numerator/denominator", with the
denominator omitted when it is 1 (this is exactly ``str(Fraction)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
Scalar = Union[int, Fraction, "QuadNum"]


class RadicandMismatch(ValueError):
    """Combining quadratic numbers over incompatible radicands."""


class NonzeroRemainder(ArithmeticError):
    """A division that must be exact left a remainder; signals a pipeline bug."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: always an implementation bug, never
    bad input.  Raised explicitly, so the checks also run under -O."""


def rational_to_str(value: Fraction | int) -> str:
    """Serialize an exact rational as "num/den" ("num" when den == 1)."""
    return str(Fraction(value))


def rational_from_str(text: str) -> Fraction:
    """Parse the "num/den" wire format back into a Fraction."""
    return Fraction(text)


def _split_square(m: int) -> tuple[int, int]:
    """Write m = s**2 * core with core squarefree; return (s, core)."""
    if m <= 1:
        return 1, m
    s, core, rem, p = 1, 1, m, 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            s *= p ** (e // 2)
            core *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return s, core * rem


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class QuadNum:
    """An exact number a + b*sqrt(m), a and b rational, m a fixed integer >= 0.

    The radicand is not required to be squarefree.  Values whose sqrt part
    is actually rational (b = 0, or m a perfect square) compare and hash
    equal to the rational they denote, so e.g. QuadNum(0, 1, 4) == 2.
    """

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.m < 0:
            raise ValueError("radicand must be nonnegative")

    def _canonical(self):
        """Fraction if the value is rational, else (a, b*s, core) with core squarefree."""
        if self.b == 0 or self.m == 0:
            return self.a
        s, core = _split_square(self.m)
        if core == 1:
            return self.a + self.b * s
        return (self.a, self.b * s, core)

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        c = self._canonical()
        return c if isinstance(c, Fraction) else None

    def __bool__(self) -> bool:
        c = self._canonical()
        return c != 0 if isinstance(c, Fraction) else True

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadNum):
            return self._canonical() == other._canonical()
        if isinstance(other, (int, Fraction)):
            return self._canonical() == Fraction(other)
        return NotImplemented

    def __hash__(self):
        c = self._canonical()
        return hash(c)

    def _align(self, other: "QuadNum") -> tuple["QuadNum", "QuadNum"]:
        if self.m == other.m:
            return self, other
        if other.b == 0:
            return self, QuadNum(other.a, 0, self.m)
        if self.b == 0:
            return QuadNum(self.a, 0, other.m), other
        raise RadicandMismatch(f"cannot combine sqrt({self.m}) with sqrt({other.m})")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.a + other, self.b, self.m)
        if isinstance(other, QuadNum):
            x, y = self._align(other)
            return QuadNum(x.a + y.a, x.b + y.b, x.m)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.m)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QuadNum)):
            return self + (-other if isinstance(other, QuadNum) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.a * other, self.b * other, self.m)
        if isinstance(other, QuadNum):
            x, y = self._align(other)
            return QuadNum(x.a * y.a + x.b * y.b * x.m, x.a * y.b + x.b * y.a, x.m)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.a / other, self.b / other, self.m)
        if isinstance(other, QuadNum):
            r = other.rational_value()
            if r is not None:
                return QuadNum(self.a / r, self.b / r, self.m)
            x, y = self._align(other)
            denom = y.a * y.a - y.b * y.b * y.m  # nonzero: sqrt(m) irrational here
            return (x * QuadNum(y.a, -y.b, y.m)) / denom
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        out = QuadNum(1, 0, self.m)
        for _ in range(exponent):
            out = out * self
        return out

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.m})"


def quad_sign(v: Scalar) -> int:
    """Exact sign of a + b*sqrt(m): -1, 0 or +1, via integer arithmetic only.

    Same-sign a and b are immediate; opposite signs are resolved by
    comparing a**2 against b**2 * m (squaring the inequality a >= -b*sqrt(m)
    is valid because both sides are then nonnegative).  Correct whether or
    not m is a perfect square.
    """
    if isinstance(v, (int, Fraction)):
        return _sign(v)
    a, b, m = v.a, v.b, v.m
    if b == 0 or m == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    lhs = a * a
    rhs = b * b * m
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else sb


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] belongs to x**i.

    The zero polynomial is the empty tuple; otherwise the trailing
    coefficient is nonzero.  Coefficients may be ints, Fractions or
    QuadNums sharing one radicand.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "UniPoly":
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

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

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, c in enumerate(self.coeffs):
                if not c:
                    continue
                for j, d in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + c * d
            return UniPoly(tuple(out))
        return UniPoly(tuple(c * other for c in self.coeffs))

    def __rmul__(self, other):
        return UniPoly(tuple(other * c for c in self.coeffs))

    def evaluate(self, point):
        """Exact Horner evaluation at a rational or quadratic point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def map_coeffs(self, fn) -> "UniPoly":
        return UniPoly(tuple(fn(c) for c in self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            parts.append(f"({c})*{term}" if i else f"({c})")
        return " + ".join(parts)


def poly_shift_by_sqrt(p: UniPoly, q: int) -> UniPoly:
    """Return p(x + sqrt(q)) with coefficients in Q[sqrt(q)].

    Binomial expansion: the x**j coefficient is
    sum_{i >= j} C(i, j) * p_i * sqrt(q)**(i - j).
    """
    if q <= 0:
        raise ValueError("q must be a positive integer")
    if p.is_zero:
        raise ValueError("p must be nonzero")
    deg = p.degree
    root = QuadNum(0, 1, q)
    powers = [QuadNum(1, 0, q)]
    for _ in range(deg):
        powers.append(powers[-1] * root)
    out = []
    for j in range(deg + 1):
        acc = QuadNum(0, 0, q)
        for i in range(j, deg + 1):
            c = p.coeffs[i]
            if c:
                acc = acc + powers[i - j] * (math.comb(i, j) * Fraction(c))
        out.append(acc)
    return UniPoly(tuple(out))


def poly_substitute_square(p: UniPoly) -> UniPoly:
    """Return the polynomial x -> p(x**2); degree doubles, odd coefficients zero."""
    if p.is_zero:
        return UniPoly()
    out = [0] * (2 * p.degree + 1)
    for i, c in enumerate(p.coeffs):
        out[2 * i] = c
    return UniPoly(tuple(out))


def poly_div_exact(p: UniPoly, divisor: UniPoly) -> UniPoly:
    """Divide p by a monic divisor, requiring a zero remainder.

    Raises NonzeroRemainder otherwise; in this pipeline a remainder always
    means an internal bug (the trivial factor must divide exactly), never
    bad user input.
    """
    if divisor.is_zero or not divisor.is_monic:
        raise ValueError("divisor must be monic and nonzero")
    if p.is_zero:
        return UniPoly()
    dd = divisor.degree
    if p.degree < dd:
        raise NonzeroRemainder(f"degree {p.degree} < divisor degree {dd}")
    rem = list(p.coeffs)
    quot = [0] * (p.degree - dd + 1)
    for i in range(p.degree, dd - 1, -1):
        c = rem[i]
        quot[i - dd] = c
        if c:
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - c * dc
    if any(rem[:dd]):
        raise NonzeroRemainder(f"remainder {rem[:dd]} dividing by {divisor}")
    return UniPoly(tuple(quot))
