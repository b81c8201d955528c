"""Scalar and polynomial arithmetic: exactness is everything here."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramex.exact_algebra import (
    UniPoly,
    poly_substitute_square,
    quad_sign,
    rational_to_str,
    sqrt_shift_pairs,
)


def test_quad_sign_opposite_sign_examples():
    assert quad_sign(3, -2, 2) == 1  # 9 > 8
    assert quad_sign(1, -1, 1) == 0  # sqrt(1) = 1
    assert quad_sign(-2, 1, 3) == -1  # sqrt(3) < 2


def test_quad_sign_easy_cases():
    assert quad_sign(1, 2, 5) == 1
    assert quad_sign(-1, -2, 5) == -1
    assert quad_sign(0, 0, 7) == 0
    assert quad_sign(Fraction(3, 2), 0, 7) == 1
    assert quad_sign(0, -1, 7) == -1
    assert quad_sign(-5, 3, 0) == -1  # sqrt(0) contributes nothing
    assert quad_sign(Fraction(-2, 3), 0, 0) == -1
    assert quad_sign(0, 0, 0) == 0


def test_quad_sign_against_high_precision_float():
    """1000 random pairs a + b sqrt(m); mpmath at 50 digits as a sanity
    witness (the exact path is authoritative, so near-zero values where
    the witness cannot resolve the sign are skipped)."""
    rng = random.Random(20240831)
    mpmath.mp.dps = 50
    checked = 0
    for _ in range(1000):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        m = rng.randint(0, 40)
        witness = mpmath.mpf(a.numerator) / a.denominator + (
            mpmath.mpf(b.numerator) / b.denominator
        ) * mpmath.sqrt(m)
        if abs(witness) < mpmath.mpf("1e-30"):
            assert quad_sign(a, b, m) == 0
            continue
        assert quad_sign(a, b, m) == (1 if witness > 0 else -1)
        checked += 1
    assert checked > 900


def test_poly_shift_by_sqrt_examples():
    # (x + sqrt(2))^2 - 2 = x^2 + 2 sqrt(2) x
    sh = tuple(sqrt_shift_pairs([-2, 0, 1], 2))
    assert sh == ((0, 0), (0, 2), (1, 0))

    sh = tuple(sqrt_shift_pairs([0, 1], 4))
    assert sh[0] == (0, 1)  # sqrt(4) is kept as b = 1, not folded into a
    assert quad_sign(*sh[0], 4) == 1

    # (x + sqrt(3))^3 = x^3 + 3 sqrt(3) x^2 + 9 x + 3 sqrt(3)
    sh = tuple(sqrt_shift_pairs([0, 0, 0, 1], 3))
    assert sh == ((0, 3), (9, 0), (0, 3), (1, 0))
    assert all(type(c) is int for pair in sh for c in pair)


def _mp(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


def test_poly_shift_evaluation_property():
    """A(x) + sqrt(q) B(x), from the pairs, equals p(x + sqrt(q)) at
    rational points, checked at 60 digits."""
    rng = random.Random(7)
    mpmath.mp.dps = 60
    for _ in range(40):
        deg = rng.randint(1, 6)
        p = UniPoly(tuple(rng.randint(-45, 45) for _ in range(deg)) + (rng.randint(1, 5),))
        q = rng.randint(1, 12)
        r = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        shifted = tuple(sqrt_shift_pairs(p.coeffs, q))
        assert len(shifted) == p.degree + 1
        root = mpmath.sqrt(q)
        lhs = sum((_mp(a) + root * _mp(b)) * _mp(r) ** j for j, (a, b) in enumerate(shifted))
        rhs = sum(_mp(c) * (_mp(r) + root) ** i for i, c in enumerate(p.coeffs))
        assert abs(lhs - rhs) <= mpmath.mpf("1e-50") * (1 + abs(rhs)), (p, q, r)


def _taylor_shift(p: UniPoly, s: int) -> UniPoly:
    """p(x + s) by composing with the linear polynomial x + s."""
    out = UniPoly()
    power = UniPoly((1,))
    for c in p.coeffs:
        out = out + c * power
        power = power * UniPoly((s, 1))
    return out


def test_poly_shift_perfect_square_matches_rational_taylor_shift():
    """For q = s^2 the pairs fold to the rational shift: a_j + s b_j is
    the x**j coefficient of p(x + s)."""
    rng = random.Random(17)
    for _ in range(40):
        deg = rng.randint(0, 8)
        p = UniPoly(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg))
            + (Fraction(rng.randint(1, 4), rng.randint(1, 3)),)
        )
        s = rng.randint(1, 6)
        folded = UniPoly(tuple(a + s * b for a, b in sqrt_shift_pairs(p.coeffs, s * s)))
        assert folded == _taylor_shift(p, s), (p, s)


def _binomial_shift(p: UniPoly, q: int) -> tuple:
    """The pairs of p(x + sqrt(q)) straight from the binomial expansion:
    a_j = sum_{i-j even} C(i, j) p_i q^((i-j)/2) and
    b_j = sum_{i-j odd} C(i, j) p_i q^((i-j-1)/2)."""
    deg = p.degree

    def part(j, start):
        terms = range(start, deg + 1, 2)
        return sum(math.comb(i, j) * p.coeffs[i] * q ** ((i - j) // 2) for i in terms)

    return tuple((part(j, j), part(j, j + 1) if q else 0) for j in range(deg + 1))


@settings(max_examples=300)
@given(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=12)
    .map(lambda cs: UniPoly(tuple(cs)))
    .filter(lambda p: p.coeffs),
    st.one_of(st.integers(0, 50), st.sampled_from((0, 9, 36))),
)
def test_poly_shift_matches_the_binomial_expansion(p, q):
    """The Taylor shift on rational coefficients gives the binomial sums
    exactly, one pair at a time or all at once."""
    want = _binomial_shift(p, q)
    assert tuple(sqrt_shift_pairs(p.coeffs, q)) == want
    assert next(sqrt_shift_pairs(p.coeffs, q)) == want[0]


def test_poly_shift_rejects_bad_input():
    with pytest.raises(ValueError):
        next(sqrt_shift_pairs([], 2))
    with pytest.raises(ValueError):
        next(sqrt_shift_pairs([0, 0], 2))
    with pytest.raises(ValueError):
        next(sqrt_shift_pairs([1], -1))
    # q = 0 is the trivial shift: a_j = p_j, b_j = 0
    assert tuple(sqrt_shift_pairs([-1, 6, 2], 0)) == ((-1, 0), (6, 0), (2, 0))


def test_poly_substitute_square_examples():
    assert poly_substitute_square(UniPoly((-4, 1))) == UniPoly((-4, 0, 1))
    assert poly_substitute_square(UniPoly((1, -2, 1))) == UniPoly((1, 0, -2, 0, 1))
    assert poly_substitute_square(UniPoly((8, -6, 1))) == UniPoly((8, 0, -6, 0, 1))
    assert poly_substitute_square(UniPoly()) == UniPoly()


def test_poly_substitute_square_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        coeffs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7)))
        p = UniPoly(coeffs)
        doubled = poly_substitute_square(p)
        assert not any(doubled.coeffs[1::2])
        assert UniPoly(doubled.coeffs[0::2]) == p


def test_unipoly_ring_basics():
    p = UniPoly((-1, 0, 1))  # x^2 - 1
    assert not (p + UniPoly((1, 0, -1))).coeffs
    assert p * UniPoly() == UniPoly()
    assert UniPoly() * p == UniPoly()
    assert UniPoly() * UniPoly() == UniPoly()
    assert not UniPoly((0, 0, 0)).coeffs  # trailing zeros trim to the zero poly
    assert p.coeffs[-1] == 1 and p.degree == 2
    assert 2 * p == UniPoly((-2, 0, 2))
    with pytest.raises(TypeError):
        p * 2  # a scalar multiplies from the left only
    with pytest.raises(TypeError):
        UniPoly((1,)) + 1  # a scalar is not a polynomial


def test_rational_canonical_and_serialization():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    assert (Fraction(3, -6).numerator, Fraction(3, -6).denominator) == (-1, 2)
    assert rational_to_str(Fraction(3, 2)) == "3/2"
    assert rational_to_str(Fraction(-7)) == "-7"
    assert rational_to_str(5) == "5"
