"""Quadratic surd arithmetic and ordering."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import momentlab as ml
from momentlab import Surd, sqrt_exact
from momentlab.exact import ensure_fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
radicands = st.sampled_from([Fraction(2), Fraction(3), Fraction(5),
                             Fraction(7, 2), Fraction(10)])
SQUARES = (Fraction(0), Fraction(1), Fraction(4), Fraction(9, 4))
any_radicands = st.sampled_from(SQUARES + (Fraction(2), Fraction(3), Fraction(7, 2)))


def test_sqrt_exact_perfect_squares():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(0) == 0
    assert sqrt_exact(1) == 1
    root = sqrt_exact(2)
    assert isinstance(root, Surd)
    assert float(root) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_perfect_square_radicand_folds_to_rational():
    x = Surd(1, 3, Fraction(4))  # 1 + 3*sqrt(4) = 7
    assert type(x) is Fraction and x == 7


@given(a=rationals, b=rationals, r=any_radicands)
def test_constructor_returns_fraction_exactly_for_rationals(a, b, r):
    x = Surd(a, b, r)
    assert (type(x) is Fraction) == (b == 0 or r in SQUARES)
    assert x == a + b * sqrt_exact(r)


def test_rational_surd_input_reaches_hankel_as_fraction():
    assert type(ml.bareiss_det([[Surd(1, 3, 4)]])) is Fraction
    verdict = ml.psd_status(ml.SymMatrix(((Surd(1, 3, 4),),)))
    assert type(verdict.pivots[0]) is Fraction


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        Surd(0, 1, -2)


def test_conjugate_product_collapses():
    lo = Surd(3, -2, 2)
    hi = Surd(3, 2, 2)
    assert lo * hi == Fraction(1)
    assert lo + hi == Fraction(6)


def test_known_orderings():
    assert Surd(3, -2, 2) > 0
    assert Surd(3, -2, 2) < Fraction(1, 5)
    assert Fraction(4) < Surd(3, 2, 2)
    assert Surd(0, 1, 2) < Fraction(3, 2)
    assert Surd(0, 1, 2) > Fraction(7, 5)


@pytest.mark.parametrize("compare", [
    lambda x, f: x < f, lambda x, f: x <= f, lambda x, f: x > f, lambda x, f: x >= f,
    lambda x, f: f < x, lambda x, f: f <= x, lambda x, f: f > x, lambda x, f: f >= x,
], ids=["lt", "le", "gt", "ge", "float_lt", "float_le", "float_gt", "float_ge"])
def test_ordering_against_a_float_is_unsupported(compare):
    x = Surd(1, 1, 2)
    with pytest.raises(TypeError, match="not supported between instances"):
        compare(x, 0.5)
    assert x != 0.5 and not x == 0.5


def test_incompatible_radicands():
    with pytest.raises(ValueError):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(ValueError):
        sqrt_exact(8) < sqrt_exact(6)


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_surds_of_two_fields_are_unequal_but_do_not_order(compare):
    """Irrationals of two different fields are never equal, so == and !=
    answer; an ordering would need both fields, so it still raises."""
    x, y = sqrt_exact(2), 1 + sqrt_exact(3)
    assert x != y and not x == y and y != x and not y == x
    assert x not in [y, sqrt_exact(6)] and len({x, y, sqrt_exact(8) / 2}) == 2
    assert {x: 1, y: 2}[sqrt_exact(8) / 2] == 1
    with pytest.raises(ValueError):
        compare(x, y)


def test_surds_of_one_field_mix():
    total = sqrt_exact(12) + sqrt_exact(3)
    assert total == 3 * sqrt_exact(3) and str(total) == "3/2*sqrt(12)"
    assert sqrt_exact(8) < 3 * sqrt_exact(2)
    assert sqrt_exact(8) - 2 * sqrt_exact(2) == 0
    assert type(sqrt_exact(8) - 2 * sqrt_exact(2)) is Fraction
    assert sqrt_exact(Fraction(1, 2)) * sqrt_exact(2) == 1
    assert len({sqrt_exact(8), 2 * sqrt_exact(2), Surd(0, 4, Fraction(1, 2))}) == 1


@given(a=rationals, b=rationals, c=rationals, d=rationals.filter(bool), r=radicands,
       k=st.sampled_from((Fraction(2), Fraction(1, 3), Fraction(5, 2))))
def test_radicand_times_a_square_is_the_same_field(a, b, c, d, r, k):
    """c + (d/k) sqrt(r k^2) is c + d sqrt(r): it compares, hashes and
    computes alike, and a Surd on the left keeps its radicand."""
    x, y, z = Surd(a, b, r), Surd(c, d / k, r * k * k), Surd(c, d, r)
    assert y == z and hash(y) == hash(z) and str(y) != str(z)
    assert (x < y, x == y, x > y) == (x < z, x == z, x > z)
    for result, expected in ((x + y, x + z), (x - y, x - z), (x * y, x * z), (x / y, x / z)):
        assert result == expected
        assert str(result) == str(expected) or not isinstance(x, Surd)


def test_ensure_fraction_rejects_floats():
    with pytest.raises(TypeError):
        ensure_fraction(0.5)


@given(a=rationals, b=rationals, r=radicands)
def test_float_image_tracks_exact_value(a, b, r):
    x = Surd(a, b, r)
    approx = float(a) + float(b) * math.sqrt(float(r))
    assert float(x) == pytest.approx(approx, abs=1e-9)


def rounds_to(x, f):
    """Whether the double f is the one nearest the irrational x, exactly."""
    below, above = math.nextafter(f, -math.inf), math.nextafter(f, math.inf)
    return (Fraction(below) + Fraction(f)) / 2 < x < (Fraction(f) + Fraction(above)) / 2


def test_float_is_correctly_rounded_under_cancellation():
    # float(a) + float(b) * sqrt(float(r)) gives 0.1715728752538097 and,
    # for 99 - 70 sqrt(2), a value thousands of ulps off
    assert float(Surd(3, -2, 2)) == 0.1715728752538099
    assert float(Surd(99, -70, 2)) == 0.005050633883346584
    for a, b in ((3, -2), (99, -70), (3363, -2378), (114243, -80782), (665857, -470832)):
        assert rounds_to(Surd(a, b, 2), float(Surd(a, b, 2)))


@given(a=rationals, b=rationals.filter(bool), r=radicands, scale=st.integers(-40, 40))
def test_float_is_correctly_rounded(a, b, r, scale):
    x = Surd(a * Fraction(10) ** scale, b * Fraction(10) ** scale, r)
    assert rounds_to(x, float(x))


@given(n=st.integers(1, 10 ** 12), r=st.sampled_from((2, 3, 5, 10)))
def test_float_is_correctly_rounded_near_zero(n, r):
    # isqrt(n^2 r) - n sqrt(r) lies in (-1, 0): most of its digits cancel
    x = Surd(math.isqrt(n * n * r), -n, r)
    assert rounds_to(x, float(x))


@given(a=rationals, b=rationals, c=rationals, d=rationals, r=radicands)
def test_field_axioms(a, b, c, d, r):
    x = Surd(a, b, r)
    y = Surd(c, d, r)
    assert x - x == 0
    assert type(x - x) is Fraction
    assert (x + y) - y == x
    assert x * y == y * x
    if not (c == 0 and d == 0):
        assert (x * y) / y == x
    # a result is a Fraction exactly when its radical part vanishes
    assert isinstance(x + y, Fraction) == (b + d == 0)
    assert isinstance(x * y, Fraction) == (a * d + b * c == 0)
    assert isinstance(x * Surd(a, -b, r), Fraction)
    assert x ** 0 == 1
    assert type(x ** 0) is Fraction


@given(a=rationals, b=rationals, c=rationals, d=rationals, r=radicands)
def test_ordering_is_total_and_consistent(a, b, c, d, r):
    x = Surd(a, b, r)
    y = Surd(c, d, r)
    assert sum([x < y, x == y, x > y]) == 1
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-6:
        assert (x < y) == (fx < fy)
    square = x * x
    assert square >= 0


@given(a=rationals, b=rationals, r=radicands)
def test_mixed_arithmetic_with_fractions(a, b, r):
    x = Surd(a, b, r)
    q = Fraction(3, 7)
    assert q + x == x + q
    assert q * x == x * q
    assert (x + q) - x == q
    assert type((x + q) - x) is Fraction
    results = [-x, abs(x), x ** 1, q + x, q - x, q * x, x / q]
    if x != 0:
        results.append(q / x)
    assert all(isinstance(v, Fraction) == (b == 0) for v in results)


@given(a=rationals, b=rationals.filter(bool), r=radicands, scale=st.integers(0, 40))
def test_floor_and_ceil_bracket_the_value(a, b, r, scale):
    x = Surd(a * 10 ** scale, b * 10 ** scale, r)
    lo, hi = math.floor(x), math.ceil(x)
    assert type(lo) is int and type(hi) is int
    assert lo < x < hi == lo + 1
