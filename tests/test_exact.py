"""Quadratic surd arithmetic and ordering."""

import math
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


def test_ensure_fraction_rejects_floats():
    with pytest.raises(TypeError):
        ensure_fraction(0.5)


@given(a=rationals, b=rationals, r=radicands)
def test_float_image_tracks_exact_value(a, b, r):
    x = Surd(a, b, r)
    approx = float(a) + float(b) * math.sqrt(float(r))
    assert float(x) == pytest.approx(approx, abs=1e-9)


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
