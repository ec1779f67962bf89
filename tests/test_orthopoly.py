"""Monic OPS construction, recovery, the determinantal reference, zeros."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momentlab as ml
from conftest import (count_sign_changes, jacobi_norm, ops_values, poly_mul,
                      quadratic_field_prefixes, reference_ops_determinantal,
                      reference_ops_zeros, reference_recurrence)


def test_p0_is_one():
    spec = ml.make_spec(5, -3, 2, 7)
    polys = ml.ops_from_recurrence(spec, 0)
    assert polys[0].coefficients == (1,)


def test_catalan_low_degrees():
    spec = ml.make_spec(1, 2, 1, 1)
    polys = ml.ops_from_recurrence(spec, 2)
    assert polys[1].coefficients == (-1, 1)          # x - 1
    assert polys[2].coefficients == (1, -3, 1)       # x^2 - 3x + 1


def test_motzkin_p2():
    spec = ml.make_spec(1, 1, 1, 1)
    polys = ml.ops_from_recurrence(spec, 2)
    assert polys[2].coefficients == (0, -2, 1)       # x^2 - 2x


def test_monic_validation():
    with pytest.raises(ValueError):
        ml.MonicPolynomial((1, 2))


def test_determinantal_matches_recurrence():
    for name in ("catalan", "motzkin", "delannoy", "fine"):
        spec, seq = ml.catalog_sequence(name, 13)
        polys = ml.ops_from_recurrence(spec, 6)
        for n in range(7):
            assert reference_ops_determinantal(seq, n).coefficients == polys[n].coefficients


def test_determinantal_low_cases():
    spec, cat = ml.catalog_sequence("catalan", 5)
    polys = ml.ops_from_recurrence(spec, 2)
    for n, coefficients in enumerate([(1,), (-1, 1), (1, -3, 1)]):
        assert reference_ops_determinantal(cat, n) == polys[n]
        assert polys[n].coefficients == coefficients
    # plain int input gives the same exact coefficients
    assert reference_ops_determinantal([1, 1, 2, 5, 14, 42, 132], 2) == polys[2]


def test_orthogonality_under_riesz():
    for name in ("catalan", "delannoy", "schroder_little"):
        spec, seq = ml.catalog_sequence(name, 13)
        polys = ml.ops_from_recurrence(spec, 6)
        for m in range(7):
            for n in range(m):
                prod = poly_mul(polys[m].coefficients, polys[n].coefficients)
                assert ml.riesz(seq, prod) == 0
            sq = poly_mul(polys[m].coefficients, polys[m].coefficients)
            assert ml.riesz(seq, sq) != 0


def test_riesz_is_exact_and_rejects_float_moments():
    total = ml.riesz([1, 2], [1, 1])
    assert total == 3 and isinstance(total, Fraction)
    with pytest.raises(TypeError):
        ml.riesz([1.0, 2.0], [1, 1])
    with pytest.raises(TypeError):
        ml.riesz([1, 2], [0.5, 1])


def test_recurrence_recovery_catalan():
    _, cat = ml.catalog_sequence("catalan", 19)
    sigma, tau = ml.recurrence_from_moments(cat, 5)
    assert sigma == (1, 2, 2, 2, 2)
    assert tau == (1, 1, 1, 1)


def test_recurrence_recovery_delannoy():
    _, dela = ml.catalog_sequence("delannoy", 10)
    sigma, tau = ml.recurrence_from_moments(dela, 4)
    assert sigma == (3, 3, 3, 3)
    assert tau == (4, 2, 2)


@pytest.mark.parametrize("name", ml.catalog_names())
def test_recurrence_recovery_of_every_family_at_depth_30(name):
    spec, seq = ml.catalog_sequence(name, 59)
    sigma, tau = ml.recurrence_from_moments(seq, 30)
    assert sigma == tuple(spec.sigma(k) for k in range(30))
    assert tau == tuple(spec.tau(k) for k in range(1, 30))
    assert all(type(v) is Fraction for v in sigma + tau)


def test_recurrence_recovery_aerated():
    _, cat = ml.catalog_sequence("catalan", 5)
    aerated = []
    for v in cat:
        aerated.extend([v, Fraction(0)])
    sigma, tau = ml.recurrence_from_moments(ml.Sequence(aerated), 3)
    assert sigma == (0, 0, 0)
    assert tau == (1, 1)


def test_recovery_t_formula_against_determinants():
    # t_k = delta_{k-2} delta_k / delta_{k-1}^2 with delta_{-1} = 1
    _, hexa = ml.catalog_sequence("hexagonal", 13)
    _, tau = ml.recurrence_from_moments(hexa, 5)
    deltas = [Fraction(1)] + [ml.hankel_det(hexa, m) for m in range(6)]
    for k in range(1, 5):
        assert tau[k - 1] == deltas[k - 1] * deltas[k + 1] / deltas[k] ** 2


def test_quasi_definite_failure():
    flat = ml.Sequence((1, 1, 1, 1, 1, 1))
    with pytest.raises(ml.QuasiDefiniteFailure) as info:
        ml.recurrence_from_moments(flat, 3)
    assert info.value.order == 1


def test_recovery_needs_data():
    _, cat = ml.catalog_sequence("catalan", 5)
    with pytest.raises(ml.InsufficientData):
        ml.recurrence_from_moments(cat, 4)


def test_round_trip_regenerates_sequence():
    for name in ("motzkin", "schroder_large"):
        spec, seq = ml.catalog_sequence(name, 19)
        sigma, tau = ml.recurrence_from_moments(seq, 5)
        rebuilt = ml.spec_from_prefixes(sigma, sigma[-1], tau, tau[-1])
        assert list(ml.catalan_like(rebuilt, 9)) == list(seq.values[:10])


def test_zeros_simple_cases():
    cat = ml.make_spec(1, 2, 1, 1)
    assert ml.ops_zeros(cat, 1) == pytest.approx([1.0], abs=1e-12)
    golden = (3 - 5 ** 0.5) / 2, (3 + 5 ** 0.5) / 2
    assert ml.ops_zeros(cat, 2) == pytest.approx(golden, abs=1e-12)
    mot = ml.make_spec(1, 1, 1, 1)
    assert ml.ops_zeros(mot, 2) == pytest.approx([0.0, 2.0], abs=1e-12)
    # exact zeros come back exactly: 1 for catalan, 0 and 2 for motzkin,
    # and 1 + 2 cos(k pi / 6) = 0, 1, 2 for motzkin at degree 5
    assert ml.ops_zeros(cat, 1) == [1.0]
    assert ml.ops_zeros(mot, 2) == [0.0, 2.0]
    assert ml.ops_zeros(mot, 5)[1:4] == [0.0, 1.0, 2.0]


def test_zeros_match_polynomial_roots():
    spec, _ = ml.catalog_sequence("delannoy", 5)
    poly = ml.ops_from_recurrence(spec, 4)[4]
    for z in ml.ops_zeros(spec, 4):
        assert abs(poly(float(z))) < 1e-8


def test_zeros_not_positive_case():
    spec = ml.make_spec(1, 1, -1, 1)
    with pytest.raises(ml.NotPositiveCase):
        ml.ops_zeros(spec, 3)


def test_zero_interlacing():
    for name in ("catalan", "motzkin", "hexagonal"):
        spec, _ = ml.catalog_sequence(name, 2)
        for n in (2, 5, 9):
            inner = ml.ops_zeros(spec, n)
            outer = ml.ops_zeros(spec, n + 1)
            for i in range(n):
                assert outer[i] < inner[i] + 1e-9
                assert inner[i] < outer[i + 1] + 1e-9


_RATIONAL = st.fractions(min_value=-8, max_value=8, max_denominator=3)
_POSITIVE = st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=4)
_SPEC = st.one_of(
    st.sampled_from(ml.catalog_names()).map(lambda name: ml.make_spec(*ml.CATALOG[name])),
    st.builds(ml.make_spec, _RATIONAL, _RATIONAL, _POSITIVE, _POSITIVE),
    st.builds(ml.spec_from_prefixes, st.lists(_RATIONAL, min_size=1, max_size=4), _RATIONAL,
              st.lists(_POSITIVE, max_size=3), _POSITIVE),
)


def _assert_correctly_rounded(spec, n):
    """ops_zeros(spec, n), checked: each zero is the double nearest the exact
    one, and true_interval_estimate returns the extreme two."""
    zeros = ml.ops_zeros(spec, n)
    assert len(zeros) == n and zeros == sorted(zeros)
    assert ml.true_interval_estimate(spec, n) == (zeros[0], zeros[-1])

    def above(x):  # zeros of P_n above x, and whether P_n(x) = 0
        vals = ops_values(spec, x, n)
        return count_sign_changes(vals), vals[-1] == 0

    for j, z in enumerate(zeros):
        lower = (Fraction(math.nextafter(z, -math.inf)) + Fraction(z)) / 2
        upper = (Fraction(z) + Fraction(math.nextafter(z, math.inf))) / 2
        assert above(upper)[0] <= n - 1 - j
        assert sum(above(lower)) >= n - j
    return zeros


@given(_SPEC, st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_zeros_correctly_rounded(spec, n):
    """Each zero is the double nearest the exact one: exact Sturm counts put
    the j-th smallest zero between the midpoints to the double's neighbours."""
    zeros = _assert_correctly_rounded(spec, n)
    # LAPACK's zeros are accurate to a few ulp of the matrix norm, not of z
    slack = 16 * math.ulp(1.0) * max(1.0, jacobi_norm(spec, n))
    for z, ref in zip(zeros, reference_ops_zeros(spec, n)):
        assert abs(z - ref) <= slack


_TIE = Fraction(1) + Fraction(1, 2 ** 53)  # halfway between 1.0 and the next double up


@pytest.mark.parametrize("spec,n", [
    (ml.make_spec(1, 1, 1, 1), 5),                       # zeros 0, 1, 2 exactly
    (ml.make_spec(0, 0, 1, 1), 7),                       # a zero at 0.0
    (ml.make_spec(_TIE, _TIE, 1, 1), 1),                 # the tie itself
    (ml.make_spec(_TIE, _TIE, 1, 1), 9),                 # a tie in the middle
    (ml.make_spec(_TIE, _TIE, Fraction(1, 4), 1), 2),    # 1/2 + 2^-53 exact, 3/2 + 2^-53 a tie
    (ml.make_spec(3 * _TIE - 2, 3 * _TIE - 2, 1, 1), 3),  # a tie that rounds up to even
    (ml.make_spec(Fraction(1, 2 ** 1075), Fraction(1, 2 ** 1075), 1, 1), 5),  # subnormal tie
    (ml.make_spec(Fraction(7, 3), Fraction(7, 3), Fraction(9, 4), 1), 2),  # 7/3 -+ 3/2
    (ml.spec_from_prefixes([1, 1, 1], 1, [Fraction(1, 10 ** 30), 1], 1), 6),  # close zeros
    (ml.make_spec(10 ** 6, -3, 5, Fraction(1, 9)), 12),  # one zero far from the rest
])
def test_zeros_correctly_rounded_on_exact_zeros_and_ties(spec, n):
    _assert_correctly_rounded(spec, n)


def test_tie_zeros_round_to_even():
    tie = ml.make_spec(_TIE, _TIE, 1, 1)
    assert ml.ops_zeros(tie, 1) == [1.0]
    assert ml.ops_zeros(tie, 9)[4] == 1.0
    up = 3 * _TIE - 2  # halfway between 1 + 2^-52 and 1 + 2^-51, which is even
    assert ml.ops_zeros(ml.make_spec(up, up, 1, 1), 3)[1] == 1 + 2 ** -51


def test_true_interval_estimates():
    cat = ml.make_spec(1, 2, 1, 1)
    lo, hi = ml.true_interval_estimate(cat, 2)
    assert lo == pytest.approx(0.38196601125, abs=1e-9)
    assert hi == pytest.approx(2.61803398875, abs=1e-9)
    lo, hi = ml.true_interval_estimate(cat, 50)
    assert 0 < lo < 0.05 and 3.95 < hi < 4
    mot = ml.make_spec(1, 1, 1, 1)
    lo, hi = ml.true_interval_estimate(mot, 50)
    assert -1 < lo < -0.95 and 2.95 < hi < 3


def test_positivity_link():
    # positive definite classification forces recovered t_k > 0
    for name in ml.catalog_names():
        _, seq = ml.catalog_sequence(name, 17)
        report = ml.classify(seq, 8)
        assert report.hamburger_ok_up_to == 8
        recovered = ml.recurrence_from_moments(seq, 8)
        assert recovered == reference_recurrence(seq, 8)
        assert all(t > 0 for t in recovered[1])


def recovery_outcome(recover, y, n):
    try:
        return recover(y, n)
    except ml.QuasiDefiniteFailure as exc:
        return exc.order


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_recovery_matches_reference_on_rational_prefixes(n, data):
    # small entries make vanishing norms, and so failure orders, common
    y = data.draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                           min_size=2 * n, max_size=2 * n + 2))
    assert (recovery_outcome(ml.recurrence_from_moments, y, n)
            == recovery_outcome(reference_recurrence, y, n))


@given(quadratic_field_prefixes(min_order=1))
@settings(max_examples=60, deadline=None)
def test_recovery_matches_reference_over_quadratic_fields(case):
    # the same Fractions and Surds, radicand included, or the same failing order
    y, n = case
    assert (repr(recovery_outcome(ml.recurrence_from_moments, y, n))
            == repr(recovery_outcome(reference_recurrence, y, n)))
