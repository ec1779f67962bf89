"""Densities, quadrature, and the two sequence transforms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momentlab as ml
from momentlab import measures
from conftest import (REFERENCE_WEIGHTS, poly_mul, reference_check_g_nonneg,
                      reference_moment_quadrature)


def _one(x):
    return 1.0


def test_density_catalog_metadata():
    cat = ml.density_catalog("catalan")
    assert (cat.a, cat.b) == (0.0, 4.0)
    assert (cat.left_exponent, cat.right_exponent) == (-0.5, 0.5)
    cb = ml.density_catalog("central_binomial")
    assert (cb.left_exponent, cb.right_exponent) == (-0.5, -0.5)
    dela = ml.density_catalog("delannoy")
    assert dela.a == pytest.approx(3 - 2 * math.sqrt(2))
    assert dela.a_exact == ml.Surd(3, -2, 2)
    assert (dela.left_exponent, dela.right_exponent) == (-0.5, -0.5)
    mot = ml.density_catalog("motzkin")
    assert (mot.left_exponent, mot.right_exponent) == (0.5, 0.5)
    with pytest.raises(ml.UnknownName):
        ml.density_catalog("fine")


@pytest.mark.parametrize("name", ml.density_names())
def test_catalog_weights_match_the_closed_forms(name):
    """The table-built weight c (x - a)^e (b - x)^f is the hand-written
    closed form to 4 ulps inside the interval, plus the closed form's own
    error from its distances to the ends: each is off by up to one rounding
    at the scale of the ends and, for delannoy, by its float end's offset,
    which moves the weight by |e| (that error) / |x - end| relative.  At an
    end whose exponent is negative the weight is inf."""
    dens = ml.density_catalog(name)
    ref_a, ref_b, reference = REFERENCE_WEIGHTS[name]
    scale = math.ulp(max(abs(ref_a), abs(ref_b)))
    for k in range(1, 256):
        x = dens.a + (dens.b - dens.a) * k / 256
        w = reference(x)
        shift = (abs(dens.left_exponent) * (abs(ref_a - dens.a) + scale) / (x - dens.a)
                 + abs(dens.right_exponent) * (abs(ref_b - dens.b) + scale) / (dens.b - x))
        assert abs(dens.weight(x) - w) <= 4 * math.ulp(w) + shift * w, x
    for end, e in ((dens.a, dens.left_exponent), (dens.b, dens.right_exponent)):
        assert dens.weight(end) == (math.inf if e < 0 else 0.0)
    assert dens.weight(dens.a - 1) == dens.weight(dens.b + 1) == 0.0


def test_moment_quadrature_catalan():
    dens = ml.density_catalog("catalan")
    assert ml.moment_quadrature(dens, 0, 1e-10) == pytest.approx(1.0, abs=1e-10)
    assert ml.moment_quadrature(dens, 5, 1e-10) == pytest.approx(42.0, abs=1e-8)


def test_moment_quadrature_trinomial():
    dens = ml.density_catalog("central_trinomial")
    assert ml.moment_quadrature(dens, 2, 1e-10) == pytest.approx(3.0, abs=1e-8)


def test_moment_quadrature_arcsine_closed_forms():
    # arcsine moments: E[X] = c, E[X^2] = c^2 + h^2/2 for center c, span 2h
    dela = ml.density_catalog("delannoy")
    assert ml.moment_quadrature(dela, 1, 1e-10) == pytest.approx(3.0, abs=1e-9)
    assert ml.moment_quadrature(dela, 2, 1e-10) == pytest.approx(13.0, abs=1e-8)


def test_moment_quadrature_rejects_nonintegrable():
    bad = ml.Density("bad", 0, 1, -1, 0, _one)
    with pytest.raises(ml.NonIntegrable):
        ml.moment_quadrature(bad, 0)


def _random_nonneg_g(rng, dens):
    """c E(x) h(x)^2 with E = 1, (x - a)(b - x) or, on a rational interval,
    x - a or b - x: nonnegative on [a, b] and rational."""
    a, b = dens.a_exact, dens.b_exact
    factors = [[1], [-a * b, a + b, -1]]
    if isinstance(a, Fraction):
        factors += [[-a, 1], [b, -1]]
    h = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    h.append(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return [scale * c for c in poly_mul(poly_mul(rng.choice(factors), h), h)]


def test_moments_match_exact_targets():
    """Quadrature reproduces exact moments to 1e-12 (relative, absolute below
    1), as closely as the scipy reference: the five densities at n <= 20,
    seeded transforms g(x) w(x) and a density with integer exponents.  Two
    more densities, exponent -3/4 at 0 and -1/2 at 1, are checked against
    their exact moments only."""
    rng = random.Random(12)
    cases = []
    for name in ml.density_names():
        dens = ml.density_catalog(name)
        _, seq = ml.catalog_sequence(name, 26)
        cases.append((dens, seq.values[:21]))
        for _ in range(6):
            tseq, tdens = ml.linear_combination_transform(
                seq, _random_nonneg_g(rng, dens), dens.a_exact, dens.b_exact, density=dens)
            cases.append((tdens, tseq.values[:21]))
    uniform = ml.Density("uniform", 0, 1, 0, 0, _one)
    cases.append((uniform, [Fraction(1, n + 1) for n in range(9)]))
    for dens, targets in cases:
        report = ml.verify_representation(targets, dens, len(targets) - 1, tol=1e-7)
        assert report.max_rel_error <= 1e-12, dens.label
        for n, target, computed, _, _ in report.rows[::4]:
            reference = reference_moment_quadrature(dens, n, 1e-13)
            assert abs(computed - reference) <= 1e-12 * max(1.0, abs(target))
    exact_only = [
        (ml.Density("x^(-3/4)", 0, 1, Fraction(-3, 4), 0, _one),
         [Fraction(4, 4 * n + 1) for n in range(9)]),
        (ml.Density("(1-x)^(-1/2)", 0, 1, 0, Fraction(-1, 2), _one),
         [Fraction(math.factorial(n) * 2 ** (n + 1), math.prod(range(1, 2 * n + 2, 2)))
          for n in range(9)]),
    ]
    for dens, targets in exact_only:
        report = ml.verify_representation(targets, dens, len(targets) - 1, tol=1e-7)
        assert report.max_rel_error <= 1e-12, dens.label


def _beta(e, f):
    """x^e (1 - x)^f on [0, 1] with exact exponents, and its moments
    B(n + e + 1, f + 1) from math.gamma."""
    fe, ff = float(e), float(f)
    dens = ml.Density(f"beta({e}, {f})", 0, 1, e, f, _one)

    def moment(n):
        return math.gamma(n + fe + 1) * math.gamma(ff + 1) / math.gamma(n + fe + ff + 2)

    return dens, moment


#: every P/Q in (-1, 2] with Q <= 8
_EIGHTHS = sorted({Fraction(p, q) for q in range(1, 9) for p in range(1 - q, 2 * q + 1)})


def test_beta_weights_match_gamma_moments():
    """x^e (1-x)^f for every pair of exponents P/Q in (-1, 2] with Q <= 8:
    with x = end -/+ u^Q on each half, and the end power taken of the exact
    distance u^Q, the moments match to 1e-12 (relative, absolute below 1),
    negative exponents at the nonzero end 1 included."""
    for e in _EIGHTHS:
        for f in _EIGHTHS:
            dens, moment = _beta(e, f)
            for n in (0, 4, 9):
                got = ml.moment_quadrature(dens, n, 1e-13)
                assert abs(got - moment(n)) <= 1e-12 * max(1.0, moment(n)), (e, f, n)


def test_float_exponent_needs_an_exact_fraction():
    """A float 1/3 or -0.3 has a denominator near 2^54: no substitution."""
    for e in (1 / 3, -0.3):
        dens = ml.Density("float", 0, 1, e, 0, _one)
        with pytest.raises(ValueError, match="exact Fraction"):
            ml.moment_quadrature(dens, 2)
    dens = ml.Density("exact", 0, 1, Fraction(1, 3), 0, _one)
    assert ml.moment_quadrature(dens, 2, 1e-13) == pytest.approx(3 / 10, abs=1e-13)


def test_gauss_legendre_rule():
    """The 10-point rule integrates x^k exactly for k <= 19; the adaptive
    rule never evaluates at an end, even of a panel next to a singularity,
    a non-finite sum raises NonIntegrable, and an estimate still above its
    target at the panel cap raises ValueError instead of being returned."""
    for k in range(20):
        got = math.fsum(w * (x ** k + (-x) ** k) for x, w in measures._GAUSS)
        assert got == pytest.approx(2 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-16)
    seen = []
    got = measures.quad(lambda x: seen.append(x) or 1 / math.sqrt(x), 0.0, 1.0, 1e-10)
    assert got == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < min(seen) and max(seen) < 1.0
    with pytest.raises(ml.NonIntegrable):
        measures.quad(lambda x: math.inf, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError, match="did not converge"):
        measures.quad(lambda x: math.sin(1 / x), 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("name", ["catalan", "central_binomial", "motzkin",
                                  "central_trinomial", "delannoy"])
def test_verify_representation_catalog(name):
    dens = ml.density_catalog(name)
    _, seq = ml.catalog_sequence(name, 12)
    report = ml.verify_representation(seq, dens, 12, 1e-7)
    assert report.passed, report.max_rel_error


def test_verify_representation_mismatch():
    dens = ml.density_catalog("central_binomial")
    _, cat = ml.catalog_sequence("catalan", 4)
    report = ml.verify_representation(cat, dens, 4, 1e-7)
    assert not report.passed
    n, target, computed, abs_err, rel_err = report.rows[1]
    assert target == 1.0 and computed == pytest.approx(2.0, abs=1e-8)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            ml.verify_representation(cat, dens, 4, bad)


def test_verify_representation_rejects_n_beyond_doubles():
    # float(y_n) or max(|a|, |b|)^n would raise OverflowError in quadrature
    dens = ml.density_catalog("catalan")  # on [0, 4]
    cases = [(ml.catalog_sequence("catalan", 600)[1], 600),  # both overflow
             ([1] * 601, 600),  # only 4^600 does
             ([1, 10 ** 400], 1)]  # only y_1 does
    for y, n in cases:
        with pytest.raises(ValueError, match=f"n = {n} "):
            ml.verify_representation(y, dens, n)


def test_subsequence_transform_interleaved():
    _, cat = ml.catalog_sequence("catalan", 7)
    aerated = []
    for v in cat:
        aerated.extend([v, Fraction(0)])
    sub = ml.subsequence_transform(ml.Sequence(aerated), 2, 0)
    assert list(sub) == list(cat.values)
    assert sub.origin == "transform"


def test_subsequence_transform_shift():
    _, cat = ml.catalog_sequence("catalan", 6)
    assert list(ml.subsequence_transform(cat, 1, 1)) == [1, 2, 5, 14, 42, 132]
    assert list(ml.subsequence_transform(cat, 1, 0)) == list(cat.values)


@given(n=st.integers(1, 12), d=st.integers(1, 4), offset=st.integers(0, 11),
       g=st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_transform_length_counts_the_built_terms(n, d, offset, g):
    y = [Fraction(k + 1) for k in range(n)]
    sub = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=d, offset=offset)
    built = len(ml.subsequence_transform(y, d, offset)) if offset < n else 0
    assert measures.transform_length(sub, n) == built
    lincomb = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=g)
    try:  # g >= 0 on [0, 1]; the trailing zero is not part of the degree
        built = len(ml.linear_combination_transform(y, g + [0], 0, 1)[0])
    except ml.InsufficientData:
        assert measures.transform_length(lincomb, n) <= 0
    else:
        assert measures.transform_length(lincomb, n) == built


def test_transform_support_images():
    assert ml.transform_support((Fraction(0), Fraction(4)), 2) == (0, 16)
    assert ml.transform_support((Fraction(-1), Fraction(3)), 2) == (0, 9)
    assert ml.transform_support((Fraction(-3), Fraction(2)), 2) == (0, 9)
    assert ml.transform_support((Fraction(-2), Fraction(1)), 3) == (-8, 1)


def test_pattern_affine_accepted():
    assert ml.pattern_is_stieltjes_preserving([0, 2, 4, 6, 8]).preserving
    assert ml.pattern_is_stieltjes_preserving([3, 4, 5]).preserving


def test_pattern_growing_gap_witness():
    verdict = ml.pattern_is_stieltjes_preserving([0, 1, 3])
    assert not verdict.preserving
    w = verdict.witness
    assert w.epsilon == Fraction(1, 2)
    assert w.indices == (0, 1, 3)
    assert w.determinant == Fraction(-1, 8)


def test_pattern_shrinking_gap_witness():
    verdict = ml.pattern_is_stieltjes_preserving([0, 2, 3])
    assert not verdict.preserving
    w = verdict.witness
    assert w.epsilon == Fraction(2)
    assert w.determinant == Fraction(-8)
    # the witness block really is the moment block of delta_epsilon
    assert w.block.rows[0][0] == 1 and w.block.rows[1][1] == 8


def test_pattern_too_short():
    with pytest.raises(ml.TooShort):
        ml.pattern_is_stieltjes_preserving([0, 2])


def test_pattern_requires_increasing():
    with pytest.raises(ValueError):
        ml.pattern_is_stieltjes_preserving([0, 2, 2])


def test_check_g_nonneg():
    ok = ml.check_g_nonneg((0, 4, -1), Fraction(0), Fraction(4))
    assert ok.ok
    bad = ml.check_g_nonneg((1, -1), Fraction(0), Fraction(4))
    assert not bad.ok and bad.violation_x > 1
    # -(x - a)^2 (x - b) with a = 0, b = 4: 4x^2 - x^3
    cubic = ml.check_g_nonneg((0, 0, 4, -1), Fraction(0), Fraction(4))
    assert cubic.ok
    # (x - 1)(x - 1 - 10^-6) < 0 only on (1, 1 + 10^-6)
    eps = Fraction(1, 10 ** 6)
    close = ml.check_g_nonneg((1 + eps, -2 - eps, 1), Fraction(0), Fraction(4))
    assert not close.ok and 1 < close.violation_x < 1 + eps
    with pytest.raises(TypeError):
        ml.check_g_nonneg((1.0,), Fraction(0), Fraction(4))
    with pytest.raises(TypeError):
        ml.check_g_nonneg((1,), 0.0, 4.0)
    with pytest.raises(TypeError):
        ml.check_g_nonneg((1, 0, -1), False, True)
    with pytest.raises(ValueError):
        ml.check_g_nonneg((1,), Fraction(4), Fraction(0))


#: rational intervals and the irrational delannoy support
G_INTERVALS = [(Fraction(0), Fraction(4)), (Fraction(-1), Fraction(3)),
               (Fraction(1, 3), Fraction(1, 2)), (ml.Surd(3, -2, 2), ml.Surd(3, 2, 2))]


@st.composite
def factored_g(draw):
    """(a, b, c, roots, g): g = c * prod (x - r)^m, expanded.

    Roots sit at rational endpoints, inside or outside the interval, or
    within 10^-k of the previous root; irrational endpoints enter as the
    rational factor (x - a)(x - b)."""
    a, b = draw(st.sampled_from(G_INTERVALS))
    rational = isinstance(a, Fraction)
    roots = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("free", "endpoint", "close")))
        if kind == "endpoint" and rational:
            r = draw(st.sampled_from((a, b)))
        elif kind == "close" and roots:
            r = roots[-1][0] + Fraction(draw(st.sampled_from((1, -1))),
                                        10 ** draw(st.integers(3, 9)))
        else:
            r = draw(st.fractions(min_value=-2, max_value=6, max_denominator=12))
        roots.append((r, draw(st.integers(1, 3))))
    c = draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(3, 7))))
    factors = [[-r, 1] for r, m in roots for _ in range(m)]
    if not rational:
        m = draw(st.integers(0, 2))
        roots += [(a, m), (b, m)]
        factors += [[1, -6, 1]] * m  # (x - a)(x - b) on the delannoy interval
    g = [c]
    for f in factors:
        g = poly_mul(g, f)
    return a, b, c, roots, g


@settings(max_examples=200, deadline=None)
@given(factored_g())
def test_check_g_nonneg_matches_factorisation(case):
    a, b, c, roots, g = case

    def value(x):
        out = c
        for r, m in roots:
            out *= (x - r) ** m
        return out

    # g keeps one sign between consecutive breakpoints
    cuts = sorted({a, b} | {r for r, _ in roots if a < r < b})
    expected = all(value((u + v) / 2) >= 0 for u, v in zip(cuts, cuts[1:]))
    verdict = ml.check_g_nonneg(g, a, b)
    assert verdict.ok == expected
    if not verdict.ok:
        x = verdict.violation_x
        assert a <= x <= b and value(x) < 0


@st.composite
def g_on_exact_interval(draw):
    """(g, a, b): a <= b rational or quadratic surds of one field, written
    with radicands r0 k^2 for several k, and g a product of linear factors
    and of the rational quadratics vanishing at a surd endpoint, sometimes
    with one coefficient moved."""
    r0 = draw(st.sampled_from((2, 3, 5)))
    small = st.fractions(min_value=-2, max_value=6, max_denominator=6)

    def endpoint():
        a = draw(small)
        if draw(st.booleans()):
            return a
        b = draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(-2, 3))))
        k = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3))))
        return ml.Surd(a, b / k, r0 * k * k)

    a, b = sorted((endpoint(), endpoint()))
    g = [draw(st.sampled_from((Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2))))]
    for _ in range(draw(st.integers(0, 4))):
        x = draw(st.sampled_from((a, b)) | small)
        if isinstance(x, ml.Surd):  # (u - x)(u - conjugate of x)
            g = poly_mul(g, [x.a * x.a - x.b * x.b * x.r, -2 * x.a, 1])
        else:
            g = poly_mul(g, [-x, 1])
    if draw(st.booleans()):
        g[draw(st.integers(0, len(g) - 1))] += draw(small) / 64
    return g, a, b


@settings(max_examples=300, deadline=None)
@given(g_on_exact_interval())
def test_check_g_nonneg_matches_reference(case):
    """The verdict and the exact violation point, written the same way, are
    those of the reference check_g_nonneg."""
    g, a, b = case
    assert repr(ml.check_g_nonneg(g, a, b)) == repr(reference_check_g_nonneg(g, a, b))


def test_linear_combination_catalan():
    _, cat = ml.catalog_sequence("catalan", 13)
    dens = ml.density_catalog("catalan")
    seq, tdens = ml.linear_combination_transform(cat, (0, 4, -1), Fraction(0),
                                                 Fraction(4), density=dens)
    assert [int(v) for v in seq.values[:6]] == [2, 3, 6, 14, 36, 99]
    # g vanishes to order 1 at both endpoints
    assert (tdens.left_exponent, tdens.right_exponent) == (0.5, 1.5)
    for n in range(4):
        got = ml.moment_quadrature(tdens, n, 1e-10)
        assert got == pytest.approx(float(seq[n]), rel=1e-9)


def test_transformed_density_exponents_count_multiplicity():
    from momentlab.measures import transformed_density_linear

    # x^2 (4 - x) on [0, 4]; (x^2 - 6x + 1)^2 = (x - a)^2 (x - b)^2 on delannoy's
    cases = [("catalan", (0, 0, 4, -1), (1.5, 1.5)),
             ("delannoy", (1, -12, 38, -12, 1), (1.5, 1.5))]
    for name, g, exponents in cases:
        tdens = transformed_density_linear(ml.density_catalog(name), g)
        assert (tdens.left_exponent, tdens.right_exponent) == exponents


def test_linear_combination_identity():
    _, cat = ml.catalog_sequence("catalan", 6)
    seq, _ = ml.linear_combination_transform(cat, (1,), Fraction(0), Fraction(4))
    assert seq.values == cat.values


def test_linear_combination_rejects_negative_g():
    _, cat = ml.catalog_sequence("catalan", 6)
    with pytest.raises(ml.GNegative):
        ml.linear_combination_transform(cat, (1, -1), Fraction(0), Fraction(4))


def test_translation_density():
    dens = ml.density_catalog("catalan")
    moved = ml.translate_density(dens, 2)
    assert moved.left_exponent == pytest.approx(1.5)
    _, cat = ml.catalog_sequence("catalan", 8)
    for n in range(4):
        got = ml.moment_quadrature(moved, n, 1e-10)
        assert got == pytest.approx(float(cat[n + 2]), rel=1e-9)


@pytest.mark.parametrize("name", ml.density_names())
@pytest.mark.parametrize("offset", range(5))
def test_translate_density_is_the_linear_transform_by_x_power(name, offset):
    """x^l w(x) shifts an exponent by l exactly at a zero float endpoint, as
    the float rule it replaced did, and its weight is w(x) x^l."""
    dens = ml.density_catalog(name)
    moved = ml.translate_density(dens, offset)
    assert moved.left_exponent == dens.left_exponent + (offset if dens.a == 0.0 else 0)
    assert moved.right_exponent == dens.right_exponent + (offset if dens.b == 0.0 else 0)
    assert moved.label == (dens.label if offset == 0 else f"x^{offset}*{dens.label}")
    for k in range(1, 64):
        x = dens.a + (dens.b - dens.a) * k / 64
        expected = dens.weight(x) * x ** offset
        assert abs(moved.weight(x) - expected) <= 1e-15 * abs(expected)


def test_pushforward_exponent_is_exact():
    pf = ml.pushforward_power(ml.density_catalog("central_binomial"), 3)
    assert pf.left_exponent == Fraction(-5, 6)
    assert isinstance(pf.left_exponent, Fraction)
    assert float(pf.left_exponent) == -0.8333333333333334
    assert (pf.a_exact, pf.b_exact) == (0, 64)


def test_user_density_gets_exact_endpoints_and_exponents():
    dens = ml.Density("u", 0.0, 1.0, -0.75, 0.0, _one)
    assert (dens.a_exact, dens.b_exact) == (0, 1)
    assert isinstance(dens.a_exact, Fraction) and isinstance(dens.b_exact, Fraction)
    assert dens.left_exponent == Fraction(-3, 4)
    assert isinstance(dens.right_exponent, Fraction)
    # the exact zero endpoint drives both transforms
    assert ml.translate_density(dens, 2).left_exponent == Fraction(5, 4)
    assert ml.pushforward_power(dens, 2).left_exponent == Fraction(-7, 8)
    # the form before: a weight of x in the fourth place, ends as floats
    with pytest.raises(TypeError):
        ml.Density("u", 0.0, 1.0, lambda x: x ** -0.75, -0.75, 0.0)


def test_pushforward_power_catalan():
    dens = ml.density_catalog("catalan")
    pf = ml.pushforward_power(dens, 2)
    assert (pf.a, pf.b) == (0.0, 16.0)
    assert pf.left_exponent == pytest.approx(-0.75)
    assert pf.b_exact == 16
    _, cat = ml.catalog_sequence("catalan", 12)
    for n in range(5):
        got = ml.moment_quadrature(pf, n, 1e-9)
        assert got == pytest.approx(float(cat[2 * n]), rel=1e-8)


_CATALAN_PREFIX = ml.Sequence((1, 1, 2, 5, 14, 42), label="catalan")


@pytest.mark.parametrize("bad", [2.0, 1.5, True], ids=["integral-float", "float", "bool"])
@pytest.mark.parametrize("name, call", [
    ("d", lambda bad: ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=bad)),
    ("offset", lambda bad: ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, offset=bad)),
    ("d", lambda bad: ml.subsequence_transform(_CATALAN_PREFIX, bad)),
    ("offset", lambda bad: ml.subsequence_transform(_CATALAN_PREFIX, 2, bad)),
    ("d", lambda bad: ml.transform_support((Fraction(-1), Fraction(3)), bad)),
    ("d", lambda bad: ml.pushforward_power(ml.density_catalog("catalan"), bad)),
    ("offset", lambda bad: ml.translate_density(ml.density_catalog("catalan"), bad)),
], ids=["spec-d", "spec-offset", "subsequence-d", "subsequence-offset", "support-d",
        "pushforward-d", "translate-offset"])
def test_transforms_reject_a_d_or_offset_that_is_not_an_int(name, call, bad):
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        call(bad)


def test_pushforward_rejects_negative_interval():
    with pytest.raises(ValueError):
        ml.pushforward_power(ml.density_catalog("motzkin"), 2)


def test_pushforward_beyond_doubles_raises_value_error():
    # 4^600 overflows at construction; at d = 100 about 2 % of the mass lies
    # below x = 2^-1000, too much to extrapolate to 1e-6
    dens = ml.density_catalog("catalan")
    with pytest.raises(ValueError, match="d = 600 is too large"):
        ml.pushforward_power(dens, 600)
    pushed = ml.pushforward_power(dens, 100)
    with pytest.raises(ValueError, match="too much mass below x = 2\\^-1000"):
        ml.moment_quadrature(pushed, 0, 1e-6)
    assert pushed.weight(0.0) == pushed.weight(5e-324) == math.inf


@pytest.mark.parametrize("name", ["catalan", "central_binomial"])
@pytest.mark.parametrize("d,offset", [(80, 1), (80, 3), (90, 1), (90, 3)])
def test_pushforward_with_mass_below_the_doubles(name, d, offset):
    """The x^d pushforward of x^l w at d = 80, 90: x = u^(2d) drops below
    2^-1000 for u < 0.013, and the extrapolated piece below keeps y_{dk+l}
    to 1e-9."""
    _, y = ml.catalog_sequence(name, 2 * d + offset)
    tspec = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=d, offset=offset)
    report = ml.verify_transform_consistency(y, tspec, ml.density_catalog(name),
                                             n_max=2, tol=1e-9)
    assert report.passed, report.max_rel_error
    # with no shift the piece below is under 0.5 % of the mass at d = 70:
    # good to 1e-6, not to 1e-8
    _, y = ml.catalog_sequence(name, 140)
    tspec = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=70)
    dens = ml.density_catalog(name)
    assert ml.verify_transform_consistency(y, tspec, dens, n_max=2, tol=1e-6).passed
    with pytest.raises(ValueError, match="too much mass"):
        ml.verify_transform_consistency(y, tspec, dens, n_max=2, tol=1e-8)


def test_verify_transform_consistency_subsequence():
    _, cat = ml.catalog_sequence("catalan", 20)
    tspec = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=2)
    report = ml.verify_transform_consistency(cat, tspec,
                                             ml.density_catalog("catalan"),
                                             8, tol=1e-6)
    assert report.passed


@pytest.mark.parametrize("name", ["catalan", "central_binomial", "delannoy"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 12])
@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_subsequence_matches_pushforward_at_tight_tol(name, d, offset):
    """y_{dk+l} against the x^d pushforward of x^l w at 1e-9: at a zero
    endpoint the exponent's denominator, up to 2d, sets the substitution."""
    _, y = ml.catalog_sequence(name, 8 * d + offset)
    tspec = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=d, offset=offset)
    report = ml.verify_transform_consistency(y, tspec, ml.density_catalog(name),
                                             8, tol=1e-9)
    assert report.passed, report.max_rel_error


def test_verify_transform_consistency_translation():
    _, cat = ml.catalog_sequence("catalan", 14)
    tspec = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=1, offset=2)
    report = ml.verify_transform_consistency(cat, tspec,
                                             ml.density_catalog("catalan"),
                                             8, tol=1e-6)
    assert report.passed


def test_verify_transform_consistency_lincomb():
    _, cat = ml.catalog_sequence("catalan", 14)
    tspec = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION,
                             g=(0, 4, -1), interval=(Fraction(0), Fraction(4)))
    report = ml.verify_transform_consistency(cat, tspec,
                                             ml.density_catalog("catalan"),
                                             8, tol=1e-6)
    assert report.passed


def test_lincomb_interval_must_contain_the_support():
    """On [3, 4] g = x - 2 is >= 0, but g w is negative on [0, 2): the
    interval is compared exactly with the support, Surd ends included."""
    _, cat = ml.catalog_sequence("catalan", 14)
    dens = ml.density_catalog("catalan")
    narrow = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=(-2, 1),
                              interval=(Fraction(3), Fraction(4)))
    with pytest.raises(ValueError, match="does not contain the support"):
        ml.verify_transform_consistency(cat, narrow, dens, 8)
    with pytest.raises(ValueError, match="does not contain the support"):
        ml.transformed_density(dens, narrow)
    with pytest.raises(ValueError, match="does not contain the support"):
        ml.linear_combination_transform(cat, (-2, 1), Fraction(3), Fraction(4), density=dens)
    # without a density there is no support to contain
    seq, _ = ml.linear_combination_transform(cat, (-2, 1), Fraction(3), Fraction(4))
    assert seq[0] == -1
    wide = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=(1, 1),
                            interval=(Fraction(-1), Fraction(5)))
    assert ml.verify_transform_consistency(cat, wide, dens, 8).passed
    _, dela = ml.catalog_sequence("delannoy", 8)
    dens = ml.density_catalog("delannoy")  # on [3 - 2 sqrt 2, 3 + 2 sqrt 2]
    ml.linear_combination_transform(dela, (1,), Fraction(17157, 10 ** 5), 6, density=dens)
    with pytest.raises(ValueError, match="does not contain the support"):
        ml.linear_combination_transform(dela, (1,), Fraction(17158, 10 ** 5), 6, density=dens)


@pytest.mark.parametrize("g, interval", [
    ((0, 4, -1), None),  # x (4 - x): both exponents rise by 1
    ((0, 4, -1), (Fraction(0), Fraction(4))),
    ((1, 1), (Fraction(-1), Fraction(5))),  # 1 + x vanishes only at -1, off [0, 4]
])
def test_transformed_density_of_a_lincomb_spec_matches_the_transform(g, interval):
    # an omitted interval means the density's exact support
    _, cat = ml.catalog_sequence("catalan", 14)
    dens = ml.density_catalog("catalan")
    tspec = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=g, interval=interval)
    got = ml.transformed_density(dens, tspec)
    a, b = interval or (dens.a_exact, dens.b_exact)
    _, want = ml.linear_combination_transform(cat, g, a, b, density=dens)
    assert (got.a_exact, got.b_exact) == (want.a_exact, want.b_exact) == (0, 4)
    assert (got.left_exponent, got.right_exponent) == (want.left_exponent,
                                                      want.right_exponent)
    assert all(got.factor(x) == want.factor(x) for x in (0.25, 1.5, 2.0, 3.75))
    rise = Fraction(1) if g == (0, 4, -1) else Fraction(0)
    assert got.left_exponent == dens.left_exponent + rise
    assert got.right_exponent == dens.right_exponent + rise


def test_transformed_density_of_a_lincomb_spec_rejects_bad_g_and_intervals():
    dens = ml.density_catalog("catalan")  # on [0, 4]
    lincomb = ml.TransformSpec.LINEAR_COMBINATION
    # x (4 - x) < 0 just outside [0, 4]: fine on the support, not on [-1, 5]
    with pytest.raises(ml.GNegative):
        ml.transformed_density(dens, ml.TransformSpec(lincomb, g=(0, 4, -1),
                                                      interval=(Fraction(-1), Fraction(5))))
    with pytest.raises(ml.GNegative):
        ml.transformed_density(dens, ml.TransformSpec(lincomb, g=(1, -1)))
    with pytest.raises(ValueError, match="does not contain the support"):
        ml.transformed_density(dens, ml.TransformSpec(lincomb, g=(1,),
                                                      interval=(Fraction(0), Fraction(3))))


def test_transform_measure_commutation():
    """Moments of g d(mu) agree with the transform of the moments of mu."""
    cases = {
        "catalan": [(1,), (0, 1), (0, 4, -1)],
        "central_binomial": [(1,), (0, 1), (0, 4, -1)],
        "motzkin": [(1,), (1, 1)],
        "central_trinomial": [(1,), (1, 1)],
        "delannoy": [(1,), (0, 1)],
    }
    from momentlab.measures import transformed_density_linear

    for name, gs in cases.items():
        dens = ml.density_catalog(name)
        base = [ml.moment_quadrature(dens, n, 1e-11) for n in range(8)]
        for g in gs:
            tdens = transformed_density_linear(dens, g)
            deg = len(g) - 1
            for k in range(6 - deg):
                direct = ml.moment_quadrature(tdens, k, 1e-11)
                via_seq = sum(float(c) * base[k + j] for j, c in enumerate(g))
                assert direct == pytest.approx(via_seq, abs=1e-8 * max(1, abs(via_seq)))


def test_subsequence_hausdorff_image():
    # moments on [0, 4] subsampled with d = 2 pass the [0, 16] test
    _, cat = ml.catalog_sequence("catalan", 22)
    sub = ml.subsequence_transform(cat, 2, 0)
    report = ml.classify(sub, 4, interval=(Fraction(0), Fraction(16)))
    assert report.hausdorff_ok_up_to == 4


def test_even_step_maps_hamburger_to_stieltjes():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(1, 3)
        pairs = [(Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                  Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                 for _ in range(k)]
        y = [sum(w * x ** n for w, x in pairs) for n in range(26)]
        sub = y[::2]
        assert ml.psd_status(ml.hankel_matrix(sub, 5)).is_psd
        assert ml.psd_status(ml.hankel_matrix(sub, 5, shift=1)).is_psd


def test_odd_offset_can_break_hamburger():
    pairs = [(Fraction(1, 2), Fraction(-1)), (Fraction(1, 2), Fraction(2))]
    y = [sum(w * x ** n for w, x in pairs) for n in range(6)]
    sub = y[1:]
    assert ml.hankel_det(sub, 1) == Fraction(-9, 2)
    assert not ml.psd_status(ml.hankel_matrix(sub, 1)).is_psd


def test_density_plot_csv():
    text = ml.density_plot_csv(ml.density_catalog("motzkin"), npoints=16)
    lines = text.strip().splitlines()
    assert lines[0] == "x,w"
    assert len(lines) == 17
