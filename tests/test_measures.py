"""Densities, quadrature, and the two sequence transforms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momentlab as ml
from conftest import poly_mul, reference_moment_quadrature


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
    bad = ml.Density("bad", 0.0, 1.0, lambda x: 1.0 / x, -1.0, 0.0)
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
    1), as closely as the scipy reference: the five densities at n <= 20
    and seeded transforms g(x) w(x); a density with integer exponents goes
    through the power-map branch."""
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
    uniform = ml.Density("uniform", 0.0, 1.0, lambda x: 1.0, 0.0, 0.0)
    cases.append((uniform, [Fraction(1, n + 1) for n in range(9)]))
    for dens, targets in cases:
        report = ml.verify_representation(targets, dens, len(targets) - 1, tol=1e-7)
        assert report.max_rel_error <= 1e-12, dens.label
        for n, target, computed, _, _ in report.rows[::4]:
            reference = reference_moment_quadrature(dens, n, 1e-13)
            assert abs(computed - reference) <= 1e-12 * max(1.0, abs(target))


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


def test_pushforward_rejects_negative_interval():
    with pytest.raises(ValueError):
        ml.pushforward_power(ml.density_catalog("motzkin"), 2)


def test_verify_transform_consistency_subsequence():
    _, cat = ml.catalog_sequence("catalan", 20)
    tspec = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=2)
    report = ml.verify_transform_consistency(cat, tspec,
                                             ml.density_catalog("catalan"),
                                             8, tol=1e-6)
    assert report.passed


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
