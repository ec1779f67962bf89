"""Exact Hankel criteria: determinants, definiteness, classification."""

from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import momentlab as ml
from conftest import (
    cofactor_det,
    principal_minors_nonneg,
    reference_classify,
    reference_psd_status,
)

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)
positive = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)


def atomic_moments(pairs, n_terms):
    """Exact moments of a finite atomic measure sum w_i * delta_{x_i}."""
    return [sum(Fraction(w) * Fraction(x) ** n for w, x in pairs)
            for n in range(n_terms)]


def aerated_catalan(n_terms):
    _, cat = ml.catalog_sequence("catalan", n_terms)
    out = []
    for v in cat:
        out.extend([v, Fraction(0)])
    return ml.Sequence(out[:n_terms], label="aerated")


# -- hankel_matrix -------------------------------------------------------

def test_hankel_matrix_entries():
    M = ml.hankel_matrix([1, 1, 2], 1)
    assert M.rows == ((1, 1), (1, 2))
    Mt = ml.hankel_matrix([1, 1, 2, 5], 1, shift=1)
    assert Mt.rows == ((1, 2), (2, 5))
    assert ml.hankel_matrix([7], 0).rows == ((7,),)


def test_hankel_matrix_insufficient():
    with pytest.raises(ml.InsufficientData):
        ml.hankel_matrix([1, 2], 1)
    with pytest.raises(ml.InsufficientData):
        ml.hankel_matrix([1, 2, 3], 1, shift=1)


def test_symmatrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        ml.SymMatrix(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(1))))


# -- determinants --------------------------------------------------------

def test_hankel_det_catalan_is_one():
    _, cat = ml.catalog_sequence("catalan", 12)
    assert all(ml.hankel_det(cat, m) == 1 for m in range(7))


def test_hankel_det_order_zero():
    assert ml.hankel_det([Fraction(5, 3)], 0) == Fraction(5, 3)


def test_hankel_det_negative_witness():
    # moments of the two-atom measure (delta at -1 and at 2, weights 1/2),
    # shifted once: the 2x2 determinant is exactly -9/2
    y = atomic_moments([(Fraction(1, 2), -1), (Fraction(1, 2), 2)], 4)
    shifted = ml.shift(ml.Sequence(y), 1)
    assert list(shifted) == [Fraction(1, 2), Fraction(5, 2), Fraction(7, 2)]
    assert ml.hankel_det(shifted, 1) == Fraction(-9, 2)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_bareiss_matches_cofactor(n, data):
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    assert ml.bareiss_det(rows) == cofactor_det([row[:] for row in rows])


def test_bareiss_det_stays_exact_on_ints():
    det = ml.bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det == -3 and isinstance(det, Fraction)


@pytest.mark.parametrize("call, expected", [
    (lambda: ml.classify([1, 1, 2], -1), ValueError),
    (lambda: ml.verify_representation(ml.catalog_sequence("catalan", 4)[1],
                                      ml.density_catalog("catalan"), -1), ValueError),
    (lambda: ml.minimal_parameters([1 / 4] * 3, n_max=-1), ValueError),
    (lambda: ml.psd_status(ml.SymMatrix(())).to_dict(),
     {"status": "positive_definite", "pivots": []}),
], ids=["classify", "verify_representation", "minimal_parameters", "psd_status"])
def test_negative_orders_raise_and_empty_matrix_is_definite(call, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match=">= 0"):
            call()
    else:
        assert call() == expected


# -- definiteness --------------------------------------------------------

def test_psd_positive_definite_pivots():
    v = ml.psd_status(ml.hankel_matrix([1, 1, 2], 1))
    assert v.status == "positive_definite"
    assert v.pivots == (1, 1)
    assert v.is_psd


def test_psd_rank_one_gram():
    v = ml.psd_status(ml.SymMatrix(((Fraction(1), Fraction(2)),
                                    (Fraction(2), Fraction(4)))))
    assert v.status == "positive_semidefinite_singular"
    assert v.pivots == (1, 0)


def test_psd_indefinite_with_witness():
    M = ml.SymMatrix(((Fraction(1, 2), Fraction(5, 2)),
                      (Fraction(5, 2), Fraction(7, 2))))
    v = ml.psd_status(M)
    assert v.status == "indefinite"
    assert M.quadratic_form(v.witness) < 0


def test_psd_zero_diagonal_indefinite():
    M = ml.SymMatrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    v = ml.psd_status(M)
    assert v.status == "indefinite"
    assert M.quadratic_form(v.witness) < 0


def test_psd_zero_matrix():
    M = ml.SymMatrix(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
    assert ml.psd_status(M).status == "positive_semidefinite_singular"


@given(st.integers(min_value=1, max_value=5),
       st.sampled_from(["gram", "signed gram", "entries"]), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_psd_verdicts_reverify(n, kind, surd, data):
    scalars = st.builds(lambda a, b: ml.Surd(a, b, 2), entries, entries) if surd else entries
    if kind != "entries":
        # V^T D V with fewer atoms than rows: PSD and singular when D > 0.
        # "signed gram" makes its first r atoms unit upper triangular, so
        # that elimination pivots on rows 0..r-1, then adds the atoms
        # e_i +/- c e_j with D = 1, -1 on later rows: their Schur block has
        # a zero diagonal and off-diagonal entries 2c.
        r = data.draw(st.integers(min_value=0, max_value=n - 1))
        V = [[data.draw(scalars) for _ in range(n)] for _ in range(r)]
        D = [data.draw(positive) for _ in range(r)]
        if kind == "signed gram":
            for a in range(r):
                V[a][:a + 1] = [Fraction(0)] * a + [Fraction(1)]
            for i, j in itertools.combinations(range(r, n), 2):
                c = data.draw(scalars)
                for sign in (1, -1):
                    atom = [Fraction(0)] * n
                    atom[i], atom[j] = Fraction(1), sign * c
                    V.append(atom)
                    D.append(Fraction(sign))
        rows = [[sum((D[a] * V[a][i] * V[a][j] for a in range(len(V))), Fraction(0))
                 for j in range(n)] for i in range(n)]
    else:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = data.draw(scalars)
    M = ml.SymMatrix(tuple(tuple(r) for r in rows))
    v = ml.psd_status(M)
    assert v.to_dict() == reference_psd_status(M).to_dict()
    if kind == "gram":
        assert v.status == "positive_semidefinite_singular"
    if v.status == "indefinite":
        assert M.quadratic_form(v.witness) < 0
    else:
        ok, subset, value = principal_minors_nonneg(M.rows)
        assert ok, f"claimed PSD but minor {subset} = {value}"
        if v.status == "positive_definite":
            assert all(p > 0 for p in v.pivots)
        else:
            assert cofactor_det(M.rows) == 0
            assert len(v.pivots) == n and all(p >= 0 for p in v.pivots)


# -- shift ---------------------------------------------------------------

def test_shift_examples():
    seq = ml.Sequence((1, 1, 2, 5, 14))
    assert list(ml.shift(seq, 1)) == [1, 2, 5, 14]
    assert list(ml.shift(seq, 0)) == [1, 1, 2, 5, 14]
    assert list(ml.shift(seq, 2)) == [2, 5, 14]
    with pytest.raises(ml.InsufficientData):
        ml.shift(seq, 5)


# -- hausdorff test ------------------------------------------------------

def test_hausdorff_catalan_04_passes():
    _, cat = ml.catalog_sequence("catalan", 9)
    verdict = ml.hausdorff_test(cat, Fraction(0), Fraction(4), 3)
    assert verdict.passed


def test_hausdorff_combination_matches_explicit_sequence():
    # on [0, 4] the combination is the Hankel matrix of 4*Ey - E(Ey)
    _, cat = ml.catalog_sequence("catalan", 9)
    combo = ml.hausdorff_combination(cat, Fraction(0), Fraction(4), 3)
    ey = ml.shift(cat, 1)
    eey = ml.shift(cat, 2)
    explicit = [4 * a - b for a, b in zip(ey, eey)]
    assert combo.rows == ml.hankel_matrix(explicit, 3).rows


def test_hausdorff_motzkin_combination():
    _, mot = ml.catalog_sequence("motzkin", 9)
    verdict = ml.hausdorff_test(mot, Fraction(-1), Fraction(3), 3)
    assert verdict.passed
    combo = ml.hausdorff_combination(mot, Fraction(-1), Fraction(3), 3)
    explicit = [3 * y0 + 2 * y1 - y2
                for y0, y1, y2 in zip(mot, ml.shift(mot, 1), ml.shift(mot, 2))]
    assert combo.rows == ml.hankel_matrix(explicit, 3).rows


def test_hausdorff_catalan_03_fails():
    _, cat = ml.catalog_sequence("catalan", 9)
    verdict = ml.hausdorff_test(cat, Fraction(0), Fraction(3), 2)
    assert not verdict.passed
    assert not verdict.combination.is_psd


def test_hausdorff_surd_endpoints_stay_exact():
    _, dela = ml.catalog_sequence("delannoy", 9)
    lo = ml.Surd(3, -2, 2)
    hi = ml.Surd(3, 2, 2)
    combo = ml.hausdorff_combination(dela, lo, hi, 3)
    # a+b = 6 and ab = 1, so the combination is rational
    assert all(isinstance(v, Fraction) for row in combo.rows for v in row)
    assert ml.hausdorff_test(dela, lo, hi, 3).passed


def test_hausdorff_needs_ordered_interval():
    _, cat = ml.catalog_sequence("catalan", 9)
    with pytest.raises(ValueError):
        ml.hausdorff_test(cat, Fraction(4), Fraction(0), 2)
    # too short for any interval order, but the interval is still checked
    with pytest.raises(ValueError):
        ml.classify([1, 1], 0, interval=(Fraction(4), Fraction(0)))


# -- classify ------------------------------------------------------------

def test_classify_interleaved_hamburger_not_stieltjes():
    seq = aerated_catalan(9)
    report = ml.classify(seq, 2)
    assert report.hamburger_ok_up_to == 2
    assert report.stieltjes_ok_up_to == 0
    fam, order, verdict = report.failure_witnesses[0]
    assert fam == "stieltjes-shifted" and order == 1
    # the failing witness is the negative shifted determinant, exactly -1
    assert ml.hankel_det(ml.shift(seq, 1), 1) == -1
    assert not report.passed


def test_classify_catalan_with_interval():
    _, cat = ml.catalog_sequence("catalan", 13)
    report = ml.classify(cat, 5, interval=(Fraction(0), Fraction(4)))
    assert report.hamburger_ok_up_to == 5
    assert report.stieltjes_ok_up_to == 5
    assert report.hausdorff_ok_up_to == 5
    assert report.determinate
    assert report.passed
    assert report.delta_values == (1,) * 6


def test_classify_two_atoms_hamburger():
    y = [(Fraction(-1) ** k + Fraction(2) ** k) / 2 for k in range(5)]
    report = ml.classify(ml.Sequence(y), 1)
    assert report.hamburger_ok_up_to == 1
    # not Stieltjes: one atom sits at -1
    assert report.stieltjes_ok_up_to == 0


def test_classify_insufficient_data():
    with pytest.raises(ml.InsufficientData):
        ml.classify(ml.Sequence((1, 2)), 2)


def test_classify_log_convexity_consequence():
    # Hamburger up to m forces y_n y_{n+2} >= y_{n+1}^2 while 2n+2 <= 2m
    for name in ("catalan", "motzkin", "delannoy"):
        _, seq = ml.catalog_sequence(name, 13)
        report = ml.classify(seq, 6)
        assert report.hamburger_ok_up_to == 6
        vals = seq.values
        for n in range(5):
            assert vals[n] * vals[n + 2] >= vals[n + 1] ** 2


def test_classify_report_json():
    _, cat = ml.catalog_sequence("catalan", 13)
    report = ml.classify(cat, 3, interval=(Fraction(0), Fraction(4)))
    import json
    data = json.loads(report.to_json())
    assert data["schema"] == "momentlab/classify/v1"
    assert data["delta_values"] == ["1", "1", "1", "1"]
    assert data["hausdorff_interval"] == ["0", "4"]
    assert data["determinate"] is True


def test_positive_definite_catalog_cross_check():
    # every catalog family stays positive definite through order 8
    for name in ml.catalog_names():
        _, seq = ml.catalog_sequence(name, 17)
        report = ml.classify(seq, 8)
        assert report.hamburger_ok_up_to == 8
        assert all(d > 0 for d in report.delta_values)
        assert all(s == "positive_definite" for s in report.hamburger_status)


# -- classify against the per-order reference ------------------------------

@st.composite
def intervals(draw):
    """No interval, a rational [a, b], or the conjugate s -/+ 2 sqrt(t)."""
    kind = draw(st.sampled_from(["none", "rational", "conjugate"]))
    if kind == "none":
        return None
    if kind == "rational":
        a = draw(entries)
        return a, a + draw(positive)
    s = draw(st.integers(min_value=-2, max_value=6))
    root = ml.sqrt_exact(draw(st.integers(min_value=1, max_value=6)))
    return s - 2 * root, s + 2 * root


def assert_matches_reference(y, m, interval):
    assert (ml.classify(y, m, interval=interval).to_json()
            == reference_classify(y, m, interval=interval).to_json())


def test_classify_matches_reference_on_catalog():
    for name in ml.catalog_names():
        _, s, _, t = ml.CATALOG[name]
        root = ml.sqrt_exact(t)
        for m in (0, 1, 5, 12):
            _, seq = ml.catalog_sequence(name, 2 * m + 3)
            for interval in (None, (Fraction(0), Fraction(8)),
                             (s - 2 * root, s + 2 * root),
                             (Fraction(0), s + 2 * root),
                             (Fraction(1), Fraction(2))):
                assert_matches_reference(seq, m, interval)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=2), intervals(), st.data())
@settings(max_examples=60, deadline=None)
def test_classify_matches_reference_on_atomic_measures(rank, m, extra, interval, data):
    pairs = [(data.draw(positive), data.draw(entries)) for _ in range(rank)]
    assert_matches_reference(atomic_moments(pairs, 2 * m + 1 + extra), m, interval)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2),
       intervals(), st.data())
@settings(max_examples=60, deadline=None)
def test_classify_matches_reference_on_rational_prefixes(m, extra, interval, data):
    # extra < 2 caps the shifted and interval checks below m
    size = 2 * m + 1 + extra
    y = data.draw(st.lists(entries, min_size=size, max_size=size))
    assert_matches_reference(y, m, interval)
