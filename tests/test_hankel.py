"""Exact Hankel criteria: determinants, definiteness, classification."""

from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import momentlab as ml
from conftest import (
    cofactor_det,
    examples,
    principal_minors_nonneg,
    quadratic_field_prefixes,
    reference_chebyshev,
    reference_classify,
    reference_ops_determinantal,
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


surds = st.builds(lambda a, b: ml.Surd(a, b, 2), entries, entries)


@given(st.integers(min_value=1, max_value=6),
       st.sampled_from(["ints", "rational", "large denominators", "singular",
                        "Q(sqrt 2), zero pivot", "Q(sqrt 2), singular"]), st.data())
@settings(max_examples=120, deadline=None)
def test_bareiss_matches_cofactor(n, kind, data):
    field = kind.startswith("Q(sqrt 2)")
    scalars = {"ints": st.integers(min_value=-9, max_value=9),
               "large denominators": st.fractions(min_value=-3, max_value=3,
                                                  max_denominator=10**9),
               }.get(kind, surds if field else entries)
    rows = [[data.draw(scalars) for _ in range(n)] for _ in range(n)]
    if kind.endswith("zero pivot"):
        # a zero leading entry: the elimination must swap in a later row
        rows[0][0] = 0
    if kind.endswith("singular"):
        # the last row combines two earlier ones (or vanishes when n = 1)
        others = st.integers(min_value=0, max_value=max(n - 2, 0))
        i, j, c, d = data.draw(others), data.draw(others), data.draw(scalars), data.draw(scalars)
        rows[-1] = [c * u + d * v for u, v in zip(rows[i], rows[j])] if n > 1 else [0]
    det = ml.bareiss_det(rows)
    assert isinstance(det, (Fraction, ml.Surd) if field else Fraction)
    assert det == cofactor_det([row[:] for row in rows])
    if kind.endswith("singular"):
        assert det == 0 and type(det) is Fraction


def test_bareiss_det_stays_exact_on_ints():
    det = ml.bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det == -3 and isinstance(det, Fraction)
    # a float or a bool entry raises, beside a Surd too, instead of being computed with
    for rows in ([[0.5, 1], [1, 3]], [[True, 1], [1, 3]], [[ml.sqrt_exact(2), 0.5], [1, 3]]):
        with pytest.raises(TypeError, match="exact rational or Surd"):
            ml.bareiss_det(rows)


def test_bareiss_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        ml.bareiss_det([[1, 2, 3], [4, 5, 6]])
    # and Surds of two fields: sqrt(2) and sqrt(3) share no quadratic field
    with pytest.raises(ValueError, match="incompatible radicands"):
        ml.bareiss_det([[ml.sqrt_exact(2), 1], [1, ml.sqrt_exact(3)]])


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


# -- Chebyshev rows --------------------------------------------------------

def sign(x):
    return (x > 0) - (x < 0)


@st.composite
def chebyshev_prefixes(draw):
    """(vals, n) with len(vals) >= 2n+1: random integer and rational
    prefixes, large denominators, atomic measures whose norm N_rank is
    planted at zero, and [1, 0, 0] followed by random integers."""
    kind = draw(st.sampled_from(["ints", "rational", "large denominators", "atomic",
                                 "1, 0, 0"]))
    n = draw(st.integers(min_value=0, max_value=8))
    size = 2 * n + 1 + draw(st.integers(min_value=0, max_value=2))
    ints = st.integers(min_value=-50, max_value=50)
    if kind == "atomic":
        rank = draw(st.integers(min_value=1, max_value=6))
        pairs = [(draw(positive), draw(entries)) for _ in range(rank)]
        return atomic_moments(pairs, size), n
    if kind == "1, 0, 0":
        return ([Fraction(1), Fraction(0), Fraction(0)]
                + [Fraction(draw(ints)) for _ in range(max(size - 3, 0))])[:size], n
    scalars = {"ints": ints.map(Fraction), "rational": entries,
               "large denominators": st.fractions(min_value=-5, max_value=5,
                                                  max_denominator=10**12)}[kind]
    return [draw(scalars) for _ in range(size)], n


@given(chebyshev_prefixes())
@settings(max_examples=examples(150), deadline=None)
def test_chebyshev_matches_the_field_recursion(case):
    # the same norms and alphas; the integer row is sigma_{r,l} times a
    # positive factor, so every sign and zero that _scan reads agrees
    vals, n = case
    norms, alphas, row = ml.hankel._chebyshev(vals, n)
    ref_norms, ref_alphas, ref_row = reference_chebyshev(vals, n)
    assert (norms, alphas) == (ref_norms, ref_alphas)
    assert all(type(v) is Fraction for v in norms + alphas)
    assert [sign(v) for v in row] == [sign(v) for v in ref_row]


@given(quadratic_field_prefixes())
@settings(max_examples=examples(60), deadline=None)
def test_chebyshev_matches_the_field_recursion_over_quadratic_fields(case):
    # the same Fractions and Surds, radicand included; the row keeps every
    # sign and zero of sigma_{r,l}
    vals, n = case
    norms, alphas, row = ml.hankel._chebyshev(vals, n)
    ref_norms, ref_alphas, ref_row = reference_chebyshev(vals, n)
    assert [repr(v) for v in norms + alphas] == [repr(v) for v in ref_norms + ref_alphas]
    assert [sign(v) for v in row] == [sign(v) for v in ref_row]


def test_rational_data_never_reaches_the_field_recursion(monkeypatch):
    # rational data reaches both integral kernels as plain ints only
    kinds = set()
    bareiss, chebyshev = ml.hankel._bareiss, ml.hankel._int_chebyshev

    def integer_bareiss(M):
        kinds.update(type(x) for row in M for x in row)
        return bareiss(M)

    def integer_chebyshev(ints, den, n):
        kinds.update(type(x) for x in ints)
        return chebyshev(ints, den, n)

    monkeypatch.setattr(ml.hankel, "_bareiss", integer_bareiss)
    monkeypatch.setattr(ml.hankel, "_int_chebyshev", integer_chebyshev)
    spec, dela = ml.catalog_sequence("delannoy", 25)
    root = ml.sqrt_exact(2)
    # conjugate endpoints keep the combination sequence rational
    assert ml.classify(dela, 12, interval=(3 - 2 * root, 3 + 2 * root)).passed
    y = [Fraction(1), Fraction(0), Fraction(0), Fraction(3, 2)] + [Fraction(k % 7 - 3, 5)
                                                                   for k in range(17)]
    report = ml.classify(y, 10, interval=(Fraction(-1), Fraction(3)))
    assert report.hamburger_ok_up_to == 1 and len(report.delta_values) == 11
    assert ml.recurrence_from_moments(dela, 12)[1][:2] == (4, 2)
    assert reference_ops_determinantal(dela, 4) == ml.ops_from_recurrence(spec, 4)[4]
    assert kinds == {int}
    # a one-sided interval puts the combination sequence in Q(sqrt 2)
    kinds.clear()
    assert ml.classify(dela, 3, interval=(Fraction(0), 3 + 2 * root)).passed
    assert ml.hankel._Zr in kinds


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


def test_psd_status_decides_int_entries_exactly():
    # the rank-one v v^T, v = (3, 7, 9), once came back indefinite with a
    # float witness because int / int divides in floats
    v = (3, 7, 9)
    M = ml.SymMatrix(tuple(tuple(a * b for b in v) for a in v))
    verdict = ml.psd_status(M)
    assert verdict.status == "positive_semidefinite_singular"
    assert verdict.pivots == (9, 0, 0)
    assert all(type(p) is Fraction for p in verdict.pivots)
    N = ml.SymMatrix(((3, 1, 2), (1, 3, 5), (2, 5, 3)))
    verdict = ml.psd_status(N)
    assert verdict.status == "indefinite"
    assert all(type(x) is Fraction for x in verdict.witness)
    assert N.quadratic_form(verdict.witness) < 0
    assert verdict.to_dict() == reference_psd_status(
        ml.SymMatrix(tuple(tuple(map(Fraction, r)) for r in N.rows))).to_dict()


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

def _hausdorff_passes(y, m, interval):
    """Whether ``classify`` passes every interval order through m."""
    report = ml.classify(y, m, interval=interval)
    return (report.hausdorff_ok_up_to == report.hausdorff_checked_up_to == m
            and report.hausdorff_status == ("pass",) * (m + 1))


def test_hausdorff_catalan_04_passes():
    _, cat = ml.catalog_sequence("catalan", 9)
    assert _hausdorff_passes(cat, 3, (Fraction(0), Fraction(4)))


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
    assert _hausdorff_passes(mot, 3, (Fraction(-1), Fraction(3)))
    combo = ml.hausdorff_combination(mot, Fraction(-1), Fraction(3), 3)
    explicit = [3 * y0 + 2 * y1 - y2
                for y0, y1, y2 in zip(mot, ml.shift(mot, 1), ml.shift(mot, 2))]
    assert combo.rows == ml.hankel_matrix(explicit, 3).rows


def test_hausdorff_catalan_03_fails():
    _, cat = ml.catalog_sequence("catalan", 9)
    report = ml.classify(cat, 2, interval=(Fraction(0), Fraction(3)))
    assert report.hausdorff_ok_up_to < report.hausdorff_checked_up_to == 2
    family, order, verdict = report.failure_witnesses[-1]
    assert family == "hausdorff" and verdict.status == "indefinite"
    # H_k(catalan) is positive definite, so the witness is the combination's
    assert ml.psd_status(ml.hankel_matrix(cat, order)).is_psd
    combo = ml.hausdorff_combination(cat, Fraction(0), Fraction(3), order)
    assert combo.quadratic_form(verdict.witness) < 0


def test_hausdorff_surd_endpoints_stay_exact():
    _, dela = ml.catalog_sequence("delannoy", 9)
    lo = ml.Surd(3, -2, 2)
    hi = ml.Surd(3, 2, 2)
    combo = ml.hausdorff_combination(dela, lo, hi, 3)
    # a+b = 6 and ab = 1, so the combination is rational
    assert all(isinstance(v, Fraction) for row in combo.rows for v in row)
    assert _hausdorff_passes(dela, 3, (lo, hi))


def test_hausdorff_needs_ordered_interval():
    _, cat = ml.catalog_sequence("catalan", 9)
    with pytest.raises(ValueError, match="need a < b"):
        ml.classify(cat, 2, interval=(Fraction(4), Fraction(0)))
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


@pytest.mark.parametrize("m", [True, 2.0, 1.5])
def test_classify_rejects_an_order_that_is_not_an_int(m):
    _, cat = ml.catalog_sequence("catalan", 9)
    with pytest.raises(TypeError, match="m must be an int"):
        ml.classify(cat, m)


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


def test_classify_report_json_renders_irrational_determinants():
    # delta_2 = 30 sqrt(2) - 35 lies in Q(sqrt 2), not in Q
    import json
    report = ml.classify([1, ml.sqrt_exact(2), 3, 5, 17], 2)
    data = json.loads(report.to_json())
    assert data["delta_values"] == ["1", "1", "-35 + 30*sqrt(2)"]


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
    """No interval, a rational [a, b], the conjugate s -/+ 2 sqrt(t), or
    the one-sided [0, s + 2 sqrt(t)] with t not a square.

    Conjugate endpoints give a rational combination sequence (a + b and
    ab are rational); one-sided ones put it in Q(sqrt(t)).
    """
    kind = draw(st.sampled_from(["none", "rational", "conjugate", "one-sided"]))
    if kind == "none":
        return None
    if kind == "rational":
        a = draw(entries)
        return a, a + draw(positive)
    s = draw(st.integers(min_value=-2, max_value=6))
    if kind == "conjugate":
        root = ml.sqrt_exact(draw(st.integers(min_value=1, max_value=6)))
        return s - 2 * root, s + 2 * root
    # s + 2 sqrt(t) > 2 sqrt(2) - 2 > 0
    root = ml.sqrt_exact(draw(st.sampled_from([2, 3, 5, 6, 7])))
    assert isinstance(root, ml.Surd)
    return Fraction(0), s + 2 * root


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
@settings(max_examples=examples(60), deadline=None)
def test_classify_matches_reference_on_atomic_measures(rank, m, extra, interval, data):
    pairs = [(data.draw(positive), data.draw(entries)) for _ in range(rank)]
    assert_matches_reference(atomic_moments(pairs, 2 * m + 1 + extra), m, interval)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2),
       intervals(), st.data())
@settings(max_examples=examples(60), deadline=None)
def test_classify_matches_reference_on_rational_prefixes(m, extra, interval, data):
    # extra < 2 caps the shifted and interval checks below m
    size = 2 * m + 1 + extra
    y = data.draw(st.lists(entries, min_size=size, max_size=size))
    assert_matches_reference(y, m, interval)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2),
       intervals(), st.data())
@settings(max_examples=examples(60), deadline=None)
def test_classify_matches_reference_on_perturbed_atomic_measures(rank, extra, interval, data):
    # Moving moment 2 * rank turns N_rank negative (delta_rank is linear in
    # it with coefficient delta_{rank-1} > 0) when moved down; moving a later
    # moment keeps N_rank = 0 but makes some sigma_{rank,l} nonzero.
    pairs = [(data.draw(positive), data.draw(entries)) for _ in range(rank)]
    m = data.draw(st.integers(min_value=rank, max_value=8))
    y = atomic_moments(pairs, 2 * m + 1 + extra)
    index = data.draw(st.integers(min_value=2 * rank, max_value=len(y) - 1))
    y[index] += Fraction(data.draw(st.sampled_from([-1, 1])),
                         data.draw(st.integers(min_value=1, max_value=8)))
    assert_matches_reference(y, m, interval)


THREE_ATOMS = [(Fraction(1), Fraction(1, 3)), (Fraction(2, 3), Fraction(5, 2)),
               (Fraction(3, 5), Fraction(7))]


@pytest.mark.parametrize("moved, hamburger", [
    (None, ("positive_definite",) * 3 + ("positive_semidefinite_singular",) * 28),
    # sigma_{3,37} = 1/7 > 0: H_20 is still PSD, H_21 is not
    ((40, Fraction(1, 7)),
     ("positive_definite",) * 3 + ("positive_semidefinite_singular",) * 18 + ("indefinite",)),
], ids=["exact", "sigma-nonzero"])
def test_classify_decides_high_orders_from_the_chebyshev_row(moved, hamburger):
    # orders 12..30 have more rows than the minor cross-check takes, so
    # the Chebyshev row alone decides them
    y = atomic_moments(THREE_ATOMS, 63)
    if moved is not None:
        y[moved[0]] += moved[1]
    report = ml.classify(y, 30, interval=(Fraction(0), Fraction(8)))
    assert report.hamburger_status == hamburger
    assert report.to_json() == reference_classify(
        y, 30, interval=(Fraction(0), Fraction(8))).to_json()


def test_classify_row_rule_needs_every_sigma_before_the_last():
    # delta_0 with y_24 moved by 1: sigma_{1,l} = y_{l+1}, so l0 = 23 and H_12
    # is PSD (2k - r = 23), while H_13 has a zero diagonal entry beside
    # sigma_{1,23} although sigma_{1,24} = sigma_{1,25} = 0
    y = [Fraction(1)] + [Fraction(0)] * 28
    y[24] = Fraction(1)
    report = ml.classify(y, 14)
    assert report.hamburger_status == (
        ("positive_definite",) + ("positive_semidefinite_singular",) * 12 + ("indefinite",))
    assert_matches_reference(y, 14, None)


def test_classify_negative_norm_fails_at_the_rank():
    # y_6 - 1/7 makes N_3 < 0: H_3 is indefinite with an exact witness
    y = atomic_moments(THREE_ATOMS, 17)
    y[6] -= Fraction(1, 7)
    report = ml.classify(y, 8, interval=(Fraction(0), Fraction(8)))
    assert report.hamburger_status == ("positive_definite",) * 3 + ("indefinite",)
    fam, order, verdict = report.failure_witnesses[0]
    assert (fam, order) == ("hamburger", 3)
    assert ml.hankel_matrix(y, 3).quadratic_form(verdict.witness) < 0
    assert_matches_reference(y, 8, (Fraction(0), Fraction(8)))


def test_minor_cross_check_guards_the_row_rule(monkeypatch):
    # every PSD-singular order up to 12 x 12 is cross-checked, none larger
    # (H_k and the shifted H_k are both rank 1 here)
    calls = []
    minors = ml.hankel._all_principal_minors_nonneg
    monkeypatch.setattr(ml.hankel, "_all_principal_minors_nonneg",
                        lambda rows: calls.append(len(rows)) or minors(rows))
    assert ml.classify([Fraction(2)] * 29, 14).passed
    assert calls == list(range(2, 13)) * 2
    calls.clear()

    def disagree(rows):
        calls.append(len(rows))
        return False, (0,), Fraction(-1)

    monkeypatch.setattr(ml.hankel, "_all_principal_minors_nonneg", disagree)
    # rank 1: N_1 = 0, and the rule calls H_1 and H_2 PSD
    with pytest.raises(RuntimeError, match="internal disagreement at order 1"):
        ml.classify([Fraction(2)] * 5, 2)
    assert calls == [2]
    # catalan is positive definite at every order: the rule never runs
    calls.clear()
    _, cat = ml.catalog_sequence("catalan", 19)
    assert ml.classify(cat, 8, interval=(Fraction(0), Fraction(4))).passed
    assert calls == []
    # the one elimination must confirm the order the rule calls not PSD:
    # sigma_{1,5} = y_6 - y_5 = -1 < 0 fails H_3
    monkeypatch.undo()
    monkeypatch.setattr(ml.hankel, "psd_status",
                        lambda M: ml.PsdVerdict(ml.PsdVerdict.PSD_SINGULAR))
    with pytest.raises(RuntimeError, match="order 3 is positive_semidefinite"):
        ml.classify([Fraction(2)] * 6 + [Fraction(1)], 3)


def test_classify_eliminates_only_at_failures(monkeypatch):
    # rank 1 with sigma_{1,5} = -1: H_1, H_2 PSD-singular, H_3 indefinite;
    # the shifted family stays PSD through its last order, 2
    calls = []
    psd, det = ml.hankel.psd_status, ml.hankel.hankel_det

    def psd_status(M):
        calls.append(("psd_status", M.order))
        return psd(M)

    def hankel_det(y, k):
        calls.append(("hankel_det", k))
        return det(y, k)

    monkeypatch.setattr(ml.hankel, "psd_status", psd_status)
    monkeypatch.setattr(ml.hankel, "hankel_det", hankel_det)
    y = [Fraction(2)] * 6 + [Fraction(1)]
    report = ml.classify(y, 3)
    assert calls == [("psd_status", 3), ("hankel_det", 3)]
    assert report.delta_values[:3] == (2, 0, 0)
    monkeypatch.undo()
    assert_matches_reference(y, 3, None)


@pytest.mark.parametrize("interval, endpoint", [
    ((0.0, 4.5), "a = 0.0"),
    ((0.1, 4.0), "a = 0.1"),
    ((Fraction(0), 4.5), "b = 4.5"),
    ((0, True), "b = True"),
], ids=["floats", "inexact-float", "float-b", "bool"])
def test_inexact_interval_endpoints_are_rejected(interval, endpoint):
    _, cat = ml.catalog_sequence("catalan", 21)
    with pytest.raises(TypeError, match=f"endpoint {endpoint}") as err:
        ml.classify(cat, 5, interval=interval)
    assert "1.69" not in str(err.value)
    with pytest.raises(TypeError, match=f"endpoint {endpoint}"):
        ml.hausdorff_combination(cat, *interval, 2)
