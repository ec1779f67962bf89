"""Acceptance suite: one test (or test group) per criterion.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see
them live).  Two catalog entries, fine and schroder_little, provably
admit no representing measure on the support intervals their
(p, s; q, t) data would suggest:

* fine: y_1 = 0 with y_2 = 1 kills any measure on [0, inf); exactly,
  det of the once-shifted order-1 Hankel block is -1.  The support
  hypothesis p > s - 2 sqrt(t) also fails at equality (0 > 0).
* schroder_little: the hypotheses hold but the measure carries an atom
  at 0, outside [3 - 2 sqrt(2), 3 + 2 sqrt(2)]; exactly, the interval
  combination matrix has a -128 principal determinant of order 2, and
  the left-endpoint minimal chain parameters escape [0, 1) at index 1.

Criteria 5, 6 and 8 therefore run those two names as strict expected
failures, with companion tests pinning the exact counter-witnesses.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
import random

import pytest

import momentlab as ml
from momentlab import Surd
from conftest import (
    CERTIFIABLE_INTERVALS,
    EXPECTED_15,
    catalan_closed,
    central_binomial_closed,
    delannoy_closed,
    hexagonal_closed,
    interval_endpoints,
    motzkin_closed,
    naive_catalan_like,
    reference_ops_determinantal,
    schroder_large_closed,
    trinomial_closed,
)


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {desc}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
    print(f"criterion {num:2d}: PASS  {desc}  [{dt:.2f}s]")


XFAIL_SUPPORT = {
    "fine": "p > s-2*sqrt(t) fails at equality (0 > 0); the sequence is "
            "provably not Stieltjes, so no [0,4] measure exists",
    "schroder_little": "hypotheses hold but the representing measure has an "
                       "atom at 0 outside [3-2sqrt(2), 3+2sqrt(2)]",
}


def _certifiable_and_xfail_params():
    params = [pytest.param(name, id=name) for name in sorted(CERTIFIABLE_INTERVALS)]
    params += [
        pytest.param(name, id=name,
                     marks=pytest.mark.xfail(strict=True, reason=reason))
        for name, reason in XFAIL_SUPPORT.items()
    ]
    return params


# -- criterion 1: catalog fidelity ----------------------------------------

def test_criterion_1_catalog_fidelity():
    with criterion(1, "15 terms of all 11 catalog families match "
                      "independent oracles", budget=1.0):
        for name, quad in ml.CATALOG.items():
            _, seq = ml.catalog_sequence(name, 14)
            got = list(seq)
            assert got == naive_catalan_like(*quad, 14), name
            assert [int(v) for v in got] == EXPECTED_15[name], name

        _, cat = ml.catalog_sequence("catalan", 14)
        assert list(cat) == [catalan_closed(n) for n in range(15)]
        _, cb = ml.catalog_sequence("central_binomial", 14)
        assert list(cb) == [central_binomial_closed(n) for n in range(15)]
        _, dela = ml.catalog_sequence("delannoy", 14)
        assert list(dela) == [delannoy_closed(n) for n in range(15)]
        _, tri = ml.catalog_sequence("central_trinomial", 14)
        assert list(tri) == [trinomial_closed(n) for n in range(15)]
        _, mot = ml.catalog_sequence("motzkin", 14)
        assert list(mot) == motzkin_closed(14)
        _, schl = ml.catalog_sequence("schroder_large", 14)
        assert list(schl) == schroder_large_closed(14)
        _, hexa = ml.catalog_sequence("hexagonal", 14)
        assert list(hexa) == hexagonal_closed(14)

        # structural cross-checks tying the remaining families together
        _, shifted = ml.catalog_sequence("shifted_catalan", 14)
        assert list(shifted) == [catalan_closed(n + 1) for n in range(15)]
        _, little = ml.catalog_sequence("schroder_little", 14)
        assert all(2 * little[n] == schl[n] for n in range(1, 15))
        _, fine = ml.catalog_sequence("fine", 14)
        assert all(cat[n] == 2 * fine[n] + fine[n - 1] for n in range(1, 15))
        _, rio = ml.catalog_sequence("riordan", 14)
        assert all(mot[n] == rio[n] + rio[n + 1] for n in range(14))


# -- criterion 2: Hankel identity -----------------------------------------

def test_criterion_2_catalan_hankel_determinants():
    with criterion(2, "det H_m(catalan) = 1 exactly for m <= 12", budget=5.0):
        _, cat = ml.catalog_sequence("catalan", 24)
        for m in range(13):
            assert ml.hankel_det(cat, m) == 1


# -- criterion 3: counterexample exactness ---------------------------------

def test_criterion_3_counterexample_exactness():
    with criterion(3, "shifted two-atom moments give det = -9/2 with a "
                      "re-verifying indefiniteness witness"):
        y = [(Fraction(-1) ** k + Fraction(2) ** k) / 2 for k in range(4)]
        shifted = y[1:]
        M = ml.hankel_matrix(shifted, 1)
        assert M.rows == ((Fraction(1, 2), Fraction(5, 2)),
                          (Fraction(5, 2), Fraction(7, 2)))
        assert ml.hankel_det(shifted, 1) == Fraction(-9, 2)
        verdict = ml.psd_status(M)
        assert verdict.status == "indefinite"
        assert M.quadratic_form(verdict.witness) < 0


# -- criterion 4: round-trip recovery --------------------------------------

def test_criterion_4_recurrence_round_trip(catalog_prefixes):
    with criterion(4, "25-term prefixes of all 11 families return the "
                      "exact (sigma, tau) data", budget=10.0):
        for name, quad in ml.CATALOG.items():
            p, s, q, t = (Fraction(v) for v in quad)
            _, seq = catalog_prefixes[name]
            sigma, tau = ml.recurrence_from_moments(seq, 12)
            assert sigma == (p,) + (s,) * 11, name
            assert tau == (q,) + (t,) * 10, name


# -- criterion 5: support certification ------------------------------------

@pytest.mark.parametrize("name", _certifiable_and_xfail_params())
def test_criterion_5_support_certification(name):
    spec = ml.make_spec(*ml.CATALOG[name])
    report = ml.certify_support(spec, n_check=200)
    assert report.passed, f"{name}: certification failed"
    lo, hi = interval_endpoints(CERTIFIABLE_INTERVALS[name])
    assert report.certificate.lower == lo
    assert report.certificate.upper == hi


def test_criterion_5_summary():
    with criterion(5, "support certified at n_check=200 with the exact "
                      "classical intervals for 9/11 families; fine and "
                      "schroder_little are provably uncertifiable"):
        seen = set()
        for name in CERTIFIABLE_INTERVALS:
            report = ml.certify_support(ml.make_spec(*ml.CATALOG[name]), n_check=200)
            assert report.passed
            seen.add((str(report.certificate.lower), str(report.certificate.upper)))
        assert seen == {("0", "4"), ("-1", "3"),
                        ("3 - 2*sqrt(2)", "3 + 2*sqrt(2)"), ("1", "5")}


def test_criterion_5_fine_witnesses():
    # the hypothesis fails at exact equality, and no [0, 4] measure can
    # exist: the once-shifted Hankel determinant is exactly -1
    with pytest.raises(ml.HypothesisFailure) as info:
        ml.support_interval(0, 2, 1, 1)
    assert info.value.failed == ("p > s-2*sqrt(t)",)
    _, fine = ml.catalog_sequence("fine", 4)
    assert ml.hankel_det(ml.shift(fine, 1), 1) == -1
    spec = ml.make_spec(0, 2, 1, 1)
    with pytest.raises(ml.PoleAt):
        ml.alpha_sequence(spec, Fraction(0), 3)


def test_criterion_5_schroder_little_witnesses():
    spec = ml.make_spec(1, 3, 2, 2)
    report = ml.certify_support(spec, n_check=200)
    assert report.certificate.hypotheses_ok
    # head chain parameter (2 + sqrt(2))/4 > 1/2, escape at index 1
    assert report.left_chain.parameters[1] == Surd(Fraction(1, 2), Fraction(1, 4), 2)
    assert report.left_chain.failure_index == 1
    escape = report.left_chain.parameters[2]
    assert escape == Surd(1, Fraction(1, 2), 2)
    assert escape > 1
    # P_3 has a zero strictly below 3 - 2 sqrt(2): sign change on [0, 1/10]
    poly = ml.ops_from_recurrence(spec, 3)[3]
    assert poly.coefficients == (-1, 11, -7, 1)
    assert poly(Fraction(0)) < 0 < poly(Fraction(1, 10))
    assert Fraction(1, 10) < Surd(3, -2, 2)


# -- criterion 6: zero containment and interlacing --------------------------

@pytest.mark.parametrize("name", _certifiable_and_xfail_params())
def test_criterion_6_zeros_contained_and_interlacing(name):
    spec = ml.make_spec(*ml.CATALOG[name])
    if name in CERTIFIABLE_INTERVALS:
        lo, hi = interval_endpoints(CERTIFIABLE_INTERVALS[name])
    else:
        cert = ml.support_interval(*ml.CATALOG[name], strict=False)
        lo, hi = cert.lower, cert.upper
    flo, fhi = float(lo), float(hi)
    for n in (5, 10, 20, 40):
        zeros = ml.ops_zeros(spec, n)
        assert zeros[0] >= flo - 1e-9, f"{name} n={n}: {zeros[0]} < {flo}"
        assert zeros[-1] <= fhi + 1e-9
        nxt = ml.ops_zeros(spec, n + 1)
        for i in range(n):
            assert nxt[i] < zeros[i] + 1e-9
            assert zeros[i] < nxt[i + 1] + 1e-9


def test_criterion_6_summary():
    with criterion(6, "zeros of P_n (n in 5,10,20,40) stay inside the "
                      "certified interval and interlace, for the 9 "
                      "certifiable families"):
        pass  # the parametrized cases above carry the assertions


# -- criterion 7: integral representations ----------------------------------

def test_criterion_7_integral_representations():
    with criterion(7, "quadrature reproduces y_0..y_12 at 1e-7 relative "
                      "for the five closed-form densities", budget=30.0):
        for name in ml.density_names():
            dens = ml.density_catalog(name)
            _, seq = ml.catalog_sequence(name, 12)
            report = ml.verify_representation(seq, dens, 12, 1e-7)
            assert report.passed, (name, report.max_rel_error)


# -- criterion 8: interval Hankel tests --------------------------------------

_COMBINATION_COEFFS = {
    ("0", "4"): (0, 4),        # H(4 Ey - E^2 y)
    ("-1", "3"): (3, 2),       # H(3 y + 2 Ey - E^2 y)
    ("3-2r2", "3+2r2"): (-1, 6),
    ("1", "5"): (-5, 6),
}


@pytest.mark.parametrize("name", _certifiable_and_xfail_params())
def test_criterion_8_hausdorff_at_order_6(name):
    _, seq = ml.catalog_sequence(name, 15)
    if name in CERTIFIABLE_INTERVALS:
        lo, hi = interval_endpoints(CERTIFIABLE_INTERVALS[name])
    else:
        cert = ml.support_interval(*ml.CATALOG[name], strict=False)
        lo, hi = cert.lower, cert.upper
    report = ml.classify(seq, 6, interval=(lo, hi))
    assert report.hausdorff_ok_up_to == report.hausdorff_checked_up_to == 6, \
        f"{name}: {report.hausdorff_status}"


@pytest.mark.parametrize("name", sorted(CERTIFIABLE_INTERVALS))
def test_criterion_8_combination_matches_shift_form(name):
    # (a+b) H(Ey) - H(E^2 y) - ab H(y) equals the Hankel matrix of the
    # explicitly shifted combination c0*y + c1*Ey - E^2 y
    _, seq = ml.catalog_sequence(name, 15)
    tags = CERTIFIABLE_INTERVALS[name]
    lo, hi = interval_endpoints(tags)
    c0, c1 = _COMBINATION_COEFFS[tags]
    combo = ml.hausdorff_combination(seq, lo, hi, 6)
    explicit = [c0 * y0 + c1 * y1 - y2
                for y0, y1, y2 in zip(seq, ml.shift(seq, 1), ml.shift(seq, 2))]
    assert combo.rows == ml.hankel_matrix(explicit, 6).rows


def test_criterion_8_summary():
    with criterion(8, "hausdorff test passes at m=6 with exact arithmetic "
                      "for the 9 certifiable families, including the "
                      "shift-form combination matrices"):
        _, little = ml.catalog_sequence("schroder_little", 15)
        combo = ml.hausdorff_combination(little, Surd(3, -2, 2), Surd(3, 2, 2), 2)
        assert ml.bareiss_det(combo.rows) == -128  # the exact blocker


# -- criterion 9: subsequence properties -------------------------------------

def test_criterion_9_subsequence_properties():
    with criterion(9, "200 random atomic Stieltjes measures keep all "
                      "affine subsequences Stieltjes to order 5; "
                      "non-affine patterns yield exact negative witnesses",
                   budget=30.0):
        rng = random.Random(20260809)
        for _ in range(200):
            k = rng.randint(1, 4)
            atoms = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(k)]
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]
            y = [sum(w * a ** n for w, a in zip(weights, atoms)) for n in range(49)]
            for d in range(1, 5):
                for offset in range(0, 5):
                    sub = ml.subsequence_transform(ml.Sequence(y), d, offset)
                    head = sub.values[:12]
                    # PSD of the order-5 block covers every lower order:
                    # principal submatrices of a PSD matrix are PSD
                    assert ml.psd_status(ml.hankel_matrix(head, 5)).is_psd
                    assert ml.psd_status(ml.hankel_matrix(head, 5, shift=1)).is_psd

        v1 = ml.pattern_is_stieltjes_preserving([0, 1, 3])
        assert not v1.preserving
        assert v1.witness.epsilon == Fraction(1, 2)
        assert v1.witness.determinant == Fraction(-1, 8)
        v2 = ml.pattern_is_stieltjes_preserving([0, 2, 3])
        assert not v2.preserving
        assert v2.witness.epsilon == Fraction(2)
        assert v2.witness.determinant < 0


# -- criterion 10: transform consistency --------------------------------------

def test_criterion_10_transform_consistency():
    with criterion(10, "4C_{n+1} - C_{n+2} matches its density to 1e-6 for "
                       "n <= 10; C_{2n} matches the d=2 pushforward on "
                       "[0,16] for n <= 8"):
        _, cat = ml.catalog_sequence("catalan", 16)
        lincomb = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION,
                                   g=(0, 4, -1),
                                   interval=(Fraction(0), Fraction(4)))
        report = ml.verify_transform_consistency(
            cat, lincomb, ml.density_catalog("catalan"), 10, tol=1e-6)
        assert report.passed, report.max_rel_error

        sub = ml.TransformSpec(ml.TransformSpec.SUBSEQUENCE, d=2)
        report = ml.verify_transform_consistency(
            cat, sub, ml.density_catalog("catalan"), 8, tol=1e-6)
        assert report.passed, report.max_rel_error


# -- criterion 11: path equivalence --------------------------------------------

def test_criterion_11_path_equivalence(catalog_prefixes):
    with criterion(11, "determinantal and recurrence polynomials agree "
                       "exactly through degree 6 on all 11 families"):
        for name in ml.CATALOG:
            spec, seq = catalog_prefixes[name]
            polys = ml.ops_from_recurrence(spec, 6)
            for n in range(7):
                det_path = reference_ops_determinantal(seq, n)
                assert det_path.coefficients == polys[n].coefficients, (name, n)
