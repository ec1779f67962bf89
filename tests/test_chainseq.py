"""Chain sequences, minimal parameters, and support certification."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

import momentlab as ml
from momentlab import Surd, chainseq
from momentlab.chainseq import TailCertificate, _zero_beyond
from conftest import (CERTIFIABLE_INTERVALS, UNCERTIFIABLE, count_sign_changes,
                      interval_endpoints, ops_values, reference_zeros_ok)


def test_alpha_catalan_at_zero():
    spec = ml.make_spec(1, 2, 1, 1)
    alphas = ml.alpha_sequence(spec, Fraction(0), 4)
    assert alphas == [Fraction(1, 2)] + [Fraction(1, 4)] * 4


def test_alpha_catalan_at_four():
    spec = ml.make_spec(1, 2, 1, 1)
    alphas = ml.alpha_sequence(spec, Fraction(4), 3)
    assert alphas == [Fraction(1, 6)] + [Fraction(1, 4)] * 3


def test_alpha_pole():
    spec = ml.make_spec(1, 1, 1, 1)
    with pytest.raises(ml.PoleAt) as info:
        ml.alpha_sequence(spec, Fraction(1), 3)
    assert info.value.index == 0


@pytest.mark.parametrize("call", [
    lambda: ml.alpha_sequence(ml.make_spec(1, 2, 1, 1), 0.5, 2),
    lambda: ml.minimal_parameters([0.25] * 3),
    lambda: ml.is_chain_with_parameters([0.25], [Fraction(1, 2)] * 2),
    lambda: ml.is_chain_with_parameters([Fraction(1, 4)], [Fraction(1, 2), 0.5]),
    lambda: ml.alpha_sequence(ml.make_spec(1, 2, 1, 1), True, 2),
    lambda: ml.minimal_parameters([True, False]),
    lambda: ml.is_chain_with_parameters([Fraction(1, 4)], [False, Fraction(1, 4)]),
], ids=["alpha_sequence", "minimal_parameters", "is_chain_float_a", "is_chain_float_g",
        "alpha_sequence_bool", "minimal_parameters_bool", "is_chain_bool_g"])
def test_float_input_raises_type_error(call):
    # bools too: Python counts them as ints, JSON input means true/false
    with pytest.raises(TypeError):
        call()


def test_minimal_parameters_constant_quarter():
    verdict = ml.minimal_parameters([Fraction(1, 4)] * 20)
    assert verdict.ok
    assert verdict.is_chain_up_to == 19
    # closed form g_n = n / (2 (n+1)), strictly increasing toward 1/2
    for n, g in enumerate(verdict.parameters):
        assert g == Fraction(n, 2 * (n + 1))
    assert all(a < b for a, b in zip(verdict.parameters, verdict.parameters[1:]))


def test_minimal_parameters_constant_half_fails():
    verdict = ml.minimal_parameters([Fraction(1, 2)] * 10)
    assert not verdict.ok
    assert verdict.failure_index == 1
    assert verdict.parameters[1] == Fraction(1, 2)
    assert verdict.parameters[2] == 1


def test_minimal_parameters_zero_sequence():
    verdict = ml.minimal_parameters([Fraction(0)] * 5)
    assert verdict.ok
    assert set(verdict.parameters) == {0}


@pytest.mark.parametrize("c,expected", [
    (Fraction(1, 5), True),
    (Fraction(6, 25), True),
    (Fraction(1, 4), True),
    (Fraction(13, 50), False),
    (Fraction(3, 10), False),
    (Fraction(1, 2), False),
])
def test_constant_sequence_chain_iff_le_quarter(c, expected):
    verdict = ml.minimal_parameters([c] * 500)
    assert verdict.ok is expected


def test_is_chain_with_parameters_examples():
    quarter = [Fraction(1, 4)] * 5
    half = [Fraction(0)] + [Fraction(1, 2)] * 5
    assert ml.is_chain_with_parameters([Fraction(1, 2)] + quarter[:4],
                                       [Fraction(0)] + [Fraction(1, 2)] * 5)
    assert ml.is_chain_with_parameters(quarter, [Fraction(1, 2)] * 6)
    assert not ml.is_chain_with_parameters(quarter,
                                           [Fraction(0), Fraction(9, 10)] + [Fraction(1, 2)] * 4)
    with pytest.raises(ml.LengthMismatch):
        ml.is_chain_with_parameters(quarter, half[:4])


def test_explicit_parameters_for_certifiable_specs():
    # head parameter 1 - q/(sqrt(t) (p - s + 2 sqrt(t))), then constant 1/2
    for name in CERTIFIABLE_INTERVALS:
        p, s, q, t = ml.CATALOG[name]
        spec = ml.make_spec(p, s, q, t)
        cert = ml.support_interval(p, s, q, t)
        alphas = ml.alpha_sequence(spec, cert.lower, 6)
        params = [cert.g0] + [Fraction(1, 2)] * 7
        assert ml.is_chain_with_parameters(alphas, params[:8])


def test_tail_certificate_boundaries():
    ok = ml.constant_tail_certificate(Fraction(1, 2), Fraction(1, 4))
    assert ok.ok and ok.bound == Fraction(1, 2)
    bad = ml.constant_tail_certificate(Fraction(51, 100), Fraction(1, 4))
    assert not bad.ok
    loose = ml.constant_tail_certificate(Fraction(3, 4), Fraction(3, 16))
    assert loose.ok and loose.bound == Fraction(3, 4)
    above = ml.constant_tail_certificate(Fraction(0), Fraction(26, 100))
    assert not above.ok


def test_support_interval_catalan():
    cert = ml.support_interval(1, 2, 1, 1)
    assert (cert.lower, cert.upper) == (0, 4)
    assert cert.stieltjes_flag
    assert cert.g0 == 0
    assert cert.hypotheses_ok and cert.initial_parameter_ok


def test_support_interval_delannoy():
    cert = ml.support_interval(3, 3, 4, 2)
    assert cert.lower == Surd(3, -2, 2)
    assert cert.upper == Surd(3, 2, 2)
    assert cert.hypotheses_ok
    assert cert.g0 == 0
    assert cert.stieltjes_flag


def test_support_interval_motzkin():
    cert = ml.support_interval(1, 1, 1, 1)
    assert (cert.lower, cert.upper) == (-1, 3)
    assert not cert.stieltjes_flag
    assert cert.g0 == Fraction(1, 2)


def test_certificates_survive_copy_and_pickle():
    cert = ml.support_interval(3, 3, 4, 2)
    report = ml.certify_support(ml.make_spec(3, 3, 4, 2), n_check=20)
    assert isinstance(cert.upper, Surd)
    for obj in (cert, report):
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_support_interval_rejects_bad_tau():
    with pytest.raises(ml.ZeroTau):
        ml.support_interval(1, 2, 0, 1)
    with pytest.raises(ValueError):
        ml.support_interval(1, 2, 1, -1)


def test_support_interval_hypothesis_failure_lists_inequality():
    with pytest.raises(ml.HypothesisFailure) as info:
        ml.support_interval(0, 2, 1, 1)  # p = s - 2 sqrt(t) exactly
    assert info.value.failed == ("p > s-2*sqrt(t)",)
    cert = ml.support_interval(0, 2, 1, 1, strict=False)
    assert not cert.p_above_lower and cert.q_below_upper


def test_certify_support_catalan():
    spec = ml.make_spec(1, 2, 1, 1)
    report = ml.certify_support(spec, n_check=100)
    assert report.passed
    assert report.left_chain.parameters[1] == Fraction(1, 2)
    assert report.right_chain.parameters[1] == Fraction(1, 6)
    assert report.left_tail.ok and report.right_tail.ok


def test_certify_support_hexagonal():
    spec = ml.make_spec(3, 3, 1, 1)
    report = ml.certify_support(spec, n_check=100)
    assert report.passed
    assert (report.certificate.lower, report.certificate.upper) == (1, 5)


def test_certify_support_interior_point_fails_chain():
    # alpha at an interior point exceeds the chain bound immediately
    spec = ml.make_spec(1, 2, 1, 1)
    alphas = ml.alpha_sequence(spec, Fraction(1, 2), 50)
    assert alphas[0] == Fraction(4, 3)
    verdict = ml.minimal_parameters(alphas)
    assert not verdict.ok
    assert verdict.failure_index == 0


@pytest.mark.parametrize("name", sorted(CERTIFIABLE_INTERVALS))
def test_certify_support_catalog(name):
    spec = ml.make_spec(*ml.CATALOG[name])
    report = ml.certify_support(spec, n_check=200)
    assert report.passed
    lo, hi = interval_endpoints(CERTIFIABLE_INTERVALS[name])
    assert report.certificate.lower == lo
    assert report.certificate.upper == hi


def test_fine_hypothesis_fails_exactly():
    with pytest.raises(ml.HypothesisFailure):
        ml.certify_support(ml.make_spec(*ml.CATALOG["fine"]))


def test_schroder_little_chain_escapes():
    # hypotheses hold, but the left-endpoint chain run fails: the head
    # parameter is (2 + sqrt(2))/4 > 1/2 and the next step leaves [0, 1)
    spec = ml.make_spec(*ml.CATALOG["schroder_little"])
    report = ml.certify_support(spec, n_check=200)
    assert report.certificate.hypotheses_ok
    assert not report.certificate.initial_parameter_ok
    assert not report.passed
    assert report.left_chain.failure_index == 1
    head = report.left_chain.parameters[1]
    assert head == Surd(Fraction(1, 2), Fraction(1, 4), 2)
    assert report.right_chain.ok and report.right_tail.ok


@pytest.mark.parametrize("quad", [(4, 2, 1, 1), (5, 1, 2, 4)])
def test_certify_support_p_at_upper_endpoint(quad):
    # p = s + 2 sqrt(t): the hypotheses hold, but alpha_0 has a pole at b,
    # so the right chain fails at index 0 and s_0 = p is not inside (a, b)
    report = ml.certify_support(ml.make_spec(*quad), n_check=10)
    assert report.certificate.hypotheses_ok and not report.s_bounds_ok
    assert report.right_chain == ml.ChainVerdict(-1, (0,), 0)
    assert report.right_tail == TailCertificate(False, Fraction(1, 4), None, None)
    assert report.left_chain.ok and report.left_tail.ok
    assert not report.passed


def _escape_quads():
    """Quadruples whose left-endpoint chain first escapes at a chosen index f.

    With s = 2 and t = 1 the left endpoint is 0 and g_1 = q / (2p); for
    p = 1 and q - 1 in [1/(f + 1), 1/f) the parameters first reach 1 at
    n* = ceil(1/(q - 1)) = f + 1, consumed at index f.  The ends of that
    range take the ceiling exactly at an integer and just below one.
    """
    for f in (2, 3, 7, 8, 9, 10, 200, 201):
        for gap in (Fraction(1, f + 1), Fraction(2, 2 * f + 1)):
            yield 1, 2, 1 + gap, 1, f


def _reference_chain(spec, x, n_check):
    """The chain verdict and tail of the full recursion over a_0 .. a_N."""
    failed = TailCertificate(False, Fraction(1, 4), None, None)
    try:
        alphas = ml.alpha_sequence(spec, x, max(n_check, 2))
    except ml.PoleAt:
        return ml.ChainVerdict(-1, (Fraction(0),), 0), failed
    verdict = ml.minimal_parameters(alphas)
    if not verdict.ok:
        return verdict, failed
    return verdict, ml.constant_tail_certificate(verdict.parameters[1], alphas[1])


@pytest.mark.parametrize("n_check", [0, 1, 2, 7, 8, 9, 200])
def test_certify_support_chain_matches_full_recursion(n_check):
    """certify_support runs the recursion over the printed head only and
    takes the first escape from the closed form; its chain fields and tails
    match the full recursion's, on escapes at N = max(n_check, 2) and N + 1
    too, in Q and in Q(sqrt(t))."""
    rng = random.Random(22)
    quads = [ml.CATALOG[name] for name in ml.catalog_names()]
    quads += [quad[:4] for quad in _escape_quads()]
    quads += [(2, 3, Fraction(k, 20), 2) for k in range(52, 104)]  # left escapes in Q(sqrt 2)
    for _ in range(60):
        quads.append((Fraction(rng.randint(-4, 16), 2), Fraction(rng.randint(-2, 10), 2),
                      Fraction(rng.randint(1, 12), 2), Fraction(rng.randint(1, 12), rng.randint(1, 3))))
    last = max(n_check, 2)
    escapes = set()
    for quad in quads:
        spec = ml.make_spec(*quad)
        try:
            report = ml.certify_support(spec, n_check=n_check)
        except ml.HypothesisFailure:
            continue
        cert = report.certificate
        for x, chain, tail in ((cert.lower, report.left_chain, report.left_tail),
                               (cert.upper, report.right_chain, report.right_tail)):
            verdict, expected_tail = _reference_chain(spec, x, n_check)
            assert chain.to_dict() == verdict.to_dict(), (quad, n_check)
            assert (chain.is_chain_up_to, chain.failure_index) == (
                verdict.is_chain_up_to, verdict.failure_index)
            assert len(chain.parameters) <= 8
            assert chain.parameters == verdict.parameters[:len(chain.parameters)]
            assert tail == expected_tail, (quad, n_check)
            if verdict.failure_index is not None:
                escapes.add(verdict.failure_index - last)
            elif expected_tail.entry_parameter is not None and not expected_tail.ok:
                escapes.add("beyond")
    assert {0, "beyond"} <= escapes


@pytest.mark.parametrize("quad", list(_escape_quads()), ids=str)
def test_certify_support_escape_index_in_closed_form(quad):
    p, s, q, t, f = quad
    spec = ml.make_spec(p, s, q, t)
    assert ml.certify_support(spec, n_check=f).left_chain.failure_index == f
    if f > 2:  # N = max(n_check, 2), so an escape at 2 is always inside
        beyond = ml.certify_support(spec, n_check=f - 1)
        assert beyond.left_chain.ok and beyond.left_chain.is_chain_up_to == f - 1
        assert not beyond.left_tail.ok and beyond.left_tail.bound == Fraction(1, 2)


def test_certify_support_needs_shorthand():
    spec = ml.spec_from_prefixes([1, 2, 3], 1, [1, 1], 1)
    with pytest.raises(ValueError):
        ml.certify_support(spec)


@pytest.mark.parametrize("n_check, error", [
    (-1, ValueError), (1.5, TypeError), (2.0, TypeError), (True, TypeError),
])
def test_certify_support_rejects_a_bad_n_check(n_check, error):
    with pytest.raises(error, match="n_check"):
        ml.certify_support(ml.make_spec(1, 1, 1, 1), n_check=n_check)


def test_support_report_json():
    import json
    report = ml.certify_support(ml.make_spec(3, 3, 4, 2), n_check=50)
    data = json.loads(report.to_json())
    assert data["schema"] == "momentlab/support-report/v1"
    assert data["passed"] is True
    assert data["certificate"]["interval"]["lower"]["exact"] == "s-2*sqrt(t)"


def test_uncertifiable_names_are_the_expected_two():
    assert set(UNCERTIFIABLE) == set(ml.catalog_names()) - set(CERTIFIABLE_INTERVALS)


@pytest.mark.parametrize("name", sorted(CERTIFIABLE_INTERVALS))
def test_zeros_stay_inside_certified_interval_to_degree_60(name):
    spec = ml.make_spec(*ml.CATALOG[name])
    lo, hi = interval_endpoints(CERTIFIABLE_INTERVALS[name])
    zeros = ml.ops_zeros(spec, 60)
    assert zeros[0] >= float(lo) - 1e-9
    assert zeros[-1] <= float(hi) + 1e-9


def test_zeros_ok_matches_float_eigenvalue_reference(monkeypatch):
    """The exact Sturm count agrees with the float eigenvalue check on the
    catalog and on random quadruples, on both sides of the verdict, at
    several degrees of the certified P_n."""
    rng = random.Random(20)
    quads = [ml.CATALOG[name] for name in ml.catalog_names()]
    for _ in range(150):
        t = Fraction(rng.choice((1, 2, 3, 4, 5, 7, 9, 10)), rng.choice((1, 2, 4)))
        quads.append((Fraction(rng.randint(-4, 16), 2), Fraction(rng.randint(-2, 10), 2),
                      Fraction(rng.randint(1, 12), 2), t))
    seen = set()
    for quad in quads:
        spec = ml.make_spec(*quad)
        order = rng.choice((1, 2, 7, 50))
        monkeypatch.setattr(chainseq, "_ZEROS_ORDER", order)
        try:
            report = ml.certify_support(spec, n_check=4)
        except (ml.HypothesisFailure, ml.PoleAt):
            continue
        cert = report.certificate
        expected = reference_zeros_ok(spec, cert.lower, cert.upper, order)
        assert report.zeros_ok == expected, (quad, order)
        seen.add(expected)
    assert seen == {True, False}


def test_zero_beyond_matches_recurrence_count():
    """The closed-form count of zeros beyond s -/+ 2 sqrt(t) is the sign count
    of P_0 .. P_n from the recurrence in Q(sqrt t), on both verdicts."""
    rng = random.Random(21)
    quads = [ml.CATALOG[name] for name in ml.catalog_names()]
    for _ in range(60):
        t = Fraction(rng.choice((1, 2, 3, 4, 5, 7, 9, 10)), rng.choice((1, 2, 4)))
        quads.append((Fraction(rng.randint(-4, 16), 2), Fraction(rng.randint(-2, 10), 2),
                      Fraction(rng.randint(1, 12), 2), t))
    seen = set()
    for quad in quads:
        p, s, q, t = (Fraction(v) for v in quad)
        spec = ml.make_spec(p, s, q, t)
        root = ml.sqrt_exact(t)
        for r, sign in ((root, 1), (-root, -1)):
            x = s + 2 * r
            for n in (0, 1, 2, 7, 50):
                count = count_sign_changes(
                    sign ** k * v for k, v in enumerate(ops_values(spec, x, n)))
                assert count in (0, 1)
                assert _zero_beyond(p, s, q, t, r, n) == (count == 1), (quad, n, sign)
                seen.add(count)
    assert seen == {0, 1}
