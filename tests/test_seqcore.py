"""Recursive matrices, Catalan-like generation, and the catalog."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momentlab as ml
from conftest import EXPECTED_15, naive_column0

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_rationals = small_rationals.filter(lambda v: v != 0)
small_integers = st.integers(min_value=-4, max_value=4)
nonzero_integers = small_integers.filter(lambda v: v != 0)
specs = st.one_of(
    st.builds(ml.make_spec, small_integers, small_integers,
              nonzero_integers, nonzero_integers),
    st.builds(ml.make_spec, small_rationals, small_rationals,
              nonzero_rationals, nonzero_rationals),
    st.builds(ml.spec_from_prefixes,
              st.lists(small_integers | small_rationals, max_size=6),
              small_integers | small_rationals,
              st.lists(nonzero_integers | nonzero_rationals, max_size=6),
              nonzero_integers | nonzero_rationals),
)


def test_make_spec_catalan():
    spec = ml.make_spec(1, 2, 1, 1)
    assert spec.shorthand == (1, 2, 1, 1)
    assert [spec.sigma(k) for k in range(4)] == [1, 2, 2, 2]
    assert [spec.tau(k) for k in range(1, 5)] == [1, 1, 1, 1]
    assert spec.positive_case


def test_make_spec_delannoy():
    spec = ml.make_spec(3, 3, 4, 2)
    assert spec.sigma(0) == 3 and spec.sigma(7) == 3
    assert spec.tau(1) == 4 and spec.tau(2) == 2


def test_make_spec_zero_tau():
    with pytest.raises(ml.ZeroTau):
        ml.make_spec(0, 0, 0, 1)
    with pytest.raises(ml.ZeroTau):
        ml.make_spec(1, 1, 1, 0)


def test_negative_tau_allowed_but_not_positive_case():
    spec = ml.make_spec(1, 1, -1, 1)
    assert not spec.positive_case


def test_recursive_matrix_smallest():
    spec = ml.make_spec(5, 7, 2, 3)
    m = ml.recursive_matrix(spec, 0)
    assert m.rows == ((Fraction(1),),)
    assert m.entry(0, 0) == 1


def test_recursive_matrix_catalan_column():
    spec = ml.make_spec(1, 2, 1, 1)
    m = ml.recursive_matrix(spec, 4)
    assert [int(v) for v in m.column0] == [1, 1, 2, 5, 14]
    assert all(m.entry(n, n) == 1 for n in range(5))
    assert m.entry(2, 5) == 0


def test_catalan_like_examples():
    assert [int(v) for v in ml.catalan_like(ml.make_spec(2, 2, 2, 1), 4)] == [1, 2, 6, 20, 70]
    assert [int(v) for v in ml.catalan_like(ml.make_spec(2, 3, 2, 2), 4)] == [1, 2, 6, 22, 90]
    assert [int(v) for v in ml.catalan_like(ml.make_spec(3, 3, 1, 1), 2)] == [1, 3, 10]
    assert [int(v) for v in ml.catalan_like(ml.make_spec(1, 1, 1, 1), 5)] == [1, 1, 2, 4, 9, 21]


def test_catalog_riordan():
    spec, seq = ml.catalog_sequence("riordan", 5)
    assert spec.shorthand == (0, 1, 1, 1)
    assert [int(v) for v in seq] == [1, 0, 1, 1, 3, 6]
    assert seq.origin == "catalog"


def test_catalog_fine_spec():
    spec, seq = ml.catalog_sequence("fine", 4)
    assert spec.shorthand == (0, 2, 1, 1)
    assert [int(v) for v in seq] == [1, 0, 1, 2, 6]


def test_catalog_trivial_prefix():
    _, seq = ml.catalog_sequence("catalan", 0)
    assert list(seq) == [1]


def test_catalog_unknown_name():
    with pytest.raises(ml.UnknownName):
        ml.catalog_sequence("bell", 4)


@pytest.mark.parametrize("name", sorted(EXPECTED_15))
def test_catalog_against_frozen_values(name):
    _, seq = ml.catalog_sequence(name, 14)
    assert [int(v) for v in seq] == EXPECTED_15[name]


def test_shifted_catalan_consistency():
    _, cat = ml.catalog_sequence("catalan", 13)
    _, shifted = ml.catalog_sequence("shifted_catalan", 12)
    assert shifted.values == cat.values[1:]


@given(p=small_rationals, s=small_rationals, q=nonzero_rationals,
       t=nonzero_rationals, n_max=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_recurrence_reevaluates_exactly(p, s, q, t, n_max):
    spec = ml.make_spec(p, s, q, t)
    m = ml.recursive_matrix(spec, n_max)
    for n in range(n_max):
        for k in range(n + 2):
            expected = (m.entry(n, k - 1) + spec.sigma(k) * m.entry(n, k)
                        + spec.tau(k + 1) * m.entry(n, k + 1))
            assert m.entry(n + 1, k) == expected


@given(spec=specs, n_max=st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_column0_matches_naive_recursion(spec, n_max):
    got = ml.catalan_like(spec, n_max)
    expected = naive_column0(spec.sigma, spec.tau, n_max)
    assert list(got) == expected
    matrix = ml.recursive_matrix(spec, n_max)
    assert got.values == matrix.column0
    assert all(type(v) is Fraction for v in got)
    assert all(type(v) is Fraction for row in matrix.rows for v in row)
    assert got.to_json() == ml.Sequence(
        expected, label="catalan-like", origin="recursive-matrix").to_json()
    with pytest.raises(ValueError):
        ml.catalan_like(spec, -1)
    with pytest.raises(ValueError):
        ml.recursive_matrix(spec, -1)


def test_prefix_with_explicit_lists():
    spec = ml.spec_from_prefixes([0, 0, 5], 1, [1, 2], 3)
    assert spec.shorthand is None
    assert spec.sigma(2) == 5 and spec.sigma(3) == 1
    assert spec.tau(2) == 2 and spec.tau(3) == 3


def test_sequence_validation():
    with pytest.raises(ValueError):
        ml.Sequence(())
    with pytest.raises(ValueError):
        ml.Sequence((1,), origin="guess")
    with pytest.raises(TypeError):
        ml.Sequence((0.5,))


def test_sequence_json_roundtrip():
    seq = ml.Sequence((Fraction(1), Fraction(1, 2), Fraction(-7, 3)), label="x")
    text = seq.to_json()
    data = json.loads(text)
    assert data["schema"] == "momentlab/sequence/v1"
    assert data["values"] == ["1", "1/2", "-7/3"]
    back = ml.Sequence.from_json(text)
    assert back.values == seq.values and back.label == "x"


def test_sequence_from_bare_json_array():
    seq = ml.Sequence.from_json('[1, "3/2", "-2"]')
    assert seq.values == (Fraction(1), Fraction(3, 2), Fraction(-2))


def test_sequence_csv():
    seq = ml.Sequence((Fraction(2), Fraction(1, 2)))
    assert seq.to_csv() == "2\n1/2\n"
