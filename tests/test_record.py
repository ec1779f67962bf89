"""The frozen-record contract: each Record class behaves like the
``@dataclass(frozen=True)`` it replaced.  The repr strings are the ones the
dataclass versions printed."""

import math
import pickle
from fractions import Fraction

import pytest

import momentlab as ml
from momentlab._record import Record
from momentlab.cli import _OpsReport
from momentlab.measures import GVerdict, RepresentationReport

_CATALAN = ml.make_spec(0, 2, 1, 1)

# (build, repr): build() returns a fresh instance each call
CASES = [
    (lambda: ml.Sequence((1, 2), label="s"),
     "Sequence(values=(Fraction(1, 1), Fraction(2, 1)), label='s', origin='external')"),
    (lambda: ml.make_spec(0, 2, 1, 1),
     "SigmaTauSpec(sigma_prefix=(Fraction(0, 1),), sigma_tail=Fraction(2, 1), "
     "tau_prefix=(Fraction(1, 1),), tau_tail=Fraction(1, 1), label='')"),
    (lambda: ml.RecursiveMatrix(((1,), (1, 1))),
     "RecursiveMatrix(rows=((1,), (1, 1)))"),
    (lambda: ml.MonicPolynomial((2, 1, 0)),
     "MonicPolynomial(coefficients=(Fraction(2, 1), Fraction(1, 1)))"),
    (lambda: ml.Density("w", 0.0, 1.0, math.sqrt, 0.5, -0.5),
     "Density(label='w', a=0.0, b=1.0, weight=<built-in function sqrt>, "
     "left_exponent=Fraction(1, 2), right_exponent=Fraction(-1, 2), "
     "a_exact=Fraction(0, 1), b_exact=Fraction(1, 1))"),
    (lambda: RepresentationReport("r", 1e-7, ((0, 1.0, 1.0, 0.0, 0.0),)),
     "RepresentationReport(label='r', tol=1e-07, rows=((0, 1.0, 1.0, 0.0, 0.0),))"),
    (lambda: ml.TransformSpec("linear_combination", g=(4, -1), interval=(0, 4)),
     "TransformSpec(kind='linear_combination', d=1, offset=0, "
     "g=(Fraction(4, 1), Fraction(-1, 1)), interval=(0, 4))"),
    (lambda: ml.pattern_is_stieltjes_preserving((0, 1, 3)).witness,
     "PatternWitness(epsilon=Fraction(1, 2), indices=(0, 1, 3), "
     "block=SymMatrix(rows=((Fraction(1, 1), Fraction(1, 2)), "
     "(Fraction(1, 2), Fraction(1, 8)))), determinant=Fraction(-1, 8))"),
    (lambda: ml.pattern_is_stieltjes_preserving((0, 2, 4)),
     "PatternVerdict(preserving=True, witness=None)"),
    (lambda: GVerdict("violated", Fraction(1, 2)),
     "GVerdict(status='violated', violation_x=Fraction(1, 2))"),
    (lambda: _OpsReport(_CATALAN, (ml.MonicPolynomial((1,)),), (2.0,), (2.0, 2.0)),
     "_OpsReport(spec=SigmaTauSpec(sigma_prefix=(Fraction(0, 1),), "
     "sigma_tail=Fraction(2, 1), tau_prefix=(Fraction(1, 1),), tau_tail=Fraction(1, 1), "
     "label=''), polys=(MonicPolynomial(coefficients=(Fraction(1, 1),)),), "
     "zeros=(2.0,), extreme=(2.0, 2.0))"),
]
IDS = [text.split("(", 1)[0] for _, text in CASES]


def _values(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_equality_hash_and_repr(build, text):
    record = build()
    assert isinstance(record, Record)
    assert record == build() and not record != build()
    assert hash(record) == hash(build()) == hash(_values(record))
    assert repr(record) == text


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_another_class_with_the_same_values_is_unequal(build, text):
    record = build()
    fields = type(record)._fields
    twin = type(type(record).__name__, (Record,),
                {"__annotations__": dict.fromkeys(fields, "object")})(*_values(record))
    assert repr(twin) == repr(record)
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_pickle_round_trip(build, text):
    record = build()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_frozen(build, text):
    record = build()
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_bad_arguments_raise_type_error(build, text):
    record = build()
    cls, values = type(record), _values(record)
    first = cls._fields[0]
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        record.replace(bogus=1)
    assert cls(**dict(zip(cls._fields, values))) == record


def test_post_init_normalises():
    seq = ml.Sequence([1, 2, "3/2"])
    assert seq.values == (1, 2, Fraction(3, 2))
    assert all(type(v) is Fraction for v in seq.values)
    with pytest.raises(TypeError):
        ml.Sequence((1, 0.5))
    assert ml.MonicPolynomial((Fraction(-2), 1, 0, 0)).coefficients == (-2, 1)
    with pytest.raises(ValueError):
        ml.MonicPolynomial((1, 2, 0))
    dens = ml.Density("w", -1.0, 0.5, math.sqrt, 0.25, -1.5)
    assert (dens.left_exponent, dens.right_exponent) == (Fraction(1, 4), Fraction(-3, 2))
    assert type(dens.left_exponent) is Fraction and type(dens.right_exponent) is Fraction
    assert (dens.a_exact, dens.b_exact) == (-1, Fraction(1, 2))
    kept = ml.Density("w", 0.0, 4.0, math.sqrt, 0, 0, a_exact=Fraction(0), b_exact=Fraction(4))
    assert kept.b_exact == 4


def test_replace_keeps_the_other_fields_and_normalises_again():
    dens = ml.Density("w", 0.0, 1.0, math.sqrt, 0.5, -0.5)
    moved = dens.replace(label="v", right_exponent=2.5)
    assert moved.label == "v" and moved.right_exponent == Fraction(5, 2)
    assert [getattr(moved, f) for f in ml.Density._fields if f not in ("label", "right_exponent")] \
        == [getattr(dens, f) for f in ml.Density._fields if f not in ("label", "right_exponent")]
    assert dens.label == "w" and dens.replace() == dens
    seq = ml.Sequence((1, 1, 2), label="c", origin="catalog")
    assert seq.replace(values=(3,)) == ml.Sequence((Fraction(3),), label="c", origin="catalog")
    with pytest.raises(ValueError):
        seq.replace(origin="elsewhere")


def test_defaults_and_constants():
    spec = ml.TransformSpec("subsequence")
    assert (spec.d, spec.offset, spec.g, spec.interval) == (1, 0, (), None)
    assert ml.TransformSpec._fields == ("kind", "d", "offset", "g", "interval")
    assert ml.TransformSpec.SUBSEQUENCE == "subsequence"
    assert "_ORIGINS" not in ml.Sequence._fields
    with pytest.raises(TypeError, match="follows a default field"):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})
