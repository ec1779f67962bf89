"""The frozen-record contract: each Record class behaves like the
``@dataclass(frozen=True)`` it replaced, including under the ``dataclasses``
functions.  The repr strings are the ones the dataclass versions printed."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import momentlab as ml
from momentlab._record import Record
from momentlab.cli import _OpsReport
from momentlab.measures import GVerdict, RepresentationReport
from conftest import reference_hausdorff

_CATALAN = ml.make_spec(0, 2, 1, 1)

_MOTZKIN_CERTIFICATE = (
    "SupportCertificate(p=Fraction(1, 1), s=Fraction(1, 1), q=Fraction(1, 1), "
    "t=Fraction(1, 1), lower=Fraction(-1, 1), upper=Fraction(3, 1), p_above_lower=True, "
    "q_below_upper=True, t_below_upper=True, stieltjes_flag=False, g0=Fraction(1, 2), "
    "initial_parameter_ok=True)")
_MOTZKIN_CHAIN = ("ChainVerdict(is_chain_up_to=2, parameters=(Fraction(0, 1), Fraction(1, 4), "
                  "Fraction(1, 3), Fraction(3, 8)), failure_index=None)")
_MOTZKIN_TAIL = ("TailCertificate(ok=True, tail_value=Fraction(1, 4), "
                 "entry_parameter=Fraction(1, 4), bound=Fraction(1, 2))")

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
    (lambda: ml.Density("w", 0.0, 1.0, 0.5, -0.5, math.sqrt),
     "Density(label='w', a_exact=Fraction(0, 1), b_exact=Fraction(1, 1), "
     "left_exponent=Fraction(1, 2), right_exponent=Fraction(-1, 2), "
     "factor=<built-in function sqrt>)"),
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
    (lambda: ml.SymMatrix(((1, Fraction(1, 2)), (Fraction(1, 2), 1))),
     "SymMatrix(rows=((1, Fraction(1, 2)), (Fraction(1, 2), 1)))"),
    (lambda: ml.psd_status(ml.SymMatrix(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))))),
     "PsdVerdict(status='indefinite', pivots=None, witness=(Fraction(-2, 1), Fraction(1, 1)))"),
    # the interval test's verdict record, kept in conftest with its reference
    (lambda: reference_hausdorff((1, 1, 2), 0, 4, 0),
     "HausdorffVerdict(base=PsdVerdict(status='positive_definite', pivots=(Fraction(1, 1),), "
     "witness=None), combination=PsdVerdict(status='positive_definite', "
     "pivots=(Fraction(2, 1),), witness=None))"),
    (lambda: ml.classify((1, 0, 1, 0, 1), 1, interval=(0, 1)),
     "MomentClassReport(max_order=1, hamburger_ok_up_to=1, stieltjes_ok_up_to=0, "
     "delta_values=(Fraction(1, 1), Fraction(1, 1)), "
     "hamburger_status=('positive_definite', 'positive_definite'), "
     "shifted_status=('positive_semidefinite_singular', 'indefinite'), "
     "stieltjes_checked_up_to=1, hausdorff_interval=(Fraction(0, 1), Fraction(1, 1)), "
     "hausdorff_ok_up_to=-1, hausdorff_checked_up_to=1, hausdorff_status=('fail',), "
     "determinate=False, failure_witnesses=(('stieltjes-shifted', 1, "
     "PsdVerdict(status='indefinite', pivots=None, witness=(Fraction(1, 1), Fraction(-1, 1)))), "
     "('hausdorff', 0, PsdVerdict(status='indefinite', pivots=None, "
     "witness=(Fraction(1, 1),)))))"),
    (lambda: ml.minimal_parameters((Fraction(1, 4), Fraction(1, 4), 1)),
     "ChainVerdict(is_chain_up_to=1, parameters=(Fraction(0, 1), Fraction(1, 4), "
     "Fraction(1, 3), Fraction(3, 2)), failure_index=2)"),
    (lambda: ml.constant_tail_certificate(Fraction(1, 2), Fraction(1, 4)),
     "TailCertificate(ok=True, tail_value=Fraction(1, 4), entry_parameter=Fraction(1, 2), "
     "bound=Fraction(1, 2))"),
    (lambda: ml.support_interval(1, 1, 1, 1), _MOTZKIN_CERTIFICATE),
    (lambda: ml.certify_support(ml.make_spec(1, 1, 1, 1), n_check=2),
     f"SupportReport(certificate={_MOTZKIN_CERTIFICATE}, n_check=2, s_bounds_ok=True, "
     f"left_chain={_MOTZKIN_CHAIN}, left_tail={_MOTZKIN_TAIL}, "
     f"right_chain={_MOTZKIN_CHAIN}, right_tail={_MOTZKIN_TAIL}, "
     "zeros_interval=(-0.9962066574740882, 2.996206657474088), zeros_ok=True)"),
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
    dens = ml.Density("w", -1.0, 0.5, 0.25, -1.5, math.sqrt)
    assert (dens.left_exponent, dens.right_exponent) == (Fraction(1, 4), Fraction(-3, 2))
    assert type(dens.left_exponent) is Fraction and type(dens.right_exponent) is Fraction
    assert (dens.a_exact, dens.b_exact) == (-1, Fraction(1, 2))
    assert type(dens.a_exact) is Fraction and (dens.a, dens.b) == (-1.0, 0.5)
    kept = ml.Density("w", ml.Surd(3, -2, 2), 4, 0, 0, math.sqrt)
    assert kept.a_exact == ml.Surd(3, -2, 2) and type(kept.b_exact) is Fraction
    with pytest.raises(TypeError):  # the form before: the weight fourth
        ml.Density("w", 0.0, 1.0, math.sqrt, 0.5, -0.5)


def test_replace_keeps_the_other_fields_and_normalises_again():
    dens = ml.Density("w", 0.0, 1.0, 0.5, -0.5, math.sqrt)
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


def _plain(value):
    """What ``dataclasses.asdict`` should give: records as dicts, recursively."""
    if isinstance(value, Record):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    return value


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_dataclasses_api_on_every_record(build, text):
    record = build()
    cls = type(record)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(record)) == cls._fields
    assert {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING} == cls._defaults
    assert dataclasses.asdict(record) == _plain(record)
    first = cls._fields[0]
    copy = dataclasses.replace(record, **{first: getattr(record, first)})
    assert type(copy) is cls and copy == record and repr(copy) == text
    assert not dataclasses.is_dataclass(Record)


def test_dataclasses_replace_runs_post_init_again():
    seq = dataclasses.replace(ml.Sequence((1, 2), label="s"), values=(3, "1/2"))
    assert seq == ml.Sequence((3, Fraction(1, 2)), label="s")
    assert all(type(v) is Fraction for v in seq.values)
    with pytest.raises(ValueError, match="asymmetric"):
        dataclasses.replace(ml.SymMatrix(((1, 2), (2, 1))), rows=((1, 2), (3, 1)))
    report = ml.classify((1, 0, 1, 0, 1), 1, interval=(0, 1))
    lowered = dataclasses.replace(report, hamburger_ok_up_to=0)
    assert lowered.hamburger_ok_up_to == 0
    assert lowered == report.replace(hamburger_ok_up_to=0) != report
    support = ml.certify_support(ml.make_spec(1, 1, 1, 1), n_check=2)
    broken = dataclasses.replace(support, s_bounds_ok=False)
    assert support.passed and not broken.passed
    assert dataclasses.replace(broken, s_bounds_ok=True) == support


_RECORDS_WITHOUT_DATACLASSES = """
import sys
from fractions import Fraction
import momentlab.chainseq as chainseq
import momentlab.hankel as hankel
from momentlab import seqcore

def build():
    _, catalan = seqcore.catalog_sequence("catalan", 12)
    return (hankel.classify(catalan, 4, interval=(0, 4)),
            hankel.classify((1, 0, 1, 0, 1), 1, interval=(0, 1)),
            hankel.psd_status(hankel.hausdorff_combination(catalan, 0, 4, 2)),
            chainseq.constant_tail_certificate(Fraction(1, 2), Fraction(1, 4)),
            chainseq.certify_support(seqcore.make_spec(3, 3, 4, 2), n_check=20))

records = build()
assert records == build() and hash(records) == hash(build())
assert records[0] != records[1] and records[0].replace() == records[0]
assert repr(records) == repr(build())
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_hankel_and_chainseq_records_leave_dataclasses_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ml.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RECORDS_WITHOUT_DATACLASSES], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
