"""CLI behaviour: flags, exit codes, and byte-identity with the library."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import momentlab as ml
from momentlab.cli import main

SRC = str(Path(ml.__file__).resolve().parents[1])


def run_process(args, precision=None, cwd=None):
    """Run ``python <args>`` in a fresh interpreter that imports the package
    from this source tree."""
    env = {k: v for k, v in os.environ.items() if k != "MOMENTLAB_PRECISION"}
    env["PYTHONPATH"] = SRC
    if precision is not None:
        env["MOMENTLAB_PRECISION"] = precision
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_catalog_json(capsys):
    code, out, _ = run(capsys, "gen", "--name", "delannoy", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == ["1", "3", "13", "63", "321", "1683"]
    assert data["origin"] == "catalog"


def test_gen_matches_library_bytes(capsys):
    code, out, _ = run(capsys, "gen", "--name", "motzkin", "--n", "6")
    _, seq = ml.catalog_sequence("motzkin", 6)
    assert out.strip() == seq.to_json()


def test_gen_from_quadruple_csv(capsys):
    code, out, _ = run(capsys, "gen", "--p", "1", "--s", "2", "--q", "1",
                       "--t", "1", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "1\n1\n2\n5\n14\n"


def test_gen_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--name", "bell", "--n", "4"])
    assert info.value.code == 2


def test_gen_rational_arguments(capsys):
    code, out, _ = run(capsys, "gen", "--p", "1/2", "--s", "2", "--q", "1/3",
                       "--t", "1", "--n", "2")
    assert code == 0
    values = json.loads(out)["values"]
    assert values == ["1", "1/2", "7/12"]


def test_classify_pass_and_fail(tmp_path, capsys):
    _, cat = ml.catalog_sequence("catalan", 12)
    good = tmp_path / "cat.json"
    good.write_text(cat.to_json())
    code, out, _ = run(capsys, "classify", "--input", str(good), "--m", "4",
                       "--interval", "0,4")
    assert code == 0
    assert json.loads(out)["hausdorff_ok_up_to"] == 4

    aerated = []
    for v in cat:
        aerated.extend([v, Fraction(0)])
    bad = tmp_path / "inter.json"
    bad.write_text(ml.Sequence(aerated[:13]).to_json())
    code, out, _ = run(capsys, "classify", "--input", str(bad), "--m", "3")
    assert code == 1
    data = json.loads(out)
    assert data["hamburger_ok_up_to"] == 3
    assert data["stieltjes_ok_up_to"] == 0


def test_classify_sqrt_tokens(tmp_path, capsys):
    _, dela = ml.catalog_sequence("delannoy", 10)
    path = tmp_path / "dela.json"
    path.write_text(dela.to_json())
    code, out, _ = run(capsys, "classify", "--input", str(path), "--m", "3",
                       "--interval", "s-2sqrt(t),s+2sqrt(t)",
                       "--s", "3", "--t", "2")
    assert code == 0
    data = json.loads(out)
    assert data["hausdorff_ok_up_to"] == 3
    assert data["hausdorff_interval"] == ["3 - 2*sqrt(2)", "3 + 2*sqrt(2)"]


def test_classify_sqrt_tokens_need_s_t(tmp_path, capsys):
    _, cat = ml.catalog_sequence("catalan", 8)
    path = tmp_path / "c.json"
    path.write_text(cat.to_json())
    with pytest.raises(SystemExit) as info:
        main(["classify", "--input", str(path), "--m", "2",
              "--interval", "s-2sqrt(t),s+2sqrt(t)"])
    assert info.value.code == 2


def test_support_pass(capsys):
    code, out, _ = run(capsys, "support", "--p", "1", "--s", "2",
                       "--q", "1", "--t", "1")
    assert code == 0
    data = json.loads(out)
    assert data["interval"]["lower"]["approx"] == 0.0
    assert data["interval"]["upper"]["approx"] == 4.0
    assert data["stieltjes"] is True


def test_support_with_certification(capsys):
    code, out, _ = run(capsys, "support", "--p", "3", "--s", "3",
                       "--q", "4", "--t", "2", "--check", "150")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["n_check"] == 150


def test_support_hypothesis_failure_exits_1(capsys):
    code, out, err = run(capsys, "support", "--p", "0", "--s", "2",
                         "--q", "1", "--t", "1")
    assert code == 1
    assert json.loads(out)["hypotheses"]["p_above_lower"] is False
    assert "hypothesis failure" in err


def test_support_check_with_p_at_upper_endpoint_exits_1(capsys):
    # p = s + 2 sqrt(t) is valid input: the report shows the failed right chain
    code, out, err = run(capsys, "support", "--p", "4", "--s", "2",
                         "--q", "1", "--t", "1", "--check", "10")
    data = json.loads(out)
    assert (code, err) == (1, "")
    assert data["passed"] is False and data["s_bounds_ok"] is False
    assert data["right_chain"]["failure_index"] == 0


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--name", "motzkin", "--n", "10",
                       "--tol", "1e-7")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_PRECISION", "1e-5")
    code, out, _ = run(capsys, "verify", "--name", "catalan", "--n", "6")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-5


def test_verify_unknown_density(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--name", "fine", "--n", "6"])
    assert info.value.code == 2


def test_verify_plot_csv(tmp_path, capsys):
    plot = tmp_path / "w.csv"
    code, _, _ = run(capsys, "verify", "--name", "catalan", "--n", "4",
                     "--tol", "1e-6", "--plot-csv", str(plot))
    assert code == 0
    assert plot.read_text().startswith("x,w")


def test_transform_subsequence(capsys):
    code, out, _ = run(capsys, "transform", "--name", "catalan",
                       "--sub", "d=2,l=0", "--n", "10")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == ["1", "2", "14", "132", "1430", "16796"]


def test_transform_lincomb_matches_library(capsys):
    code, out, _ = run(capsys, "transform", "--name", "catalan",
                       "--lincomb", "4,-1@1", "--n", "12")
    assert code == 0
    _, cat = ml.catalog_sequence("catalan", 12)
    expected, _ = ml.linear_combination_transform(
        cat, (0, 4, -1), Fraction(0), Fraction(4))
    assert out.strip() == expected.to_json()


def test_transform_lincomb_negative_exits_1(capsys):
    code, _, err = run(capsys, "transform", "--name", "catalan",
                       "--lincomb", "1,-1", "--n", "8")
    assert code == 1
    assert "negative" in err
    # (x - 1)(x - 1 - 10^-6) dips below 0 only on (1, 1 + 10^-6)
    code, out, err = run(capsys, "transform", "--name", "catalan",
                         "--lincomb=1000001/1000000,-2000001/1000000,1", "--n", "8")
    assert (code, out) == (1, "")
    assert "at x = 1048577/1048576" in err


def test_transform_verify(capsys):
    code, out, _ = run(capsys, "transform", "--name", "catalan",
                       "--sub", "d=2,l=0", "--n", "20", "--verify",
                       "--check-n", "6", "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("name", ["catalan", "central_binomial"])
def test_transform_verify_pushforward_at_tight_tol(capsys, name):
    # the x^3 pushforward of x w has a left exponent of -1/2, but its
    # cosine-mapped integrand is not analytic: the midpoint rule reaches
    # its node cap and the power map has to take over
    code, out, _ = run(capsys, "transform", "--name", name, "--sub", "d=3,l=1",
                       "--verify", "--tol", "1e-9")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_transform_requires_exactly_one_kind(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "--name", "catalan", "--n", "8"])
    assert info.value.code == 2


def test_ops_json(capsys):
    code, out, _ = run(capsys, "ops", "--name", "catalan", "--deg", "3",
                       "--zeros")
    assert code == 0
    data = json.loads(out)
    assert data["polynomials"][2] == ["1", "-3", "1"]
    assert len(data["zeros"]) == 3
    assert data["spec"] == {"p": "1", "s": "2", "q": "1", "t": "1"}


def test_ops_text(capsys):
    code, out, _ = run(capsys, "ops", "--name", "motzkin", "--deg", "2",
                       "--format", "text")
    assert code == 0
    assert "P_2 = x^2 - 2*x" in out


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "gen", "--name", "catalan", "--n", "3",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["values"] == ["1", "1", "2", "5"]


def test_missing_input_file_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--input", "/nonexistent.json",
                       "--m", "2")
    assert code == 2


@pytest.mark.parametrize("argv,sequence_file,precision", [
    (("gen", "--name", "catalan", "--n", "-1"), None, None),
    (("classify", "--m", "1", "--input"), b"[1, 2.5, 3]", None),
    (("classify", "--m", "1", "--input"), b"[1, 2", None),
    (("classify", "--m", "1", "--input"), b'[1, "1/0", 3]', None),
    (("classify", "--m", "1", "--input"), b"\xff[1, 1, 2]", None),
    (("classify", "--m", "-1", "--input"), b"[1, 1, 2]", None),
    (("classify", "--m", "1", "--interval", "4,0", "--input"), b"[1, 1, 2]", None),
    (("support", "--p", "1", "--s", "2", "--q", "1", "--t", "-1"), None, None),
    (("ops", "--name", "catalan", "--deg", "-1"), None, None),
    (("verify", "--name", "catalan", "--n", "5"), None, "abc"),
    (("verify", "--name", "catalan", "--n", "5"), None, "-1"),
    (("verify", "--name", "catalan", "--n", "5"), None, "nan"),
    (("classify", "--m", "1", "--input"), b"[true, false, 1, 2, 5]", None),
    (("transform", "--name", "catalan", "--lincomb=1@-1"), None, None),
    (("transform", "--name", "motzkin", "--sub", "d=2,l=0", "--verify"), None, None),
    # moments or x^n beyond the largest double
    (("verify", "--name", "catalan", "--n", "600"), None, None),
    (("verify", "--name", "motzkin", "--n", "700"), None, None),
    (("transform", "--name", "catalan", "--n", "600", "--lincomb=1", "--verify",
      "--check-n", "600"), None, None),
    # Sequence.from_json shape checks
    (("classify", "--m", "1", "--input"), b'{"values": "1125"}', None),
    (("transform", "--sub", "d=1", "--format", "text", "--input"),
     b'{"values": [1, 1, 2, 5], "label": ["x"]}', None),
    # an interval only means something for --lincomb
    (("transform", "--name", "catalan", "--sub", "d=2,l=0", "--interval", "0,4"), None, None),
    # --s and --t only feed --interval; --check-n and --tol only feed --verify
    (("transform", "--name", "catalan", "--sub", "d=2", "--n", "4", "--s", "3", "--t", "2"),
     None, None),
    (("transform", "--name", "catalan", "--lincomb=1", "--n", "4", "--s", "3", "--t", "2"),
     None, None),
    (("transform", "--name", "catalan", "--sub", "d=2", "--n", "4", "--check-n", "3",
      "--tol", "1e-3"), None, None),
    (("classify", "--m", "2", "--s", "3", "--t", "2", "--input"), b"[1, 1, 2, 5, 14]", None),
])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, sequence_file, precision):
    if sequence_file is not None:
        (tmp_path / "seq.json").write_bytes(sequence_file)
        argv += ("seq.json",)
    proc = run_process(("-m", "momentlab.cli", *argv), precision, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.strip().splitlines()[-1]


def test_sub_with_interval_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--name", "catalan", "--sub", "d=2,l=0", "--interval", "0,4"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--interval applies to --lincomb only" in captured.err


@pytest.mark.parametrize("lincomb", ["--lincomb=1@1000000", "--lincomb=-1@1000000"])
def test_lincomb_longer_than_sequence_exits_2_at_once(tmp_path, lincomb):
    # the length is checked before g >= 0, which would evaluate x^1000000 exactly
    start = time.perf_counter()
    proc = run_process(("-m", "momentlab.cli", "transform", "--name", "catalan",
                        "--n", "5", lincomb), cwd=tmp_path)
    assert time.perf_counter() - start < 20
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "shorter than the polynomial degree" in proc.stderr


@pytest.mark.parametrize("name,lincomb,g,interval", [
    ("catalan", "0,4,-1", (0, 4, -1), None),
    ("delannoy", "1,1", (1, 1), None),
    ("motzkin", "1,1", (1, 1), "-1,3"),
])
def test_transform_lincomb_verify_matches_library(capsys, name, lincomb, g, interval):
    argv = ["transform", "--name", name, f"--lincomb={lincomb}", "--n", "14",
            "--verify", "--check-n", "9"]
    if interval is not None:
        argv.append(f"--interval={interval}")
    code, out, _ = run(capsys, *argv)
    _, seq = ml.catalog_sequence(name, 14)
    dens = ml.density_catalog(name)
    bounds = (Fraction(-1), Fraction(3)) if interval else (dens.a_exact, dens.b_exact)
    tspec = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=g, interval=bounds)
    report = ml.verify_transform_consistency(seq, tspec, dens, 9, tol=1e-6)
    assert (code, out) == (0 if report.passed else 1, report.to_json() + "\n")


_GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())["cases"]


@pytest.mark.parametrize("case", _GOLDEN, ids=[" ".join(c["argv"]) for c in _GOLDEN])
def test_cli_matches_golden(tmp_path, capsys, monkeypatch, case):
    """gen, classify, support, transform without --verify and ops in every
    format; floats there do not depend on libm."""
    monkeypatch.delenv("MOMENTLAB_PRECISION", raising=False)
    argv = case["argv"]
    if case["input"] is not None:
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(case["input"]))
        argv = [str(path) if a == "SEQ" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv,name,n,tspec,n_top,tol", [
    (("verify", "--name", "delannoy", "--n", "8", "--tol", "1e-9"),
     "delannoy", 8, None, 8, 1e-9),
    (("transform", "--name", "catalan", "--sub", "d=1,l=1", "--n", "12", "--verify",
      "--check-n", "6"), "catalan", 12, ml.TransformSpec("subsequence", d=1, offset=1), 6, 1e-6),
    (("transform", "--name", "motzkin", "--lincomb=1,1", "--n", "14", "--verify"), "motzkin",
     14, ml.TransformSpec("linear_combination", g=(1, 1), interval=(-1, 3)), 8, 1e-6),
])
def test_verify_output_matches_library(capsys, monkeypatch, argv, name, n, tspec, n_top,
                                       tol, fmt):
    # quadrature floats depend on libm, so these are pinned to the library
    monkeypatch.delenv("MOMENTLAB_PRECISION", raising=False)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    _, seq = ml.catalog_sequence(name, n)
    dens = ml.density_catalog(name)
    report = ml.verify_representation(seq, dens, n_top, tol=tol) if tspec is None \
        else ml.verify_transform_consistency(seq, tspec, dens, n_top, tol=tol)
    expected = {"json": report.to_json() + "\n", "csv": report.to_csv(),
                "text": report.to_text()}[fmt]
    assert (code, out) == (0 if report.passed else 1, expected)
    if fmt == "text":
        assert out.count("\n") == 1 and "max relative error" in out


_LOADED = """
import sys
from momentlab.cli import main
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:  # argparse rejects bad input at parse time
    code = exc.code
print(code, sorted({"dataclasses", "inspect", "numpy", "scipy"} & set(sys.modules)))
"""


_BLOCKED = """
import sys
sys.modules["numpy"] = sys.modules["scipy"] = None  # importing either now fails
from momentlab import measures
from momentlab.cli import main
calls, quad = [], measures.quad
measures.quad = lambda *args: calls.append(args) or quad(*args)
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:  # argparse rejects bad input at parse time
    code = exc.code
print(code, bool(calls), [name for name in ("numpy", "scipy") if sys.modules[name]])
"""


@pytest.mark.parametrize("argv,power_map", [
    ((), False),
    (("gen", "--name", "delannoy", "--n", "30"), False),
    (("classify", "--m", "4", "--input", "seq.json", "--interval", "0,4"), False),
    (("verify", "--name", "motzkin", "--n", "8"), False),
    (("ops", "--name", "catalan", "--deg", "5", "--zeros"), False),
    (("support", "--p", "3", "--s", "3", "--q", "4", "--t", "2", "--check", "200"), False),
    (("transform", "--name", "delannoy", "--lincomb=0,1", "--verify"), False),
    # the x^2 pushforward has a -3/4 endpoint exponent: the power map
    (("transform", "--name", "catalan", "--sub", "d=2,l=0", "--verify"), True),
])
def test_numpy_scipy_load_only_where_needed(tmp_path, argv, power_map):
    """Every subcommand runs with numpy and scipy unimportable, the power-map
    quadrature included."""
    _, cat = ml.catalog_sequence("catalan", 12)
    (tmp_path / "seq.json").write_text(cat.to_json())
    proc = run_process(("-c", _BLOCKED, *argv), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {power_map} []"


_MOMENTLAB_LOADED = _LOADED + """
print(sorted(name for name in sys.modules if name.startswith("momentlab")))
"""
_CLI_BASE = ("momentlab", "momentlab._record", "momentlab.cli", "momentlab.errors",
             "momentlab.exact", "momentlab.seqcore")


@pytest.mark.parametrize("argv,code,layers", [
    ((), 0, ()),
    (("gen", "--name", "delannoy", "--n", "30"), 0, ()),
    (("gen", "--name", "catalan", "--n", "-1"), 2, ()),
    (("classify", "--m", "4", "--input", "seq.json", "--interval", "0,4"), 0, ("hankel",)),
    (("ops", "--name", "catalan", "--deg", "5", "--zeros"), 0, ("orthopoly",)),
    (("support", "--p", "3", "--s", "3", "--q", "4", "--t", "2"), 0,
     ("chainseq", "orthopoly")),
    (("support", "--p", "3", "--s", "3", "--q", "4", "--t", "2", "--check", "200"), 0,
     ("chainseq", "orthopoly")),
    (("verify", "--name", "motzkin", "--n", "8"), 0, ("measures", "orthopoly")),
    (("transform", "--name", "delannoy", "--lincomb=0,1", "--verify"), 0,
     ("measures", "orthopoly")),
    (("transform", "--name", "catalan", "--sub", "d=2,l=0"), 0, ("measures", "orthopoly")),
    (("transform", "--name", "catalan", "--sub", "d=2,l=0", "--verify"), 0,
     ("measures", "orthopoly")),
])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, code, layers):
    _, cat = ml.catalog_sequence("catalan", 12)
    (tmp_path / "seq.json").write_text(cat.to_json())
    proc = run_process(("-c", _MOMENTLAB_LOADED, *argv), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *_, status, loaded = proc.stdout.splitlines()
    # hankel and chainseq records stay dataclasses, because perfbench calls
    # dataclasses.replace on MomentClassReport and SupportReport; so only
    # classify and support load dataclasses, and with it inspect
    stdlib = ["dataclasses", "inspect"] if {"hankel", "chainseq"} & set(layers) else []
    assert status == f"{code} {stdlib}"
    assert loaded == str(sorted(_CLI_BASE + tuple(f"momentlab.{m}" for m in layers)))


def test_import_momentlab_loads_no_submodule(tmp_path):
    probe = ("import sys, momentlab; "
             "print(sorted(name for name in sys.modules if name.startswith('momentlab')))")
    proc = run_process(("-c", probe), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['momentlab']"


# -- fuzzing the exit-code contract ------------------------------------------

_VALUE = st.sampled_from(("0", "1", "2", "3", "-1", "1/2", "7/3", "-5/2", "x"))
_SMALL = st.integers(0, 12).map(str) | st.sampled_from(("-1", "x", ""))
_NAME = st.sampled_from(ml.catalog_names() + ("bell",))
_SEQUENCE_FILE = st.one_of(
    st.lists(st.integers(-3, 60).map(str) | st.sampled_from(("1/2", "-3/4")),
             max_size=14).map(json.dumps),
    st.sampled_from((json.dumps([str(v) for v in ml.catalog_sequence("catalan", 13)[1]]),
                     "[1, 2.5]", "[1, 2", "[]", "{}", "null", '["1/0"]', "[true, 1]",
                     "[[1]]", '"12"', '{"values": ["1", "1", "2"]}')),
).map(str.encode) | st.binary(max_size=12)
_LINCOMB = st.builds(
    lambda coeffs, shift: ",".join(coeffs) + shift,
    st.lists(st.sampled_from(("0", "1", "-1", "4", "-6", "1/2", "-2/3")),
             min_size=1, max_size=4),
    st.sampled_from(("", "@0", "@1", "@3", "@-1", "@x")),
) | st.sampled_from(("", ",", "1,,2", "a", "1/0"))
_INTERVAL = st.sampled_from(("0,4", "-1,3", "1/2,3", "4,0", "1", "0,1/0", "x,y",
                             "s-2sqrt(t),s+2sqrt(t)", "s-2*sqrt(t),2"))


@st.composite
def _cli_call(draw):
    """(argv, sequence file bytes or None, MOMENTLAB_PRECISION or None)."""
    argv, seq_file = [], None

    def opt(flag, values, always=False):
        if always or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")

    def spec_options():
        if draw(st.booleans()):
            opt("--name", _NAME, always=True)
        else:
            for flag in ("--p", "--s", "--q", "--t"):
                opt(flag, _VALUE, always=draw(st.integers(0, 5)) > 0)

    command = draw(st.sampled_from(("gen", "classify", "support", "verify", "transform", "ops")))
    argv.append(command)
    if command == "gen":
        spec_options()
        opt("--n", _SMALL, always=True)
    elif command == "classify":
        seq_file = draw(_SEQUENCE_FILE)
        argv.append("--input=seq.json")
        opt("--m", st.integers(0, 6).map(str) | st.just("-1"), always=True)
        opt("--interval", _INTERVAL)
        opt("--s", _VALUE)
        opt("--t", _VALUE)
    elif command == "support":
        for flag in ("--p", "--s", "--q", "--t"):
            opt(flag, _VALUE, always=draw(st.integers(0, 5)) > 0)
        opt("--check", st.integers(0, 30).map(str) | st.just("-1"))
    elif command == "verify":
        opt("--name", st.sampled_from(ml.density_names() + ("fine", "bell")), always=True)
        opt("--n", st.integers(0, 6).map(str) | st.just("-1"))
        opt("--tol", st.sampled_from(("1e-7", "1e-3", "0", "nan", "-1", "abc")))
    elif command == "transform":
        if draw(st.booleans()):
            opt("--name", st.sampled_from(ml.density_names() + ("fine", "bell")), always=True)
        else:
            seq_file = draw(_SEQUENCE_FILE)
            argv.append("--input=seq.json")
        opt("--n", st.integers(0, 20).map(str))
        kind = draw(st.sampled_from(("sub", "lincomb", "both", "neither")))
        if kind in ("sub", "both"):
            opt("--sub", st.sampled_from(("d=2,l=0", "d=1,l=2", "d=3", "l=1", "d=0", "d=x", "k=1")),
                always=True)
        if kind in ("lincomb", "both"):
            opt("--lincomb", _LINCOMB, always=True)
        opt("--interval", _INTERVAL)
        opt("--s", _VALUE)
        opt("--t", _VALUE)
        if draw(st.booleans()):
            argv.append("--verify")
        opt("--check-n", st.integers(0, 8).map(str))
        opt("--tol", st.sampled_from(("1e-6", "1e-2", "0", "inf")))
    else:
        spec_options()
        opt("--deg", st.integers(0, 12).map(str) | st.just("-1"), always=True)
        if draw(st.booleans()):
            argv.append("--zeros")
    opt("--format", st.sampled_from(("json", "csv", "text", "xml")))
    return argv, seq_file, draw(st.sampled_from((None, "1e-6", "abc", "-1")))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(call=_cli_call())
def test_cli_fuzz_exit_codes(tmp_path_factory, call):
    """Any argument list and sequence file exits 0, 1 or 2, never by an exception."""
    argv, seq_file, precision = call
    workdir = tmp_path_factory.getbasetemp() / "cli_fuzz"
    workdir.mkdir(exist_ok=True)
    argv = [a.replace("seq.json", str(workdir / "seq.json")) for a in argv]
    if seq_file is not None:
        (workdir / "seq.json").write_bytes(seq_file)
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.environ.pop("MOMENTLAB_PRECISION", None)
        if precision is not None:
            os.environ["MOMENTLAB_PRECISION"] = precision
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
