"""CLI behaviour: flags, exit codes, and byte-identity with the library."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_transform_verify(capsys):
    code, out, _ = run(capsys, "transform", "--name", "catalan",
                       "--sub", "d=2,l=0", "--n", "20", "--verify",
                       "--check-n", "6", "--tol", "1e-6")
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
])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, sequence_file, precision):
    if sequence_file is not None:
        (tmp_path / "seq.json").write_bytes(sequence_file)
        argv += ("seq.json",)
    proc = run_process(("-m", "momentlab.cli", *argv), precision, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.strip().splitlines()[-1]


_LOADED = """
import sys
from momentlab.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, sorted({"numpy", "scipy"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv,loads_scipy", [
    ((), False),
    (("gen", "--name", "delannoy", "--n", "30"), False),
    (("classify", "--m", "4", "--input", "seq.json", "--interval", "0,4"), False),
    (("verify", "--name", "motzkin", "--n", "8"), True),
    (("ops", "--name", "catalan", "--deg", "5", "--zeros"), True),
])
def test_numpy_scipy_load_only_where_needed(tmp_path, argv, loads_scipy):
    _, cat = ml.catalog_sequence("catalan", 12)
    (tmp_path / "seq.json").write_text(cat.to_json())
    proc = run_process(("-c", _LOADED, *argv), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert loaded == ("['numpy', 'scipy']" if loads_scipy else "[]")
