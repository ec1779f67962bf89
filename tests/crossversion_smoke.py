"""Stdlib-only smoke check of the CLI for interpreters without pytest.

    python tests/crossversion_smoke.py

Runs every argv of ``tests/cli_golden.json`` through ``momentlab.cli.main``
and compares exit code and stdout with the recorded ones; starts one
process per subcommand and checks that none loads ``dataclasses`` or
``inspect``; and calls ``dataclasses.replace`` on a ``MomentClassReport``
and a ``SupportReport``, whose ``__dataclass_fields__`` the records build
only on that first call.  Prints each mismatch and exits 1 if there is
one.  pytest runs the same checks as ``test_cli_matches_golden``,
``test_each_subcommand_loads_only_its_layers`` and
``test_dataclasses_api_on_every_record``.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
sys.path.insert(0, str(SRC))

from momentlab import chainseq, hankel, seqcore  # noqa: E402
from momentlab.cli import main  # noqa: E402

PROBE = """
import sys
from momentlab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""
PROBES = [
    (("gen", "--name", "delannoy", "--n", "30"), 0, []),
    (("gen", "--name", "catalan", "--n", "-1"), 2, []),
    (("classify", "--m", "4", "--input", "seq.json", "--interval", "0,4"), 0, []),
    (("ops", "--name", "catalan", "--deg", "5", "--zeros"), 0, []),
    (("support", "--p", "3", "--s", "3", "--q", "4", "--t", "2", "--check", "200"), 0, []),
    (("verify", "--name", "motzkin", "--n", "8"), 0, []),
    (("transform", "--name", "delannoy", "--lincomb=0,1", "--verify"), 0, []),
    (("transform", "--name", "catalan", "--sub", "d=2,l=0", "--verify"), 0, []),
    # a malformed sequence file exits 2 before classify imports hankel
    (("classify", "--m", "1", "--input", "bad.json"), 2, []),
]


def golden_mismatches(workdir):
    cases = json.loads((TESTS / "cli_golden.json").read_text())["cases"]
    os.environ.pop("MOMENTLAB_PRECISION", None)
    for case in cases:
        argv = case["argv"]
        if case["input"] is not None:
            path = workdir / "golden_seq.json"
            path.write_text(json.dumps(case["input"]))
            argv = [str(path) if a == "SEQ" else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        if (code, out.getvalue()) != (case["exit"], case["stdout"]):
            yield f"golden: {' '.join(case['argv'])}: exit {code}, expected {case['exit']}"


def probe_mismatches(workdir):
    (workdir / "seq.json").write_text('{"values": ["1", "1", "2", "5", "14", "42", "132", '
                                      '"429", "1430", "4862"]}')
    (workdir / "bad.json").write_text("[1, 2")
    env = {k: v for k, v in os.environ.items() if k != "MOMENTLAB_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    for argv, code, loaded in PROBES:
        proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, cwd=workdir,
                              capture_output=True, text=True, timeout=120)
        status = proc.stdout.splitlines()[-1] if proc.stdout else proc.stderr
        if status != f"{code} {loaded}":
            yield f"probe: {' '.join(argv)}: {status!r}, expected '{code} {loaded}'"


def replace_mismatches():
    _, catalan = seqcore.catalog_sequence("catalan", 12)
    classified = hankel.classify(catalan, 4, interval=(0, 4))
    support = chainseq.certify_support(seqcore.make_spec(3, 3, 4, 2), n_check=20)
    for record, field, value in ((classified, "hamburger_ok_up_to", 3),
                                 (support, "s_bounds_ok", not support.s_bounds_ok)):
        copy = dataclasses.replace(record, **{field: value})
        back = dataclasses.replace(copy, **{field: getattr(record, field)})
        if type(copy) is not type(record) or getattr(copy, field) != value or back != record:
            yield f"replace: {type(record).__name__}.{field}: got {getattr(copy, field)!r}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        problems = [*golden_mismatches(Path(tmp)), *probe_mismatches(Path(tmp)),
                    *replace_mismatches()]
    for problem in problems:
        print(problem)
    print(f"Python {sys.version.split()[0]}: {len(problems)} mismatches")
    sys.exit(1 if problems else 0)
