"""Command-line front end.

Subcommands map one-to-one onto library calls and emit the library's own
serializations, so results are byte-identical to direct use:

    momentlab gen --name catalan --n 20
    momentlab gen --p 1 --s 2 --q 1 --t 1 --n 20
    momentlab classify --input seq.json --m 8 --interval 0,4
    momentlab classify --input seq.json --m 6 \
        --interval "s-2sqrt(t),s+2sqrt(t)" --s 3 --t 2
    momentlab support --p 3 --s 3 --q 4 --t 2 --check 200
    momentlab verify --name motzkin --n 12 --tol 1e-7
    momentlab transform --name catalan --sub d=2,l=0 --verify
    momentlab transform --name catalan --lincomb "4,-1@1" --verify
    momentlab ops --name catalan --deg 6 --zeros

Each subcommand builds one report; --format prints it as JSON, as CSV (the
report's own table, else its JSON flattened to key,value rows) or as text
(the report's own summary, else its JSON).

Exit status: 0 on success; 1 when a check fails (a classification, support
certification or verification, with the report still emitted; the support
hypotheses, with the certificate emitted) or a --lincomb polynomial is
negative on the interval; 2 on bad input: option errors, unreadable or
malformed sequence files, an interval a,b without a < b or given with
--sub (it applies to --lincomb only), a --lincomb interval that does not
contain the catalog density's support, --s or --t without --interval,
--name together with --input on transform or with any of --p --s --q --t
on gen and ops, --check-n or --tol on transform without --verify, a
tolerance that is not a finite number above 0, an n whose moments
overflow a double, a --sub d whose pushforward has b^d or too much mass
outside the doubles, and any other library error.
The environment variable MOMENTLAB_PRECISION overrides the default
quadrature tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import seqcore
from ._record import Record
from .errors import GNegative, HypothesisFailure, MomentLabError
from .exact import ensure_fraction, format_rational, sqrt_exact


def _default_tol(parser) -> float:
    raw = os.environ.get("MOMENTLAB_PRECISION")
    if raw is None:
        return 1e-7
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"MOMENTLAB_PRECISION: {exc}")


def _write(text: str, path):
    text = text if text.endswith("\n") else text + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _flat_csv(data, prefix="") -> str:
    """key,value rows from a (possibly nested) JSON-style dict."""
    lines = [] if prefix else ["key,value"]
    for key, value in data.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(_flat_csv(value, prefix=f"{dotted}."))
        elif isinstance(value, list):
            lines.append(f"{dotted},\"{';'.join(str(v) for v in value)}\"")
        else:
            lines.append(f"{dotted},{value}")
    return "\n".join(lines)


def _emit(report, fmt: str, path):
    """Write the report to path (stdout for None or '-') in the given format."""
    if fmt == "csv":
        text = report.to_csv() if hasattr(report, "to_csv") else _flat_csv(report.to_dict())
    elif fmt == "text":
        text = report.to_text() if hasattr(report, "to_text") else report.to_json()
    else:
        text = report.to_json()
    _write(text, path)


def _read_sequence(path, parser) -> seqcore.Sequence:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        return seqcore.Sequence.from_json(text)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        parser.error(f"bad sequence input {path}: {exc}")


def _parse_endpoint(token: str, s, t):
    """An interval endpoint: exact rational text or s-+2sqrt(t) tokens."""
    token = token.strip().lower()
    if token in ("s-2sqrt(t)", "s-2*sqrt(t)", "s+2sqrt(t)", "s+2*sqrt(t)"):
        if s is None or t is None:
            raise ValueError("the sqrt tokens need --s and --t")
        s, root = ensure_fraction(s), 2 * sqrt_exact(t)
        return s + root if token[1] == "+" else s - root
    return ensure_fraction(token)


def _parse_interval(text: str, s, t):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("interval must be 'a,b'")
    a, b = _parse_endpoint(parts[0], s, t), _parse_endpoint(parts[1], s, t)
    if not a < b:
        raise ValueError("interval needs a < b")
    return a, b


def _interval_from_args(args, parser):
    """The --interval bounds, or None; --s and --t only feed its sqrt tokens."""
    if args.interval is None:
        if args.s is not None or args.t is not None:
            parser.error("--s and --t apply to --interval only")
        return None
    return _parse_interval(args.interval, args.s, args.t)


def _spec_from_args(args, parser) -> seqcore.SigmaTauSpec:
    quad = (args.p, args.s, args.q, args.t)
    if args.name is not None:
        if any(v is not None for v in quad):
            parser.error("give --name or --p --s --q --t, not both")
        if args.name not in seqcore.CATALOG:
            parser.error(f"unknown catalog name {args.name!r}; "
                         f"choose from {', '.join(seqcore.catalog_names())}")
        p, s, q, t = seqcore.CATALOG[args.name]
        return seqcore.make_spec(p, s, q, t, label=args.name)
    if any(v is None for v in quad):
        parser.error("provide --name or all of --p --s --q --t")
    return seqcore.make_spec(*quad)


class _OpsReport(Record):
    """P_0 .. P_deg and, when zeros were asked for, the zeros of P_deg and
    their extreme interval (no zeros and no interval at degree 0)."""

    spec: seqcore.SigmaTauSpec
    polys: list
    zeros: list = None
    extreme: tuple = None

    def to_dict(self) -> dict:
        out = {"schema": "momentlab/ops/v1", "spec": self.spec.to_dict(),
               "polynomials": [[format_rational(c) for c in poly.coefficients]
                               for poly in self.polys]}
        if self.zeros is not None:
            out["zeros"] = self.zeros
        if self.extreme is not None:
            out["extreme_zero_interval"] = list(self.extreme)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_csv(self) -> str:
        lines = ["degree,coefficients"]
        lines += [f"{k},\"{';'.join(c)}\""
                  for k, c in enumerate(self.to_dict()["polynomials"])]
        if self.zeros:
            lines.append(f"zeros,\"{';'.join(str(z) for z in self.zeros)}\"")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"P_{k} = {poly}" for k, poly in enumerate(self.polys)]
        if self.zeros:
            lines.append(f"zeros of P_{len(self.polys) - 1}: "
                         + ", ".join(f"{z:.12g}" for z in self.zeros))
        return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------
# Each imports only the layers it uses and returns (report, exit code); main
# emits the report and maps errors.


def _cmd_gen(args, parser):
    spec = _spec_from_args(args, parser)
    seq = seqcore.catalan_like(spec, args.n)
    if args.name:
        seq = seqcore.Sequence(seq.values, label=args.name, origin="catalog")
    return seq, 0


def _cmd_classify(args, parser):
    interval = _interval_from_args(args, parser)
    seq = _read_sequence(args.input, parser)
    from . import hankel  # after the input checks: bad input exits 2 without it
    report = hankel.classify(seq, args.m, interval=interval)
    return report, 0 if report.passed else 1


def _cmd_support(args, parser):
    from . import chainseq
    quad = (args.p, args.s, args.q, args.t)
    try:
        if args.check is None:
            return chainseq.support_interval(*quad), 0
        report = chainseq.certify_support(seqcore.make_spec(*quad), n_check=args.check)
        return report, 0 if report.passed else 1
    except HypothesisFailure as exc:  # a verdict, not bad input
        sys.stderr.write(f"hypothesis failure: {', '.join(exc.failed)}\n")
        return chainseq.support_interval(*quad, strict=False), 1


def _cmd_verify(args, parser):
    tol = _default_tol(parser) if args.tol is None else args.tol
    from . import measures  # after the tolerance: a bad one exits 2 without it
    if args.name not in measures.density_names():
        parser.error(f"no catalog density for {args.name!r}; "
                     f"choose from {', '.join(measures.density_names())}")
    dens = measures.density_catalog(args.name)
    _, seq = seqcore.catalog_sequence(args.name, args.n)
    report = measures.verify_representation(seq, dens, args.n, tol=tol)
    if args.plot_csv:
        _write(measures.density_plot_csv(dens), args.plot_csv)
    return report, 0 if report.passed else 1


def _parse_sub(text: str):
    d, l = 1, 0
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "d":
            d = int(value)
        elif key in ("l", "ell"):
            l = int(value)
        else:
            raise ValueError(f"unknown subsequence option {key!r}")
    return d, l


def _parse_lincomb(text: str):
    """Coefficients 'c0,c1,...[@shift]' meaning g(x) = sum c_i x^(shift+i)."""
    body, _, shift_text = text.partition("@")
    shift = int(shift_text) if shift_text else 0
    if shift < 0:
        raise ValueError(f"--lincomb shift must be >= 0, got {shift}")
    coeffs = [ensure_fraction(tok.strip()) for tok in body.split(",")]
    return tuple([Fraction(0)] * shift + coeffs)


def _cmd_transform(args, parser):
    if (args.sub is None) == (args.lincomb is None):
        parser.error("choose exactly one of --sub or --lincomb")
    if args.sub is not None and args.interval is not None:
        parser.error("--interval applies to --lincomb only")
    if not args.verify and (args.check_n is not None or args.tol is not None):
        parser.error("--check-n and --tol apply to --verify only")
    # read even without --verify: a bad MOMENTLAB_PRECISION is bad input here too
    tol = max(_default_tol(parser), 1e-6) if args.tol is None else args.tol
    interval = _interval_from_args(args, parser)
    if (args.name is None) == (args.input is None):
        parser.error("transform needs exactly one of --name or --input")
    if args.name is not None:
        _, seq = seqcore.catalog_sequence(args.name, args.n)
    else:
        seq = _read_sequence(args.input, parser)
    from . import measures  # after the input checks: bad input exits 2 without it
    dens = measures.density_catalog(args.name) \
        if args.name in measures.density_names() else None

    if args.sub is not None:
        d, l = _parse_sub(args.sub)
        if not args.verify:
            return measures.subsequence_transform(seq, d, l), 0
        spec = measures.TransformSpec(measures.TransformSpec.SUBSEQUENCE, d=d, offset=l)
    else:
        g = _parse_lincomb(args.lincomb)
        if interval is None and dens is not None:
            interval = (dens.a_exact, dens.b_exact)
        elif interval is None:
            parser.error("--lincomb needs --interval when no catalog density exists")
        if not args.verify:
            out, _ = measures.linear_combination_transform(seq, g, *interval, density=dens)
            return out, 0
        spec = measures.TransformSpec(measures.TransformSpec.LINEAR_COMBINATION,
                                      g=g, interval=interval)

    if dens is None:
        parser.error("--verify needs a catalog density input")
    # verify_transform_consistency builds the transform, so only its length is needed
    n_top = min(8 if args.check_n is None else args.check_n,
                measures.transform_length(spec, len(seq)) - 1)
    report = measures.verify_transform_consistency(seq, spec, dens, n_top, tol)
    return report, 0 if report.passed else 1


def _cmd_ops(args, parser):
    from . import orthopoly
    spec = _spec_from_args(args, parser)
    polys = orthopoly.ops_from_recurrence(spec, args.deg)
    if not args.zeros or args.deg == 0:
        return _OpsReport(spec, polys, [] if args.zeros else None), 0
    zeros = [float(z) for z in orthopoly.ops_zeros(spec, args.deg)]
    return _OpsReport(spec, polys, zeros, (zeros[0], zeros[-1])), 0


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--output", default=None, help="path or '-' for stdout")


def _add_quadruple(sub, required=False):
    for flag in ("--p", "--s", "--q", "--t"):
        sub.add_argument(flag, type=_rational, required=required)


def _add_interval(sub, interval_help=None):
    sub.add_argument("--interval", default=None, help=interval_help)
    sub.add_argument("--s", type=_rational, default=None)
    sub.add_argument("--t", type=_rational, default=None)


def _count(text):
    """A non-negative integer option value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text):
    """A tolerance: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below with the same message
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number above 0, got {text!r}")
    return value


def _rational(text):
    try:
        return ensure_fraction(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentlab",
        description="Catalan-like sequences, Hankel moment classification, "
                    "support certificates, and integral-representation checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a Catalan-like sequence")
    gen.add_argument("--name", default=None)
    _add_quadruple(gen)
    gen.add_argument("--n", type=_count, required=True, help="largest index")
    _add_common(gen)

    cla = subs.add_parser("classify", help="Hankel moment classification")
    cla.add_argument("--input", required=True, help="sequence JSON path or '-'")
    cla.add_argument("--m", type=_count, required=True)
    _add_interval(cla, "a,b with exact rationals or s-2sqrt(t),s+2sqrt(t)")
    _add_common(cla)

    sup = subs.add_parser("support", help="support interval certificate")
    _add_quadruple(sup, required=True)
    sup.add_argument("--check", type=_count, default=None,
                     help="also run the chain-sequence certification to this depth")
    _add_common(sup)

    ver = subs.add_parser("verify", help="check a sequence against its density")
    ver.add_argument("--name", required=True)
    ver.add_argument("--n", type=_count, default=12)
    ver.add_argument("--tol", type=_tolerance, default=None)
    ver.add_argument("--plot-csv", default=None,
                     help="also write (x, w(x)) samples to this path")
    _add_common(ver)

    tra = subs.add_parser("transform", help="subsequence or linear combination")
    tra.add_argument("--name", default=None)
    tra.add_argument("--input", default=None)
    tra.add_argument("--n", type=_count, default=40, help="input prefix length - 1")
    tra.add_argument("--sub", default=None, help="d=2,l=0")
    tra.add_argument("--lincomb", default=None, help="'4,-1@1' for 4x - x^2")
    _add_interval(tra)
    tra.add_argument("--verify", action="store_true",
                     help="compare against the transformed density")
    tra.add_argument("--check-n", type=_count, default=None)
    tra.add_argument("--tol", type=_tolerance, default=None)
    _add_common(tra)

    ops = subs.add_parser("ops", help="monic orthogonal polynomials")
    ops.add_argument("--name", default=None)
    _add_quadruple(ops)
    ops.add_argument("--deg", type=_count, required=True)
    ops.add_argument("--zeros", action="store_true")
    _add_common(ops)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "classify": _cmd_classify,
    "support": _cmd_support,
    "verify": _cmd_verify,
    "transform": _cmd_transform,
    "ops": _cmd_ops,
}


_NUMERIC_OPTIONS = ("--p", "--s", "--q", "--t", "--interval", "--lincomb")


def _join_negative_values(argv) -> list:
    """``--s -1/2`` as ``--s=-1/2`` for the options whose values are numbers:
    the rationals --p --s --q --t and the lists --interval and --lincomb.

    argparse takes a token that starts with '-' for an option unless it
    reads as a plain negative number such as -1 or -0.5, so it would leave
    --s without its value -1/2 and --interval without -1,4.
    """
    out = []
    for token in argv:
        if out and out[-1] in _NUMERIC_OPTIONS and token[:1] == "-" \
                and token[1:2].isdigit():
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        report, code = _HANDLERS[args.command](args, parser)
        _emit(report, args.format, args.output)
        return code
    except GNegative as exc:  # a verdict on g, not bad input
        sys.stderr.write(f"{exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except MomentLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
