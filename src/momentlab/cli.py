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

Exit status: 0 on success, 1 when a requested verification or
classification fails (the report is still emitted), 2 on bad input: option
errors, unreadable or malformed sequence files, an interval a,b without
a < b, and a tolerance that is not a finite number above 0.
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

from . import chainseq, hankel, measures, orthopoly, seqcore
from .errors import GNegative, HypothesisFailure, MomentLabError
from .exact import collapse, ensure_fraction, format_rational, sqrt_exact

_SCHEMA_OPS = "momentlab/ops/v1"


def _default_tol(parser) -> float:
    raw = os.environ.get("MOMENTLAB_PRECISION")
    if raw is None:
        return 1e-7
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"MOMENTLAB_PRECISION: {exc}")


def _emit(text: str, path):
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


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
    if token in ("s-2sqrt(t)", "s-2*sqrt(t)"):
        if s is None or t is None:
            raise ValueError("the sqrt tokens need --s and --t")
        return collapse(ensure_fraction(s) - 2 * sqrt_exact(t))
    if token in ("s+2sqrt(t)", "s+2*sqrt(t)"):
        if s is None or t is None:
            raise ValueError("the sqrt tokens need --s and --t")
        return collapse(ensure_fraction(s) + 2 * sqrt_exact(t))
    return ensure_fraction(token)


def _parse_interval(text: str, s, t):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("interval must be 'a,b'")
    a, b = _parse_endpoint(parts[0], s, t), _parse_endpoint(parts[1], s, t)
    if not a < b:
        raise ValueError("interval needs a < b")
    return a, b


def _spec_from_args(args, parser) -> seqcore.SigmaTauSpec:
    if args.name is not None:
        if args.name not in seqcore.CATALOG:
            parser.error(f"unknown catalog name {args.name!r}; "
                         f"choose from {', '.join(seqcore.catalog_names())}")
        p, s, q, t = seqcore.CATALOG[args.name]
        return seqcore.make_spec(p, s, q, t, label=args.name)
    quad = (args.p, args.s, args.q, args.t)
    if any(v is None for v in quad):
        parser.error("provide --name or all of --p --s --q --t")
    return seqcore.make_spec(*quad)


def _sequence_text(seq: seqcore.Sequence, fmt: str) -> str:
    if fmt == "json":
        return seq.to_json()
    if fmt == "csv":
        return seq.to_csv()
    return f"{seq.label or 'sequence'}: " + ", ".join(
        format_rational(v) for v in seq.values)


# -- subcommands ---------------------------------------------------------


def _cmd_gen(args, parser) -> int:
    spec = _spec_from_args(args, parser)
    seq = seqcore.catalan_like(spec, args.n)
    if args.name:
        seq = seqcore.Sequence(seq.values, label=args.name, origin="catalog")
    _emit(_sequence_text(seq, args.format), args.output)
    return 0


def _cmd_classify(args, parser) -> int:
    seq = _read_sequence(args.input, parser)
    interval = None
    if args.interval is not None:
        try:
            interval = _parse_interval(args.interval, args.s, args.t)
        except (ValueError, ZeroDivisionError) as exc:
            parser.error(str(exc))
    report = hankel.classify(seq, args.m, interval=interval)
    if args.format == "csv":
        lines = ["order,hamburger,shifted,hausdorff"]
        for k in range(report.max_order + 1):
            ham = report.hamburger_status[k] if k < len(report.hamburger_status) else ""
            sh = report.shifted_status[k] if k < len(report.shifted_status) else ""
            hs = report.hausdorff_status[k] if k < len(report.hausdorff_status) else ""
            lines.append(f"{k},{ham},{sh},{hs}")
        _emit("\n".join(lines), args.output)
    elif args.format == "text":
        lines = [
            f"hamburger ok up to order {report.hamburger_ok_up_to} of {report.max_order}",
            f"stieltjes ok up to order {report.stieltjes_ok_up_to}"
            f" (checked to {report.stieltjes_checked_up_to})",
        ]
        if interval is not None:
            lines.append(
                f"hausdorff ok up to order {report.hausdorff_ok_up_to}"
                f" (checked to {report.hausdorff_checked_up_to})")
        for fam, order, verdict in report.failure_witnesses:
            lines.append(f"FAIL {fam} at order {order}: {verdict.status}")
        _emit("\n".join(lines), args.output)
    else:
        _emit(report.to_json(), args.output)
    return 0 if report.passed else 1


def _cmd_support(args, parser) -> int:
    quad = (args.p, args.s, args.q, args.t)
    if any(v is None for v in quad):
        parser.error("support needs --p --s --q --t")
    def emit_payload(json_text):
        if args.format == "csv":
            _emit(_flat_csv(json.loads(json_text)), args.output)
        else:
            _emit(json_text, args.output)

    try:
        if args.check is not None:
            spec = seqcore.make_spec(*quad)
            report = chainseq.certify_support(spec, n_check=args.check)
            emit_payload(report.to_json())
            return 0 if report.passed else 1
        cert = chainseq.support_interval(*quad)
        emit_payload(cert.to_json())
        return 0
    except HypothesisFailure as exc:
        cert = chainseq.support_interval(*quad, strict=False)
        emit_payload(cert.to_json())
        sys.stderr.write(f"hypothesis failure: {', '.join(exc.failed)}\n")
        return 1
    except MomentLabError:
        raise
    except ValueError as exc:  # q or t <= 0
        parser.error(str(exc))


def _cmd_verify(args, parser) -> int:
    if args.name not in measures.density_names():
        parser.error(f"no catalog density for {args.name!r}; "
                     f"choose from {', '.join(measures.density_names())}")
    dens = measures.density_catalog(args.name)
    _, seq = seqcore.catalog_sequence(args.name, args.n)
    report = measures.verify_representation(seq, dens, args.n, tol=args.tol)
    if args.plot_csv:
        _emit(measures.density_plot_csv(dens), args.plot_csv)
    if args.format == "csv":
        _emit(report.to_csv(), args.output)
    elif args.format == "text":
        _emit(f"{report.label}: max relative error {report.max_rel_error:.3e} "
              f"({'pass' if report.passed else 'FAIL'} at {report.tol:g})",
              args.output)
    else:
        _emit(report.to_json(), args.output)
    return 0 if report.passed else 1


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
    coeffs = [ensure_fraction(tok.strip()) for tok in body.split(",")]
    return tuple([Fraction(0)] * shift + coeffs)


def _cmd_transform(args, parser) -> int:
    if (args.sub is None) == (args.lincomb is None):
        parser.error("choose exactly one of --sub or --lincomb")
    if args.name is not None:
        _, seq = seqcore.catalog_sequence(args.name, args.n)
    elif args.input is not None:
        seq = _read_sequence(args.input, parser)
    else:
        parser.error("transform needs --name or --input")
    dens = measures.density_catalog(args.name) \
        if args.name in measures.density_names() else None

    try:
        if args.sub is not None:
            d, l = _parse_sub(args.sub)
            tspec = measures.TransformSpec(measures.TransformSpec.SUBSEQUENCE,
                                           d=d, offset=l)
            out = measures.subsequence_transform(seq, d, l)
        else:
            g = _parse_lincomb(args.lincomb)
            interval = None
            if args.interval is not None:
                interval = _parse_interval(args.interval, args.s, args.t)
            elif dens is not None:
                interval = (dens.a_exact, dens.b_exact)
            else:
                parser.error("--lincomb needs --interval when no catalog density exists")
            tspec = measures.TransformSpec(measures.TransformSpec.LINEAR_COMBINATION,
                                           g=g, interval=interval)
            out, _ = measures.linear_combination_transform(
                seq, g, interval[0], interval[1], density=dens)
    except GNegative as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))

    if args.verify:
        if dens is None:
            parser.error("--verify needs a catalog density input")
        n_top = args.check_n if args.check_n is not None else 8
        n_top = min(n_top, len(out) - 1)
        report = measures.verify_transform_consistency(seq, tspec, dens,
                                                       n_top, tol=args.tol)
        _emit(report.to_json() if args.format != "csv" else report.to_csv(),
              args.output)
        return 0 if report.passed else 1

    _emit(_sequence_text(out, args.format), args.output)
    return 0


def _cmd_ops(args, parser) -> int:
    spec = _spec_from_args(args, parser)
    polys = orthopoly.ops_from_recurrence(spec, args.deg)
    payload = {
        "schema": _SCHEMA_OPS,
        "spec": spec.to_dict(),
        "polynomials": [
            [format_rational(c) for c in poly.coefficients] for poly in polys
        ],
    }
    if args.zeros:
        zeros = orthopoly.ops_zeros(spec, args.deg) if args.deg >= 1 else []
        payload["zeros"] = [float(z) for z in zeros]
        if args.deg >= 1:
            lo, hi = orthopoly.true_interval_estimate(spec, args.deg)
            payload["extreme_zero_interval"] = [lo, hi]
    if args.format == "text":
        lines = [f"P_{k} = {poly}" for k, poly in enumerate(polys)]
        if args.zeros and args.deg >= 1:
            lines.append("zeros of P_%d: %s" % (
                args.deg, ", ".join(f"{z:.12g}" for z in payload["zeros"])))
        _emit("\n".join(lines), args.output)
    elif args.format == "csv":
        lines = ["degree,coefficients"]
        for k, coeffs in enumerate(payload["polynomials"]):
            lines.append(f"{k},\"{';'.join(coeffs)}\"")
        if args.zeros and args.deg >= 1:
            lines.append(f"zeros,\"{';'.join(str(z) for z in payload['zeros'])}\"")
        _emit("\n".join(lines), args.output)
    else:
        _emit(json.dumps(payload), args.output)
    return 0


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--output", default=None, help="path or '-' for stdout")


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
    gen.add_argument("--p", type=_rational)
    gen.add_argument("--s", type=_rational)
    gen.add_argument("--q", type=_rational)
    gen.add_argument("--t", type=_rational)
    gen.add_argument("--n", type=_count, required=True, help="largest index")
    _add_common(gen)

    cla = subs.add_parser("classify", help="Hankel moment classification")
    cla.add_argument("--input", required=True, help="sequence JSON path or '-'")
    cla.add_argument("--m", type=_count, required=True)
    cla.add_argument("--interval", default=None,
                     help="a,b with exact rationals or s-2sqrt(t),s+2sqrt(t)")
    cla.add_argument("--s", type=_rational, default=None)
    cla.add_argument("--t", type=_rational, default=None)
    _add_common(cla)

    sup = subs.add_parser("support", help="support interval certificate")
    sup.add_argument("--p", type=_rational, required=True)
    sup.add_argument("--s", type=_rational, required=True)
    sup.add_argument("--q", type=_rational, required=True)
    sup.add_argument("--t", type=_rational, required=True)
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
    tra.add_argument("--interval", default=None)
    tra.add_argument("--s", type=_rational, default=None)
    tra.add_argument("--t", type=_rational, default=None)
    tra.add_argument("--verify", action="store_true",
                     help="compare against the transformed density")
    tra.add_argument("--check-n", type=_count, default=None)
    tra.add_argument("--tol", type=_tolerance, default=None)
    _add_common(tra)

    ops = subs.add_parser("ops", help="monic orthogonal polynomials")
    ops.add_argument("--name", default=None)
    ops.add_argument("--p", type=_rational)
    ops.add_argument("--s", type=_rational)
    ops.add_argument("--q", type=_rational)
    ops.add_argument("--t", type=_rational)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is None and args.command in ("verify", "transform"):
        args.tol = _default_tol(parser) if args.command == "verify" \
            else max(_default_tol(parser), 1e-6)
    try:
        return _HANDLERS[args.command](args, parser)
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except MomentLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
