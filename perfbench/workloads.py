"""The four benchmark workloads: stratified op sets, op runners and checks.

Each workload defines an *epoch*: a fixed, stratified multiset of ops.
The seed only shuffles an epoch and draws its random inputs, so the op
mix is the same from seed to seed.  Runs execute whole epochs, which
keeps the mix of cheap and expensive ops identical between runs.

``run`` is the timed call.  ``check`` runs afterwards, outside the timed
interval, and returns the problems it found (an empty list means the
op's output was verified exactly).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import momentlab as ml

import exactcheck as xc
import refclock

TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple
    probe: bool = False  # bad-input probe: must exit 2 without a traceback


def exact_values(obj):
    """Every Fraction and irrational Surd reachable from a result object."""
    if isinstance(obj, (Fraction, int)) and not isinstance(obj, bool):
        yield Fraction(obj)
    elif isinstance(obj, ml.Surd):
        yield obj
    elif isinstance(obj, ml.Sequence):
        yield from obj.values
    elif is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            yield from exact_values(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from exact_values(item)


def catalan_like_ints(p, s, q, t, count):
    """Column 0 of the recursive matrix of (p, s; q, t), in plain ints."""
    row = [1]
    out = [1]
    for n in range(count - 1):
        sig = [p] + [s] * (n + 1)
        tau = [q] + [t] * (n + 1)  # tau[k] is t_{k+1}
        row = [(row[k - 1] if k >= 1 else 0)
               + sig[k] * (row[k] if k <= n else 0)
               + tau[k] * (row[k + 1] if k + 1 <= n else 0)
               for k in range(n + 2)]
        out.append(row[0])
    return out


def _rand_fraction(rng, lo, hi, dens=(1, 2, 3, 4)):
    den = rng.choice(dens)
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def _pmul(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def random_g(rng, dens):
    """A polynomial c * E(x) * h(x)^2 that is >= 0 on the density's interval.

    E is 1 or an endpoint factor (x - a), (b - x) or (x - a)(b - x); only
    the product stays rational on an irrational interval.
    """
    a, b = dens.a_exact, dens.b_exact
    r = xc.radicand_of([a, b])
    A, B = xc.lift(a, r), xc.lift(b, r)
    total, prod = xc.qadd(A, B), xc.qmul(A, B, r)
    both = [-prod[0], total[0], Fraction(-1)]
    factors = [[Fraction(1)], both]
    if r == 0:
        factors += [[-a, Fraction(1)], [b, Fraction(-1)]]
    h = [_rand_fraction(rng, -3, 3, (1, 2, 3)) for _ in range(rng.randint(0, 2))]
    h.append(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return tuple(scale * c for c in _pmul(_pmul(rng.choice(factors), h), h))


def control_g(rng, dens):
    """h(x)^2 (x - c) with an integer c strictly inside the interval."""
    lo, hi = float(dens.a_exact), float(dens.b_exact)
    inside = [c for c in range(int(lo) - 1, int(hi) + 2) if lo < c < hi]
    h = [_rand_fraction(rng, -3, 3, (1, 2)), Fraction(1)]
    return tuple(_pmul(_pmul(h, h), [Fraction(-rng.choice(inside)), Fraction(1)]))


def random_quadruple(rng):
    """A (p, s; q, t) with q, t > 0 and, mostly, a non-square t."""
    while True:
        p = _rand_fraction(rng, 0, 6, (1, 2))
        s = _rand_fraction(rng, 0, 5, (1, 2))
        q = _rand_fraction(rng, 1, 6, (1, 2))
        if rng.random() < 0.8:
            t = Fraction(rng.choice((2, 3, 5, 6, 7, 8, 10, 11, 12)), rng.choice((1, 2)))
        else:
            t = Fraction(rng.choice((1, 4, 9)), rng.choice((1, 4)))
        if xc.is_square(t) and p == s + 2 * xc.exact_sqrt(t):
            continue  # pole at the upper endpoint: no chain run exists
        return p, s, q, t


def random_atoms(rng, count):
    atoms = set()
    while len(atoms) < count:
        atoms.add(_rand_fraction(rng, -0.5, 10))
    atoms = tuple(sorted(atoms))
    weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in atoms)
    return atoms, weights


class Workload:
    name = ""
    epoch_size = 0
    #: Fewest epochs in a timed run, so that its median and tail percentile
    #: rest on enough samples.
    min_epochs = 1
    #: The reference run after each op in a measuring run (see
    #: refclock.py): a small share of a typical op's time.
    reference = refclock.Block(10)

    def epoch(self, rng):
        raise NotImplementedError

    def warmup_ops(self):
        """One fixed op per kind."""
        raise NotImplementedError

    def warm_up(self):
        """Untimed set-up work: run each warm-up op once."""
        for op in self.warmup_ops():
            self.prepare(op)
            self.run(op)

    def prepare(self, op):
        """Untimed work an op needs before it starts (input files)."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result):
        raise NotImplementedError

    def outputs(self, op, result):
        """The exact outputs of one op, for the exact.* descriptors."""
        return exact_values(result)

    def corruptions(self, op, result):
        """Deliberately wrong results the checker must reject."""
        raise NotImplementedError


# -- catalog_deep -------------------------------------------------------------


class CatalogDeep(Workload):
    """All catalog families at orders 8..20 on the conjugate interval.

    The three t = 2 families appear once more on [0, s + 2 sqrt(t)], so
    half of their ops carry an interval over Q(sqrt(2)).
    """

    name = "catalog_deep"
    ORDERS = (8, 12, 16, 20)
    min_epochs = 2
    reference = refclock.Block(40)

    def __init__(self):
        self.variants = []
        for family, (p, s, q, t) in ml.CATALOG.items():
            self.variants.append((family, "conjugate"))
            if t == 2:
                self.variants.append((family, "half_line"))
        self.epoch_size = len(self.variants) * len(self.ORDERS)

    def epoch(self, rng):
        ops = [Op("deep", (family, interval, m))
               for m in self.ORDERS for family, interval in self.variants]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return [Op("deep", ("catalan", "conjugate", 8))]

    def run(self, op):
        family, interval, m = op.params
        spec, seq = ml.catalog_sequence(family, 2 * m + 2)
        p, s, q, t = ml.CATALOG[family]
        root = ml.sqrt_exact(t)
        upper = s + 2 * root
        lower = s - 2 * root if interval == "conjugate" else Fraction(0)
        report = ml.classify(seq, m, interval=(lower, upper))
        sigma, tau = ml.recurrence_from_moments(seq, m + 1)
        return seq, (lower, upper), report, sigma, tau

    def check(self, op, result):
        family, interval, m = op.params
        seq, bounds, report, sigma, tau = result
        p, s, q, t = ml.CATALOG[family]
        problems = []
        y = catalan_like_ints(p, s, q, t, 2 * m + 3)
        if list(seq.values) != y:
            problems.append("generated terms differ from the recurrence")
        if sigma != (p,) + (s,) * m or tau != (q,) + (t,) * (m - 1):
            problems.append("recovered (sigma, tau) differs from the spec")
        if report.hamburger_ok_up_to != m:
            problems.append("hamburger check did not pass to order m")
        # the measure lives on [0, inf) iff s - 2 sqrt(t) >= 0, except for
        # fine, whose second moment-sequence term is 0 (README.md)
        stieltjes = family != "fine" and s >= 0 and s * s >= 4 * t
        if (report.stieltjes_ok_up_to == m) != stieltjes:
            problems.append("stieltjes verdict wrong")
        # schroder_little has an atom at 0 outside its conjugate interval
        if interval == "conjugate":
            inside = family not in ("fine", "schroder_little")
        else:
            inside = family != "fine"
        if (report.hausdorff_ok_up_to == report.hausdorff_checked_up_to == m) != inside:
            problems.append("interval verdict wrong")
        for fam, order, verdict in report.failure_witnesses:
            if not xc.witness_is_negative(fam, order, verdict, y, bounds):
                problems.append(f"{fam} witness at order {order} does not re-verify")
        return problems

    def corruptions(self, op, result):
        seq, bounds, report, sigma, tau = result
        wrong = replace(report, hamburger_ok_up_to=report.hamburger_ok_up_to - 1)
        return [("wrong verdict", (seq, bounds, wrong, sigma, tau))]


# -- atomic_singular ------------------------------------------------------------


class AtomicSingular(Workload):
    """Finite atomic measures: rank-deficient Hankel data at order 8 on [0, 8]."""

    name = "atomic_singular"
    ORDER = 8
    INTERVAL = (Fraction(0), Fraction(8))
    ATOM_COUNTS = (1, 2, 3, 4)
    epoch_size = 2 * len(ATOM_COUNTS)

    def _op(self, atoms, weights):
        y = xc.atomic_moments(atoms, weights, 2 * self.ORDER + 3)
        return Op("atomic", (atoms, weights, y))

    def epoch(self, rng):
        ops = [self._op(*random_atoms(rng, count))
               for count in self.ATOM_COUNTS for _ in range(2)]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return [self._op((Fraction(1), Fraction(3)), (Fraction(1), Fraction(2)))]

    def run(self, op):
        return ml.classify(op.params[2], self.ORDER, interval=self.INTERVAL)

    def check(self, op, report):
        atoms, weights, y = op.params
        lo, hi = self.INTERVAL
        problems = []
        if report.passed != all(lo <= x <= hi for x in atoms):
            problems.append("verdict wrong for the atom positions")
        if (report.stieltjes_ok_up_to == self.ORDER) != all(x >= 0 for x in atoms):
            problems.append("stieltjes verdict wrong")
        rank = len(atoms)
        expected = tuple("positive_definite" if k < rank else "positive_semidefinite_singular"
                         for k in range(self.ORDER + 1))
        if report.hamburger_status != expected:
            problems.append("hamburger statuses do not follow the measure's rank")
        for fam, order, verdict in report.failure_witnesses:
            if not xc.witness_is_negative(fam, order, verdict, y, self.INTERVAL):
                problems.append(f"{fam} witness at order {order} does not re-verify")
        return problems

    def corruptions(self, op, report):
        if report.passed:
            flipped = replace(report, failure_witnesses=(
                ("hausdorff", 0, ml.PsdVerdict(ml.PsdVerdict.INDEFINITE,
                                              witness=(Fraction(1),))),))
        else:
            flipped = replace(report, failure_witnesses=())
        return [("wrong verdict", flipped)]


# -- support_verify ---------------------------------------------------------------


class SupportVerify(Workload):
    """Support certificates and quadrature checks, alternating.

    certify: certify_support at its default n_check for the catalog
    shorthands other than fine and for random (p, s; q, t).
    represent: verify_representation at n = 20 for one of the five
    densities, a transform check with a random g >= 0, and a control g
    with a sign change that must raise GNegative.
    """

    name = "support_verify"
    CERTIFY_RANDOM = 10
    REPRESENT_PER_DENSITY = 4
    TRANSFORM_N = 8

    def __init__(self):
        self.shorthands = [(name, quad) for name, quad in ml.CATALOG.items()
                           if name != "fine"]
        self.densities = ml.density_names()
        self.epoch_size = 2 * len(self.densities) * self.REPRESENT_PER_DENSITY

    def _represent(self, rng, name):
        dens = ml.density_catalog(name)
        return Op("represent", (name, random_g(rng, dens), control_g(rng, dens)))

    def epoch(self, rng):
        certify = [Op("certify", (name, tuple(Fraction(v) for v in quad)))
                   for name, quad in self.shorthands]
        certify += [Op("certify", ("random", random_quadruple(rng)))
                    for _ in range(self.CERTIFY_RANDOM)]
        represent = [self._represent(rng, name) for name in self.densities
                     for _ in range(self.REPRESENT_PER_DENSITY)]
        rng.shuffle(certify)
        rng.shuffle(represent)
        return [op for pair in zip(certify, represent) for op in pair]

    def warmup_ops(self):
        catalan = (Fraction(1), Fraction(2), Fraction(1), Fraction(1))
        g = (Fraction(0), Fraction(4), Fraction(-1))  # 4x - x^2
        control = (Fraction(-2), Fraction(1))  # x - 2
        return [Op("certify", ("catalan", catalan)),
                Op("represent", ("catalan", g, control))]

    def run(self, op):
        if op.kind == "certify":
            spec = ml.make_spec(*op.params[1])
            try:
                return ml.certify_support(spec)
            except ml.HypothesisFailure as exc:
                return exc
        name, g, control = op.params
        dens = ml.density_catalog(name)
        _, seq = ml.catalog_sequence(name, 40)
        interval = (dens.a_exact, dens.b_exact)
        rep = ml.verify_representation(seq, dens, 20)
        spec = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=g, interval=interval)
        trans = ml.verify_transform_consistency(seq, spec, dens, self.TRANSFORM_N)
        bad = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=control,
                               interval=interval)
        try:
            ml.verify_transform_consistency(seq, bad, dens, self.TRANSFORM_N)
            control_raised = None
        except ml.GNegative as exc:
            control_raised = exc
        return seq, rep, trans, control_raised

    def check(self, op, result):
        if op.kind == "certify":
            return self._check_certify(op.params[1], result)
        return self._check_represent(op, result)

    @staticmethod
    def _check_certify(quad, result):
        expect = xc.support_expectation(*quad)
        if isinstance(result, ml.HypothesisFailure):
            if expect["failed"] and tuple(result.failed) == expect["failed"]:
                return []
            return ["hypothesis failure that the exact check does not confirm"]
        if expect["failed"]:
            return ["hypotheses accepted that fail exactly"]
        problems = []
        if result.s_bounds_ok != expect["s_bounds_ok"]:
            problems.append("s_bounds_ok wrong")
        if (result.left_chain.ok and result.left_tail.ok) != expect["left"]:
            problems.append("left endpoint chain verdict wrong")
        if (result.right_chain.ok and result.right_tail.ok) != expect["right"]:
            problems.append("right endpoint chain verdict wrong")
        if result.passed != (expect["s_bounds_ok"] and expect["left"] and expect["right"]):
            problems.append("support verdict wrong")
        return problems

    def _check_represent(self, op, result):
        name, g, control = op.params
        seq, rep, trans, control_raised = result
        p, s, q, t = ml.CATALOG[name]
        y = catalan_like_ints(p, s, q, t, 41)
        problems = []
        if list(seq.values) != y:
            problems.append("generated terms differ from the recurrence")
        if not rep.passed or [row[1] for row in rep.rows] != [float(v) for v in y[:21]]:
            problems.append("representation check failed")
        target = [sum(c * y[k + j] for j, c in enumerate(g)) for k in range(self.TRANSFORM_N + 1)]
        if not trans.passed or [row[1] for row in trans.rows] != [float(v) for v in target]:
            problems.append("transform consistency check failed")
        if not isinstance(control_raised, ml.GNegative):
            problems.append("sign-changing g was accepted")
        return problems

    def corruptions(self, op, result):
        if op.kind == "certify":
            if isinstance(result, ml.HypothesisFailure):
                wrong = ml.HypothesisFailure(result.failed + ("t < s+2*sqrt(t)",))
            else:
                wrong = replace(result, s_bounds_ok=not result.s_bounds_ok)
            return [("wrong verdict", wrong)]
        seq, rep, trans, control_raised = result
        return [("wrong verdict", (seq, rep, trans, None))]


# -- cli_oneshot --------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


BAD_INPUTS = (
    (("gen", "--name", "catalan", "--n", "-1"), None, None),
    (("classify", "--m", "1", "--input"), "[1, 2.5, 3]", None),
    (("classify", "--m", "1", "--input"), "[1, 2", None),
    (("classify", "--m", "1", "--input"), '[1, "1/0", 3]', None),
    (("support", "--p", "1", "--s", "2", "--q", "1", "--t", "-1"), None, None),
    (("ops", "--name", "catalan", "--deg", "-1"), None, None),
    (("verify", "--name", "catalan", "--n", "5"), None, "abc"),
    (("verify", "--name", "catalan", "--n", "5"), None, "-1"),
    (("verify", "--name", "catalan", "--n", "5"), None, "nan"),
)


class CliOneshot(Workload):
    """One fresh ``python -m momentlab.cli`` process per op.

    An epoch holds one op of each subcommand plus one bad-input probe,
    so probes are a fixed 1/7 of the ops.
    """

    name = "cli_oneshot"
    KINDS = ("gen", "classify", "support", "verify", "transform", "ops")
    epoch_size = len(KINDS) + 1
    min_epochs = 5
    reference = refclock.Spawn()
    SCHEMA_OPS = "momentlab/ops/v1"  # written by the ops subcommand

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.prefix = [sys.executable, "-m", "momentlab.cli"]
        self.env = {k: v for k, v in os.environ.items() if k != "MOMENTLAB_PRECISION"}
        self.env["PYTHONPATH"] = str(root / "src")
        self._plain = (self.prefix, self.env)
        self._expected = {}

    def trace_into(self, spans_dir):
        """Run later CLI processes under the tracer, writing spans to
        spans_dir, or untraced again when spans_dir is None."""
        if spans_dir is None:
            self.prefix, self.env = self._plain
        else:
            self.prefix = [sys.executable, str(Path(__file__).with_name("cli_traced.py"))]
            self.env = dict(self._plain[1], PERFBENCH_SPANS_DIR=str(spans_dir))

    # op construction

    def _spec_args(self, rng):
        if rng.random() < 0.5:
            return ("--name", rng.choice(ml.catalog_names()))
        p, s = rng.randint(0, 3), rng.randint(0, 3)
        q, t = rng.randint(1, 3), rng.randint(1, 3)
        return ("--p", str(p), "--s", str(s), "--q", str(q), "--t", str(t))

    def _classify_values(self, rng):
        if rng.random() < 0.5:
            return [str(v) for v in catalan_like_ints(*ml.CATALOG[rng.choice(ml.catalog_names())], 19)]
        atoms, weights = random_atoms(rng, rng.randint(1, 4))
        return [str(v) for v in xc.atomic_moments(atoms, weights, 19)]

    def _op(self, rng, kind):
        if kind == "gen":
            args = ("gen",) + self._spec_args(rng) + ("--n", "400")
            return Op(kind, (args, None, None))
        if kind == "classify":
            text = json.dumps(self._classify_values(rng))
            return Op(kind, (("classify", "--m", "8", "--input"), text, None))
        if kind == "support":
            if rng.random() < 0.5:
                quad = ml.CATALOG[rng.choice(ml.catalog_names())]
            else:
                quad = random_quadruple(rng)
            flags = [x for pair in zip(("--p", "--s", "--q", "--t"), map(str, quad))
                     for x in pair]
            return Op(kind, (("support", *flags, "--check", "200"), None, None))
        if kind == "verify":
            name = rng.choice(ml.density_names())
            return Op(kind, (("verify", "--name", name, "--n", "20"), None, None))
        if kind == "transform":
            name = rng.choice(ml.density_names())
            g = random_g(rng, ml.density_catalog(name))
            # "=" keeps argparse from reading a leading minus sign as an option
            lincomb = "--lincomb=" + ",".join(str(c) for c in g)
            return Op(kind, (("transform", "--name", name, lincomb, "--verify"), None, None))
        args = ("ops",) + self._spec_args(rng) + ("--deg", "12", "--zeros")
        return Op(kind, (args, None, None))

    def epoch(self, rng):
        ops = [self._op(rng, kind) for kind in self.KINDS]
        ops.append(Op("bad_input", rng.choice(BAD_INPUTS), probe=True))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return [
            Op("ops", (("ops", "--name", "catalan", "--deg", "12", "--zeros"), None, None)),
            Op("gen", (("gen", "--name", "catalan", "--n", "400"), None, None)),
            Op("classify", (("classify", "--m", "8", "--input"),
                            json.dumps([str(v) for v in catalan_like_ints(1, 2, 1, 1, 19)]),
                            None)),
            Op("support", (("support", "--p", "3", "--s", "3", "--q", "4", "--t", "2",
                            "--check", "200"), None, None)),
            Op("verify", (("verify", "--name", "motzkin", "--n", "20"), None, None)),
            Op("transform", (("transform", "--name", "catalan", "--lincomb=0,4,-1",
                              "--verify"), None, None)),
            Op("bad_input", BAD_INPUTS[0], probe=True),
        ]

    def warm_up(self):
        """Every op is a fresh process, so there is no process state to warm:
        compute each warm-up op's in-process reference (the library calls
        behind each subcommand) and start one CLI process (the first op),
        which fills the bytecode and file caches every subcommand shares."""
        ops = self.warmup_ops()
        for op in ops:
            self.prepare(op)
            if not op.probe:
                self.expected(op)
        self.run(ops[0])

    # running

    def _input_path(self, text):
        return self.workdir / f"seq_{hashlib.sha1(text.encode()).hexdigest()[:16]}.json"

    def prepare(self, op):
        args, text, precision = op.params
        if text is not None:
            path = self._input_path(text)
            if not path.exists():
                path.write_text(text)

    def argv(self, op):
        args, text, precision = op.params
        if text is not None:
            args = args + (str(self._input_path(text)),)
        return self.prefix + list(args)

    def run(self, op):
        env = self.env
        if op.params[2] is not None:
            env = dict(env, MOMENTLAB_PRECISION=op.params[2])
        proc = subprocess.run(self.argv(op), cwd=self.root, env=env,
                              capture_output=True, timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    # checking

    def expected(self, op):
        """(exit code, stdout text, library object) of the same call in process."""
        if op not in self._expected:
            self._expected[op] = self._compute_expected(op)
        return self._expected[op]

    @staticmethod
    def _options(args):
        opts = {}
        for i, arg in enumerate(args):
            key, eq, value = arg[2:].partition("=")
            if not arg.startswith("--"):
                continue
            if eq:
                opts[key] = value
            elif i + 1 < len(args) and not args[i + 1].startswith("--"):
                opts[key] = args[i + 1]
        return opts

    @staticmethod
    def _spec(opts):
        if "name" in opts:
            quad = ml.CATALOG[opts["name"]]
            return ml.make_spec(*quad, label=opts["name"])
        return ml.make_spec(*(Fraction(opts[k]) for k in ("p", "s", "q", "t")))

    def _compute_expected(self, op):
        args, text, _ = op.params
        opts = self._options(args)
        if op.kind == "gen":
            seq = ml.catalan_like(self._spec(opts), int(opts["n"]))
            if "name" in opts:
                seq = ml.Sequence(seq.values, label=opts["name"], origin="catalog")
            return 0, seq.to_json(), seq
        if op.kind == "classify":
            report = ml.classify(ml.Sequence.from_json(text), int(opts["m"]))
            return (0 if report.passed else 1), report.to_json(), report
        if op.kind == "support":
            quad = [Fraction(opts[k]) for k in ("p", "s", "q", "t")]
            try:
                report = ml.certify_support(ml.make_spec(*quad), n_check=int(opts["check"]))
            except ml.HypothesisFailure:
                cert = ml.support_interval(*quad, strict=False)
                return 1, cert.to_json(), cert
            return (0 if report.passed else 1), report.to_json(), report
        if op.kind == "verify":
            name, n = opts["name"], int(opts["n"])
            _, seq = ml.catalog_sequence(name, n)
            report = ml.verify_representation(seq, ml.density_catalog(name), n, tol=1e-7)
            return (0 if report.passed else 1), report.to_json(), report
        if op.kind == "transform":
            name = opts["name"]
            dens = ml.density_catalog(name)
            _, seq = ml.catalog_sequence(name, 40)
            g = tuple(Fraction(c) for c in opts["lincomb"].split(","))
            interval = (dens.a_exact, dens.b_exact)
            out, _ = ml.linear_combination_transform(seq, g, *interval, density=dens)
            spec = ml.TransformSpec(ml.TransformSpec.LINEAR_COMBINATION, g=g, interval=interval)
            report = ml.verify_transform_consistency(seq, spec, dens, min(8, len(out) - 1),
                                                     tol=1e-6)
            return (0 if report.passed else 1), report.to_json(), (out, report)
        spec = self._spec(opts)
        deg = int(opts["deg"])
        polys = ml.ops_from_recurrence(spec, deg)
        payload = {
            "schema": self.SCHEMA_OPS,
            "spec": spec.to_dict(),
            "polynomials": [[ml.format_rational(c) for c in poly.coefficients]
                            for poly in polys],
            "zeros": [float(z) for z in ml.ops_zeros(spec, deg)],
            "extreme_zero_interval": list(ml.true_interval_estimate(spec, deg)),
        }
        return 0, json.dumps(payload), polys

    def check(self, op, result):
        problems = []
        if TRACEBACK in result.stderr:
            problems.append("traceback on stderr")
        if op.probe:
            if result.code != 2:
                problems.append(f"bad input exited {result.code}, expected 2")
            return problems
        try:
            code, text, _ = self.expected(op)
        except Exception as exc:  # the in-process reference itself failed
            return problems + [f"in-process reference raised {exc!r}"]
        if result.code != code:
            problems.append(f"exit {result.code}, expected {code}")
        if result.stdout != (text + "\n").encode():
            problems.append("stdout differs from the library output")
        return problems

    def outputs(self, op, result):
        if op.probe:
            return iter(())
        return exact_values(self.expected(op)[2])

    def corruptions(self, op, result):
        return [
            ("wrong exit code", replace(result, code=5)),
            ("traceback on stderr", replace(
                result, stderr=result.stderr + TRACEBACK + b":\n  ValueError\n")),
        ]


def make(name, root: Path, workdir: Path) -> Workload:
    if name == CliOneshot.name:
        return CliOneshot(root, workdir)
    for cls in (CatalogDeep, AtomicSingular, SupportVerify):
        if cls.name == name:
            return cls()
    raise KeyError(name)

