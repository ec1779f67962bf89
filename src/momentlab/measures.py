"""Density catalog, singularity-aware quadrature, and sequence transforms.

Five classical families come with closed-form representing densities:

* catalan            (1/2pi) sqrt((4-x)/x)             on [0, 4]
* central_binomial   1/(pi sqrt(x(4-x)))               on [0, 4]
* motzkin            (1/2pi) sqrt((3-x)(1+x))          on [-1, 3]
* central_trinomial  1/(pi sqrt((3-x)(1+x)))           on [-1, 3]
* delannoy           arcsine density on [3-2sqrt(2), 3+2sqrt(2)]

Each density records its endpoint exponents (w(x) ~ C (x-a)^e near a).
Moments are integrated after a substitution chosen from the exponents:
the cosine map x = c - h cos(theta) turns half-integer endpoint
singularities into smooth trigonometric factors, and a power map
x = a + u^(1/(1+e)) removes a general algebraic singularity one side at
a time.  Adaptive quadrature then converges fast.

Two transforms act on moment sequences and densities together:

* affine subsequences  y_{dk+l}, with the pushforward density under
  x -> x^d (plus an x^l factor),
* linear combinations  sum_j g_j y_{k+j} for a polynomial g >= 0 on the
  interval, with density g(x) w(x).

Sequence-side arithmetic stays exact; only quadrature is floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import GNegative, InsufficientData, NonIntegrable, TooShort, UnknownName
from .exact import Surd, ensure_fraction, is_exact
from .hankel import SymMatrix
from .seqcore import Sequence

__all__ = [
    "Density",
    "TransformSpec",
    "PatternWitness",
    "PatternVerdict",
    "GVerdict",
    "RepresentationReport",
    "density_catalog",
    "density_names",
    "density_plot_csv",
    "moment_quadrature",
    "verify_representation",
    "subsequence_transform",
    "transform_support",
    "pattern_is_stieltjes_preserving",
    "check_g_nonneg",
    "linear_combination_transform",
    "pushforward_power",
    "translate_density",
    "transformed_density",
    "verify_transform_consistency",
]


@dataclass(frozen=True)
class Density:
    """A weight function on [a, b] with declared endpoint exponents.

    ``a_exact`` / ``b_exact`` carry Fraction or Surd endpoints when
    available, so downstream interval logic can stay exact; ``a`` and
    ``b`` are their binary64 images used by quadrature.
    """

    label: str
    a: float
    b: float
    weight: object
    left_exponent: float
    right_exponent: float
    a_exact: object = None
    b_exact: object = None

    def __call__(self, x: float) -> float:
        return self.weight(x)


def _sqrt0(v: float) -> float:
    """sqrt clipped at zero; guards roundoff just inside the endpoints."""
    return math.sqrt(v) if v > 0.0 else 0.0


_SQRT2 = math.sqrt(2.0)


def _catalog() -> dict:
    half = Fraction(1, 2)
    alpha = Surd(3, -2, 2)
    beta = Surd(3, 2, 2)
    return {
        "catalan": Density(
            "catalan", 0.0, 4.0,
            lambda x: _sqrt0((4.0 - x) / x) / (2.0 * math.pi) if x > 0 else 0.0,
            -0.5, 0.5, a_exact=Fraction(0), b_exact=Fraction(4)),
        "central_binomial": Density(
            "central_binomial", 0.0, 4.0,
            lambda x: 1.0 / (math.pi * _sqrt0(x * (4.0 - x))) if 0 < x < 4 else math.inf,
            -0.5, -0.5, a_exact=Fraction(0), b_exact=Fraction(4)),
        "motzkin": Density(
            "motzkin", -1.0, 3.0,
            lambda x: _sqrt0((3.0 - x) * (1.0 + x)) / (2.0 * math.pi),
            0.5, 0.5, a_exact=Fraction(-1), b_exact=Fraction(3)),
        "central_trinomial": Density(
            "central_trinomial", -1.0, 3.0,
            lambda x: 1.0 / (math.pi * _sqrt0((3.0 - x) * (1.0 + x))) if -1 < x < 3 else math.inf,
            -0.5, -0.5, a_exact=Fraction(-1), b_exact=Fraction(3)),
        "delannoy": Density(
            "delannoy", 3.0 - 2.0 * _SQRT2, 3.0 + 2.0 * _SQRT2,
            lambda x: 1.0 / (math.pi * _sqrt0((3.0 + 2.0 * _SQRT2 - x) * (x - 3.0 + 2.0 * _SQRT2)))
            if 3.0 - 2.0 * _SQRT2 < x < 3.0 + 2.0 * _SQRT2 else math.inf,
            -0.5, -0.5, a_exact=alpha, b_exact=beta),
    }


_DENSITIES = _catalog()


def density_names() -> tuple:
    return tuple(_DENSITIES)


def density_catalog(name: str) -> Density:
    """One of the five closed-form representing densities."""
    try:
        return _DENSITIES[name]
    except KeyError:
        raise UnknownName(name) from None


def density_plot_csv(dens: Density, npoints: int = 256) -> str:
    """CSV rows (x, w(x)) on an interior grid, for plotting."""
    lines = ["x,w"]
    span = dens.b - dens.a
    for k in range(1, npoints + 1):
        x = dens.a + span * k / (npoints + 1)
        lines.append(f"{x!r},{dens.weight(x)!r}")
    return "\n".join(lines) + "\n"


def _is_half_integerish(e: float) -> bool:
    return abs(2.0 * e - round(2.0 * e)) < 1e-12


# A module attribute rather than an import so that scipy loads on first use
# and the benchmark's tracer can wrap it to count quadrature calls.
def quad(*args, **kwargs):
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def moment_quadrature(dens: Density, n: int, tol: float = 1e-10) -> float:
    """The n-th moment of the density, to roughly absolute accuracy tol.

    Half-integer exponents >= -1/2 (every catalog density and their
    polynomial transforms) go through the cosine substitution, which
    makes the integrand smooth; anything else splits at the midpoint and
    removes each endpoint singularity with the matching power map.
    """
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ea, eb = dens.left_exponent, dens.right_exponent
    if ea <= -1 or eb <= -1:
        raise NonIntegrable(f"exponents ({ea}, {eb}) are not integrable")
    a, b = dens.a, dens.b
    w = dens.weight

    def f(x):
        return w(x) * x ** n

    if (_is_half_integerish(ea) and ea >= -0.5
            and _is_half_integerish(eb) and eb >= -0.5):
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)

        def g(theta):
            return f(c - h * math.cos(theta)) * h * math.sin(theta)

        val, _ = quad(g, 0.0, math.pi, epsabs=tol, epsrel=1e-11, limit=200)
        return val

    mid = 0.5 * (a + b)
    total = 0.0
    # left piece on [a, mid]
    if ea < 0:
        p = 1.0 / (1.0 + ea)
        top = (mid - a) ** (1.0 / p)

        def gl(u):
            return f(a + u ** p) * p * u ** (p - 1.0)

        val, _ = quad(gl, 0.0, top, epsabs=tol / 2, epsrel=1e-11, limit=200)
    else:
        val, _ = quad(f, a, mid, epsabs=tol / 2, epsrel=1e-11, limit=200)
    total += val
    # right piece on [mid, b]
    if eb < 0:
        p = 1.0 / (1.0 + eb)
        top = (b - mid) ** (1.0 / p)

        def gr(u):
            return f(b - u ** p) * p * u ** (p - 1.0)

        val, _ = quad(gr, 0.0, top, epsabs=tol / 2, epsrel=1e-11, limit=200)
    else:
        val, _ = quad(f, mid, b, epsabs=tol / 2, epsrel=1e-11, limit=200)
    total += val
    return total


@dataclass(frozen=True)
class RepresentationReport:
    """Per-moment comparison between a sequence and quadrature values."""

    label: str
    tol: float
    rows: tuple  # (n, target_float, computed, abs_err, rel_err)

    @property
    def max_rel_error(self) -> float:
        return max(r[4] for r in self.rows)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def to_json(self) -> str:
        return json.dumps({
            "schema": "momentlab/verify/v1",
            "label": self.label,
            "tol": self.tol,
            "passed": self.passed,
            "max_rel_error": self.max_rel_error,
            "rows": [
                {"n": n, "target": t, "computed": c, "abs_err": ae, "rel_err": re}
                for n, t, c, ae, re in self.rows
            ],
        })

    def to_csv(self) -> str:
        lines = ["n,target,computed,abs_err,rel_err"]
        lines += [f"{n},{t!r},{c!r},{ae!r},{re!r}" for n, t, c, ae, re in self.rows]
        return "\n".join(lines) + "\n"


def verify_representation(y, dens: Density, n_max: int, tol: float = 1e-7,
                          label: str = None) -> RepresentationReport:
    """Compare y_0 .. y_{n_max} against the density's moments.

    Pass/fail is decided on the maximum relative error (absolute error
    for targets below 1 in magnitude).
    """
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    if len(vals) < n_max + 1:
        raise InsufficientData(f"need {n_max + 1} values, have {len(vals)}")
    rows = []
    for n in range(n_max + 1):
        target = float(vals[n])
        qtol = tol * max(1.0, abs(target)) / 20.0
        computed = moment_quadrature(dens, n, tol=max(qtol, 1e-13))
        abs_err = abs(computed - target)
        rel_err = abs_err / max(1.0, abs(target))
        rows.append((n, target, computed, abs_err, rel_err))
    name = label or f"{getattr(y, 'label', '')} vs {dens.label}".strip()
    return RepresentationReport(name, tol, tuple(rows))


# -- transforms ---------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Either subsequence(d, offset) or linear_combination(g on [a, b])."""

    kind: str
    d: int = 1
    offset: int = 0
    g: tuple = ()
    interval: tuple = None

    SUBSEQUENCE = "subsequence"
    LINEAR_COMBINATION = "linear_combination"

    def __post_init__(self):
        if self.kind not in (self.SUBSEQUENCE, self.LINEAR_COMBINATION):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == self.SUBSEQUENCE and (self.d < 1 or self.offset < 0):
            raise ValueError("subsequence needs d >= 1 and offset >= 0")
        if self.kind == self.LINEAR_COMBINATION:
            object.__setattr__(self, "g", tuple(ensure_fraction(c) for c in self.g))


def subsequence_transform(y, d: int, offset: int = 0) -> Sequence:
    """The affine subsequence k -> y_{dk + offset}."""
    if d < 1 or offset < 0:
        raise ValueError("need d >= 1 and offset >= 0")
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    if offset >= len(vals):
        raise InsufficientData("offset beyond the available prefix")
    sub = vals[offset::d]
    base = getattr(y, "label", "") or "y"
    return Sequence(sub, label=f"{base}[{d}k+{offset}]", origin="transform")


def transform_support(interval, d: int):
    """Image of an interval under x -> x^d, exactly for exact endpoints."""
    a, b = interval
    if d < 1:
        raise ValueError("need d >= 1")
    if d % 2 == 1:
        return (a ** d, b ** d)
    candidates = [a ** d, b ** d]
    if a < 0 < b:
        candidates.append(a * 0)
    return (min(candidates), max(candidates))


@dataclass(frozen=True)
class PatternWitness:
    """Rank-one counterexample for a non-affine index pattern.

    The atom delta_epsilon has moments epsilon^n; restricted to the three
    offending indices its 2x2 principal Hankel block has the recorded
    negative determinant.
    """

    epsilon: Fraction
    indices: tuple
    block: SymMatrix
    determinant: Fraction


@dataclass(frozen=True)
class PatternVerdict:
    preserving: bool
    witness: PatternWitness = None


def pattern_is_stieltjes_preserving(indices) -> PatternVerdict:
    """Decide whether an index pattern keeps every Stieltjes sequence
    Stieltjes: exactly the affine patterns n_k = d k + l do.

    For a non-affine pattern the witness atom is epsilon = 1/2 when the
    gap grows at the first defect and epsilon = 2 when it shrinks.
    """
    idx = list(indices)
    if len(idx) < 3:
        raise TooShort("need at least three indices")
    if any(int(v) != v or v < 0 for v in idx):
        raise ValueError("indices must be nonnegative integers")
    idx = [int(v) for v in idx]
    if any(m >= n for m, n in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    gaps = [n - m for m, n in zip(idx, idx[1:])]
    for s, (g1, g2) in enumerate(zip(gaps, gaps[1:])):
        if g1 == g2:
            continue
        eps = Fraction(1, 2) if g2 > g1 else Fraction(2)
        tri = idx[s:s + 3]
        block = SymMatrix((
            (eps ** tri[0], eps ** tri[1]),
            (eps ** tri[1], eps ** tri[2]),
        ))
        det = block.rows[0][0] * block.rows[1][1] - block.rows[0][1] ** 2
        return PatternVerdict(False, PatternWitness(eps, tuple(tri), block, det))
    return PatternVerdict(True)


@dataclass(frozen=True)
class GVerdict:
    status: str
    violation_x: float = None

    CERTIFIED = "certified_nonneg_numeric"
    VIOLATED = "violated"

    @property
    def ok(self) -> bool:
        return self.status == self.CERTIFIED


def _poly_eval(coeffs, x):
    acc = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def check_g_nonneg(g, a, b, grid: int = 512) -> GVerdict:
    """Check g >= 0 on [a, b] on a dense grid plus the critical points.

    Interior critical points are located by bisection on sign changes of
    g'.  Exact endpoints and rational grid points are evaluated exactly
    when the coefficients are exact; the verdict is still a numeric
    certificate, not an algebraic proof.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    coeffs = [ensure_fraction(c) if is_exact(c) else c for c in g]
    exact = all(is_exact(c) for c in coeffs) and is_exact(a) and is_exact(b)
    scale = max(1.0, max(abs(float(c)) for c in coeffs)) * max(1.0, abs(float(b)), abs(float(a))) ** max(len(coeffs) - 1, 1)
    slack = 1e-12 * scale

    if exact:
        span = b - a
        for k in range(grid):
            x = a + span * Fraction(k, grid - 1)
            if _poly_eval(coeffs, x) < 0:
                return GVerdict(GVerdict.VIOLATED, float(x))
    else:
        fa, fb = float(a), float(b)
        for k in range(grid):
            x = fa + (fb - fa) * k / (grid - 1)
            if _poly_eval([float(c) for c in coeffs], x) < -slack:
                return GVerdict(GVerdict.VIOLATED, x)

    # critical points of g via sign changes of g'
    fcoeffs = [float(c) for c in coeffs]
    dcoeffs = [k * fcoeffs[k] for k in range(1, len(fcoeffs))]
    if dcoeffs:
        fa, fb = float(a), float(b)
        fine = 4 * grid

        def dval(x):
            return _poly_eval(dcoeffs, x)

        prev_x, prev_v = fa, dval(fa)
        for k in range(1, fine + 1):
            x = fa + (fb - fa) * k / fine
            v = dval(x)
            if prev_v == 0.0 or (prev_v < 0) != (v < 0):
                lo, hi = prev_x, x
                for _ in range(80):
                    midp = 0.5 * (lo + hi)
                    if (dval(lo) < 0) != (dval(midp) < 0):
                        hi = midp
                    else:
                        lo = midp
                root = 0.5 * (lo + hi)
                if _poly_eval(fcoeffs, root) < -slack:
                    return GVerdict(GVerdict.VIOLATED, root)
            prev_x, prev_v = x, v
    return GVerdict(GVerdict.CERTIFIED)


def _vanishing_order(coeffs, point):
    """Multiplicity of an exact root at an exact point, by deflation."""
    work = list(coeffs)
    order = 0
    while len(work) > 1:
        # synthetic division by (x - point); acc ends as the remainder
        n = len(work) - 1
        quot = [None] * n
        acc = work[n]
        for k in range(n - 1, -1, -1):
            quot[k] = acc
            acc = work[k] + acc * point
        if acc != 0:
            break
        work = quot
        order += 1
    return order


def linear_combination_transform(y, g, a, b, density: Density = None):
    """(T_g y)_k = sum_j g_j y_{k+j}, plus the density g(x) w(x).

    Requires g >= 0 on [a, b] (GNegative otherwise).  When a density for
    y is supplied the returned pair carries the transformed density on
    the same interval, with endpoint exponents raised by the vanishing
    order of g there.
    """
    coeffs = tuple(ensure_fraction(c) for c in g)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    verdict = check_g_nonneg(coeffs, a, b)
    if not verdict.ok:
        raise GNegative(f"g takes a negative value near x = {verdict.violation_x}")
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    deg = len(coeffs) - 1
    if len(vals) <= deg:
        raise InsufficientData("sequence shorter than the polynomial degree")
    out = tuple(
        sum((c * vals[k + j] for j, c in enumerate(coeffs)), Fraction(0))
        for k in range(len(vals) - deg)
    )
    base = getattr(y, "label", "") or "y"
    seq = Sequence(out, label=f"T_g({base})", origin="transform")
    if density is None:
        return seq, None
    new_density = transformed_density_linear(density, coeffs)
    return seq, new_density


def transformed_density_linear(dens: Density, coeffs) -> Density:
    """The density g(x) w(x) on the same interval."""
    coeffs = tuple(ensure_fraction(c) for c in coeffs)
    fcoeffs = [float(c) for c in coeffs]
    w = dens.weight

    def new_weight(x, _w=w, _f=fcoeffs):
        return _poly_eval(_f, x) * _w(x)

    mult_a = _vanishing_order(coeffs, dens.a_exact) if dens.a_exact is not None else 0
    mult_b = _vanishing_order(coeffs, dens.b_exact) if dens.b_exact is not None else 0
    return replace(
        dens,
        label=f"g*{dens.label}",
        weight=new_weight,
        left_exponent=dens.left_exponent + mult_a,
        right_exponent=dens.right_exponent + mult_b,
    )


def translate_density(dens: Density, offset: int) -> Density:
    """The density x^offset w(x); exponents shift only at a zero endpoint."""
    if offset == 0:
        return dens
    if offset < 0:
        raise ValueError("offset must be >= 0")
    w = dens.weight

    def new_weight(x, _w=w, _l=offset):
        return _w(x) * x ** _l

    left = dens.left_exponent + (offset if dens.a == 0.0 else 0)
    right = dens.right_exponent + (offset if dens.b == 0.0 else 0)
    return replace(dens, label=f"x^{offset}*{dens.label}", weight=new_weight,
                   left_exponent=left, right_exponent=right)


def pushforward_power(dens: Density, d: int) -> Density:
    """Pushforward of w(x) dx under x -> x^d, for intervals in [0, inf).

    The new weight on [a^d, b^d] is w(u^(1/d)) u^((1-d)/d) / d; a zero
    left endpoint maps exponent e to (e+1)/d - 1.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return dens
    if dens.a < 0:
        raise ValueError("pushforward under x^d needs an interval in [0, inf)")
    w = dens.weight

    def new_weight(u, _w=w, _d=d):
        if u <= 0.0:
            return math.inf
        x = u ** (1.0 / _d)
        return _w(x) * u ** ((1.0 - _d) / _d) / _d

    left = (dens.left_exponent + 1) / d - 1 if dens.a == 0.0 else dens.left_exponent
    a_exact = dens.a_exact ** d if dens.a_exact is not None else None
    b_exact = dens.b_exact ** d if dens.b_exact is not None else None
    return Density(
        label=f"{dens.label}^(x->x^{d})",
        a=dens.a ** d, b=dens.b ** d,
        weight=new_weight,
        left_exponent=left,
        right_exponent=dens.right_exponent,
        a_exact=a_exact, b_exact=b_exact,
    )


def transformed_density(dens: Density, transform: TransformSpec) -> Density:
    """Density matching a TransformSpec applied to dens' moment sequence."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        out = translate_density(dens, transform.offset)
        return pushforward_power(out, transform.d)
    a = transform.interval[0] if transform.interval else dens.a_exact
    b = transform.interval[1] if transform.interval else dens.b_exact
    verdict = check_g_nonneg(transform.g, a if a is not None else dens.a,
                             b if b is not None else dens.b)
    if not verdict.ok:
        raise GNegative(f"g takes a negative value near x = {verdict.violation_x}")
    return transformed_density_linear(dens, transform.g)


def verify_transform_consistency(y, transform: TransformSpec, dens: Density,
                                 n_max: int, tol: float = 1e-6) -> RepresentationReport:
    """Check the transformed sequence against the transformed density."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        seq = subsequence_transform(y, transform.d, transform.offset)
    else:
        a = transform.interval[0] if transform.interval else dens.a_exact
        b = transform.interval[1] if transform.interval else dens.b_exact
        seq, _ = linear_combination_transform(
            y, transform.g,
            a if a is not None else dens.a,
            b if b is not None else dens.b)
    tdens = transformed_density(dens, transform)
    if len(seq) < n_max + 1:
        raise InsufficientData(
            f"transformed sequence has {len(seq)} terms, need {n_max + 1}")
    return verify_representation(seq, tdens, n_max, tol,
                                 label=f"{seq.label} vs {tdens.label}")
