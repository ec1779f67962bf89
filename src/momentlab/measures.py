"""Density catalog, singularity-aware quadrature, and sequence transforms.

Five classical families come with closed-form representing densities:

* catalan            (1/2pi) sqrt((4-x)/x)             on [0, 4]
* central_binomial   1/(pi sqrt(x(4-x)))               on [0, 4]
* motzkin            (1/2pi) sqrt((3-x)(1+x))          on [-1, 3]
* central_trinomial  1/(pi sqrt((3-x)(1+x)))           on [-1, 3]
* delannoy           arcsine density on [3-2sqrt(2), 3+2sqrt(2)]

Each density records its endpoint exponents (w(x) ~ C (x-a)^e near a).
Moments are integrated after a substitution chosen from the exponents.
When both lie in {-1/2, 1/2, 3/2, ...} (every catalog density and its
polynomial re-weightings), the cosine map x = c - h cos(theta) turns the
integrand into an analytic even periodic function of theta, for which
the midpoint rule converges exponentially (Trefethen & Weideman, SIAM
Review 56, 2014).  Any other exponents go through a power map
x = a + u^(1/(1+e)) that removes each endpoint singularity, and adaptive
10-point Gauss-Legendre panels, whose nodes stay inside the panel as in
QUADPACK (Piessens et al., 1983): an infinite endpoint weight is never hit.

Two transforms act on moment sequences and densities together:

* affine subsequences  y_{dk+l}, with the pushforward density under
  x -> x^d (plus an x^l factor),
* linear combinations  sum_j g_j y_{k+j} for a polynomial g >= 0 on the
  interval, with density g(x) w(x).

Sequence-side arithmetic, every endpoint and exponent decision, and the
decision g >= 0 (a Sturm sign count at exact points) stay exact; only
quadrature is floating point.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record
from .errors import GNegative, InsufficientData, NonIntegrable, TooShort, UnknownName
from .exact import Surd, ensure_fraction, is_exact, sign_changes
from .orthopoly import _pdivmod, _ptrim
from .seqcore import Sequence

if TYPE_CHECKING:  # imported at run time only where a witness is built
    from .hankel import SymMatrix

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


class Density(Record):
    """A weight function on [a, b] with declared endpoint exponents.

    ``a_exact`` / ``b_exact`` are the Fraction or Surd endpoints, so every
    endpoint decision stays exact; ``a`` and ``b`` are their binary64
    images used by quadrature.  An endpoint left as None becomes the exact
    value of its float, and the exponents are stored as Fractions (a float
    converts exactly).
    """

    label: str
    a: float
    b: float
    weight: object
    left_exponent: Fraction
    right_exponent: Fraction
    a_exact: object = None
    b_exact: object = None

    def __post_init__(self):
        for name in ("left_exponent", "right_exponent"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        for name, value in (("a_exact", self.a), ("b_exact", self.b)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, Fraction(value))

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
            -half, half, a_exact=Fraction(0), b_exact=Fraction(4)),
        "central_binomial": Density(
            "central_binomial", 0.0, 4.0,
            lambda x: 1.0 / (math.pi * _sqrt0(x * (4.0 - x))) if 0 < x < 4 else math.inf,
            -half, -half, a_exact=Fraction(0), b_exact=Fraction(4)),
        "motzkin": Density(
            "motzkin", -1.0, 3.0,
            lambda x: _sqrt0((3.0 - x) * (1.0 + x)) / (2.0 * math.pi),
            half, half, a_exact=Fraction(-1), b_exact=Fraction(3)),
        "central_trinomial": Density(
            "central_trinomial", -1.0, 3.0,
            lambda x: 1.0 / (math.pi * _sqrt0((3.0 - x) * (1.0 + x))) if -1 < x < 3 else math.inf,
            -half, -half, a_exact=Fraction(-1), b_exact=Fraction(3)),
        "delannoy": Density(
            "delannoy", 3.0 - 2.0 * _SQRT2, 3.0 + 2.0 * _SQRT2,
            lambda x: 1.0 / (math.pi * _sqrt0((3.0 + 2.0 * _SQRT2 - x) * (x - 3.0 + 2.0 * _SQRT2)))
            if 3.0 - 2.0 * _SQRT2 < x < 3.0 + 2.0 * _SQRT2 else math.inf,
            -half, -half, a_exact=alpha, b_exact=beta),
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


def _is_odd_half(e: Fraction) -> bool:
    """e in {-1/2, 1/2, 3/2, ...}: the exponents for which the cosine map
    turns (x - a)^e dx into an analytic periodic function of theta."""
    return e > -1 and (e + Fraction(1, 2)).denominator == 1


#: The 10-point Gauss-Legendre rule on (-1, 1) as pairs (x, w), x > 0, of
#: the symmetric rule: 50-digit Newton iterates on P_10, rounded.
_GAUSS = (
    (0.14887433898163122, 0.29552422471475287),
    (0.4333953941292472, 0.26926671930999635),
    (0.6794095682990244, 0.21908636251598204),
    (0.8650633666889845, 0.1494513491505806),
    (0.9739065285171717, 0.06667134430868814),
)
#: The adaptive rule's relative target and its cap on the number of panels.
_REL_TOL = 1e-11
_MAX_PANELS = 200


def quad(f, a: float, b: float, epsabs: float) -> float:
    """Integral of f over (a, b) by adaptive Gauss-Legendre panels.

    A panel's value is the rule on its two halves, and its error the
    difference from the rule on the whole panel.  The panel with the
    largest error is bisected until the errors sum to at most
    max(epsabs, _REL_TOL |integral|) or _MAX_PANELS panels are in use.
    Nodes are interior, so f is never evaluated at a panel's ends.  A
    non-finite sum raises NonIntegrable.
    """
    def rule(lo, hi):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return h * math.fsum(w * (f(c - h * x) + f(c + h * x)) for x, w in _GAUSS)

    def panel(lo, hi, whole):
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        return abs(left + right - whole), lo, mid, hi, left, right

    panels = [panel(a, b, rule(a, b))]
    while True:
        estimate = math.fsum(p[4] + p[5] for p in panels)
        if not math.isfinite(estimate):
            raise NonIntegrable(f"quadrature over ({a!r}, {b!r}) gave {estimate!r}")
        if (math.fsum(p[0] for p in panels) <= max(epsabs, _REL_TOL * abs(estimate))
                or len(panels) >= _MAX_PANELS):
            return estimate
        worst = max(panels)
        panels.remove(worst)
        _, lo, mid, hi, left, right = worst
        panels += [panel(lo, mid, left), panel(mid, hi, right)]


#: The midpoint rule stops tripling its node count here.
_MAX_NODES = 8 * 3 ** 7


def _midpoint_rule(g, tol: float) -> float | None:
    """Integral of g over (0, pi) by the midpoint rule with 8, 24, 72, ...
    nodes; tripling keeps the old nodes.  Returns the first estimate that
    differs from the one before by at most max(tol, 1e-11 |estimate|), or
    None when the node count reaches _MAX_NODES first.  The nodes are
    interior, so g is never evaluated at 0 or pi."""
    n = 8
    total = math.fsum(g((j + 0.5) * math.pi / n) for j in range(n))
    estimate = total * math.pi / n
    while n < _MAX_NODES:
        n *= 3
        total += math.fsum(g((j + 0.5) * math.pi / n) for j in range(n) if j % 3 != 1)
        previous, estimate = estimate, total * math.pi / n
        if abs(estimate - previous) <= max(tol, 1e-11 * abs(estimate)):
            return estimate
    return None


def moment_quadrature(dens: Density, n: int, tol: float = 1e-10) -> float:
    """The n-th moment of the density, to roughly absolute accuracy tol.

    Exponents in {-1/2, 1/2, 3/2, ...} (every catalog density and their
    polynomial transforms) go through the cosine substitution and the
    midpoint rule.  Anything else, and any case where the midpoint rule
    reaches its node cap unconverged (a transform whose mapped integrand
    is not analytic, such as the x^3 pushforward of x w), splits at the
    midpoint of [a, b] and removes each endpoint singularity with the
    matching power map before the adaptive Gauss-Legendre rule ``quad``.
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

    if _is_odd_half(ea) and _is_odd_half(eb):
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        estimate = _midpoint_rule(
            lambda theta: f(c - h * math.cos(theta)) * h * math.sin(theta), tol)
        if estimate is not None:
            return estimate

    mid = 0.5 * (a + b)
    total = 0.0
    # the pieces on [a, mid] and [mid, b]; the power map u -> end +/- u^p
    # removes a singular endpoint
    for end, e, sign in ((a, ea, 1.0), (b, eb, -1.0)):
        if e < 0:
            p = 1.0 / (1.0 + e)
            top = abs(mid - end) ** (1.0 / p)

            def g(u):
                return f(end + sign * u ** p) * p * u ** (p - 1.0)

            total += quad(g, 0.0, top, tol / 2)
        else:
            lo, hi = (end, mid) if sign > 0 else (mid, end)
            total += quad(f, lo, hi, tol / 2)
    return total


class RepresentationReport(Record):
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

    def to_text(self) -> str:
        """One line: the largest relative error and the verdict at tol."""
        return (f"{self.label}: max relative error {self.max_rel_error:.3e} "
                f"({'pass' if self.passed else 'FAIL'} at {self.tol:g})\n")


def verify_representation(y, dens: Density, n_max: int, tol: float = 1e-7,
                          label: str = None) -> RepresentationReport:
    """Compare y_0 .. y_{n_max} against the density's moments.

    Pass/fail is decided on the maximum relative error (absolute error
    for targets below 1 in magnitude).  ``tol`` must be a finite number
    above 0.  An n_max whose target y_n or max(|a|, |b|)^n is not a finite
    double raises ValueError before any quadrature runs.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a finite number above 0, got {tol!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    if len(vals) < n_max + 1:
        raise InsufficientData(f"need {n_max + 1} values, have {len(vals)}")
    # float() of a Fraction and float ** int raise OverflowError, never give inf
    try:
        targets = [float(v) for v in vals[:n_max + 1]]
        max(abs(dens.a), abs(dens.b)) ** n_max
    except OverflowError:
        raise ValueError(f"n = {n_max} is too large: y_n or max(|a|, |b|)^n "
                         f"is not a finite double") from None
    rows = []
    for n, target in enumerate(targets):
        qtol = tol * max(1.0, abs(target)) / 20.0
        computed = moment_quadrature(dens, n, tol=max(qtol, 1e-13))
        abs_err = abs(computed - target)
        rel_err = abs_err / max(1.0, abs(target))
        rows.append((n, target, computed, abs_err, rel_err))
    name = label or f"{getattr(y, 'label', '')} vs {dens.label}".strip()
    return RepresentationReport(name, tol, tuple(rows))


# -- transforms ---------------------------------------------------------


class TransformSpec(Record):
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


class PatternWitness(Record):
    """Rank-one counterexample for a non-affine index pattern.

    The atom delta_epsilon has moments epsilon^n; restricted to the three
    offending indices its 2x2 principal Hankel block has the recorded
    negative determinant.
    """

    epsilon: Fraction
    indices: tuple
    block: SymMatrix
    determinant: Fraction


class PatternVerdict(Record):
    preserving: bool
    witness: PatternWitness = None


def pattern_is_stieltjes_preserving(indices) -> PatternVerdict:
    """Decide whether an index pattern keeps every Stieltjes sequence
    Stieltjes: exactly the affine patterns n_k = d k + l do.

    For a non-affine pattern the witness atom is epsilon = 1/2 when the
    gap grows at the first defect and epsilon = 2 when it shrinks.
    """
    from .hankel import SymMatrix
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


class GVerdict(Record):
    status: str
    violation_x: object = None

    CERTIFIED = "certified_nonneg"
    VIOLATED = "violated"

    @property
    def ok(self) -> bool:
        return self.status == self.CERTIFIED


def _poly_eval(coeffs, x):
    acc = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def check_g_nonneg(g, a, b) -> GVerdict:
    """Decide g >= 0 on [a, b] exactly, by Sturm's theorem.

    The remainder chain of g and g', divided by gcd(g, g'), is a Sturm chain
    of g's squarefree part, so its sign changes at u minus those at v count
    the distinct roots of g in (u, v].  [a, b] is bisected, never at a root,
    until each closed piece holds at most one, so g < 0 somewhere exactly
    when g < 0 at a piece endpoint, returned as the exact ``violation_x``.
    Coefficients and endpoints must be exact.
    """
    if not (is_exact(a) and is_exact(b)):
        raise TypeError(f"interval endpoints must be exact, got {a!r}, {b!r}")
    if a > b:
        raise ValueError("need a <= b")
    g = _ptrim(ensure_fraction(c) for c in g)
    if not g:
        return GVerdict(GVerdict.CERTIFIED)
    chain = [g, [k * c for k, c in enumerate(g)][1:]]
    while chain[-1]:
        chain.append([-c for c in _pdivmod(chain[-2], chain[-1])[1]])
    chain = [_pdivmod(q, chain[-2])[0] for q in chain[:-1]]

    def changes(x):
        return sign_changes(_poly_eval(q, x) for q in chain)

    for x in (a, b):
        if _poly_eval(g, x) < 0:
            return GVerdict(GVerdict.VIOLATED, x)
    pieces = [(a, changes(a), b, changes(b))]
    while pieces:
        u, cu, v, cv = pieces.pop()
        if cu - cv + (_poly_eval(g, u) == 0) <= 1:
            continue
        m = (u + v) / 2
        while (gm := _poly_eval(g, m)) == 0:
            m = (u + m) / 2
        if gm < 0:
            return GVerdict(GVerdict.VIOLATED, m)
        cm = changes(m)
        pieces += [(u, cu, m, cm), (m, cm, v, cv)]
    return GVerdict(GVerdict.CERTIFIED)


def _vanishing_order(coeffs, point):
    """Multiplicity of an exact root at an exact point, by deflation."""
    order, work = 0, _ptrim(coeffs)
    while len(work) > 1 and _poly_eval(work, point) == 0:
        work = _pdivmod(work, (-point, 1))[0]
        order += 1
    return order


def linear_combination_transform(y, g, a, b, density: Density = None):
    """(T_g y)_k = sum_j g_j y_{k+j}, plus the density g(x) w(x).

    Requires a sequence longer than deg g (InsufficientData otherwise,
    checked first) and g >= 0 on [a, b] (GNegative otherwise).  When a
    density for y is supplied the returned pair carries the transformed
    density on the same interval, with endpoint exponents raised by the
    vanishing order of g there.
    """
    coeffs = _ptrim(ensure_fraction(c) for c in g) or (Fraction(0),)
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    deg = len(coeffs) - 1
    if len(vals) <= deg:
        raise InsufficientData("sequence shorter than the polynomial degree")
    _require_nonneg(coeffs, a, b)
    out = tuple(
        sum((c * vals[k + j] for j, c in enumerate(coeffs)), Fraction(0))
        for k in range(len(vals) - deg)
    )
    base = getattr(y, "label", "") or "y"
    seq = Sequence(out, label=f"T_g({base})", origin="transform")
    return seq, None if density is None else transformed_density_linear(density, coeffs)


def transformed_density_linear(dens: Density, coeffs) -> Density:
    """The density g(x) w(x) on the same interval."""
    coeffs = tuple(ensure_fraction(c) for c in coeffs)
    fcoeffs = [float(c) for c in coeffs]
    w = dens.weight

    def new_weight(x, _w=w, _f=fcoeffs):
        return _poly_eval(_f, x) * _w(x)

    return dens.replace(
        label=f"g*{dens.label}",
        weight=new_weight,
        left_exponent=dens.left_exponent + _vanishing_order(coeffs, dens.a_exact),
        right_exponent=dens.right_exponent + _vanishing_order(coeffs, dens.b_exact),
    )


def translate_density(dens: Density, offset: int) -> Density:
    """The density x^offset w(x): the linear transform with g = x^offset,
    so an exponent shifts only at an endpoint that is exactly zero."""
    if offset == 0:
        return dens
    if offset < 0:
        raise ValueError("offset must be >= 0")
    moved = transformed_density_linear(dens, (0,) * offset + (1,))
    return moved.replace(label=f"x^{offset}*{dens.label}")


def pushforward_power(dens: Density, d: int) -> Density:
    """Pushforward of w(x) dx under x -> x^d, for intervals in [0, inf).

    The new weight on [a^d, b^d] is w(u^(1/d)) u^((1-d)/d) / d; a zero
    left endpoint maps exponent e to (e+1)/d - 1.  Both decisions are made
    on the exact endpoint, and the exact image comes from transform_support.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return dens
    if dens.a_exact < 0:
        raise ValueError("pushforward under x^d needs an interval in [0, inf)")
    w = dens.weight

    def new_weight(u, _w=w, _d=d):
        if u <= 0.0:
            return math.inf
        x = u ** (1.0 / _d)
        return _w(x) * u ** ((1.0 - _d) / _d) / _d

    left = (dens.left_exponent + 1) / d - 1 if dens.a_exact == 0 else dens.left_exponent
    a_exact, b_exact = transform_support((dens.a_exact, dens.b_exact), d)
    return Density(
        label=f"{dens.label}^(x->x^{d})",
        a=dens.a ** d, b=dens.b ** d,
        weight=new_weight,
        left_exponent=left,
        right_exponent=dens.right_exponent,
        a_exact=a_exact, b_exact=b_exact,
    )


def _lincomb_interval(dens: Density, transform: TransformSpec):
    """The transform's own interval, else the density's exact endpoints."""
    return transform.interval or (dens.a_exact, dens.b_exact)


def _require_nonneg(g, a, b):
    verdict = check_g_nonneg(g, a, b)
    if not verdict.ok:
        raise GNegative(f"g takes a negative value at x = {verdict.violation_x}")


def transformed_density(dens: Density, transform: TransformSpec) -> Density:
    """Density matching a TransformSpec applied to dens' moment sequence."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        out = translate_density(dens, transform.offset)
        return pushforward_power(out, transform.d)
    _require_nonneg(transform.g, *_lincomb_interval(dens, transform))
    return transformed_density_linear(dens, transform.g)


def verify_transform_consistency(y, transform: TransformSpec, dens: Density,
                                 n_max: int, tol: float = 1e-6) -> RepresentationReport:
    """Check the transformed sequence against the transformed density."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        seq = subsequence_transform(y, transform.d, transform.offset)
        tdens = transformed_density(dens, transform)
    else:
        seq, tdens = linear_combination_transform(
            y, transform.g, *_lincomb_interval(dens, transform), density=dens)
    if len(seq) < n_max + 1:
        raise InsufficientData(
            f"transformed sequence has {len(seq)} terms, need {n_max + 1}")
    return verify_representation(seq, tdens, n_max, tol,
                                 label=f"{seq.label} vs {tdens.label}")
