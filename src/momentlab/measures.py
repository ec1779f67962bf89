"""Density catalog, singularity-aware quadrature, and sequence transforms.

Every density has one form, w(x) = (x - a)^e (b - x)^f h(x) on [a, b]:
the ends a, b and the exponents e, f are exact, and the factor h is a
float function that is finite on [a, b].  Five classical families come
with closed forms, each c (x - a)^e (b - x)^f with e, f = +/-1/2:

* catalan            (1/2pi) x^(-1/2) (4 - x)^(1/2)     on [0, 4]
* central_binomial   (1/pi) x^(-1/2) (4 - x)^(-1/2)     on [0, 4]
* motzkin            (1/2pi) (x + 1)^(1/2) (3 - x)^(1/2) on [-1, 3]
* central_trinomial  (1/pi) (x + 1)^(-1/2) (3 - x)^(-1/2) on [-1, 3]
* delannoy           the arcsine density on [3 - 2 sqrt 2, 3 + 2 sqrt 2]

Every moment is integrated one way: [a, b] is split at its midpoint, and
on each half the substitution x = end +/- u^k, with k the denominator of
that end's exponent P/k, passes the exact distance u^k to the end, so the
end power (x - end)^(P/k) dx becomes k u^(P+k-1) du analytically; the
other end's power is taken of its distance, never below half the span.
Adaptive 10-point Gauss-Legendre panels then integrate in u; a factor h
that stays non-analytic in u is left to their refinement.  The nodes stay
inside each panel as in QUADPACK (Piessens et al., 1983).  An exponent
with a huge denominator, such as a float 1/3, raises ValueError: give it
exactly.

Two transforms act on moment sequences and densities together:

* affine subsequences  y_{dk+l}, with the pushforward density under
  x -> x^d (plus an x^l factor),
* linear combinations  sum_j g_j y_{k+j} for a polynomial g >= 0 on the
  interval, with density g(x) w(x): g's roots at the ends raise the
  exponents, and the rest of g joins the factor.

Sequence-side arithmetic, every endpoint and exponent decision, and the
decision g >= 0 (a Sturm sign count at exact points) stay exact; only
quadrature is floating point.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from ._record import Record
from .errors import GNegative, InsufficientData, NonIntegrable, TooShort, UnknownName
from .exact import Surd, _require_int, ensure_fraction, is_exact
from .roots import horner, sturm_counter, trim, vanishing_order
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
    """The weight (x - a)^e (b - x)^f h(x) on [a, b].

    ``a_exact`` / ``b_exact`` are the Fraction or Surd ends (an int or a
    float converts exactly) and ``left_exponent`` e / ``right_exponent`` f
    are Fractions, so every endpoint decision stays exact; ``a`` and ``b``
    are their binary64 images.  ``factor`` is h, a float function of x
    that is finite on [a, b]: quadrature takes the end powers of the
    exact distances, so h never has to resolve them.
    """

    label: str
    a_exact: object
    b_exact: object
    left_exponent: Fraction
    right_exponent: Fraction
    factor: object

    def __post_init__(self):
        for name in ("a_exact", "b_exact"):
            end = getattr(self, name)
            object.__setattr__(self, name, end if isinstance(end, Surd) else Fraction(end))
        for name in ("left_exponent", "right_exponent"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @cached_property
    def a(self) -> float:
        return float(self.a_exact)

    @cached_property
    def b(self) -> float:
        return float(self.b_exact)

    def weight(self, x: float) -> float:
        """w(x) from a float x, for plots: 0 outside [a, b], inf at an end
        whose power is."""
        a, b = self.a, self.b
        if not a <= x <= b:
            return 0.0
        return (_power(x - a, self.left_exponent) * _power(b - x, self.right_exponent)
                * self.factor(x))


def _power(distance: float, e: Fraction) -> float:
    try:  # 0.0 ** -e raises, and so does a float ** float beyond the doubles
        return distance ** float(e)
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _catalog() -> dict:
    half = Fraction(1, 2)
    table = {  # name: (a, b, e, f, c)
        "catalan": (0, 4, -half, half, 0.5 / math.pi),
        "central_binomial": (0, 4, -half, -half, 1 / math.pi),
        "motzkin": (-1, 3, half, half, 0.5 / math.pi),
        "central_trinomial": (-1, 3, -half, -half, 1 / math.pi),
        "delannoy": (Surd(3, -2, 2), Surd(3, 2, 2), -half, -half, 1 / math.pi),
    }
    return {name: Density(name, a, b, e, f, lambda x, c=c: c)
            for name, (a, b, e, f, c) in table.items()}


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
    max(epsabs, _REL_TOL |integral|).  Nodes are interior, so f is never
    evaluated at a panel's ends.  A non-finite sum raises NonIntegrable,
    and errors that still sum above that target with _MAX_PANELS panels
    in use raise ValueError: the estimate did not converge.
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
        error, target = math.fsum(p[0] for p in panels), max(epsabs, _REL_TOL * abs(estimate))
        if error <= target:
            return estimate
        if len(panels) >= _MAX_PANELS:
            raise ValueError(f"quadrature over ({a!r}, {b!r}) did not converge: error "
                             f"estimate {error:.3g} above {target:.3g} at {_MAX_PANELS} panels")
        worst = max(panels)
        panels.remove(worst)
        _, lo, mid, hi, left, right = worst
        panels += [panel(lo, mid, left), panel(mid, hi, right)]


#: The largest exponent denominator moment_quadrature substitutes for:
#: 2d for the x^d pushforward of a catalog density, so d up to 2^15.  A
#: float that is not a short dyadic fraction, such as 1/3, converts to a
#: denominator near 2^54.
_MAX_DENOMINATOR = 2 ** 16
_TINY = 2.0 ** -1000  # the least x > 0 the integrand is evaluated at


def moment_quadrature(dens: Density, n: int, tol: float = 1e-10) -> float:
    """The n-th moment of the density, to roughly absolute accuracy tol.

    [a, b] is split at its midpoint, and each half is integrated by the
    adaptive Gauss-Legendre rule ``quad`` after the substitution
    x = end +/- u^k, where k is the denominator of the exact exponent P/k
    at that end.  The end power of the exact distance u^k cancels with
    dx: the integrand is k u^(P+k-1) (span - u^k)^e' h(x) x^n, with e' the
    other end's exponent and span = b - a.  A denominator above _MAX_DENOMINATOR (a float 1/3) raises
    ValueError: give it as an exact Fraction.  So does, at a zero end, too
    much mass below _TINY (the x^100 pushforward of catalan), where the
    integral is extrapolated from the leading power of u.
    """
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ea, eb = dens.left_exponent, dens.right_exponent
    if ea <= -1 or eb <= -1:
        raise NonIntegrable(f"exponents ({ea}, {eb}) are not integrable")
    for e in (ea, eb):
        if e.denominator > _MAX_DENOMINATOR:
            raise ValueError(f"endpoint exponent {float(e)!r} has denominator "
                             f"{e.denominator}; give it as an exact Fraction")
    span, h = dens.b - dens.a, dens.factor
    total = 0.0
    for end, e, sign, other in ((dens.a, ea, 1.0, float(eb)), (dens.b, eb, -1.0, float(ea))):
        k, power = e.denominator, e.numerator + e.denominator - 1

        def g(u):
            t = u ** k
            x = end + sign * t
            return k * u ** power * (span - t) ** other * h(x) * x ** n

        # at a zero end x = u^k drops below _TINY for u < lo (lo = 0.013 for
        # k = 160), where g(u) ~ u^(m-1) (c + c' u^j): extrapolating c from lo
        # errs by at most 1/(m+1) of the change when extrapolating from 2 lo
        lo, top = _TINY ** (1.0 / k) if end == 0.0 else 0.0, (0.5 * span) ** (1.0 / k)
        total += quad(g, lo, top, tol / 2)
        if lo:
            m, hi = e.numerator + k * (n + 1), min(2 * lo, top)
            tail = g(lo) * lo / m
            if abs(tail - g(hi) * (lo / hi) ** (m - 1) * lo / m) > (m + 1) * tol:
                raise ValueError(f"{dens.label} has too much mass below x = 2^-1000 "
                                 f"for doubles to give moment {n} to {tol:g}")
            total += tail
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
        _require_int("d", self.d)
        _require_int("offset", self.offset)
        if self.kind == self.SUBSEQUENCE and (self.d < 1 or self.offset < 0):
            raise ValueError("subsequence needs d >= 1 and offset >= 0")
        if self.kind == self.LINEAR_COMBINATION:
            object.__setattr__(self, "g", tuple(ensure_fraction(c) for c in self.g))


def transform_length(transform: TransformSpec, n: int) -> int:
    """Terms in the transform of an n-term sequence (<= 0 when it has none);
    a zero g counts as degree 0."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        return len(range(transform.offset, n, transform.d))
    return n - max(len(trim(transform.g)) - 1, 0)


def subsequence_transform(y, d: int, offset: int = 0) -> Sequence:
    """The affine subsequence k -> y_{dk + offset}."""
    _require_int("d", d)
    _require_int("offset", offset)
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
    _require_int("d", d)
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


def check_g_nonneg(g, a, b) -> GVerdict:
    """Decide g >= 0 on [a, b] exactly, by Sturm's theorem.

    ``roots.sturm_counter`` counts the distinct roots of g in (u, v] from
    the Sturm chain of g's squarefree part.  [a, b] is bisected, never at
    a root, until each closed piece holds at most one, so g < 0 somewhere
    exactly when g < 0 at a piece endpoint, returned as the exact
    ``violation_x``.
    Coefficients and endpoints must be exact.
    """
    if not (is_exact(a) and is_exact(b)):
        raise TypeError(f"interval endpoints must be exact, got {a!r}, {b!r}")
    if a > b:
        raise ValueError("need a <= b")
    g = trim(ensure_fraction(c) for c in g)
    if not g:
        return GVerdict(GVerdict.CERTIFIED)
    changes = sturm_counter(g)
    for x in (a, b):
        if horner(g, x) < 0:
            return GVerdict(GVerdict.VIOLATED, x)
    pieces = [(a, changes(a), b, changes(b))]
    while pieces:
        u, cu, v, cv = pieces.pop()
        if cu - cv + (horner(g, u) == 0) <= 1:
            continue
        m = (u + v) / 2
        while (gm := horner(g, m)) == 0:
            m = (u + m) / 2
        if gm < 0:
            return GVerdict(GVerdict.VIOLATED, m)
        cm = changes(m)
        pieces += [(u, cu, m, cm), (m, cm, v, cv)]
    return GVerdict(GVerdict.CERTIFIED)


def linear_combination_transform(y, g, a, b, density: Density = None):
    """(T_g y)_k = sum_j g_j y_{k+j}, plus the density g(x) w(x).

    Requires a sequence longer than deg g (InsufficientData otherwise,
    checked first) and g >= 0 on [a, b] (GNegative otherwise).  When a
    density for y is supplied, [a, b] must contain its support (ValueError
    otherwise), and the returned pair carries the transformed density on
    the same interval, with endpoint exponents raised by the vanishing
    order of g there.
    """
    coeffs = trim(ensure_fraction(c) for c in g) or (Fraction(0),)
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    deg = len(coeffs) - 1
    if len(vals) <= deg:
        raise InsufficientData("sequence shorter than the polynomial degree")
    if density is not None:
        _lincomb_interval(density, (a, b))
    _require_nonneg(coeffs, a, b)
    out = tuple(
        sum((c * vals[k + j] for j, c in enumerate(coeffs)), Fraction(0))
        for k in range(len(vals) - deg)
    )
    base = getattr(y, "label", "") or "y"
    seq = Sequence(out, label=f"T_g({base})", origin="transform")
    return seq, None if density is None else transformed_density_linear(density, coeffs)


def transformed_density_linear(dens: Density, coeffs) -> Density:
    """The density g(x) w(x) on the same interval.  g is divided exactly by
    its roots at the ends, g = (x - a)^i (x - b)^j r(x): the exponents rise
    by i and j, and (-1)^j r(x) h(x) is the new factor."""
    rise_a, rest = vanishing_order(tuple(ensure_fraction(c) for c in coeffs), dens.a_exact)
    rise_b, rest = vanishing_order(rest, dens.b_exact)
    r, h = [float(c) * (-1) ** rise_b for c in rest], dens.factor

    def factor(x):
        return horner(r, x) * h(x)

    return dens.replace(
        label=f"g*{dens.label}",
        left_exponent=dens.left_exponent + rise_a,
        right_exponent=dens.right_exponent + rise_b,
        factor=factor,
    )


def translate_density(dens: Density, offset: int) -> Density:
    """The density x^offset w(x): the linear transform with g = x^offset,
    so an exponent shifts only at an endpoint that is exactly zero."""
    _require_int("offset", offset)
    if offset == 0:
        return dens
    if offset < 0:
        raise ValueError("offset must be >= 0")
    moved = transformed_density_linear(dens, (0,) * offset + (1,))
    return moved.replace(label=f"x^{offset}*{dens.label}")


def _geometric(c: float, x: float, d: int) -> float:
    """S_c(x) = sum_{j<d} c^(d-1-j) x^j = (c^d - x^d)/(c - x), for c > 0 and
    x >= 0: a sum of terms >= 0, so nothing cancels."""
    return math.fsum(c ** (d - 1 - j) * x ** j for j in range(d))


def pushforward_power(dens: Density, d: int) -> Density:
    """Pushforward of w(x) dx under v = x^d, for intervals in [0, inf).

    The image lives on [a^d, b^d], with weight w(x) x^(1-d) / d at
    x = v^(1/d).  As b - x = (b^d - v) / S_b(x) and x - a = (v - a^d) / S_a(x)
    (see ``_geometric``), the exponents stay and the new factor is
    h(x) S_b(x)^(-f) S_a(x)^(-e) x^(1-d) / d; at a zero left end
    x^e x^(1-d) = v^((e+1)/d - 1) instead, so e becomes (e+1)/d - 1.  Both
    decisions are made on the exact endpoint, and the exact image comes
    from transform_support.  A d for which b^d is not a finite double
    raises ValueError.
    """
    _require_int("d", d)
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return dens
    if dens.a_exact < 0:
        raise ValueError("pushforward under x^d needs an interval in [0, inf)")
    a_exact, b_exact = transform_support((dens.a_exact, dens.b_exact), d)
    try:  # float() of a Fraction beyond the doubles raises, never gives inf
        float(b_exact)
    except OverflowError:
        raise ValueError(f"d = {d} is too large: b^{d} = {dens.b!r}^{d} "
                         f"is not a finite double") from None
    zero, e, f = dens.a_exact == 0, dens.left_exponent, dens.right_exponent
    a, b, ea, fb, h = dens.a, dens.b, -float(e), -float(f), dens.factor

    def factor(v):
        x = v ** (1.0 / d)
        out = h(x) * _geometric(b, x, d) ** fb / d
        return out if zero else out * _geometric(a, x, d) ** ea * x ** (1 - d)

    return Density(
        label=f"{dens.label}^(x->x^{d})",
        a_exact=a_exact, b_exact=b_exact,
        left_exponent=(e + 1) / d - 1 if zero else e,
        right_exponent=f,
        factor=factor,
    )


def _lincomb_interval(dens: Density, interval):
    """The interval g >= 0 is decided on: the given one, which must contain
    the density's support (compared exactly), else the density's exact
    endpoints.  On a narrower interval g w could be a signed measure."""
    if interval is None:
        return dens.a_exact, dens.b_exact
    a, b = interval
    if not (a <= dens.a_exact and dens.b_exact <= b):
        raise ValueError(f"interval [{a}, {b}] does not contain the support "
                         f"[{dens.a_exact}, {dens.b_exact}] of {dens.label}")
    return a, b


def _require_nonneg(g, a, b):
    verdict = check_g_nonneg(g, a, b)
    if not verdict.ok:
        raise GNegative(f"g takes a negative value at x = {verdict.violation_x}")


def transformed_density(dens: Density, transform: TransformSpec) -> Density:
    """Density matching a TransformSpec applied to dens' moment sequence."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        out = translate_density(dens, transform.offset)
        return pushforward_power(out, transform.d)
    _require_nonneg(transform.g, *_lincomb_interval(dens, transform.interval))
    return transformed_density_linear(dens, transform.g)


def verify_transform_consistency(y, transform: TransformSpec, dens: Density,
                                 n_max: int, tol: float = 1e-6) -> RepresentationReport:
    """Check the transformed sequence against the transformed density."""
    if transform.kind == TransformSpec.SUBSEQUENCE:
        seq = subsequence_transform(y, transform.d, transform.offset)
        tdens = transformed_density(dens, transform)
    else:
        seq, tdens = linear_combination_transform(  # which checks the interval
            y, transform.g, *(transform.interval or (dens.a_exact, dens.b_exact)), density=dens)
    if len(seq) < n_max + 1:
        raise InsufficientData(
            f"transformed sequence has {len(seq)} terms, need {n_max + 1}")
    return verify_representation(seq, tdens, n_max, tol,
                                 label=f"{seq.label} vs {tdens.label}")
