"""Monic orthogonal polynomials attached to a moment sequence.

P_n comes from one route, the three-term recurrence
P_{k+1} = (x - s_k) P_k - t_k P_{k-1} on (sigma, tau) data.  A raw moment
prefix reaches it through ``recurrence_from_moments``, which recovers
(sigma, tau) through the linear functional L sending x^n to y_n
(possible exactly when all Hankel determinants are nonzero).  The tests
check both against the bordered-Hankel determinant formula for P_n.

Polynomial coefficients and recovered coefficients stay exact rational.
Zeros are binary64 values, each the correctly rounded image of the exact
zero: bisection over doubles, deciding every probe by an exact Sturm
count of the recurrence in integer arithmetic (Barth, Martin & Wilkinson,
Numer. Math. 9, 1967).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from ._record import Record
from .errors import InsufficientData, NotPositiveCase, QuasiDefiniteFailure
from .exact import ensure_fraction, format_rational
from .roots import horner, rounded_zeros, trim
from .seqcore import SigmaTauSpec, _values

__all__ = [
    "MonicPolynomial",
    "riesz",
    "ops_from_recurrence",
    "recurrence_from_moments",
    "ops_zeros",
    "true_interval_estimate",
]


def _paxpy(alpha, a, b):
    """alpha*a + b on coefficient tuples."""
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += alpha * c
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


class MonicPolynomial(Record):
    """Exact polynomial with leading coefficient 1, coefficients ascending."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = trim(tuple(ensure_fraction(c) for c in self.coefficients))
        if coeffs[-1:] != (1,):
            raise ValueError("leading coefficient must be exactly 1")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; exact for exact x, float for float x."""
        return horner(self.coefficients, x)

    def to_json(self) -> str:
        return json.dumps([format_rational(c) for c in self.coefficients])

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                coef = "" if mag == 1 else f"{format_rational(mag)}*"
                body = f"{coef}x" if k == 1 else f"{coef}x^{k}"
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def riesz(y, coefficients) -> Fraction:
    """Apply the moment functional: sum of c_n * y_n.

    Moments and coefficients are both coerced by ``ensure_fraction``, so
    a float in either raises TypeError.
    """
    vals = _values(y)
    coefficients = tuple(ensure_fraction(c) for c in coefficients)
    if len(coefficients) > len(vals):
        raise InsufficientData(
            f"functional needs {len(coefficients)} moments, have {len(vals)}")
    return sum((c * v for c, v in zip(coefficients, vals)), Fraction(0))


def ops_from_recurrence(spec: SigmaTauSpec, n: int):
    """P_0 .. P_n from the three-term recurrence, exact.

    Seeds are P_{-1} = 0, P_0 = 1; the t_0 term multiplies P_{-1} and
    never enters, matching the convention that t_0 is free.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    polys = [MonicPolynomial((Fraction(1),))]
    prev = (Fraction(0),)
    for k in range(n):
        pk = polys[-1].coefficients
        # (x - s_k) * P_k
        shifted = (Fraction(0),) + pk
        term = _paxpy(-spec.sigma(k), pk, shifted)
        if k >= 1:
            term = _paxpy(-spec.tau(k), prev, term)
        prev = pk
        polys.append(MonicPolynomial(term))
    return polys


def recurrence_from_moments(y, n: int):
    """Recover (s_0..s_{n-1}, t_1..t_{n-1}) from a moment prefix.

    Uses s_k = L[x P_k^2] / L[P_k^2] and t_k = L[P_k^2] / L[P_{k-1}^2],
    read off Chebyshev's algorithm in O(n^2) exact operations, without
    forming the polynomials.  Raises QuasiDefiniteFailure(k) as soon as
    L[P_k^2] = 0, which happens exactly when the order-k Hankel
    determinant vanishes.
    """
    from .hankel import _chebyshev
    vals = _values(y)
    if n < 1:
        raise ValueError("need n >= 1")
    if len(vals) < 2 * n:
        raise InsufficientData(f"need {2 * n} moments for depth {n}, have {len(vals)}")

    norms, alphas, _ = _chebyshev(vals[:2 * n], n - 1)
    if norms[-1] == 0:
        raise QuasiDefiniteFailure(len(norms) - 1)
    tau = tuple(norms[k] / norms[k - 1] for k in range(1, n))
    return tuple(alphas), tau


def _sturm_counter(spec: SigmaTauSpec, n: int):
    """x -> (number of zeros of P_n above x, whether P_n(x) = 0), exactly.

    With t_k > 0, the sign changes of P_0(x) .. P_n(x) (zeros dropped)
    count the zeros of P_n above x.  For x = X/D the recurrence runs on
    Q_k = (cD)^k P_k(x), where c clears the denominators of s_k and t_k:
    Q_{k+1} = (cX - D c s_k) Q_k - D^2 c^2 t_k Q_{k-1}, all plain ints.
    """
    sigma = [spec.sigma(k) for k in range(n)]
    tau = [Fraction(0)] + [spec.tau(k) for k in range(1, n)]
    c = math.lcm(*(v.denominator for v in sigma + tau))
    cs = [int(c * v) for v in sigma]
    cct = [int(c * c * v) for v in tau]

    def count(x):
        num, den = x.as_integer_ratio()
        cx, dd = c * num, den * den
        prev, cur, changes, positive = 0, 1, 0, True
        for k in range(n):
            prev, cur = cur, (cx - den * cs[k]) * cur - dd * cct[k] * prev
            if cur and (cur > 0) != positive:
                changes, positive = changes + 1, not positive
        return changes, cur == 0

    return count


def _zeros(spec: SigmaTauSpec, n: int, wanted) -> list:
    """Correctly rounded zeros of P_n with the given ascending indices.

    ``roots.rounded_zeros`` bisects over the doubles from a Gershgorin
    bracket of the Jacobi matrix that exact counts confirm.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if not spec.positive_case:
        raise NotPositiveCase("zeros need every t_k > 0")
    count = _sturm_counter(spec, n)
    radius = [0.0] + [math.sqrt(float(spec.tau(k))) for k in range(1, n)] + [0.0]
    centre = [float(spec.sigma(k)) for k in range(n)]
    lo = min(s - radius[k] - radius[k + 1] for k, s in enumerate(centre))
    hi = max(s + radius[k] + radius[k + 1] for k, s in enumerate(centre))
    step = 1.0 + (hi - lo)
    while count(lo)[0] < n:
        lo, step = lo - step, 2 * step
    while count(hi)[0] > 0:
        hi, step = hi + step, 2 * step
    return rounded_zeros(count, n, lo, hi, wanted)


def ops_zeros(spec: SigmaTauSpec, n: int) -> list:
    """The n real simple zeros of P_n, ascending, each correctly rounded
    to a double.

    Raises NotPositiveCase unless every t_k > 0, and ValueError for n < 1.
    """
    return _zeros(spec, n, range(n))


def true_interval_estimate(spec: SigmaTauSpec, n: int):
    """[smallest, largest] zero of P_n.

    An inner approximation of the true orthogonality interval that
    widens monotonically with n; no extrapolation is attempted.  Only
    the two extreme zeros are bisected.
    """
    zeros = _zeros(spec, n, {0, n - 1})
    return zeros[0], zeros[-1]
