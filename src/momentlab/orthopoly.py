"""Monic orthogonal polynomials attached to a moment sequence.

Three equivalent descriptions are implemented and cross-checkable:

* the three-term recurrence P_{k+1} = (x - s_k) P_k - t_k P_{k-1} built
  directly from (sigma, tau) data,
* recovery of (sigma, tau) from a raw moment prefix through the linear
  functional L sending x^n to y_n (possible exactly when all Hankel
  determinants are nonzero),
* the bordered-Hankel determinant formula for P_n.

Polynomial coefficients and recovered coefficients stay exact rational.
Zeros are binary64 values, each the correctly rounded image of the exact
zero: bisection over doubles, deciding every probe by an exact Sturm
count of the recurrence in integer arithmetic (Barth, Martin & Wilkinson,
Numer. Math. 9, 1967).
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction

from ._record import Record
from .errors import InsufficientData, NotPositiveCase, QuasiDefiniteFailure
from .exact import ensure_fraction, format_rational
from .seqcore import SigmaTauSpec, _values

__all__ = [
    "MonicPolynomial",
    "riesz",
    "ops_from_recurrence",
    "recurrence_from_moments",
    "ops_determinantal",
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


def _ptrim(c):
    """Coefficients without trailing zeros; () is the zero polynomial."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pdivmod(num, den):
    """Quotient and remainder of ascending coefficient lists; den is trimmed."""
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    return quot, _ptrim(rem[:len(den) - 1])


class MonicPolynomial(Record):
    """Exact polynomial with leading coefficient 1, coefficients ascending."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = _ptrim(tuple(ensure_fraction(c) for c in self.coefficients))
        if coeffs[-1:] != (1,):
            raise ValueError("leading coefficient must be exactly 1")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; exact for exact x, float for float x."""
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc

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


def ops_determinantal(y, n: int) -> MonicPolynomial:
    """P_n by the bordered Hankel determinant, divided by det H_{n-1}.

    Expanding the determinant along its final row (1, x, ..., x^n) gives
    the coefficient of x^j as a signed maximal minor of the first n rows.
    """
    from .hankel import bareiss_det
    vals = _values(y)
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return MonicPolynomial((Fraction(1),))
    if len(vals) < 2 * n:
        raise InsufficientData(f"need {2 * n} moments for degree {n}")
    top = [[vals[i + j] for j in range(n + 1)] for i in range(n)]
    delta = bareiss_det([row[:n] for row in top])
    if delta == 0:
        raise QuasiDefiniteFailure(n - 1)
    coeffs = []
    for j in range(n + 1):
        minor = [row[:j] + row[j + 1:] for row in top]
        cof = bareiss_det(minor)
        if (n + j) % 2 == 1:
            cof = -cof
        coeffs.append(cof / delta)
    return MonicPolynomial(tuple(coeffs))


_SIGN = 1 << 63


def _ordinal(x: float) -> int:
    """Position of a double in the ordered set of doubles; 0.0 and -0.0 map to 0."""
    bits, = struct.unpack("<Q", struct.pack("<d", x))
    return bits if bits < _SIGN else _SIGN - bits


def _double(o: int) -> float:
    """Inverse of :func:`_ordinal`."""
    return struct.unpack("<d", struct.pack("<Q", o if o >= 0 else _SIGN - o))[0]


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

    Bisection over the ordered doubles, starting from a Gershgorin bracket
    of the Jacobi matrix that exact counts confirm.  Once a zero's bracket
    is two neighbouring doubles, the exact count at their midpoint decides
    the rounding (ties to even), so an exact zero comes back exactly.
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

    wanted = set(wanted)
    zeros = {}
    # (lo, hi] as ordinals: zeros above lo, zeros above hi, whether P_n(hi) = 0
    stack = [(_ordinal(lo), _ordinal(hi), n, *count(hi))]
    while stack:
        lo_o, hi_o, above_lo, above_hi, at_hi = stack.pop()
        first = n - above_lo  # ascending index of the lowest zero in (lo, hi]
        if not any(first <= j < n - above_hi for j in wanted):
            continue
        if hi_o - lo_o > 1:
            # an exact zero at hi is cut off with its lower neighbour at once;
            # otherwise split at 0.0 if the interval holds it, else halfway
            mid_o = hi_o - 1 if at_hi else 0 if lo_o < 0 < hi_o else (lo_o + hi_o) // 2
            above_mid, at_mid = count(_double(mid_o))
            stack += [(lo_o, mid_o, above_lo, above_mid, at_mid),
                      (mid_o, hi_o, above_mid, above_hi, at_hi)]
            continue
        lo, hi = _double(lo_o), _double(hi_o)
        above_mid, at_mid = count((Fraction(lo) + Fraction(hi)) / 2)
        below = above_lo - above_mid - at_mid  # zeros in (lo, mid), nearer lo
        tie = lo if lo_o % 2 == 0 else hi
        for j in range(first, n - above_hi):
            zeros[j] = lo if j < first + below else tie if j < first + below + at_mid else hi
    return [zeros[j] for j in sorted(wanted)]


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
