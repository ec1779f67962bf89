"""Independent exact checks of momentlab outputs.

The benchmark re-derives what it can from first principles instead of
trusting the library under test: moments of atomic measures, Hankel and
interval-combination matrices, quadratic forms of failure witnesses and
the support hypotheses are all recomputed here.  Numbers in Q(sqrt(r))
are pairs (a, b) meaning a + b*sqrt(r) for one fixed non-square radicand
r (r = 0 when everything is rational); momentlab's own Surd arithmetic
is used only to read the components of the values it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def is_square(x: Fraction) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return n * n == x.numerator and d * d == x.denominator


def exact_sqrt(x: Fraction) -> Fraction:
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def lift(x, r):
    """A Fraction, int or momentlab Surd as a pair over Q(sqrt(r))."""
    if isinstance(x, (int, Fraction)):
        return (Fraction(x), Fraction(0))
    a, b, rad = x.a, x.b, x.r
    if b == 0:
        return (a, Fraction(0))
    if rad != r:
        raise ValueError(f"value over Q(sqrt({rad})) checked in Q(sqrt({r}))")
    return (a, b)


def radicand_of(values) -> Fraction:
    """The radicand shared by the irrational values among ``values``, or 0."""
    rads = {v.r for v in values if not isinstance(v, (int, Fraction)) and v.b != 0}
    if len(rads) > 1:
        raise ValueError(f"mixed radicands {sorted(rads)}")
    return rads.pop() if rads else Fraction(0)


def qadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def qsub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def qmul(u, v, r):
    return (u[0] * v[0] + u[1] * v[1] * r, u[0] * v[1] + u[1] * v[0])


def qdiv(u, v, r):
    norm = v[0] * v[0] - v[1] * v[1] * r
    return qmul(u, (v[0] / norm, -v[1] / norm), r)


def qsign(u, r) -> int:
    """Exact sign of a + b*sqrt(r) for a non-square r."""
    a, b = u
    if b == 0:
        return _sign(a)
    if a == 0 or _sign(a) == _sign(b):
        return _sign(b) if a == 0 else _sign(a)
    return _sign(a) if a * a > b * b * r else _sign(b)


def conjugate_endpoints(s, t):
    """(s - 2 sqrt(t), s + 2 sqrt(t), r) as pairs over Q(sqrt(r))."""
    s, t = Fraction(s), Fraction(t)
    if is_square(t):
        root = exact_sqrt(t)
        return (s - 2 * root, Fraction(0)), (s + 2 * root, Fraction(0)), Fraction(0)
    return (s, Fraction(-2)), (s, Fraction(2)), t


# -- moments and matrices ------------------------------------------------


def atomic_moments(atoms, weights, count):
    """y_n = sum_i w_i x_i^n for n < count."""
    return tuple(sum((w * x ** n for x, w in zip(atoms, weights)), Fraction(0))
                 for n in range(count))


def hankel_rows(y, k, shift=0):
    """Rows of the (k+1)x(k+1) block with entries y_{i+j+shift}, as pairs."""
    return [[(Fraction(y[i + j + shift]), Fraction(0)) for j in range(k + 1)]
            for i in range(k + 1)]


def combination_rows(y, a, b, k, r):
    """(a+b) H_k(Ey) - H_k(E^2 y) - ab H_k(y) with a, b as pairs."""
    asum = qadd(a, b)
    aprod = qmul(a, b, r)
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            n = i + j
            entry = qsub(qmul(asum, (y[n + 1], 0), r), (y[n + 2], Fraction(0)))
            row.append(qsub(entry, qmul(aprod, (y[n], 0), r)))
        rows.append(row)
    return rows


def quadratic_form(rows, v, r):
    total = ZERO
    for i, vi in enumerate(v):
        if vi == ZERO:
            continue
        for j, vj in enumerate(v):
            if vj != ZERO:
                total = qadd(total, qmul(qmul(vi, rows[i][j], r), vj, r))
    return total


def witness_is_negative(family, order, verdict, y, interval) -> bool:
    """Rebuild the failing matrix and confirm v^T M v < 0 for its witness."""
    if verdict.status != "indefinite" or verdict.witness is None:
        return False
    if len(verdict.witness) != order + 1:
        return False
    exact = list(verdict.witness) + (list(interval) if interval else [])
    r = radicand_of(exact)
    v = [lift(x, r) for x in verdict.witness]
    if family == "hamburger":
        rows = hankel_rows(y, order)
    elif family == "stieltjes-shifted":
        rows = hankel_rows(y, order, shift=1)
    elif family == "hausdorff":
        a, b = (lift(e, r) for e in interval)
        rows = combination_rows(y, a, b, order, r)
    else:
        return False
    return qsign(quadratic_form(rows, v, r), r) < 0


# -- support hypotheses ----------------------------------------------------

HYPOTHESES = ("p > s-2*sqrt(t)", "q < s+2*sqrt(t)", "t < s+2*sqrt(t)")


def support_expectation(p, s, q, t):
    """What an exact support check of (p, s; q, t) must report.

    Returns a dict with the failed hypotheses (named as momentlab names
    them), ``s_bounds_ok`` and, per endpoint, whether the chain with the
    constant-1/4 tail is certified.  At x = s -/+ 2 sqrt(t) the ratios
    alpha_n(x) = t_{n+1} / ((s_n - x)(s_{n+1} - x)) are 1/4 for n >= 1,
    so the minimal parameters stay in [0, 1) forever exactly when the
    entry parameter g_1 = alpha_0(x) lies in [0, 1/2].
    """
    p, s, q, t = (Fraction(v) for v in (p, s, q, t))
    lower, upper, r = conjugate_endpoints(s, t)
    pp, qq, tt, ss = ((v, Fraction(0)) for v in (p, q, t, s))
    failed = []
    if qsign(qsub(pp, lower), r) <= 0:
        failed.append(HYPOTHESES[0])
    if qsign(qsub(upper, qq), r) <= 0:
        failed.append(HYPOTHESES[1])
    if qsign(qsub(upper, tt), r) <= 0:
        failed.append(HYPOTHESES[2])
    out = {"failed": tuple(failed)}
    if failed:
        return out
    out["s_bounds_ok"] = qsign(qsub(upper, pp), r) > 0
    half = (Fraction(1, 2), Fraction(0))
    for side, x in (("left", lower), ("right", upper)):
        denom = qmul(qsub(pp, x), qsub(ss, x), r)
        alpha0 = qdiv(qq, denom, r)
        out[side] = qsign(alpha0, r) >= 0 and qsign(qsub(half, alpha0), r) >= 0
    return out


# -- exact output descriptors ----------------------------------------------


def exact_descriptors(values):
    """(largest numerator/denominator bit length, number of irrational values)."""
    max_bits = 0
    surds = 0
    for v in values:
        if isinstance(v, int):
            v = Fraction(v)
        if isinstance(v, Fraction):
            parts = (v,)
        else:
            parts = (v.a, v.b, v.r)
            surds += v.b != 0
        for x in parts:
            max_bits = max(max_bits, x.numerator.bit_length(), x.denominator.bit_length())
    return max_bits, surds
