"""Exact signs and real roots of polynomials (internal; nothing is exported).

A polynomial is a tuple or list of exact coefficients, ascending, and ()
is the zero polynomial.  Everything here is decided exactly:

* trimming, division with remainder and Horner evaluation,
* the sign changes along a sequence of values (Sturm counts),
* the squarefree Sturm chain of a polynomial, as a root count, and the
  order to which a polynomial vanishes at a point,
* the correctly rounded search for real zeros over the ordered doubles,
  driven by an exact count function that the caller supplies.

``measures`` decides g >= 0 on an interval with these pieces, and
``orthopoly`` rounds the zeros of P_n with the search, counting by its
own integer recurrence.
"""

import struct
from fractions import Fraction


def trim(c):
    """Coefficients without trailing zeros; () is the zero polynomial."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdivmod(num, den):
    """Quotient and remainder of ascending coefficient lists; den is trimmed."""
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    return quot, trim(rem[:len(den) - 1])


def horner(coeffs, x):
    """The polynomial at x: exact for exact x, float for float x; 0 for ()."""
    acc = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def sign_changes(values) -> int:
    """Sign changes along a sequence of exact values, zeros dropped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(p != q for p, q in zip(signs, signs[1:]))


def sturm_counter(g):
    """x -> sign changes at x of the Sturm chain of a trimmed, nonzero g.

    The chain is the remainder chain of g and g' divided by gcd(g, g'), a
    Sturm chain of g's squarefree part, so the count at u minus the count
    at v is the number of distinct roots of g in (u, v].
    """
    chain = [g, [k * c for k, c in enumerate(g)][1:]]
    while chain[-1]:
        chain.append([-c for c in pdivmod(chain[-2], chain[-1])[1]])
    chain = [pdivmod(q, chain[-2])[0] for q in chain[:-1]]
    return lambda x: sign_changes(horner(q, x) for q in chain)


def vanishing_order(coeffs, point) -> tuple:
    """(m, q): the multiplicity m of an exact root at an exact point and the
    quotient q = coeffs / (x - point)^m, by deflation."""
    order, work = 0, trim(coeffs)
    while len(work) > 1 and horner(work, point) == 0:
        work = tuple(pdivmod(work, (-point, 1))[0])
        order += 1
    return order, work


_SIGN = 1 << 63


def _ordinal(x: float) -> int:
    """Position of a double in the ordered set of doubles; 0.0 and -0.0 map to 0."""
    bits, = struct.unpack("<Q", struct.pack("<d", x))
    return bits if bits < _SIGN else _SIGN - bits


def _double(o: int) -> float:
    """Inverse of :func:`_ordinal`."""
    return struct.unpack("<d", struct.pack("<Q", o if o >= 0 else _SIGN - o))[0]


def rounded_zeros(count, n: int, lo: float, hi: float, wanted) -> list:
    """Correctly rounded zeros, with the given ascending indices, of a
    polynomial whose n real zeros are simple and lie in (lo, hi].

    ``count(x)`` is (number of zeros above x, whether x is a zero), exact
    for a double or a Fraction x.  Bisection runs over the ordered doubles;
    once a zero's bracket is two neighbouring doubles, the exact count at
    their midpoint decides the rounding (ties to even), so an exact zero
    comes back exactly.
    """
    wanted = set(wanted)
    zeros = {}
    # (lo, hi] as ordinals: zeros above lo, zeros above hi, whether hi is a zero
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
