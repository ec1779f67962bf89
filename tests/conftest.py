"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's production
code paths: the recursive-matrix oracle is a plain memoized recursion
(the library builds rows iteratively), determinant oracles use cofactor
expansion (the library uses fraction-free elimination), and the closed
forms come straight from classical formulas.
"""

from fractions import Fraction
from functools import lru_cache
import math

import pytest


def naive_column0(sigma, tau, n_max):
    """Memoized top-down evaluation of the recursive matrix, column 0,
    for coefficient functions sigma(k), k >= 0, and tau(k), k >= 1."""

    @lru_cache(maxsize=None)
    def r(n, k):
        if n == 0 and k == 0:
            return Fraction(1)
        if n < 0 or k < 0 or k > n:
            return Fraction(0)
        return r(n - 1, k - 1) + sigma(k) * r(n - 1, k) + tau(k + 1) * r(n - 1, k + 1)

    return [r(n, 0) for n in range(n_max + 1)]


def naive_catalan_like(p, s, q, t, n_max):
    """Column 0 for the quadruple (p, s; q, t)."""
    p, s, q, t = (Fraction(v) for v in (p, s, q, t))
    return naive_column0(lambda k: p if k == 0 else s,
                         lambda k: q if k == 1 else t, n_max)


def cofactor_det(rows):
    """Laplace expansion along the first row; fine for tiny matrices."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = head * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


# -- classical closed forms ---------------------------------------------

def catalan_closed(n):
    return Fraction(math.comb(2 * n, n), n + 1)


def central_binomial_closed(n):
    return Fraction(math.comb(2 * n, n))


def delannoy_closed(n):
    return Fraction(sum(math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1)))


def trinomial_closed(n):
    """Central coefficient of (1 + x + x^2)^n by exact expansion."""
    poly = [1]
    for _ in range(n):
        new = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            new[i] += c
            new[i + 1] += c
            new[i + 2] += c
        poly = new
    return Fraction(poly[n])


def motzkin_closed(n_max):
    out = [Fraction(1), Fraction(1)]
    for n in range(1, n_max):
        out.append(out[n] + sum(out[k] * out[n - 1 - k] for k in range(n)))
    return out[:n_max + 1]


def schroder_large_closed(n_max):
    out = [Fraction(1)]
    for n in range(n_max):
        out.append(out[n] + sum(out[k] * out[n - k] for k in range(n + 1)))
    return out


def hexagonal_closed(n_max):
    out = [Fraction(1), Fraction(3)]
    for n in range(1, n_max):
        out.append(3 * out[n] + sum(out[k] * out[n - 1 - k] for k in range(n)))
    return out[:n_max + 1]


#: first 15 terms of each catalog family, frozen from the oracles above
EXPECTED_15 = {
    "catalan": [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786,
                208012, 742900, 2674440],
    "shifted_catalan": [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786,
                        208012, 742900, 2674440, 9694845],
    "motzkin": [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511,
                41835, 113634],
    "central_binomial": [1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620,
                         184756, 705432, 2704156, 10400600, 40116600],
    "central_trinomial": [1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953,
                          25653, 73789, 212941, 616227],
    "delannoy": [1, 3, 13, 63, 321, 1683, 8989, 48639, 265729, 1462563,
                 8097453, 45046719, 251595969, 1409933619, 7923848253],
    "schroder_large": [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098,
                       1037718, 5293446, 27297738, 142078746, 745387038],
    "schroder_little": [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049,
                        518859, 2646723, 13648869, 71039373, 372693519],
    "fine": [1, 0, 1, 2, 6, 18, 57, 186, 622, 2120, 7338, 25724, 91144,
             325878, 1174281],
    "riordan": [1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213, 11298,
                30537],
    "hexagonal": [1, 3, 10, 36, 137, 543, 2219, 9285, 39587, 171369, 751236,
                  3328218, 14878455, 67030785, 304036170],
}

#: certified support intervals by family; fine and schroder_little are
#: excluded because their sequences provably admit no measure on the
#: intervals their quadruples would suggest (see test_acceptance for the
#: exact counter-witnesses)
CERTIFIABLE_INTERVALS = {
    "catalan": ("0", "4"),
    "shifted_catalan": ("0", "4"),
    "central_binomial": ("0", "4"),
    "motzkin": ("-1", "3"),
    "central_trinomial": ("-1", "3"),
    "riordan": ("-1", "3"),
    "delannoy": ("3-2r2", "3+2r2"),
    "schroder_large": ("3-2r2", "3+2r2"),
    "hexagonal": ("1", "5"),
}

UNCERTIFIABLE = ("fine", "schroder_little")


def interval_endpoints(tag_pair):
    """Decode the endpoint tags above into exact scalars."""
    from momentlab import Surd

    def decode(tag):
        if tag == "3-2r2":
            return Surd(3, -2, 2)
        if tag == "3+2r2":
            return Surd(3, 2, 2)
        return Fraction(tag)

    return decode(tag_pair[0]), decode(tag_pair[1])


@pytest.fixture(scope="session")
def catalog_prefixes():
    """25 exact terms of each catalog family, generated once."""
    import momentlab as ml

    out = {}
    for name in ml.catalog_names():
        spec, seq = ml.catalog_sequence(name, 25)
        out[name] = (spec, seq)
    return out
