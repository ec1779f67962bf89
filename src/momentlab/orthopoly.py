"""Monic orthogonal polynomials attached to a moment sequence.

Three equivalent descriptions are implemented and cross-checkable:

* the three-term recurrence P_{k+1} = (x - s_k) P_k - t_k P_{k-1} built
  directly from (sigma, tau) data,
* recovery of (sigma, tau) from a raw moment prefix through the linear
  functional L sending x^n to y_n (possible exactly when all Hankel
  determinants are nonzero),
* the bordered-Hankel determinant formula for P_n.

Polynomial coefficients and recovered coefficients stay exact rational;
only zero finding leaves the rationals, through the symmetric
tridiagonal (Jacobi) eigenvalue problem with off-diagonals sqrt(t_k).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientData, NotPositiveCase, QuasiDefiniteFailure
from .exact import ensure_fraction, format_rational
from .hankel import bareiss_det
from .seqcore import Sequence, SigmaTauSpec

__all__ = [
    "MonicPolynomial",
    "JacobiMatrix",
    "riesz",
    "ops_from_recurrence",
    "recurrence_from_moments",
    "ops_determinantal",
    "ops_zeros",
    "true_interval_estimate",
]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


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
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class MonicPolynomial:
    """Exact polynomial with leading coefficient 1, coefficients ascending."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = _ptrim(tuple(ensure_fraction(c) for c in self.coefficients))
        if coeffs[-1] != 1:
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
    """Apply the moment functional: sum of c_n * y_n."""
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    coefficients = tuple(coefficients)
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
    building the polynomials as it goes.  Raises QuasiDefiniteFailure(k)
    as soon as L[P_k^2] = 0, which happens exactly when the order-k
    Hankel determinant vanishes.
    """
    vals = y.values if isinstance(y, Sequence) else tuple(y)
    if n < 1:
        raise ValueError("need n >= 1")
    if len(vals) < 2 * n:
        raise InsufficientData(f"need {2 * n} moments for depth {n}, have {len(vals)}")

    sigma = []
    tau = []
    p_prev = (Fraction(0),)
    p_cur = (Fraction(1),)
    norm_prev = None
    for k in range(n):
        sq = _pmul(p_cur, p_cur)
        norm = riesz(vals, sq)
        if norm == 0:
            raise QuasiDefiniteFailure(k)
        sigma.append(riesz(vals, (Fraction(0),) + sq) / norm)
        if k >= 1:
            tau.append(norm / norm_prev)
        norm_prev = norm
        if k < n - 1:
            shifted = (Fraction(0),) + p_cur
            nxt = _paxpy(-sigma[-1], p_cur, shifted)
            if k >= 1:
                nxt = _paxpy(-tau[-1], p_prev, nxt)
            p_prev, p_cur = p_cur, nxt
    return tuple(sigma), tuple(tau)


def ops_determinantal(y, n: int) -> MonicPolynomial:
    """P_n by the bordered Hankel determinant, divided by det H_{n-1}.

    Expanding the determinant along its final row (1, x, ..., x^n) gives
    the coefficient of x^j as a signed maximal minor of the first n rows.
    """
    vals = y.values if isinstance(y, Sequence) else tuple(y)
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


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal form: diagonal s_k, off-diagonal sqrt(t_k)."""

    diagonal: tuple
    offdiagonal: tuple

    @classmethod
    def from_spec(cls, spec: SigmaTauSpec, n: int) -> "JacobiMatrix":
        if n < 1:
            raise ValueError("order must be >= 1")
        if not spec.positive_case:
            raise NotPositiveCase("zeros need every t_k > 0")
        diag = tuple(float(spec.sigma(k)) for k in range(n))
        off = tuple(math.sqrt(float(spec.tau(k))) for k in range(1, n))
        return cls(diag, off)

    def eigenvalues(self) -> np.ndarray:
        import numpy as np
        from scipy.linalg import eigh_tridiagonal

        if len(self.diagonal) == 1:
            return np.array(self.diagonal)
        return eigh_tridiagonal(np.array(self.diagonal),
                                np.array(self.offdiagonal),
                                eigvals_only=True)


def ops_zeros(spec: SigmaTauSpec, n: int) -> np.ndarray:
    """The n real simple zeros of P_n, ascending.

    Computed as eigenvalues of the order-n Jacobi matrix, which is the
    numerically stable route in the positive-definite case.
    """
    return JacobiMatrix.from_spec(spec, n).eigenvalues()


def true_interval_estimate(spec: SigmaTauSpec, n: int):
    """[smallest, largest] zero of P_n.

    An inner approximation of the true orthogonality interval that
    widens monotonically with n; no extrapolation is attempted.
    """
    zeros = ops_zeros(spec, n)
    return float(zeros[0]), float(zeros[-1])
