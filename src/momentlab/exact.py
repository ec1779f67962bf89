"""Exact scalar arithmetic: rationals and quadratic surds a + b*sqrt(r).

Support intervals of eventually-constant recurrences have endpoints of
the form s - 2*sqrt(t) and s + 2*sqrt(t).  Deciding hypotheses such as
``q < s + 2*sqrt(t)`` exactly, or running chain-sequence recursions at
an irrational endpoint, requires ordered arithmetic in the quadratic
field Q(sqrt(r)).  :class:`Surd` provides exactly that and nothing more.

Rationals are plain :class:`fractions.Fraction`, and that is their one
normal form: every Surd arithmetic result whose radical part cancels is
returned as a Fraction, so no caller has to fold results by hand.  Surds
mix freely with ints and Fractions.  Only a Surd built directly with a
zero radical part or a square radicand, such as ``Surd(1, 3, 4)``, is
rational; :func:`collapse` folds such input once, where it enters.
"""

from __future__ import annotations

import math
from fractions import Fraction


def ensure_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to an exact Fraction.

    Floats are rejected on purpose: exact pipelines must never be seeded
    with binary approximations by accident.  So are bools, which Python
    counts as ints but JSON input means as true/false, not 1/0.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def format_rational(x) -> str:
    """Render a Fraction as 'num' or 'num/den'."""
    return str(ensure_fraction(x))


def _exact_sqrt_of_fraction(r: Fraction):
    """Return sqrt(r) as a Fraction if r is a perfect square, else None."""
    if r < 0:
        raise ValueError("negative radicand")
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def sqrt_exact(x):
    """Exact square root: a Fraction when possible, otherwise a Surd."""
    x = ensure_fraction(x)
    root = _exact_sqrt_of_fraction(x)
    if root is not None:
        return root
    return Surd(0, 1, x)


class Surd:
    """An element a + b*sqrt(r) of a real quadratic field, exactly ordered.

    The radicand r is a positive non-square rational.  Arithmetic between
    two irrational Surds requires equal radicands; rationals (including
    rational Surds built by hand, stored with r = 0) mix freely.  Every
    arithmetic result is in normal form: a Fraction when its radical part
    is 0, else a Surd.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b, r):
        a = ensure_fraction(a)
        b = ensure_fraction(b)
        r = ensure_fraction(r)
        if r < 0:
            raise ValueError("negative radicand")
        if b != 0 and r != 0:
            root = _exact_sqrt_of_fraction(r)
            if root is not None:
                a, b = a + b * root, Fraction(0)
        if b == 0 or r == 0:
            b, r = Fraction(0), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    def __setattr__(self, *args):
        raise AttributeError("Surd is immutable")

    # -- conversions ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.r))

    def __repr__(self):
        return f"Surd({self})"

    def __str__(self):
        if self.is_rational:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        coef = "" if mag == 1 else f"{mag}*"
        if self.a == 0:
            lead = "" if self.b > 0 else "-"
            return f"{lead}{coef}sqrt({self.r})"
        return f"{self.a} {sign} {coef}sqrt({self.r})"

    # -- internals -----------------------------------------------------

    def _components(self, other):
        """(a, b, r) triple for self and other in a common field, or None."""
        if isinstance(other, Surd):
            oa, ob, orr = other.a, other.b, other.r
        elif isinstance(other, (int, Fraction)):
            oa, ob, orr = ensure_fraction(other), Fraction(0), Fraction(0)
        else:
            return None
        if self.b != 0 and ob != 0 and self.r != orr:
            raise ValueError(f"incompatible radicands {self.r} and {orr}")
        rad = self.r if self.b != 0 else orr
        return oa, ob, rad

    def _sign(self) -> int:
        a, b, r = self.a, self.b, self.r
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 r; equality is impossible
        # because r is not a perfect square
        lhs, rhs = a * a, b * b * r
        if a > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob, rad = parts
        return _normal(self.a + oa, self.b + ob, rad)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self.a, -self.b, self.r)

    def __sub__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob, rad = parts
        return _normal(self.a - oa, self.b - ob, rad)

    def __rsub__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob, rad = parts
        return _normal(oa - self.a, ob - self.b, rad)

    def __mul__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob, rad = parts
        return _normal(self.a * oa + self.b * ob * rad, self.a * ob + self.b * oa, rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob, rad = parts
        # multiply through by the conjugate oa - ob sqrt(rad); the norm
        # vanishes only for a zero divisor, since rad is not a square
        norm = oa * oa - ob * ob * rad
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _normal((self.a * oa - self.b * ob * rad) / norm,
                       (self.b * oa - self.a * ob) / norm, rad)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Surd(other, 0, self.r) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return -self if self._sign() < 0 else _normal(self.a, self.b, self.r)

    # -- ordering ------------------------------------------------------

    def _cmp(self, other) -> int:
        # self - other raises TypeError for an operand it does not support
        diff = self - other
        if isinstance(diff, Surd):
            return diff._sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.r))


def _normal(a: Fraction, b: Fraction, r: Fraction):
    """The normal form of a + b*sqrt(r): the Fraction a when b == 0, else a Surd.

    Every arithmetic result passes through here.  r is 0 or the radicand
    of an operand, which the constructor has already checked is positive
    and not a square, so it is stored without a second check.
    """
    if b == 0:
        return a
    out = object.__new__(Surd)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", b)
    object.__setattr__(out, "r", r)
    return out


def collapse(x):
    """Fold a rational Surd built by hand into its Fraction; pass others through.

    Arithmetic results are already in this form, so only input needs it.
    """
    if isinstance(x, Surd) and x.is_rational:
        return x.as_fraction()
    return x


def is_exact(x) -> bool:
    """True for scalars that support exact arithmetic and ordering."""
    return isinstance(x, (int, Fraction, Surd))


def sign_changes(values) -> int:
    """Sign changes along a sequence of exact values, zeros dropped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(p != q for p, q in zip(signs, signs[1:]))
