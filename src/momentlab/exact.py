"""Exact scalar arithmetic: rationals and quadratic surds a + b*sqrt(r).

Support intervals of eventually-constant recurrences have endpoints of
the form s - 2*sqrt(t) and s + 2*sqrt(t).  Deciding hypotheses such as
``q < s + 2*sqrt(t)`` exactly, or running chain-sequence recursions at
an irrational endpoint, requires ordered arithmetic in the quadratic
field Q(sqrt(r)).  :class:`Surd` provides exactly that and nothing more.

Rationals are plain :class:`fractions.Fraction`, and that is their one
normal form: the constructor and every arithmetic operation return a
Fraction for a rational value, so ``Surd(1, 3, 4)`` is ``Fraction(7)``
and no caller has to fold results by hand.  Every Surd is irrational.
Surds mix freely with ints and Fractions.

Every public order, length, degree, shift and index argument of the
package (the Hankel order m, a prefix length n_max, the degree n of P_n,
the step d and offset l of a subsequence) passes one rule,
``_require_count``: it must be an int, and never a bool or a float,
even an integral one (a caller's error, not a number to round), else
TypeError; below its least value (0, or 1 for a degree with zeros, a
recovery depth or a step d) it raises ValueError.
"""

from __future__ import annotations

import math
import operator
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
    return _normal(Fraction(0), Fraction(1), x)


class Surd:
    """An irrational element a + b*sqrt(r) of a real quadratic field, exactly ordered.

    ``Surd(a, b, r)`` returns the Fraction a + b*sqrt(r) when b == 0 or r
    is a square, so every Surd has b != 0 and a positive non-square
    radicand r.  Two Surds mix when they lie in one field, that is when
    their radicands differ by a rational square factor (sqrt(12) and
    sqrt(3)); the result keeps the left operand's radicand.  Other pairs
    raise ValueError.  Ints and Fractions mix freely, and floats not at
    all (ordering against one raises TypeError).  Every arithmetic result
    is in the same normal form: a Fraction when its radical part is 0,
    else a Surd.
    """

    __slots__ = ("a", "b", "r")

    def __new__(cls, a, b, r):
        a, b, r = ensure_fraction(a), ensure_fraction(b), ensure_fraction(r)
        root = _exact_sqrt_of_fraction(r)  # raises ValueError when r < 0
        if root is not None:
            return a + b * root
        return _normal(a, b, r)

    def __setattr__(self, *args):
        raise AttributeError("Surd is immutable")

    def __reduce__(self):
        return (Surd, (self.a, self.b, self.r))

    # -- conversions ---------------------------------------------------

    def __float__(self) -> float:
        """The double nearest the value (ties to even), like float(Fraction)."""
        num, den = (self.b * self.b * self.r).as_integer_ratio()
        sign, bits = (1 if self.b > 0 else -1), 64
        while True:
            # root < |b| sqrt(r) 2^bits < root + 1, strictly: b sqrt(r) is
            # irrational, so the value lies strictly between the two ends,
            # and once both round to one double it rounds there too
            root = math.isqrt((num << 2 * bits) // den)
            lo = float(self.a + Fraction(sign * root, 1 << bits))
            if lo == float(self.a + Fraction(sign * (root + 1), 1 << bits)):
                return lo
            bits *= 2

    def __floor__(self) -> int:
        # floor(a) + sign(b) isqrt(floor(b^2 r)) is within 2 of the value
        root = math.isqrt(math.floor(self.b * self.b * self.r))
        n = math.floor(self.a) + (root if self.b > 0 else -root)
        while n > self:
            n -= 1
        while n + 1 < self:
            n += 1
        return n

    def __ceil__(self) -> int:
        return math.floor(self) + 1  # a Surd is irrational, so never an integer

    def __repr__(self):
        return f"Surd({self})"

    def __str__(self):
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        coef = "" if mag == 1 else f"{mag}*"
        if self.a == 0:
            lead = "" if self.b > 0 else "-"
            return f"{lead}{coef}sqrt({self.r})"
        return f"{self.a} {sign} {coef}sqrt({self.r})"

    # -- internals -----------------------------------------------------

    def _components(self, other):
        """(a, b) of other in Q(sqrt(self.r)), or None for an unsupported type.

        A Surd whose radicand is self.r times a rational square k^2 is
        a + b k sqrt(self.r); any other radicand lies in another field.
        """
        if isinstance(other, Surd):
            if other.r == self.r:
                return other.a, other.b
            k = _exact_sqrt_of_fraction(other.r / self.r)
            if k is None:
                raise ValueError(f"incompatible radicands {self.r} and {other.r}")
            return other.a, other.b * k
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Fraction(other), Fraction(0)
        return None

    def _sign(self) -> int:
        a, b, r = self.a, self.b, self.r
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
        oa, ob = parts
        return _normal(self.a + oa, self.b + ob, self.r)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self.a, -self.b, self.r)

    def __sub__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _normal(self.a - oa, self.b - ob, self.r)

    def __rsub__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _normal(oa - self.a, ob - self.b, self.r)

    def __mul__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        r = self.r
        return _normal(self.a * oa + self.b * ob * r, self.a * ob + self.b * oa, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        r = self.r
        # multiply through by the conjugate oa - ob sqrt(r); the norm
        # vanishes only for a zero divisor, since r is not a square
        norm = oa * oa - ob * ob * r
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _normal((self.a * oa - self.b * ob * r) / norm,
                       (self.b * oa - self.a * ob) / norm, r)

    def __rtruediv__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        # other is rational (a Surd dividend calls __truediv__): multiply
        # through by the conjugate a - b sqrt(r), whose norm a^2 - b^2 r is
        # nonzero because r is not a square
        scale = parts[0] / (self.a * self.a - self.b * self.b * self.r)
        return _normal(scale * self.a, -scale * self.b, self.r)

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
        return -self if self._sign() < 0 else self

    # -- ordering ------------------------------------------------------

    def _compare(self, other, op):
        """op(sign of self - other, 0), or NotImplemented for an operand
        that _components does not accept."""
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return diff
        sign = diff._sign() if isinstance(diff, Surd) else (diff > 0) - (diff < 0)
        return op(sign, 0)

    def __eq__(self, other):
        # irrational numbers of two different fields are never equal
        if (isinstance(other, Surd) and other.r != self.r
                and _exact_sqrt_of_fraction(other.r / self.r) is None):
            return False
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self):
        # b^2 r and the sign of b fix b sqrt(r) whatever the radicand
        return hash((self.a, self.b * self.b * self.r, self.b > 0))


def _normal(a: Fraction, b: Fraction, r: Fraction):
    """The normal form of a + b*sqrt(r): the Fraction a when b == 0, else a Surd.

    The constructor and every arithmetic result pass through here.  r has
    already been checked to be positive and not a square, by the
    constructor or because it is an operand's radicand, so it is stored
    without a second check.
    """
    if b == 0:
        return a
    out = object.__new__(Surd)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", b)
    object.__setattr__(out, "r", r)
    return out


def is_exact(x) -> bool:
    """True for scalars that support exact arithmetic and ordering: ints,
    Fractions and Surds, but not bools (see ``ensure_fraction``)."""
    return isinstance(x, (int, Fraction, Surd)) and not isinstance(x, bool)


def _require_count(name: str, value, least: int = 0) -> None:
    """Check an order, length, degree, shift or index (see the module
    docstring): TypeError unless ``value`` is an int that is not a bool,
    ValueError when it is below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}: {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
