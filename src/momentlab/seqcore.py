"""Recursive matrices and Catalan-like number generation.

A pair of coefficient sequences sigma = (s_0, s_1, ...) and
tau = (t_1, t_2, ...) with every tau entry nonzero defines a unit
lower-triangular recursive matrix R through

    r[0][0] = 1,    r[n+1][k] = r[n][k-1] + s_k * r[n][k] + t_{k+1} * r[n][k+1]

with r[n][k] = 0 outside 0 <= k <= n.  Column 0 of R is the Catalan-like
number sequence attached to (sigma, tau).  The classical combinatorial
families (Catalan, Motzkin, Schroeder, Delannoy, ...) all arise from
eventually-constant data, abbreviated by a quadruple (p, s; q, t) meaning
sigma = (p, s, s, ...) and tau = (q, t, t, ...).

A shorthand spec has a quadratic generating function (the continued
fraction is periodic from depth 1), so its column is P-recursive
(Stanley, EC2 6.4): :func:`catalan_like` runs a recurrence of order at
most 4 with O(1) operations per term, where the rolling rows of
:func:`recursive_matrix` cost O(n) per row.  The rows stay for prefix
specs and are the reference the recurrence is tested against.

Everything in this module is exact and no floating point is involved
anywhere, and every spec is generated over Python ints.  An entry r[n][k]
is weighted-homogeneous of degree n - k in the data (s_j of weight 1, t_j
of weight 2), so with lambda the lcm of the spec's denominators the spec
(lambda sigma, lambda^2 tau) is integral and its entries are
lambda^(n-k) r[n][k]: a rational spec is scaled once, and each entry is
divided by its power of lambda as it is handed out as a Fraction.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from ._record import Record
from .errors import UnknownName, ZeroTau
from .exact import Surd, ensure_fraction, format_rational

__all__ = [
    "SigmaTauSpec",
    "RecursiveMatrix",
    "Sequence",
    "make_spec",
    "spec_from_prefixes",
    "recursive_matrix",
    "catalan_like",
    "catalog_sequence",
    "catalog_names",
    "CATALOG",
]


class SigmaTauSpec(Record):
    """Eventually-constant (sigma, tau) coefficient data.

    ``sigma_prefix`` holds s_0 .. s_j and ``sigma_tail`` the constant value
    used for every later index.  ``tau_prefix`` holds t_1 .. t_j (tau is
    1-based, matching its role in the recurrence where row n+1 consumes
    t_{k+1}) and ``tau_tail`` the constant continuation.
    """

    sigma_prefix: tuple
    sigma_tail: Fraction
    tau_prefix: tuple
    tau_tail: Fraction
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sigma_prefix",
                           tuple(ensure_fraction(v) for v in self.sigma_prefix))
        object.__setattr__(self, "sigma_tail", ensure_fraction(self.sigma_tail))
        object.__setattr__(self, "tau_prefix",
                           tuple(ensure_fraction(v) for v in self.tau_prefix))
        object.__setattr__(self, "tau_tail", ensure_fraction(self.tau_tail))
        if self.tau_tail == 0 or any(t == 0 for t in self.tau_prefix):
            raise ZeroTau("every tau coefficient must be nonzero")

    def sigma(self, k: int) -> Fraction:
        """s_k for k >= 0."""
        if k < 0:
            raise IndexError("sigma index must be >= 0")
        if k < len(self.sigma_prefix):
            return self.sigma_prefix[k]
        return self.sigma_tail

    def tau(self, k: int) -> Fraction:
        """t_k for k >= 1."""
        if k < 1:
            raise IndexError("tau index must be >= 1")
        if k - 1 < len(self.tau_prefix):
            return self.tau_prefix[k - 1]
        return self.tau_tail

    @property
    def positive_case(self) -> bool:
        """True when every tau coefficient is strictly positive."""
        return self.tau_tail > 0 and all(t > 0 for t in self.tau_prefix)

    @property
    def shorthand(self):
        """The (p, s, q, t) quadruple, or None if the prefixes are longer."""
        if len(self.sigma_prefix) <= 1 and len(self.tau_prefix) <= 1:
            p = self.sigma(0)
            q = self.tau(1)
            return (p, self.sigma_tail, q, self.tau_tail)
        return None

    def to_dict(self) -> dict:
        short = self.shorthand
        if short is not None:
            p, s, q, t = short
            return {"p": format_rational(p), "s": format_rational(s),
                    "q": format_rational(q), "t": format_rational(t)}
        return {
            "sigma_prefix": [format_rational(v) for v in self.sigma_prefix],
            "sigma_tail": format_rational(self.sigma_tail),
            "tau_prefix": [format_rational(v) for v in self.tau_prefix],
            "tau_tail": format_rational(self.tau_tail),
        }


def make_spec(p, s, q, t, label: str = "") -> SigmaTauSpec:
    """Build the eventually-constant spec sigma = (p, s, s, ...),
    tau = (q, t, t, ...).

    Raises ZeroTau when q or t vanishes.
    """
    q = ensure_fraction(q)
    t = ensure_fraction(t)
    if q == 0 or t == 0:
        raise ZeroTau("q and t must be nonzero")
    return SigmaTauSpec((ensure_fraction(p),), ensure_fraction(s),
                        (q,), t, label=label)


def spec_from_prefixes(sigma_prefix, sigma_tail, tau_prefix, tau_tail,
                       label: str = "") -> SigmaTauSpec:
    """Spec with explicit finite prefixes before the constant tails."""
    return SigmaTauSpec(tuple(sigma_prefix), sigma_tail,
                        tuple(tau_prefix), tau_tail, label=label)


class RecursiveMatrix(Record):
    """Lower-triangular slice r[n][k] for 0 <= k <= n <= n_max."""

    rows: tuple

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Fraction:
        """r[n][k], with the implicit zeros outside the triangle."""
        if n < 0 or n > self.n_max:
            raise IndexError(f"row {n} out of range")
        if k < 0 or k > n:
            return Fraction(0)
        return self.rows[n][k]

    @property
    def column0(self) -> tuple:
        return tuple(row[0] for row in self.rows)


class Sequence(Record):
    """A finite exact prefix (y_0 .. y_N) with provenance metadata."""

    values: tuple
    label: str = ""
    origin: str = "external"

    _ORIGINS = ("catalog", "recursive-matrix", "transform", "external")

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(ensure_fraction(v) for v in self.values))
        if not self.values:
            raise ValueError("a Sequence must hold at least y_0")
        if self.origin not in self._ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    def __iter__(self):
        return iter(self.values)

    def prefix(self, n_max: int) -> "Sequence":
        """The sub-sequence y_0 .. y_{n_max}."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if n_max + 1 > len(self.values):
            raise ValueError("prefix longer than available data")
        return Sequence(self.values[:n_max + 1], self.label, self.origin)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "schema": "momentlab/sequence/v1",
            "label": self.label,
            "origin": self.origin,
            "values": [format_rational(v) for v in self.values],
        })

    @classmethod
    def from_json(cls, text: str) -> "Sequence":
        """Read either the full object form or a bare JSON array of
        integers / 'num/den' strings.  The object's ``values`` must be an
        array and its ``label`` and ``origin`` strings (else TypeError)."""
        data = json.loads(text)
        if isinstance(data, list):
            return cls(tuple(ensure_fraction(v) for v in data))
        values = data["values"]
        label, origin = data.get("label", ""), data.get("origin", "external")
        if not isinstance(values, list):
            raise TypeError(f"'values' must be a JSON array, got {values!r}")
        for key, value in (("label", label), ("origin", origin)):
            if not isinstance(value, str):
                raise TypeError(f"{key!r} must be a string, got {value!r}")
        return cls(tuple(ensure_fraction(v) for v in values), label=label, origin=origin)

    def to_csv(self) -> str:
        """One value per line; exact integers plain, otherwise num/den."""
        return "\n".join(format_rational(v) for v in self.values) + "\n"

    def to_text(self) -> str:
        """``label: y_0, y_1, ...`` on one line."""
        return f"{self.label or 'sequence'}: " + ", ".join(
            format_rational(v) for v in self.values) + "\n"


def _values(y) -> tuple:
    """The exact values of sequence input: a Sequence's own, else each
    item as a Fraction (see ``ensure_fraction``), with Surds kept (every
    Surd is irrational; the constructor returns rationals as Fractions)."""
    if isinstance(y, Sequence):
        return y.values
    # a list, not a generator: tuple() of a generator regrows its buffer,
    # which on classify's hot path raised the atomic_singular benchmark's
    # peak RSS by about 1 MB
    return tuple([v if isinstance(v, Surd) else ensure_fraction(v) for v in y])


def _scale(spec: SigmaTauSpec) -> int:
    """lambda, the lcm of the denominators of the spec's coefficients."""
    return math.lcm(*(v.denominator for v in (spec.sigma_tail, spec.tau_tail,
                                               *spec.sigma_prefix, *spec.tau_prefix)))


def _times(v: Fraction, m: int) -> int:
    """v m, for a multiple m of v's denominator."""
    return v.numerator * (m // v.denominator)


def _unscale(entries, lam: int, degrees) -> tuple:
    """The Fractions v / lambda^degree of scaled int entries."""
    if lam == 1:
        return tuple(map(Fraction, entries))
    return tuple(Fraction(v, lam ** d) for v, d in zip(entries, degrees))


def _rows(spec: SigmaTauSpec, n_max: int, lam: int):
    """Yield the int rows lambda^(n-k) r[n][k], n = 0 .. n_max, one at a
    time: the rows of the integral spec (lambda sigma, lambda^2 tau)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    sigma = [_times(spec.sigma(k), lam) for k in range(n_max + 1)]
    tau = [_times(spec.tau(k + 1), lam * lam) for k in range(n_max + 1)]  # tau[k] = t_{k+1}
    row = [1]
    yield row
    for _ in range(n_max):
        # r[n+1][k] = r[n][k-1] + s_k r[n][k] + t_{k+1} r[n][k+1], k = 0 .. n+1
        row = [left + s * mid + t * right for left, s, mid, t, right in
               zip([0] + row, sigma, row + [0], tau, row[1:] + [0, 0])]
        yield row


def recursive_matrix(spec: SigmaTauSpec, n_max: int) -> RecursiveMatrix:
    """The (n_max+1)-row recursive matrix of the spec, exactly."""
    lam = _scale(spec)
    return RecursiveMatrix(tuple(_unscale(row, lam, range(n, -1, -1))
                                 for n, row in enumerate(_rows(spec, n_max, lam))))


def _pmul(a, b):
    """Product of ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _shorthand_column(p, s, q, t, n_max: int) -> list:
    """y_0 .. y_n_max for sigma = (p, s, s, ...), tau = (q, t, t, ...).

    The generating function is y = 2t / (L + q R) = 2t (L - q R) / D, with
    R = sqrt(P), P = (1 - s x)^2 - 4t x^2, L = 2t - q - (2tp - qs) x and
    D = L^2 - q^2 P.  Since 2 P R' = P' R, it satisfies

        2 P D y' + (2 P D' - P' D) y = 2t (2 P L' - P' L),

    whose x^m coefficient links y_{m+1-k}, k = 0 .. 4.  Let k0 be the order
    of D at 0 (D is not 0: P is not a square, as t != 0).  Then y_n, with
    m = n + k0 - 1, has the coefficient 2 D_k0 (n + k0), which is never 0
    for n >= 1, so y_0 = 1 seeds a recurrence of order 4 - k0.  The data
    are ints, so every y_n is one and each division is exact.
    """
    P = [1, -2 * s, s * s - 4 * t]
    L = [2 * t - q, q * s - 2 * t * p]
    D = [ll - q * q * pp for ll, pp in zip(_pmul(L, L), P)]
    dP, dD = [P[1], 2 * P[2]], [D[1], 2 * D[2]]
    A = [2 * v for v in _pmul(P, D)]
    B = [2 * u - v for u, v in zip(_pmul(P, dD), _pmul(dP, D))]
    C = [2 * t * (2 * L[1] * u - v) for u, v in zip(P, _pmul(dP, L))]
    k0 = next(k for k, v in enumerate(D) if v != 0)
    lead = 2 * D[k0]
    # y_{n-j} enters with a_{k0+j} (n - j) + b_{k0+j-1}, j = 1 .. 4 - k0
    back = [(j, A[k0 + j], B[k0 + j - 1]) for j in range(1, 5 - k0)]
    y = [1]
    for n in range(1, n_max + 1):
        m = n + k0 - 1
        num = C[m] if m <= 2 else 0
        for j, a, b in back:
            if j <= n:
                num -= (a * (n - j) + b) * y[n - j]
        value, rem = divmod(num, lead * (n + k0))
        assert rem == 0, "a shorthand spec with int data has int terms"
        y.append(value)
    return y


def catalan_like(spec: SigmaTauSpec, n_max: int) -> Sequence:
    """Column 0 of the recursive matrix: the Catalan-like numbers.

    A shorthand spec runs the P-recurrence of :func:`_shorthand_column`,
    any other the rolling rows of :func:`_rows`, both on the spec scaled
    by lambda (see the module docstring); y_n is then divided by lambda^n.
    """
    lam, short = _scale(spec), spec.shorthand
    if short is None:
        column = [row[0] for row in _rows(spec, n_max, lam)]
    elif n_max < 0:
        raise ValueError("n_max must be >= 0")
    else:
        p, s, q, t = short
        column = _shorthand_column(_times(p, lam), _times(s, lam), _times(q, lam * lam),
                                   _times(t, lam * lam), n_max)
    return Sequence(_unscale(column, lam, range(n_max + 1)), label=spec.label or "catalan-like",
                    origin="recursive-matrix")


#: (p, s; q, t) shorthand for the classical families.
CATALOG = {
    "catalan": (1, 2, 1, 1),
    "shifted_catalan": (2, 2, 1, 1),
    "motzkin": (1, 1, 1, 1),
    "central_binomial": (2, 2, 2, 1),
    "central_trinomial": (1, 1, 2, 1),
    "delannoy": (3, 3, 4, 2),
    "schroder_large": (2, 3, 2, 2),
    "schroder_little": (1, 3, 2, 2),
    "fine": (0, 2, 1, 1),
    "riordan": (0, 1, 1, 1),
    "hexagonal": (3, 3, 1, 1),
}


def catalog_names() -> tuple:
    return tuple(CATALOG)


def catalog_sequence(name: str, n_max: int):
    """Return (spec, sequence) for one of the named classical families."""
    try:
        p, s, q, t = CATALOG[name]
    except KeyError:
        raise UnknownName(name) from None
    spec = make_spec(p, s, q, t, label=name)
    seq = catalan_like(spec, n_max)
    return spec, Sequence(seq.values, label=name, origin="catalog")
