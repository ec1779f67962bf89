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

Everything in this module is exact and no floating point is involved
anywhere.  Integral specs (every catalog family) are generated over
Python ints and rational ones over Fractions; results are handed out as
Fractions either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownName, ZeroTau
from .exact import Surd, collapse, ensure_fraction, format_rational

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


@dataclass(frozen=True)
class SigmaTauSpec:
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


@dataclass(frozen=True)
class RecursiveMatrix:
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


@dataclass(frozen=True)
class Sequence:
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
    item as a Fraction (see ``ensure_fraction``), with irrational Surds
    kept and rational ones folded to their Fraction."""
    if isinstance(y, Sequence):
        return y.values
    # a list, not a generator: tuple() of a generator regrows its buffer,
    # which on classify's hot path raised the atomic_singular benchmark's
    # peak RSS by about 1 MB
    return tuple([collapse(v) if isinstance(v, Surd) else ensure_fraction(v) for v in y])


def _rows(spec: SigmaTauSpec, n_max: int):
    """Yield rows r[0] .. r[n_max] of the recursive matrix, one at a time.

    Coefficients with denominator 1 enter as ints, so an integral spec is
    run entirely in int arithmetic and a rational one in Fractions.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")

    def exact(v: Fraction):
        return v.numerator if v.denominator == 1 else v

    sigma = [exact(spec.sigma(k)) for k in range(n_max + 1)]
    tau = [exact(spec.tau(k + 1)) for k in range(n_max + 1)]  # tau[k] = t_{k+1}
    row = [1]
    yield row
    for _ in range(n_max):
        # r[n+1][k] = r[n][k-1] + s_k r[n][k] + t_{k+1} r[n][k+1], k = 0 .. n+1
        row = [left + s * mid + t * right for left, s, mid, t, right in
               zip([0] + row, sigma, row + [0], tau, row[1:] + [0, 0])]
        yield row


def recursive_matrix(spec: SigmaTauSpec, n_max: int) -> RecursiveMatrix:
    """The (n_max+1)-row recursive matrix of the spec, exactly."""
    return RecursiveMatrix(tuple(tuple(Fraction(v) for v in row)
                                 for row in _rows(spec, n_max)))


def catalan_like(spec: SigmaTauSpec, n_max: int) -> Sequence:
    """Column 0 of the recursive matrix: the Catalan-like numbers."""
    return Sequence(tuple(row[0] for row in _rows(spec, n_max)),
                    label=spec.label or "catalan-like", origin="recursive-matrix")


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
