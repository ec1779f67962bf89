"""Exact Hankel linear algebra and moment-sequence classification.

For a sequence y, H_m(y) is the (m+1) x (m+1) matrix with entries
y_{i+j} and the shifted variant has entries y_{i+j+1}.  Classical
criteria tie positive (semi)definiteness of these matrices to the
existence of representing measures:

* all H_m PSD            ->  measure on the whole real line,
* all H_m and shifts PSD ->  measure on [0, inf)   (equivalently H_m
  totally positive),
* H_m and the combination (a+b) H_m(Ey) - H_m(E^2 y) - ab H_m(y) PSD
  ->  measure on [a, b],

where E is the left-shift operator.  A finite prefix can only verify
these up to some order, so every report states the largest order it
actually checked and never claims the infinite statement.  ``classify``
decides all three families; the matrices (``hankel_matrix``,
``hausdorff_combination``), ``psd_status`` and the determinants stay
public so that a reader can re-check each witness and delta it reports.

All decisions here are exact.  One Chebyshev recursion per sequence
gives the norms N_k = delta_k / delta_{k-1} of its monic orthogonal
polynomials, so H_k is positive definite exactly when N_0..N_k > 0.
At the first order r where that fails the same recursion holds the row
sigma_{r,l} = L[P_r x^l], which decides every later order without an
elimination (the flat-extension structure of Curto & Fialkow, Houston
J. Math. 17, 1991): N_r < 0 makes H_r indefinite, and when N_r = 0,
H_k for k >= r is positive semidefinite and singular exactly when
sigma_{r,l} = 0 for r <= l < 2k-r and sigma_{r,2k-r} >= 0.  Each such
order up to 12 x 12 is cross-checked by exhaustive principal minors,
and its determinant is 0.  Pivoted LDL^T over the rationals (or over a
quadratic field when interval endpoints are irrational) then runs once,
at the first order that is not PSD: its multipliers give a witness v
with v^T H v < 0 by back-substitution.  Determinants past a Hamburger
failure come from fraction-free (Bareiss) elimination.

Each sequence (``_scan``) or matrix (``bareiss_det``) is multiplied once
by the lcm of its denominators (``_scaled``), so the recursion (in its
fraction-free form), the minor cross-check and Bareiss all run on one
integral copy with exact ``//``: plain ints for rational data, and
elements of Z[sqrt(r)] for data holding a Surd.  Norms, alphas and
determinants convert back to the same Fractions and Surds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction

from ._record import Record
from .errors import InsufficientData
from .exact import Surd, _require_int, ensure_fraction, is_exact
from .seqcore import Sequence, _times, _values

__all__ = [
    "SymMatrix",
    "PsdVerdict",
    "MomentClassReport",
    "hankel_matrix",
    "hankel_det",
    "bareiss_det",
    "psd_status",
    "shift",
    "hausdorff_combination",
    "classify",
]


class SymMatrix(Record):
    """A symmetric matrix over exact scalars (Fraction or Surd)."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        rows = tuple(tuple(r) for r in self.rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"asymmetric at ({i},{j})")
        object.__setattr__(self, "rows", rows)

    @property
    def order(self) -> int:
        """m for an (m+1) x (m+1) matrix."""
        return len(self.rows) - 1

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def quadratic_form(self, v):
        """v^T M v, exactly."""
        n = len(self.rows)
        if len(v) != n:
            raise ValueError("vector length mismatch")
        total = Fraction(0)
        for i in range(n):
            if v[i] == 0:
                continue
            for j in range(n):
                if v[j] != 0:
                    total = total + v[i] * self.rows[i][j] * v[j]
        return total


def hankel_matrix(y, m: int, shift: int = 0) -> SymMatrix:
    """H_m(y) for shift 0, the once-shifted Hankel block for shift 1."""
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    vals = _values(y)
    need = 2 * m + 1 + shift
    if m < 0:
        raise ValueError("order must be >= 0")
    if len(vals) < need:
        raise InsufficientData(f"need {need} values for order {m}, have {len(vals)}")
    return SymMatrix(tuple(
        tuple(vals[i + j + shift] for j in range(m + 1)) for i in range(m + 1)
    ))


@functools.total_ordering
class _Zr:
    """a + b sqrt(r) in Z[sqrt(r)], for ints a, b and r > 0 not a square.

    The integral copy of data in Q(sqrt(t)) (see ``_scaled``).  + - * stay
    in the ring, and ``//`` divides by e as x conj(e) // N(e), which is
    exact wherever the kernels below divide: each quotient they take is a
    minor of the data, an integer polynomial in its entries.  ``unit`` is
    sqrt(r) as a Surd of the data's own radicand; ``_exact`` converts
    through it, and Surd decides every sign.
    """

    __slots__ = ("a", "b", "r", "unit")

    def __init__(self, a, b, r, unit):
        self.a, self.b, self.r, self.unit = a, b, r, unit

    def _new(self, a, b):
        return _Zr(a, b, self.r, self.unit)

    @staticmethod
    def _parts(x):
        return (x.a, x.b) if isinstance(x, _Zr) else (x, 0)

    def __add__(self, other):
        a, b = self._parts(other)
        return self._new(self.a + a, self.b + b)

    def __sub__(self, other):
        a, b = self._parts(other)
        return self._new(self.a - a, self.b - b)

    def __neg__(self):
        return self._new(-self.a, -self.b)

    def __mul__(self, other):
        a, b = self._parts(other)
        return self._new(self.a * a + self.b * b * self.r, self.a * b + self.b * a)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        a, b = self._parts(other)
        n = a * a - b * b * self.r
        return self._new((self.a * a - self.b * b * self.r) // n, (self.b * a - self.a * b) // n)

    def __eq__(self, other):
        # sqrt(r) is irrational, so the parts decide equality
        return self._parts(other) == (self.a, self.b)

    def __lt__(self, other):
        return _exact(self - other) < 0


def _exact(x):
    """x as the Fraction or Surd it is, for an int or a ``_Zr``."""
    return Fraction(x.a) + x.b * x.unit if isinstance(x, _Zr) else Fraction(x)


def _scaled(values):
    """``(data, D)``: data[i] = D * values[i] on an integral ring, with D > 0
    the lcm of the denominators.

    Rational values become ints.  Values holding a Surd of Q(sqrt(p/q))
    become ``_Zr``s of Z[sqrt(pq)], since b sqrt(p/q) = (b/q) sqrt(pq).
    Multiplying by D > 0 scales every k x k minor by D^k and keeps each
    sign, so Hankel data is decided on one integral copy.  This is the one
    place the kernels test entry types: any other entry (a float, a bool)
    raises TypeError, and Surds of two fields raise ValueError.
    """
    for x in values:
        if not is_exact(x):
            raise TypeError(f"expected an exact rational or Surd, got {type(x).__name__}: {x!r}")
    field = next((x for x in values if isinstance(x, Surd)), None)
    if field is None:
        den = math.lcm(*(x.denominator for x in values))
        return [_times(x, den) for x in values], den
    q = field.r.denominator
    parts = [(a, b / q) for a, b in map(field._components, values)]
    den = math.lcm(*(c.denominator for pair in parts for c in pair))
    r, unit = field.r.numerator * q, Surd(0, q, field.r)
    return [_Zr(_times(a, den), _times(b, den), r, unit) for a, b in parts], den


def _bareiss(M):
    """det M by fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    M is a nonempty square list of row lists over ints or one ``_Zr``
    ring, eliminated in place; only the entries right of each pivot column
    are updated, since nothing reads that column again.  Every division is
    exact, so ``//`` serves both rings.  A singular M whose pivot column
    vanishes returns that column's zero entry.
    """
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return M[k][k]
        mkk = M[k][k]
        row_k = M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * mkk - mik * row_k[j]) // prev
        prev = mkk
    return sign * M[-1][-1]


def bareiss_det(rows):
    """The determinant by fraction-free (Bareiss) elimination, exactly.

    ``_scaled`` takes the entries to one integral copy, ints for rational
    entries and ``_Zr``s for entries holding a Surd, scaled by the lcm D
    of their denominators; ``_bareiss`` eliminates it with ``//``, and
    the result is det / D^n as a Fraction or Surd.  A non-square matrix
    raises ValueError, an entry that is not an int, Fraction or Surd
    raises TypeError, and Surds of two fields raise ValueError.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    data, den = _scaled([x for row in rows for x in row])
    return _exact(_bareiss([data[i:i + n] for i in range(0, n * n, n)])) / den ** n


def hankel_det(y, m: int):
    """The Hankel determinant det H_m(y), exactly."""
    return bareiss_det(hankel_matrix(y, m).rows)


def _chebyshev(vals, n: int):
    """Chebyshev's algorithm on exact data, O(n * len(vals)) operations.

    For the functional L[x^l] = vals[l] it builds the rows
    sigma_{k,l} = L[P_k x^l] of the monic orthogonal polynomials P_k
    (Gautschi, Orthogonal Polynomials, 2004, section 2.1.7) and returns
    ``(norms, alphas, row)``: norms[k] = L[P_k^2] = delta_k / delta_{k-1}
    for k = 0..n, alphas[k] = s_k, the recurrence coefficient
    L[x P_k^2] / L[P_k^2], for each k the data reach (2k+2 values), and
    row[l] for l < len(vals) - r at the last index r = len(norms) - 1.
    All three stop after the first zero norm, beyond which P_{r+1} does
    not exist.  Needs len(vals) >= 2n+1.

    The data runs fraction-free on its integral copy (``_scaled``,
    ``_int_chebyshev``): norms and alphas are the same Fractions and Surds
    as over the field, and the row is sigma_{r,l} times a positive factor,
    which keeps every sign and zero that ``_scan`` reads.
    """
    return _int_chebyshev(*_scaled(vals), n)


def _int_chebyshev(ints, den: int, n: int):
    """``_chebyshev`` on ints = den * y, over ints or one ``_Zr`` ring.

    The row T_{k,l} = Delta_{k-1} sigma_{k,l} of the integral data is a
    bordered Hankel determinant, hence in the ring, and with
    Delta_k = T_{k,k} (Delta_{-1} = 1, T_{-1,l} = 0) it satisfies
    T_{k+1,l} = [Delta_{k-1} (Delta_k T_{k,l+1} - T_{k,k+1} T_{k,l})
                 + Delta_k (T_{k-1,k} T_{k,l} - Delta_k T_{k-1,l})] / Delta_{k-1}^2,
    whose division is exact.  For y itself N_k = Delta_k / (den Delta_{k-1})
    and s_k = T_{k,k+1} / Delta_k - T_{k-1,k} / Delta_{k-1}.
    """
    size = len(ints)
    prev, row = [0] * size, ints
    d_prev = 1
    norms, alphas = [], []
    for k in range(n + 1):
        d = row[k]
        norms.append(_exact(d) / _exact(d_prev * den))
        if d == 0 or 2 * k + 2 > size:
            break
        a, b = d_prev * d, d * prev[k] - d_prev * row[k + 1]
        alphas.append(_exact(-b) / _exact(a))
        if k == n:
            break
        c, e = d * d, d_prev * d_prev
        prev, row = row, [0] * (k + 1) + [
            (a * row[l + 1] + b * row[l] - c * prev[l]) // e
            for l in range(k + 1, size - k - 1)]
        d_prev = d
    # row = den Delta_{r-1} sigma_{r,l}: make the factor positive
    return norms, alphas, row if d_prev > 0 else [-x for x in row]


class PsdVerdict(Record):
    """Outcome of an exact definiteness check.

    ``pivots`` carries the LDL^T pivot values (zeros padded for a rank
    deficient PSD matrix); for an indefinite matrix ``witness`` is a
    vector v with v^T M v < 0 that re-verifies the verdict.
    """

    status: str
    pivots: tuple = None
    witness: tuple = None

    POSITIVE_DEFINITE = "positive_definite"
    PSD_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"

    @property
    def is_psd(self) -> bool:
        return self.status in (self.POSITIVE_DEFINITE, self.PSD_SINGULAR)

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.pivots is not None:
            out["pivots"] = [str(p) for p in self.pivots]
        if self.witness is not None:
            out["witness"] = [str(v) for v in self.witness]
        return out


def _all_principal_minors_nonneg(rows):
    """Exhaustive principal-minor check; returns (ok, failing_subset, value).

    ``rows`` is the integral copy that ``_scan`` got from ``_scaled``,
    whose minors keep their signs; ``_bareiss`` eliminates each freshly
    built minor.
    """
    n = len(rows)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            value = _bareiss([[rows[i][j] for j in subset] for i in subset])
            if value < 0:
                return False, subset, value
    return True, None, None


# Exhaustive minors get expensive past this size, so classify cross-checks
# the Chebyshev-row rule by them only on singular orders up to this many
# rows; past it the rule is the only proof.
_MINOR_FALLBACK_LIMIT = 12


def _witness(rows, chosen, tail, tail_vec):
    """v with v^T M v < 0, by back-substitution through the multipliers.

    ``rows[i][p]`` holds l_ip = S_ip / d_p for every row i still in the
    Schur block when pivot p was taken, and ``tail_vec`` makes the
    current Schur block's form on ``tail`` negative.  Solving
    L^T v = (0, tail_vec) pivot by pivot, in reverse order, gives
    v^T M v = tail_vec^T S tail_vec < 0; entries off chosen + tail are 0.
    """
    v = [Fraction(0)] * len(rows)
    later = list(tail)
    for pos, val in zip(tail, tail_vec):
        v[pos] = val
    for p in reversed(chosen):
        v[p] = -sum(rows[i][p] * v[i] for i in later)
        later.append(p)
    return tuple(v)


def psd_status(M: SymMatrix) -> PsdVerdict:
    """Exact definiteness of a symmetric matrix.

    Pivoted LDL^T over the scalars decides every case.  A negative
    diagonal entry, or a zero diagonal with a nonzero off-diagonal entry,
    in the current Schur block yields a witness v with v^T M v < 0, by
    back-substitution through the same elimination's multipliers.  When
    the remaining Schur block is exactly zero, the elimination itself is
    the certificate: M = P L D L^T P^T with D = diag(pivots) >= 0, so M
    is PSD, and singular when fewer pivots than rows were taken.  Int
    entries are taken as Fractions, so the elimination never divides in
    floats.
    """
    n = M.order + 1
    rows = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in M.rows]
    zero = Fraction(0)
    remaining = list(range(n))
    chosen = []
    pivots = []

    while remaining:
        neg = next((i for i in remaining if rows[i][i] < zero), None)
        if neg is not None:
            witness = _witness(rows, chosen, (neg,), (Fraction(1),))
            return PsdVerdict(PsdVerdict.INDEFINITE, witness=witness)
        piv = next((i for i in remaining if rows[i][i] > zero), None)
        if piv is None:
            # all remaining diagonal entries vanish
            offdiag = next(((i, j) for i in remaining for j in remaining
                            if i < j and rows[i][j] != zero), None)
            if offdiag is None:
                break
            i, j = offdiag
            # sign taken from the eliminated matrix, where the Schur
            # block on {i, j} actually lives
            tv = (Fraction(1), Fraction(-1) if rows[i][j] > zero else Fraction(1))
            witness = _witness(rows, chosen, offdiag, tv)
            return PsdVerdict(PsdVerdict.INDEFINITE, witness=witness)
        d = rows[piv][piv]
        pivots.append(d)
        remaining.remove(piv)
        chosen.append(piv)
        for i in remaining:
            if rows[i][piv] != zero:
                f = rows[i][piv] = rows[i][piv] / d
                for j in remaining:
                    rows[i][j] = rows[i][j] - f * rows[piv][j]

    if len(chosen) == n:
        return PsdVerdict(PsdVerdict.POSITIVE_DEFINITE, pivots=tuple(pivots))

    padded = tuple(pivots) + (Fraction(0),) * (n - len(chosen))
    return PsdVerdict(PsdVerdict.PSD_SINGULAR, pivots=padded)


def shift(y, j: int = 1):
    """The left shift (E^j y)_n = y_{n+j}."""
    vals = _values(y)
    if j < 0:
        raise ValueError("shift must be >= 0")
    if len(vals) <= j:
        raise InsufficientData(f"cannot shift a length-{len(vals)} sequence by {j}")
    if isinstance(y, Sequence):
        label = f"E^{j}({y.label})" if j > 1 else (f"E({y.label})" if j else y.label)
        return Sequence(vals[j:], label=label, origin=y.origin)
    return vals[j:]


def _combination_sequence(vals, a, b, length: int):
    """z_n = (a+b) y_{n+1} - y_{n+2} - ab y_n for n < length, so that
    H_m(z) is the interval combination matrix."""
    asum = a + b
    aprod = a * b
    return tuple(asum * vals[n + 1] - vals[n + 2] - aprod * vals[n]
                 for n in range(length))


def _endpoints(interval):
    """The endpoints (a, b) as exact scalars, coerced like sequence
    entries: a Surd stays, anything else goes through ``ensure_fraction``."""
    a, b = interval
    out = []
    for name, x in (("a", a), ("b", b)):
        try:
            out.append(x if isinstance(x, Surd) else ensure_fraction(x))
        except TypeError:
            raise TypeError(f"interval endpoint {name} = {x!r} is not an exact"
                            f" rational or Surd ({type(x).__name__})") from None
    return tuple(out)


def hausdorff_combination(y, a, b, m: int) -> SymMatrix:
    """The matrix (a+b) H_m(Ey) - H_m(E^2 y) - ab H_m(y).

    ``a`` and ``b`` may be Fractions or Surds; for conjugate endpoints
    s -/+ 2 sqrt(t) both a+b and ab come out as Fractions, so the matrix
    stays rational even when the endpoints are irrational.  A "hausdorff"
    failure witness of ``classify`` at order k is a vector v with
    v^T M v < 0 for this matrix M at order k, or for H_k(y) when only
    that one fails there.
    """
    a, b = _endpoints((a, b))
    vals = _values(y)
    need = 2 * m + 3
    if len(vals) < need:
        raise InsufficientData(f"need {need} values for order {m}, have {len(vals)}")
    return hankel_matrix(_combination_sequence(vals, a, b, 2 * m + 1), m)


class MomentClassReport(Record):
    """Per-order Hankel verdicts and the orders each criterion survived.

    ``*_ok_up_to`` is the largest order k such that every check of that
    family passed for all orders <= k; -1 means the order-0 check already
    failed.  ``*_checked_up_to`` records how far the data allowed the
    family to be tested at all, because a short prefix can cap the
    shifted and interval checks below ``max_order``.

    ``determinate`` is a derived hint: a sequence of moments on a compact
    interval has a unique representing measure, so it is True when every
    interval check that could be run passed, and None when no interval
    was supplied.  It reports evidence at finite order, never the
    infinite statement.
    """

    max_order: int
    hamburger_ok_up_to: int
    stieltjes_ok_up_to: int
    delta_values: tuple
    hamburger_status: tuple
    shifted_status: tuple
    stieltjes_checked_up_to: int
    hausdorff_interval: tuple = None
    hausdorff_ok_up_to: int = None
    hausdorff_checked_up_to: int = None
    hausdorff_status: tuple = ()
    determinate: bool = None
    failure_witnesses: tuple = ()

    def to_json(self) -> str:
        out = {
            "schema": "momentlab/classify/v1",
            "max_order": self.max_order,
            "hamburger_ok_up_to": self.hamburger_ok_up_to,
            "stieltjes_ok_up_to": self.stieltjes_ok_up_to,
            "stieltjes_checked_up_to": self.stieltjes_checked_up_to,
            "delta_values": [str(d) for d in self.delta_values],
            "hamburger_status": list(self.hamburger_status),
            "shifted_status": list(self.shifted_status),
            "failures": [
                {"family": fam, "order": order, **verdict.to_dict()}
                for fam, order, verdict in self.failure_witnesses
            ],
        }
        if self.hausdorff_interval is not None:
            out["hausdorff_interval"] = [str(e) for e in self.hausdorff_interval]
            out["hausdorff_ok_up_to"] = self.hausdorff_ok_up_to
            out["hausdorff_checked_up_to"] = self.hausdorff_checked_up_to
            out["hausdorff_status"] = list(self.hausdorff_status)
            out["determinate"] = self.determinate
        return json.dumps(out)

    def to_csv(self) -> str:
        """One row per order; a family's cell is empty past its last check."""
        columns = (self.hamburger_status, self.shifted_status, self.hausdorff_status)
        rows = [",".join([str(k)] + [c[k] if k < len(c) else "" for c in columns])
                for k in range(self.max_order + 1)]
        return "\n".join(["order,hamburger,shifted,hausdorff"] + rows) + "\n"

    def to_text(self) -> str:
        """The orders each criterion survived, then one line per failure."""
        lines = [
            f"hamburger ok up to order {self.hamburger_ok_up_to} of {self.max_order}",
            f"stieltjes ok up to order {self.stieltjes_ok_up_to}"
            f" (checked to {self.stieltjes_checked_up_to})",
        ]
        if self.hausdorff_interval is not None:
            lines.append(f"hausdorff ok up to order {self.hausdorff_ok_up_to}"
                         f" (checked to {self.hausdorff_checked_up_to})")
        lines += [f"FAIL {fam} at order {order}: {verdict.status}"
                  for fam, order, verdict in self.failure_witnesses]
        return "\n".join(lines) + "\n"

    @property
    def passed(self) -> bool:
        """True when no check that could be run recorded a failure."""
        return not self.failure_witnesses


def _scan(vals, n: int):
    """Verdicts on H_0(vals)..H_n(vals) up to the first order that is not PSD.

    Returns ``(norms, statuses, order, verdict)``: the Chebyshev norms,
    one status per order checked, and the first order that is not PSD
    with its verdict (None, None when every order through n is PSD).
    Needs len(vals) >= 2n+1.

    Orders with N_0..N_k > 0 are positive definite by Sylvester's
    criterion.  At the first other order r, N_r < 0 makes H_r indefinite;
    N_r = 0 leaves H_k PSD and singular for k >= r exactly while
    sigma_{r,l} = 0 for r <= l < 2k-r and sigma_{r,2k-r} >= 0, read off
    the Chebyshev row.  Each of those orders with at most
    _MINOR_FALLBACK_LIMIT rows is cross-checked by exhaustive principal
    minors, and a disagreement raises RuntimeError.  ``psd_status`` runs
    once, at the first order that is not PSD, for its witness.

    The recurrence and the minor cross-check both run on the integral copy
    from ``_scaled``, ints or ``_Zr``s, whose minors and row entries keep
    their signs.
    """
    data, den = _scaled(vals)
    norms, _, sigma = _int_chebyshev(data, den, n)
    r = 0
    while r < len(norms) and norms[r] > 0:
        r += 1
    statuses = [PsdVerdict.POSITIVE_DEFINITE] * r
    if r > n:
        return norms, statuses, None, None
    fail = r
    if norms[r] == 0:
        # H_r is PSD; H_{k+1} stays PSD while sigma_{r,2k-r} and
        # sigma_{r,2k-r+1} vanish and sigma_{r,2k-r+2} >= 0
        k = r
        while (k < n and sigma[2 * k - r] == 0 and sigma[2 * k - r + 1] == 0
               and sigma[2 * k - r + 2] >= 0):
            k += 1
        for j in range(r, min(k, _MINOR_FALLBACK_LIMIT - 1) + 1):
            ok, subset, value = _all_principal_minors_nonneg(
                [data[i:i + j + 1] for i in range(j + 1)])
            if not ok:
                raise RuntimeError(f"internal disagreement at order {j}: "
                                   f"minor {subset} = {_exact(value)} negative")
        statuses += [PsdVerdict.PSD_SINGULAR] * (k - r + 1)
        if k == n:
            return norms, statuses, None, None
        fail = k + 1
    verdict = psd_status(hankel_matrix(vals, fail))
    if verdict.is_psd:
        raise RuntimeError(f"internal disagreement: order {fail} is {verdict.status}")
    statuses.append(verdict.status)
    return norms, statuses, fail, verdict


def classify(y, m: int, interval=None) -> MomentClassReport:
    """Run the Hankel criteria family by family up to order m.

    The plain Hankel checks require 2m+1 values; the shifted and
    interval checks consume slightly longer prefixes and are capped at
    whatever the data supports.  Checking stops at the first failing
    order of each family since a failure at order k forces failures at
    every higher order.

    One Chebyshev recursion each on y, Ey and the interval combination
    sequence decides every order, and one elimination per family builds
    the failure witness; see ``_scan``.  delta_k is the product of the
    norms up to the first zero norm, 0 for every PSD order past it, and a
    Bareiss determinant only for orders past a Hamburger failure.  Each
    of the three sequences, and each determinant, runs on one integral
    copy (``_scaled``): ints for rational data, and Z[sqrt(r)] for a
    combination sequence with irrational entries (an interval such as
    [0, s + 2 sqrt(t)]).  Interval endpoints are coerced like sequence
    entries, so a float endpoint raises TypeError, as does an m that is
    not an int.
    """
    _require_int("m", m)
    if m < 0:
        raise ValueError("order must be >= 0")
    if interval is not None:
        interval = _endpoints(interval)
    vals = _values(y)
    if len(vals) < 2 * m + 1:
        raise InsufficientData(f"need {2 * m + 1} values for order {m}")

    failures = []

    norms, ham_status, ham_fail, ham_bad = _scan(vals, m)
    ham_ok = m if ham_fail is None else ham_fail - 1
    if ham_fail is not None:
        failures.append(("hamburger", ham_fail, ham_bad))

    sh_checked = min(m, (len(vals) - 2) // 2)
    _, sh_status, sh_fail, sh_bad = _scan(vals[1:], sh_checked)
    sh_ok = sh_checked if sh_fail is None else sh_fail - 1
    if sh_fail is not None:
        failures.append(("stieltjes-shifted", sh_fail, sh_bad))

    stieltjes_ok = min(ham_ok, sh_ok)

    # delta_k = N_0 ... N_k until the first vanishing norm; every PSD
    # order past it is singular
    deltas = list(itertools.accumulate(norms, operator.mul))
    deltas += [Fraction(0)] * (ham_ok + 1 - len(deltas))
    deltas += [hankel_det(vals, k) for k in range(len(deltas), m + 1)]

    hs_interval = None
    hs_ok = None
    hs_checked = None
    hs_status = ()
    determinate = None
    if interval is not None:
        a, b = interval
        if not (a < b):
            raise ValueError("need a < b")
        hs_interval = (a, b)
        hs_checked = min(m, (len(vals) - 3) // 2)
        hs_ok = hs_checked
        if hs_checked >= 0:
            # an order fails when H_k(y) or the combination matrix is not
            # PSD; the combination verdict wins when both fail there
            top = hs_checked if ham_fail is None else min(hs_checked, ham_fail)
            z = _combination_sequence(vals, a, b, 2 * top + 1)
            _, _, fail, bad = _scan(z, top)
            if fail is None and ham_fail is not None and ham_fail <= hs_checked:
                fail, bad = ham_fail, ham_bad
            if fail is not None:
                hs_ok = fail - 1
                failures.append(("hausdorff", fail, bad))
        hs_status = ("pass",) * (hs_ok + 1) + (("fail",) if hs_ok < hs_checked else ())
        determinate = hs_ok == hs_checked and hs_checked >= 0

    return MomentClassReport(
        max_order=m,
        hamburger_ok_up_to=ham_ok,
        stieltjes_ok_up_to=stieltjes_ok,
        delta_values=tuple(deltas),
        hamburger_status=tuple(ham_status),
        shifted_status=tuple(sh_status),
        stieltjes_checked_up_to=sh_checked,
        hausdorff_interval=hs_interval,
        hausdorff_ok_up_to=hs_ok,
        hausdorff_checked_up_to=hs_checked,
        hausdorff_status=hs_status,
        determinate=determinate,
        failure_witnesses=tuple(failures),
    )
