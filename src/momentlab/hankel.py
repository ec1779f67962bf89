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
actually checked and never claims the infinite statement.

All decisions here are exact.  One Chebyshev recursion per sequence
gives the norms N_k = delta_k / delta_{k-1} of its monic orthogonal
polynomials, so H_k is positive definite exactly when N_0..N_k > 0.
From the first order where that fails, pivoted LDL^T over the rationals
(or over a quadratic field when interval endpoints are irrational)
decides each order.  For an indefinite matrix it yields a witness vector,
by back-substitution through the multipliers of that same elimination,
and a semidefinite-singular verdict carries its own certificate, the
congruence M = P L D L^T P^T with D >= 0 (also cross-checked by
exhaustive principal minors up to 12 x 12).  Determinants past the
first vanishing norm come from fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientData
from .exact import format_rational
from .seqcore import Sequence, _values

__all__ = [
    "SymMatrix",
    "PsdVerdict",
    "HausdorffVerdict",
    "MomentClassReport",
    "hankel_matrix",
    "hankel_det",
    "bareiss_det",
    "psd_status",
    "shift",
    "hausdorff_combination",
    "hausdorff_test",
    "classify",
]


@dataclass(frozen=True)
class SymMatrix:
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


def bareiss_det(rows):
    """Fraction-free determinant (Bareiss elimination), exact."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    M = [list(r) for r in rows]
    zero = Fraction(0)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if M[k][k] == zero:
            for i in range(k + 1, n):
                if M[i][k] != zero:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = zero
        prev = M[k][k]
    out = M[n - 1][n - 1]
    return -out if sign < 0 else out


def hankel_det(y, m: int):
    """The Hankel determinant det H_m(y), exactly."""
    return bareiss_det(hankel_matrix(y, m).rows)


def _chebyshev(vals, n: int):
    """Chebyshev's algorithm over exact scalars, O(n * len(vals)).

    For the functional L[x^l] = vals[l] it builds the rows
    sigma_{k,l} = L[P_k x^l] of the monic orthogonal polynomials P_k
    (Gautschi, Orthogonal Polynomials, 2004, section 2.1.7) and returns
    ``(norms, alphas)``: norms[k] = L[P_k^2] = delta_k / delta_{k-1} for
    k = 0..n, and alphas[k] = s_k, the recurrence coefficient
    L[x P_k^2] / L[P_k^2], for each k the data reach (2k+2 values).  Both
    stop after the first zero norm, beyond which P_{k+1} does not exist.
    Needs len(vals) >= 2n+1; only + - * / and comparisons are used, so
    Fraction and Surd values both work.
    """
    zero = Fraction(0)
    size = len(vals)
    prev, row = [zero] * size, list(vals)
    norms, alphas = [], []
    for k in range(n + 1):
        norm = row[k]
        norms.append(norm)
        if norm == 0 or 2 * k + 2 > size:
            break
        alpha = row[k + 1] / norm - (prev[k] / norms[k - 1] if k else zero)
        beta = norm / norms[k - 1] if k else zero
        alphas.append(alpha)
        prev, row = row, [zero] * (k + 1) + [
            row[l + 1] - alpha * row[l] - beta * prev[l]
            for l in range(k + 1, size - k - 1)]
    return norms, alphas


@dataclass(frozen=True)
class PsdVerdict:
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


def _int_bareiss(M):
    """Bareiss determinant over plain ints (exact divisions via //)."""
    n = len(M)
    if n == 0:
        return 1
    M = [row[:] for row in M]
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
                return 0
        mkk = M[k][k]
        row_k = M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * mkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = mkk
    return sign * M[-1][-1]


def _all_principal_minors_nonneg(rows):
    """Exhaustive principal-minor check; returns (ok, failing_subset, value).

    Rational matrices are rescaled by the common denominator first: a
    positive scaling multiplies every k-minor by a positive constant, so
    signs survive and the determinants run over plain integers.
    """
    n = len(rows)
    if all(isinstance(rows[i][j], Fraction) for i in range(n) for j in range(n)):
        den = 1
        for i in range(n):
            for j in range(i, n):
                d = rows[i][j].denominator
                den //= math.gcd(den, d)
                den *= d
        scaled = [[int(rows[i][j] * den) for j in range(n)] for i in range(n)]
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                minor = [[scaled[i][j] for j in subset] for i in subset]
                if _int_bareiss(minor) < 0:
                    sub = [[rows[i][j] for j in subset] for i in subset]
                    return False, subset, bareiss_det(sub)
        return True, None, None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            minor = [[rows[i][j] for j in subset] for i in subset]
            d = bareiss_det(minor)
            if d < 0:
                return False, subset, d
    return True, None, None


# Exhaustive minors get expensive past this size; elimination alone is
# already a proof, so larger singular matrices skip the cross-check.
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
    is PSD, and singular when fewer pivots than rows were taken.  Up to
    _MINOR_FALLBACK_LIMIT rows that verdict is also cross-checked by the
    exhaustive principal-minor criterion.
    """
    n = M.order + 1
    rows = [list(r) for r in M.rows]
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

    # boundary case: elimination says PSD with rank deficiency; confirm by
    # principal minors while the size stays reasonable
    if n <= _MINOR_FALLBACK_LIMIT:
        ok, subset, value = _all_principal_minors_nonneg(M.rows)
        if not ok:  # pragma: no cover - elimination already proves PSD
            raise RuntimeError(
                f"internal disagreement: minor {subset} = {value} negative")
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


def hausdorff_combination(y, a, b, m: int) -> SymMatrix:
    """The matrix (a+b) H_m(Ey) - H_m(E^2 y) - ab H_m(y).

    ``a`` and ``b`` may be Fractions or Surds; for conjugate endpoints
    s -/+ 2 sqrt(t) both a+b and ab come out as Fractions, so the matrix
    stays rational even when the endpoints are irrational.
    """
    vals = _values(y)
    need = 2 * m + 3
    if len(vals) < need:
        raise InsufficientData(f"need {need} values for order {m}, have {len(vals)}")
    return hankel_matrix(_combination_sequence(vals, a, b, 2 * m + 1), m)


@dataclass(frozen=True)
class HausdorffVerdict:
    """Verdicts for H_m(y) and the interval combination matrix."""

    base: PsdVerdict
    combination: PsdVerdict

    @property
    def passed(self) -> bool:
        return self.base.is_psd and self.combination.is_psd

    def to_dict(self) -> dict:
        return {"base": self.base.to_dict(),
                "combination": self.combination.to_dict(),
                "passed": self.passed}


def hausdorff_test(y, a, b, m: int) -> HausdorffVerdict:
    """Order-m test for a representing measure on [a, b]."""
    if not (a < b):
        raise ValueError("need a < b")
    base = psd_status(hankel_matrix(y, m))
    combo = psd_status(hausdorff_combination(y, a, b, m))
    return HausdorffVerdict(base, combo)


@dataclass(frozen=True)
class MomentClassReport:
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
            "delta_values": [format_rational(d) for d in self.delta_values],
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
    Orders with N_0..N_k > 0 are positive definite by Sylvester's
    criterion; pivoted elimination runs only from the first other order.
    """
    norms, _ = _chebyshev(vals, n)
    pd = 0
    while pd < len(norms) and norms[pd] > 0:
        pd += 1
    statuses = [PsdVerdict.POSITIVE_DEFINITE] * pd
    for k in range(pd, n + 1):
        verdict = psd_status(hankel_matrix(vals, k))
        statuses.append(verdict.status)
        if not verdict.is_psd:
            return norms, statuses, k, verdict
    return norms, statuses, None, None


def classify(y, m: int, interval=None) -> MomentClassReport:
    """Run the Hankel criteria family by family up to order m.

    The plain Hankel checks require 2m+1 values; the shifted and
    interval checks consume slightly longer prefixes and are capped at
    whatever the data supports.  Checking stops at the first failing
    order of each family since a failure at order k forces failures at
    every higher order.

    One Chebyshev recursion each on y, Ey and the interval combination
    sequence decides every positive definite order; see ``_scan``.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
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

    # delta_k = N_0 ... N_k until the first vanishing norm
    deltas = list(itertools.accumulate(norms, operator.mul))
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
