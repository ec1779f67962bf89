"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's production
code paths: the recursive-matrix oracle is a plain memoized recursion
(the library builds rows iteratively), determinant oracles use cofactor
expansion (the library uses fraction-free elimination), and the closed
forms come straight from classical formulas.  The references at the end
are the straightforward algorithms the library replaced: classification
that decides every Hankel matrix by elimination order by order,
Chebyshev's recursion over the field of the data, definiteness
witnesses by a second elimination on the original entries, recovery
that squares the orthogonal polynomials, zeros as eigenvalues of the
Jacobi matrix, moments by scipy's adaptive quadrature, the g >= 0
decision as it stood before its helpers moved to one module, the
catalog densities as the hand-written float weights they were before the
catalog became a table of ends, exponents and constants, and the two
second routes the package once exported: the order-k interval test as
two eliminations, and P_n as a bordered Hankel determinant.
"""

from fractions import Fraction
from functools import lru_cache
import itertools
import math
import os

from hypothesis import settings, strategies as st
import pytest

from momentlab._record import Record

# HYPOTHESIS_PROFILE selects the profile; unset, every test keeps its own
# example count.  "ci" also multiplies the count of each test that asks
# ``examples`` (the classify reference tests) by 4.
settings.register_profile("ci", deadline=None, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def examples(n):
    """n hypothesis examples locally, 4 n under the "ci" profile."""
    return 4 * n if PROFILE == "ci" else n


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


def principal_minors_nonneg(rows):
    """Exhaustive principal-minor criterion for PSD over Fractions.

    Returns (ok, failing_subset, value); a symmetric matrix is PSD
    exactly when every principal minor is nonnegative.
    """
    n = len(rows)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            value = cofactor_det([[rows[i][j] for j in subset] for i in subset])
            if value < 0:
                return False, subset, value
    return True, None, None


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


# -- reference paths ------------------------------------------------------

class HausdorffVerdict(Record):
    """Verdicts for H_k(y) and the interval combination matrix."""

    base: object
    combination: object

    @property
    def passed(self) -> bool:
        return self.base.is_psd and self.combination.is_psd


def reference_hausdorff(vals, a, b, k):
    """The order-k test for a measure on [a, b]: one elimination of H_k(y)
    and one of the combination matrix (a+b) H_k(Ey) - H_k(E^2 y) - ab H_k(y)."""
    import momentlab as ml

    if not (a < b):
        raise ValueError("need a < b")
    return HausdorffVerdict(ml.psd_status(ml.hankel_matrix(vals, k)),
                            ml.psd_status(ml.hausdorff_combination(vals, a, b, k)))


def reference_classify(y, m, interval=None):
    """``classify`` as one elimination per order and per family."""
    import momentlab as ml

    vals = tuple(y)
    if len(vals) < 2 * m + 1:
        raise ml.InsufficientData(f"need {2 * m + 1} values for order {m}")

    failures = []

    ham_status = []
    ham_ok = m
    for k in range(m + 1):
        verdict = ml.psd_status(ml.hankel_matrix(vals, k))
        ham_status.append(verdict.status)
        if not verdict.is_psd:
            ham_ok = k - 1
            failures.append(("hamburger", k, verdict))
            break

    sh_checked = min(m, (len(vals) - 2) // 2)
    sh_status = []
    sh_ok = sh_checked
    for k in range(sh_checked + 1):
        verdict = ml.psd_status(ml.hankel_matrix(vals, k, shift=1))
        sh_status.append(verdict.status)
        if not verdict.is_psd:
            sh_ok = k - 1
            failures.append(("stieltjes-shifted", k, verdict))
            break

    deltas = tuple(ml.hankel_det(vals, k) for k in range(m + 1))

    hs_interval = hs_ok = hs_checked = determinate = None
    hs_status = ()
    if interval is not None:
        a, b = interval
        hs_interval = (a, b)
        hs_checked = min(m, (len(vals) - 3) // 2)
        status = []
        hs_ok = hs_checked
        for k in range(hs_checked + 1):
            verdict = reference_hausdorff(vals, a, b, k)
            status.append("pass" if verdict.passed else "fail")
            if not verdict.passed:
                hs_ok = k - 1
                bad = verdict.combination if not verdict.combination.is_psd else verdict.base
                failures.append(("hausdorff", k, bad))
                break
        hs_status = tuple(status)
        determinate = hs_ok == hs_checked and hs_checked >= 0

    return ml.MomentClassReport(
        max_order=m,
        hamburger_ok_up_to=ham_ok,
        stieltjes_ok_up_to=min(ham_ok, sh_ok),
        delta_values=deltas,
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


@st.composite
def quadratic_field_prefixes(draw, min_order=0, max_order=6):
    """(vals, n) with len(vals) >= 2n+1 over Q(sqrt 2), Q(sqrt 3) or
    Q(sqrt(5/7)): random entries a + b sqrt(t), some of them rational, or
    the moments of an atomic measure with nodes in the field, whose norm
    N_rank is planted at zero."""
    import momentlab as ml

    root = ml.sqrt_exact(draw(st.sampled_from([2, 3, Fraction(5, 7)])))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    size = 2 * n + 1 + draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        weights = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)
        pairs = [(draw(weights), draw(small) + draw(small) * root)
                 for _ in range(draw(st.integers(min_value=1, max_value=4)))]
        return [sum(w * x ** k for w, x in pairs) for k in range(size)], n
    return [draw(small) + draw(small) * root for _ in range(size)], n


def reference_chebyshev(vals, n):
    """``hankel._chebyshev`` as it ran on every input before rational data
    moved to integers: the field recursion on sigma_{k,l} = L[P_k x^l]
    itself, returning ``(norms, alphas, row)``."""
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
        if k == n:
            break
        prev, row = row, [zero] * (k + 1) + [
            row[l + 1] - alpha * row[l] - beta * prev[l]
            for l in range(k + 1, size - k - 1)]
    return norms, alphas, row


def _solve_exact(A, b):
    """Solve A x = b by Gaussian elimination over an exact field."""
    n = len(A)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    zero = Fraction(0)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != zero), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        M[c], M[piv] = M[piv], M[c]
        for r in range(c + 1, n):
            if M[r][c] != zero:
                f = M[r][c] / M[c][c]
                for j in range(c, n + 1):
                    M[r][j] = M[r][j] - f * M[c][j]
    x = [zero] * n
    for i in range(n - 1, -1, -1):
        acc = M[i][n]
        for j in range(i + 1, n):
            acc = acc - M[i][j] * x[j]
        x[i] = acc / M[i][i]
    return x


def _schur_witness(rows, chosen, tail, tail_vec):
    """v with v^T M v < 0: solve A11 x = -A12 tail_vec on the original
    entries, where A11 is the positive definite block on ``chosen``."""
    rhs = [-sum((tv * rows[a][tpos] for tv, tpos in zip(tail_vec, tail)), Fraction(0))
           for a in chosen]
    x = _solve_exact([[rows[a][b] for b in chosen] for a in chosen], rhs)
    v = [Fraction(0)] * len(rows)
    for pos, val in zip(list(chosen) + list(tail), list(x) + list(tail_vec)):
        v[pos] = val
    return tuple(v)


def reference_psd_status(M):
    """``psd_status`` as pivoted LDL^T that discards its multipliers and
    builds each witness by a second elimination on the original entries;
    no principal-minor cross-check."""
    import momentlab as ml

    n = M.order + 1
    rows = [list(r) for r in M.rows]
    zero = Fraction(0)
    remaining = list(range(n))
    chosen = []
    pivots = []
    while remaining:
        neg = next((i for i in remaining if rows[i][i] < zero), None)
        if neg is not None:
            witness = _schur_witness(M.rows, chosen, (neg,), (Fraction(1),))
            return ml.PsdVerdict(ml.PsdVerdict.INDEFINITE, witness=witness)
        piv = next((i for i in remaining if rows[i][i] > zero), None)
        if piv is None:
            offdiag = next(((i, j) for i in remaining for j in remaining
                            if i < j and rows[i][j] != zero), None)
            if offdiag is None:
                break
            i, j = offdiag
            tv = (Fraction(1), Fraction(-1) if rows[i][j] > zero else Fraction(1))
            witness = _schur_witness(M.rows, chosen, offdiag, tv)
            return ml.PsdVerdict(ml.PsdVerdict.INDEFINITE, witness=witness)
        d = rows[piv][piv]
        pivots.append(d)
        remaining.remove(piv)
        chosen.append(piv)
        for i in remaining:
            if rows[i][piv] != zero:
                f = rows[i][piv] / d
                for j in remaining:
                    rows[i][j] = rows[i][j] - f * rows[piv][j]
        for i in remaining:
            rows[piv][i] = rows[i][piv] = zero
    if len(chosen) == n:
        return ml.PsdVerdict(ml.PsdVerdict.POSITIVE_DEFINITE, pivots=tuple(pivots))
    padded = tuple(pivots) + (Fraction(0),) * (n - len(chosen))
    return ml.PsdVerdict(ml.PsdVerdict.PSD_SINGULAR, pivots=padded)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def reference_recurrence(y, n):
    """``recurrence_from_moments`` by building and squaring each P_k:
    s_k = L[x P_k^2] / L[P_k^2], t_k = L[P_k^2] / L[P_{k-1}^2]."""
    import momentlab as ml

    vals = [v if isinstance(v, ml.Surd) else Fraction(v) for v in y]
    if len(vals) < 2 * n:
        raise ml.InsufficientData(f"need {2 * n} moments for depth {n}")

    def L(coeffs, shift=0):
        return sum((c * vals[i + shift] for i, c in enumerate(coeffs)), Fraction(0))

    sigma, tau = [], []
    p_prev, p_cur = [Fraction(0)], [Fraction(1)]
    norm_prev = None
    for k in range(n):
        sq = poly_mul(p_cur, p_cur)
        norm = L(sq)
        if norm == 0:
            raise ml.QuasiDefiniteFailure(k)
        sigma.append(L(sq, shift=1) / norm)
        if k >= 1:
            tau.append(norm / norm_prev)
        norm_prev = norm
        # P_{k+1} = (x - s_k) P_k - t_k P_{k-1}
        nxt = [Fraction(0)] + p_cur
        for i, c in enumerate(p_cur):
            nxt[i] -= sigma[-1] * c
        if k >= 1:
            for i, c in enumerate(p_prev):
                nxt[i] -= tau[-1] * c
        p_prev, p_cur = p_cur, nxt
    return tuple(sigma), tuple(tau)


def reference_ops_determinantal(y, n):
    """P_n by the bordered Hankel determinant, divided by det H_{n-1}.

    Expanding the determinant along its final row (1, x, ..., x^n) gives
    the coefficient of x^j as a signed maximal minor of the first n rows.
    The moments it reads, y_0..y_{2n-1}, must be rational, as the
    coefficients of a ``MonicPolynomial`` are: a Surd among them raises
    TypeError before any determinant runs.
    """
    import momentlab as ml

    vals = tuple(y)
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return ml.MonicPolynomial((Fraction(1),))
    if len(vals) < 2 * n:
        raise ml.InsufficientData(f"need {2 * n} moments for degree {n}")
    vals = [ml.ensure_fraction(v) for v in vals[:2 * n]]
    top = [[vals[i + j] for j in range(n + 1)] for i in range(n)]
    delta = ml.bareiss_det([row[:n] for row in top])
    if delta == 0:
        raise ml.QuasiDefiniteFailure(n - 1)
    coeffs = []
    for j in range(n + 1):
        minor = [row[:j] + row[j + 1:] for row in top]
        cof = ml.bareiss_det(minor)
        if (n + j) % 2 == 1:
            cof = -cof
        coeffs.append(cof / delta)
    return ml.MonicPolynomial(tuple(coeffs))


def ops_values(spec, x, n):
    """P_0(x) .. P_n(x) by the three-term recurrence, exact for exact x."""
    vals = [Fraction(1), x - spec.sigma(0)]
    for k in range(1, n):
        vals.append((x - spec.sigma(k)) * vals[-1] - spec.tau(k) * vals[-2])
    return vals[:n + 1]


def count_sign_changes(values):
    """Sign changes along exact values, zeros dropped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(p != q for p, q in zip(signs, signs[1:]))


def _ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_divmod(num, den):
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    return quot, _ref_trim(rem[:len(den) - 1])


def _ref_eval(coeffs, x):
    acc = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def reference_check_g_nonneg(g, a, b):
    """``check_g_nonneg`` as it was written before its polynomial helpers
    moved to ``momentlab.roots``: the remainder chain of g and g' divided
    by their gcd, and the same bisection of [a, b], so the verdict and the
    violation point must match it exactly."""
    from momentlab.exact import ensure_fraction
    from momentlab.measures import GVerdict

    g = _ref_trim(ensure_fraction(c) for c in g)
    if not g:
        return GVerdict(GVerdict.CERTIFIED)
    chain = [g, [k * c for k, c in enumerate(g)][1:]]
    while chain[-1]:
        chain.append([-c for c in _ref_divmod(chain[-2], chain[-1])[1]])
    chain = [_ref_divmod(q, chain[-2])[0] for q in chain[:-1]]

    def changes(x):
        return count_sign_changes(_ref_eval(q, x) for q in chain)

    for x in (a, b):
        if _ref_eval(g, x) < 0:
            return GVerdict(GVerdict.VIOLATED, x)
    pieces = [(a, changes(a), b, changes(b))]
    while pieces:
        u, cu, v, cv = pieces.pop()
        if cu - cv + (_ref_eval(g, u) == 0) <= 1:
            continue
        m = (u + v) / 2
        while (gm := _ref_eval(g, m)) == 0:
            m = (u + m) / 2
        if gm < 0:
            return GVerdict(GVerdict.VIOLATED, m)
        cm = changes(m)
        pieces += [(u, cu, m, cm), (m, cm, v, cv)]
    return GVerdict(GVerdict.CERTIFIED)


def jacobi_norm(spec, n):
    """Gershgorin bound on the norm of the order-n Jacobi matrix."""
    r = [0.0] + [math.sqrt(float(spec.tau(k))) for k in range(1, n)] + [0.0]
    return max(abs(float(spec.sigma(k))) + r[k] + r[k + 1] for k in range(n))


def reference_ops_zeros(spec, n):
    """``ops_zeros`` as the eigenvalues of the order-n Jacobi matrix (diagonal
    s_k, off-diagonal sqrt(t_k)), by LAPACK through scipy."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    diag = [float(spec.sigma(k)) for k in range(n)]
    if n == 1:
        return diag
    off = [math.sqrt(float(spec.tau(k))) for k in range(1, n)]
    return [float(z) for z in eigh_tridiagonal(np.array(diag), np.array(off),
                                               eigvals_only=True)]


def reference_zeros_ok(spec, a, b, n):
    """``zeros_ok`` as the float check it replaced: the extreme eigenvalues of
    the order-n Jacobi matrix lie in [a, b] up to a slack of 1e-9."""
    zeros = reference_ops_zeros(spec, n)
    return zeros[0] >= float(a) - 1e-9 and zeros[-1] <= float(b) + 1e-9


def reference_moment_quadrature(dens, n, tol=1e-10):
    """``moment_quadrature`` by scipy's adaptive quadrature throughout: the
    cosine map for exponents in {-1/2, 0, 1/2, 1, ...}, else one power map
    per endpoint."""
    from scipy.integrate import quad

    ea, eb = dens.left_exponent, dens.right_exponent
    a, b = dens.a, dens.b

    def f(x):
        return dens.weight(x) * x ** n

    def halfish(e):
        return abs(2 * e - round(2 * e)) < 1e-12 and e >= -0.5

    if halfish(ea) and halfish(eb):
        c, h = (a + b) / 2, (b - a) / 2
        return quad(lambda th: f(c - h * math.cos(th)) * h * math.sin(th),
                    0.0, math.pi, epsabs=tol, epsrel=1e-11, limit=200)[0]
    mid = (a + b) / 2
    total = 0.0
    for end, e, sign in ((a, ea, 1), (b, eb, -1)):
        if e < 0:
            p = 1 / (1 + e)
            top = abs(mid - end) ** (1 / p)
            total += quad(lambda u: f(end + sign * u ** p) * p * u ** (p - 1),
                          0.0, top, epsabs=tol / 2, epsrel=1e-11, limit=200)[0]
        else:
            lo, hi = (end, mid) if sign > 0 else (mid, end)
            total += quad(f, lo, hi, epsabs=tol / 2, epsrel=1e-11, limit=200)[0]
    return total


def _sqrt0(v: float) -> float:
    """sqrt clipped at zero; guards roundoff just inside the endpoints."""
    return math.sqrt(v) if v > 0.0 else 0.0


_SQRT2 = math.sqrt(2.0)

#: The five catalog weights as closed-form float functions of x, each with
#: the float ends (a, b) it uses: delannoy's 3.0 - 2.0 * _SQRT2 lies 7 ulps
#: below the double nearest 3 - 2 sqrt 2.
REFERENCE_WEIGHTS = {
    "catalan": (0.0, 4.0,
                lambda x: _sqrt0((4.0 - x) / x) / (2.0 * math.pi) if x > 0 else 0.0),
    "central_binomial": (0.0, 4.0,
                         lambda x: 1.0 / (math.pi * _sqrt0(x * (4.0 - x)))
                         if 0 < x < 4 else math.inf),
    "motzkin": (-1.0, 3.0,
                lambda x: _sqrt0((3.0 - x) * (1.0 + x)) / (2.0 * math.pi)),
    "central_trinomial": (-1.0, 3.0,
                          lambda x: 1.0 / (math.pi * _sqrt0((3.0 - x) * (1.0 + x)))
                          if -1 < x < 3 else math.inf),
    "delannoy": (3.0 - 2.0 * _SQRT2, 3.0 + 2.0 * _SQRT2,
                 lambda x: 1.0 / (math.pi * _sqrt0((3.0 + 2.0 * _SQRT2 - x)
                                                   * (x - 3.0 + 2.0 * _SQRT2)))
                 if 3.0 - 2.0 * _SQRT2 < x < 3.0 + 2.0 * _SQRT2 else math.inf),
}
