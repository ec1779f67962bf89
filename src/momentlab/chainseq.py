"""Chain sequences and support certificates for eventually-constant data.

A sequence (a_n) is a chain sequence when a_n = (1 - g_n) g_{n+1} for
some parameters with g_0 in [0, 1) and all later g_n in [0, 1).  The
constructive decision procedure runs the minimal parameter sequence
(g_0 = 0, g_{n+1} = a_n / (1 - g_n)): a chain sequence exists exactly
when these stay inside [0, 1).

For the quadruple (p, s; q, t) with q, t > 0 the candidate support
interval of the representing measure is [s - 2 sqrt(t), s + 2 sqrt(t)].
At either endpoint x the ratio sequence

    alpha_n(x) = t_{n+1} / ((s_n - x)(s_{n+1} - x))

is the constant 1/4 from n = 1 on, so the whole chain has a closed form
(Wall 1948): with g_1 = alpha_0(x) and e_n = 1/2 - g_n, the minimal
parameters obey 1/e_{n+1} = 1/e_n + 2.  Once g_1 <= 1/2 every later
parameter stays inside [1/4, 1/2]; once g_1 > 1/2 the parameters grow
strictly and first reach 1 at n* = ceil(1/(2 g_1 - 1)).  Certificates
run the exact recursion only over the head they print and decide the
rest from g_1, entirely in Q(sqrt(t)).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from ._record import Record
from .errors import HypothesisFailure, LengthMismatch, PoleAt, ZeroTau
from .exact import _require_int, ensure_fraction, format_rational, is_exact, sqrt_exact
from .orthopoly import true_interval_estimate
from .seqcore import SigmaTauSpec

__all__ = [
    "ChainVerdict",
    "TailCertificate",
    "SupportCertificate",
    "SupportReport",
    "alpha_sequence",
    "minimal_parameters",
    "is_chain_with_parameters",
    "constant_tail_certificate",
    "support_interval",
    "certify_support",
]

#: How many minimal parameters, g_0 .. g_7, a ChainVerdict prints.
_HEAD = 8


def alpha_sequence(spec: SigmaTauSpec, x, n_max: int):
    """alpha_0 .. alpha_{n_max} at the point x.

    x must be exact (an int, Fraction or Surd); anything else, such as a
    float, raises TypeError.  Raises PoleAt(n) when x collides with some s_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not is_exact(x):
        raise TypeError(f"alpha_sequence needs an exact point, got {x!r}")
    out = []
    diffs = []
    for n in range(n_max + 2):
        d = spec.sigma(n) - x
        if d == 0:
            raise PoleAt(n)
        diffs.append(d)
    for n in range(n_max + 1):
        out.append(spec.tau(n + 1) / (diffs[n] * diffs[n + 1]))
    return out


class ChainVerdict(Record):
    """Result of running the minimal parameter recursion.

    ``is_chain_up_to`` is the largest index n such that a_0 .. a_n were
    consumed with every parameter inside [0, 1); -1 if a_0 already
    failed.  ``failure_index`` is the first offending index, or None.
    ``parameters`` holds g_0, g_1, ... as far as the recursion ran: to the
    failure or the end of the data for :func:`minimal_parameters`, and
    the printed head g_0 .. g_7 at most for :func:`certify_support`.
    """

    is_chain_up_to: int
    parameters: tuple
    failure_index: int = None

    @property
    def ok(self) -> bool:
        return self.failure_index is None

    def to_dict(self) -> dict:
        return {
            "mode": "minimal_parameters",
            "is_chain_up_to": self.is_chain_up_to,
            "failure_index": self.failure_index,
            "parameters_head": [str(g) for g in self.parameters[:_HEAD]],
        }


def minimal_parameters(a, n_max: int = None) -> ChainVerdict:
    """Run g_0 = 0, g_{n+1} = a_n / (1 - g_n) and watch the range.

    The values must be exact scalars (a float raises TypeError), and
    every comparison is exact.  A zero a_n is accepted (its parameter is
    0), which deliberately widens the textbook range (0, 1) for later
    parameters to [0, 1): the all-zero sequence then counts as a chain
    sequence.
    """
    a = list(a)
    if not a:
        raise ValueError("need at least one value")
    if n_max is not None:
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        a = a[:n_max + 1]
    if not all(map(is_exact, a)):
        raise TypeError("chain parameters require exact scalars")
    zero, one = Fraction(0), Fraction(1)
    params = [zero]
    failure = None
    for n, an in enumerate(a):
        denom = one - params[-1]
        if denom <= zero:
            failure = n
            break
        g = an / denom
        if g < zero or g >= one:
            params.append(g)
            failure = n
            break
        params.append(g)
    up_to = (failure - 1) if failure is not None else len(a) - 1
    return ChainVerdict(up_to, tuple(params), failure)


def is_chain_with_parameters(a, g) -> bool:
    """Verify an explicitly proposed parameter sequence.

    Checks 0 <= g_0 < 1, 0 < g_{n+1} < 1 and a_n = (1 - g_n) g_{n+1}
    for every n, all exactly; a float in ``a`` or ``g`` raises TypeError.
    """
    a = list(a)
    g = list(g)
    if len(g) != len(a) + 1:
        raise LengthMismatch(f"need {len(a) + 1} parameters for {len(a)} values")
    if not all(map(is_exact, a + g)):
        raise TypeError("chain checks require exact scalars")
    if not (0 <= g[0] < 1):
        return False
    for gk in g[1:]:
        if not (0 < gk < 1):
            return False
    for n, an in enumerate(a):
        if (1 - g[n]) * g[n + 1] != an:
            return False
    return True


class TailCertificate(Record):
    """Closed-form chain argument for a constant tail.

    For tail value c <= 1/4 the map g -> c / (1 - g) sends [0, g_plus]
    into itself, where g_plus = (1 + sqrt(1 - 4c)) / 2 is its upper
    fixed point; an entry parameter <= g_plus therefore certifies the
    chain condition for the entire infinite tail.  Above g_plus the
    parameters increase strictly and escape [0, 1).
    """

    ok: bool
    tail_value: object
    entry_parameter: object
    bound: object

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "tail_value": str(self.tail_value),
                "entry_parameter": str(self.entry_parameter),
                "bound": str(self.bound)}


def constant_tail_certificate(entry_parameter, tail_value) -> TailCertificate:
    """Decide the infinite constant tail exactly."""
    c = tail_value
    if not is_exact(c) or not is_exact(entry_parameter):
        raise TypeError("tail certificates require exact scalars")
    if c < 0 or entry_parameter < 0 or entry_parameter >= 1:
        return TailCertificate(False, c, entry_parameter, None)
    if c == 0:
        return TailCertificate(True, c, entry_parameter, Fraction(1))
    quarter = Fraction(1, 4)
    if c > quarter:
        return TailCertificate(False, c, entry_parameter, None)
    disc = 1 - 4 * c
    if not isinstance(disc, Fraction):
        raise TypeError("constant tail bounds need a rational tail value")
    g_plus = (1 + sqrt_exact(disc)) / 2
    ok = entry_parameter <= g_plus
    return TailCertificate(bool(ok), c, entry_parameter, g_plus)


class SupportCertificate(Record):
    """The interval [s - 2 sqrt(t), s + 2 sqrt(t)] and its hypotheses.

    ``initial_parameter_ok`` records whether the closed-form head
    parameter g_0 = 1 - q / (sqrt(t) (p - s + 2 sqrt(t))) lands in
    [0, 1); the three printed hypotheses do not imply it, so it is
    tracked separately and the chain run in :func:`certify_support` is
    the final arbiter.
    """

    p: Fraction
    s: Fraction
    q: Fraction
    t: Fraction
    lower: object
    upper: object
    p_above_lower: bool
    q_below_upper: bool
    t_below_upper: bool
    stieltjes_flag: bool
    g0: object = None
    initial_parameter_ok: bool = None

    @property
    def hypotheses_ok(self) -> bool:
        return self.p_above_lower and self.q_below_upper and self.t_below_upper

    def interval_floats(self):
        return float(self.lower), float(self.upper)

    def to_dict(self) -> dict:
        lo, hi = self.interval_floats()
        return {
            "schema": "momentlab/support/v1",
            "p": format_rational(self.p), "s": format_rational(self.s),
            "q": format_rational(self.q), "t": format_rational(self.t),
            "interval": {
                "lower": {"exact": "s-2*sqrt(t)", "approx": lo},
                "upper": {"exact": "s+2*sqrt(t)", "approx": hi},
            },
            "hypotheses": {
                "p_above_lower": self.p_above_lower,
                "q_below_upper": self.q_below_upper,
                "t_below_upper": self.t_below_upper,
            },
            "initial_parameter_ok": self.initial_parameter_ok,
            "stieltjes": self.stieltjes_flag,
            "g0": None if self.g0 is None else str(self.g0),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def support_interval(p, s, q, t, strict: bool = True) -> SupportCertificate:
    """Exact certificate data for the (p, s; q, t) support interval.

    All comparisons against s +/- 2 sqrt(t) are decided in Q(sqrt(t)).
    With ``strict`` (the default) a failing hypothesis raises
    HypothesisFailure naming the offending inequalities; pass
    ``strict=False`` to get the certificate with its False flags.
    """
    p, s, q, t = (ensure_fraction(v) for v in (p, s, q, t))
    if q == 0 or t == 0:
        raise ZeroTau("q and t must be nonzero")
    if q < 0 or t < 0:
        raise ValueError("support certificates need q > 0 and t > 0")
    root = sqrt_exact(t)
    lower = s - 2 * root
    upper = s + 2 * root
    flags = {
        "p > s-2*sqrt(t)": p > lower,
        "q < s+2*sqrt(t)": q < upper,
        "t < s+2*sqrt(t)": t < upper,
    }
    failed = [name for name, ok in flags.items() if not ok]
    if failed and strict:
        raise HypothesisFailure(failed)
    g0 = None
    g0_ok = None
    if p > lower:
        g0 = 1 - q / (root * (p - lower))
        g0_ok = bool(0 <= g0) and bool(g0 < 1)
    return SupportCertificate(
        p=p, s=s, q=q, t=t, lower=lower, upper=upper,
        p_above_lower=flags["p > s-2*sqrt(t)"],
        q_below_upper=flags["q < s+2*sqrt(t)"],
        t_below_upper=flags["t < s+2*sqrt(t)"],
        stieltjes_flag=bool(lower >= 0),
        g0=g0,
        initial_parameter_ok=g0_ok,
    )


class SupportReport(Record):
    """Verification record for one (p, s; q, t) support interval."""

    certificate: SupportCertificate
    n_check: int
    s_bounds_ok: bool
    left_chain: ChainVerdict
    left_tail: TailCertificate
    right_chain: ChainVerdict
    right_tail: TailCertificate
    zeros_interval: tuple
    zeros_ok: bool

    @property
    def passed(self) -> bool:
        return (self.certificate.hypotheses_ok and self.s_bounds_ok
                and self.left_chain.ok and self.left_tail.ok
                and self.right_chain.ok and self.right_tail.ok
                and self.zeros_ok)

    def to_dict(self) -> dict:
        return {
            "schema": "momentlab/support-report/v1",
            "certificate": self.certificate.to_dict(),
            "n_check": self.n_check,
            "s_bounds_ok": self.s_bounds_ok,
            "left_chain": self.left_chain.to_dict(),
            "left_tail": self.left_tail.to_dict(),
            "right_chain": self.right_chain.to_dict(),
            "right_tail": self.right_tail.to_dict(),
            "zeros_interval": list(self.zeros_interval),
            "zeros_ok": self.zeros_ok,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _zero_beyond(p, s, q, t, r, n) -> bool:
    """Whether P_n for (p, s; q, t), q and t > 0, has a zero beyond s + 2r,
    r = +sqrt(t) (above b) or -sqrt(t) (below a).

    P_0 .. P_n is a Sturm sequence, so the zeros beyond the endpoint are the
    sign changes of (r/|r|)^k P_k(s + 2r).  There x - s = 2r is a double root
    of the characteristic polynomial of the constant tail, so for k >= 1
    P_k = r^k (alpha + beta k), with alpha = q/t and beta = (s - p)/r + 2 - q/t
    fitted to P_1 = 2r + s - p and P_2 = 2r P_1 - q.  The affine factor is
    positive at k = 0 like P_0, so there is one sign change, and one zero,
    exactly when it is negative at k = n.
    """
    return q / t + n * ((s - p) / r + 2 - q / t) < 0


#: The degree n whose zeros certify_support locates: ``zeros_ok`` decides
#: that the zeros of P_n lie in [a, b].
_ZEROS_ORDER = 50


def certify_support(spec: SigmaTauSpec, n_check: int = 200) -> SupportReport:
    """Certify [s - 2 sqrt(t), s + 2 sqrt(t)] for a shorthand spec.

    Decides the chain condition at both endpoints for a_0 .. a_N,
    N = max(``n_check``, 2): the exact recursion runs over the printed head
    only, the first escape comes from the closed form in g_1 (see the
    module docstring), and the constant-1/4 argument closes the infinite
    tail.  It also verifies s_n stays strictly between the endpoints, and
    decides exactly that the zeros of P_n, n = ``_ZEROS_ORDER``, lie in
    [a, b]: P_0 .. P_n is a Sturm sequence, so the sign changes of P_k(b)
    and (-1)^k P_k(a) count the zeros above b and below a; the constant tail
    gives both counts in closed form (``zeros_interval`` is for display).
    When p = b, alpha_0 has a pole there, and that endpoint's chain is
    reported failed at 0.
    """
    _require_int("n_check", n_check)
    if n_check < 0:
        raise ValueError("n_check must be >= 0")
    short = spec.shorthand
    if short is None:
        raise ValueError("support certification needs (p, s; q, t) shorthand data")
    p, s, q, t = short
    cert = support_interval(p, s, q, t)
    a, b = cert.lower, cert.upper

    # eventually-constant sigma takes only the values p and s
    s_bounds_ok = all(bool(v > a) and bool(v < b) for v in (p, s))

    last = max(n_check, 2)

    def chain_side(x):
        failed_tail = TailCertificate(False, Fraction(1, 4), None, None)
        try:
            alphas = alpha_sequence(spec, x, min(last, _HEAD - 2))
        except PoleAt:  # p = x: alpha_0 is undefined, so the chain fails at 0
            return ChainVerdict(-1, (Fraction(0),), 0), failed_tail
        head = minimal_parameters(alphas)
        if not head.ok:
            return head, failed_tail
        g1 = head.parameters[1]  # alphas has >= 3 terms, so g_1 exists
        if g1 > Fraction(1, 2):
            failure = math.ceil(1 / (2 * g1 - 1)) - 1
            if failure <= last:
                return ChainVerdict(failure - 1, head.parameters, failure), failed_tail
        return (ChainVerdict(last, head.parameters),
                constant_tail_certificate(g1, alphas[1]))

    left_chain, left_tail = chain_side(a)
    right_chain, right_tail = chain_side(b)

    root = sqrt_exact(t)
    zeros_ok = not (_zero_beyond(p, s, q, t, root, _ZEROS_ORDER)
                    or _zero_beyond(p, s, q, t, -root, _ZEROS_ORDER))
    lo, hi = true_interval_estimate(spec, _ZEROS_ORDER)

    return SupportReport(
        certificate=cert,
        n_check=n_check,
        s_bounds_ok=s_bounds_ok,
        left_chain=left_chain,
        left_tail=left_tail,
        right_chain=right_chain,
        right_tail=right_tail,
        zeros_interval=(lo, hi),
        zeros_ok=zeros_ok,
    )
