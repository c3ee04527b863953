"""Self-contained special functions and bracketed root-finding.

Everything operates in natural-log space so that binomial likelihoods stay
finite for large trial counts. No third-party dependencies: log-gamma is
``math.lgamma``, and the regularized incomplete beta is the standard continued
fraction evaluated with the modified Lentz algorithm. Binomial and beta
densities are taken in the deviance form of Loader, "Fast and Accurate
Computation of Binomial Probabilities" (2000), whose terms stay near the size
of the result, so no sum of log-gammas near 1e8 in size is rounded and then
cancelled.
"""

from __future__ import annotations

import math
import sys
from typing import Callable


class InvalidBracketError(ValueError):
    """The endpoints of a root bracket do not have strictly opposite signs."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within its iteration cap."""


# Continued-fraction controls for the incomplete beta function. The iteration
# cap is this floor plus sqrt(max(a, b)); the count needed near x = a/(a+b)
# grows only about like the cube root of the shapes (889 at a = b = 5e6).
# _BETACF_MAX_ITER (about a second of work) bounds the cap, which the count
# needed near the mean reaches only past shapes of about 1e16.
_BETACF_MIN_ITER = 300
_BETACF_MAX_ITER = 2**20
_BETACF_EPS = 1e-15
_BETACF_TINY = 1e-300
# ln 2**-26: an I_x below it, taken as 1 minus its complement, keeps at most
# half the digits of a double.
_HALF_LOG_EPS = 0.5 * math.log(sys.float_info.epsilon)
_DBL_MIN = sys.float_info.min  # the smallest normal double
# find_root's bracket tolerance on the argument, and the largest |f| that it
# accepts at a root before the bracket reaches adjacent doubles.
DEFAULT_TOL = 1e-12
RESIDUAL_LIMIT = 1e-8


# ln n! - ln(sqrt(2 pi n) (n/e)^n) at n = 1/2, 1, 3/2, ..., 15 (Loader 2000).
_STIRLERR_HALVES = dict(zip([j / 2 for j in range(1, 31)], (
    0.15342640972002736, 0.08106146679532726, 0.05481412105191765,
    0.0413406959554093, 0.03316287351993629, 0.02767792568499834,
    0.023746163656297496, 0.020790672103765093, 0.018488450532673187,
    0.016644691189821193, 0.015134973221917378, 0.013876128823070748,
    0.012810465242920227, 0.01189670994589177, 0.011104559758206917,
    0.010411265261972096, 0.009799416126158804, 0.009255462182712733,
    0.008768700134139386, 0.00833056343336287, 0.00793411456431402,
    0.007573675487951841, 0.007244554301320383, 0.00694284010720953,
    0.006665247032707682, 0.006408994188004207, 0.006171712263039458,
    0.0059513701127588475, 0.0057462165130101155, 0.005554733551962801,
)))
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: float) -> float:
    """The error of Stirling's formula, ln Gamma(n+1) - (n + 1/2) ln n + n -
    ln sqrt(2 pi), for n > 0: Loader's table on half-integers up to 15, his
    series in 1/n above that, and log-gamma directly elsewhere."""
    if n <= 15.0:
        tabled = _STIRLERR_HALVES.get(n)
        if tabled is not None:
            return tabled
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = n * n
    if n > 500.0:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80.0:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35.0:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _log_ratio(a: float, b: float) -> float:
    """ln(a/b) for a, b > 0: the log of the quotient where it is a normal
    double, and ln a - ln b where it underflows or overflows."""
    ratio = a / b
    if _DBL_MIN <= ratio < math.inf:
        return math.log(ratio)
    return math.log(a) - math.log(b)


def _log_quotient(a: float, b: float, a_minus_b: float) -> float:
    """ln(a/b) for a, b in (0, 1], given a - b as taken from the thetas that a
    and b were formed from: log1p((a-b)/b) where the quotient lies in
    [0.5, 2], so that neither a quotient near 1 nor a complement 1 - t that
    rounds away a tiny t loses digits (t = 1e-300 against 5e-324);
    _log_ratio(a, b) elsewhere, where the log is at least ln 2 in size. It is
    0.0 only where a - b is 0."""
    if 0.5 <= a / b <= 2.0:
        return math.log1p(a_minus_b / b)
    return _log_ratio(a, b)


def _bd0(x: float, n: float, p: float) -> float:
    """x ln(x/m) + m - x at m = n p, the deviance term of Loader (2000), for
    x >= 0, n > 0 and p in (0, 1).

    Near x = m the two parts cancel, so there the value is summed instead as
    (x-m)^2/(x+m) + 2x sum_j v^(2j+1)/(2j+1), v = (x-m)/(x+m), whose terms
    all have one sign. It is exactly 0.0 when x equals m. No part
    overflows before the value does: the series runs only where x + m is
    finite and forms 2vx with |2v| < 1, and elsewhere m - x is added last.
    x/m is taken as x/n/p, which stays finite where n p underflows to 0,
    and as ln x - ln n - ln p where x/n/p itself leaves the normal range.
    """
    m = n * p
    if abs(x - m) < 0.1 * (x + m) < math.inf:
        v = (x - m) / (x + m)
        s, term, v2, j = (x - m) * v, 2.0 * v * x, v * v, 3.0
        while True:
            term *= v2
            if (grown := s + term / j) == s:
                return s
            s, j = grown, j + 2.0
    ratio = x / n / p
    if _DBL_MIN <= ratio < math.inf:
        return x * math.log(ratio) + (m - x)
    if x == 0.0:  # 0 ln 0 = 0
        return m
    return x * ((math.log(x) - math.log(n)) - math.log(p)) + (m - x)


def _log_beta_front(x: float, a: float, b: float) -> float:
    """ln[x^a (1-x)^b / B(a, b)] for x in (0, 1) and a, b > 0, in Loader's
    deviance form: ab/(a+b) times the binomial mass of a in a + b trials at x
    (TOMS 708's brcomp takes it the same way). The a and b terms are added
    to each other before anything else, so at x = 1/2 swapping a with b gives
    the same double."""
    n = a + b
    return (
        _stirlerr(n) - (_stirlerr(a) + _stirlerr(b))
        - (_bd0(a, n, x) + _bd0(b, n, 1.0 - x))
        + (0.5 * ((math.log(a) + math.log(b)) - math.log(n)) - _LN_SQRT_2PI)
    )


def _log1mexp(t: float) -> float:
    """ln(1 - e^t) for t <= 0, by expm1 near 0 and log1p elsewhere (Maechler
    2012). -inf for t >= 0, where rounding has pushed the log of a
    probability near 1 up to 0 or past it."""
    if t >= 0.0:
        return -math.inf
    if t > -math.log(2.0):
        return math.log(-math.expm1(t))
    return math.log1p(-math.exp(t))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """ln(h / a) for the continued fraction h of the incomplete beta, modified Lentz algorithm."""
    max_iter = min(_BETACF_MIN_ITER + int(math.sqrt(max(a, b))), _BETACF_MAX_ITER)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _BETACF_TINY:
                d = _BETACF_TINY
            c = 1.0 + aa / c
            if abs(c) < _BETACF_TINY:
                c = _BETACF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        converged = abs(delta - 1.0) < _BETACF_EPS
        # overflowed terms, which no later step can mend, or steps that settle on
        # a negative h: at x on the switch point with huge shapes, rounding
        # cancels the first term to a sign it should not have
        if not 0.0 < abs(h) < math.inf or (converged and h < 0.0):
            raise ConvergenceError(
                f"incomplete beta continued fraction did not converge for "
                f"a={a}, b={b}, x={x}: its convergent is {h} at iteration {m}"
            )
        if converged:
            return _log_ratio(h, a)
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x} within {max_iter} iterations"
    )


def regularized_incomplete_beta(x: float, a: float, b: float, log: bool = False) -> float:
    """Regularized incomplete beta function I_x(a, b), or ln I_x(a, b) with log=True.

    Evaluated through the continued fraction, using the symmetry
    I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the rapidly converging regime.
    Where that complement leaves I_x below 2**-26 (a tiny shape b), it has
    lost half the digits or rounded to 0, and the direct fraction is taken
    instead if it converges. The prefactor x^a (1-x)^b / B(a, b) is kept as
    a log in deviance form, so with log=True the value stays finite where
    I_x underflows.
    """
    if not (a > 0.0 and b > 0.0 and a + b < math.inf):
        raise ValueError(f"incomplete beta requires positive shapes with a finite sum, "
                         f"got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"incomplete beta requires x in [0,1], got x={x}")
    if x == 0.0:
        return -math.inf if log else 0.0
    if x == 1.0:
        return 0.0 if log else 1.0
    log_front = _log_beta_front(x, a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        log_value = log_front + _beta_continued_fraction(a, b, x)
    else:  # from ln(1 - I)
        log_value = _log1mexp(log_front + _beta_continued_fraction(b, a, 1.0 - x))
        if log_value < _HALF_LOG_EPS:
            try:
                log_value = log_front + _beta_continued_fraction(a, b, x)
            except ConvergenceError:
                pass
    return log_value if log else math.exp(log_value)


def find_root(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """Locate a zero of f inside the bracket [lo, hi] by plain bisection.

    The ends must be finite, and f must take values of strictly opposite
    sign at them; a nan of f inside the bracket is a ValueError naming x.
    Deterministic: no randomized or derivative-based steps. Returns (x,
    f(x), width): the first bracket midpoint where the bracket is no wider
    than DEFAULT_TOL and |f| is at most RESIDUAL_LIMIT, an exact zero of f
    (width 0), or, once no double lies strictly between the ends, the end
    their midpoint rounds to. Each step halves the bracket, so it always
    terminates.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"bracket requires finite lo < hi, got [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise InvalidBracketError(
            f"f must have strictly opposite signs at the bracket endpoints: "
            f"f({lo})={f_lo}, f({hi})={f_hi}"
        )
    # halved before the sum, which would overflow past half the largest double
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:  # false once lo and hi are adjacent doubles
        f_mid = f(mid)
        if hi - lo <= DEFAULT_TOL and abs(f_mid) <= RESIDUAL_LIMIT:
            return mid, f_mid, hi - lo
        if f_mid == 0.0:
            return mid, 0.0, 0.0
        if math.isnan(f_mid):
            raise ValueError(f"f is nan at x={mid!r}")
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return (lo, f_lo, hi - lo) if mid == lo else (hi, f_hi, hi - lo)


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """num evenly spaced points from lo to hi inclusive."""
    if num < 1:
        raise ValueError(f"linspace requires num >= 1, got {num}")
    if num == 1:
        return [lo]
    if not math.isfinite(hi - lo):
        raise ValueError(f"the width of [{lo:g}, {hi:g}] overflows a double")
    step = (hi - lo) / (num - 1)
    pts = [lo + i * step for i in range(num)]
    pts[-1] = hi
    return pts
