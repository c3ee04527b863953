"""Self-contained special functions and bracketed root-finding.

Everything operates in natural-log space so that binomial likelihoods stay
finite for large trial counts. No third-party dependencies: the gamma
function uses a Lanczos approximation with a fixed published coefficient
set, and the regularized incomplete beta uses the standard continued
fraction evaluated with the modified Lentz algorithm.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple


class InvalidBracketError(ValueError):
    """The endpoints of a root bracket do not have strictly opposite signs."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within its iteration cap."""


# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficient set,
# as used by e.g. Apache Commons Math). Double-precision accurate for the
# log-gamma function over the positive reals.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Continued-fraction controls for the incomplete beta function. The iteration
# cap is this floor plus sqrt(max(a, b)); the count needed near x = a/(a+b)
# grows only about like the cube root of the shapes (889 at a = b = 5e6).
_BETACF_MIN_ITER = 300
_BETACF_EPS = 1e-15
_BETACF_TINY = 1e-300


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Raises ValueError for x <= 0.
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    series = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        series += _LANCZOS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return (x + 0.5) * math.log(t) - t + _HALF_LOG_TWO_PI + math.log(series / x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_beta requires positive arguments, got a={a}, b={b}")
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_binomial_coeff(n: float, k: float) -> float:
    """ln C(n, k), extended to real n and k via the gamma function.

    Requires 0 <= k <= n. Agrees with the exact integer coefficients for
    integer inputs.
    """
    if k < 0.0 or k > n:
        raise ValueError(f"log_binomial_coeff requires 0 <= k <= n, got n={n}, k={k}")
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz algorithm."""
    max_iter = _BETACF_MIN_ITER + int(math.sqrt(max(a, b)))
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
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x} within {max_iter} iterations"
    )


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Evaluated through the continued fraction, using the symmetry
    I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the rapidly converging regime.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"incomplete beta requires positive shapes, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"incomplete beta requires x in [0,1], got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log(1.0 - x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


class _RootBracket(NamedTuple):
    lo: float
    hi: float
    tol: float
    max_iter: int


class RootBracket(_RootBracket):
    """A sign-change interval [lo, hi] for bisection.

    tol is the absolute tolerance on the argument; the target function
    must take values of strictly opposite sign at lo and hi (checked by
    find_root).
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200):
        if not lo < hi:
            raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
        if not tol > 0.0:
            raise ValueError(f"bracket tolerance must be positive, got {tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        return tuple.__new__(cls, (lo, hi, tol, max_iter))


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Locate a zero of f inside the bracket by plain bisection.

    Deterministic: no randomized or derivative-based steps. Returns the
    bracket midpoint once the bracket width has shrunk to bracket.tol, or
    an exact zero of f if one is hit along the way.
    """
    lo, hi = bracket.lo, bracket.hi
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) == (f_hi < 0.0):
        raise InvalidBracketError(
            f"f must have strictly opposite signs at the bracket endpoints: "
            f"f({lo})={f_lo}, f({hi})={f_hi}"
        )
    for _ in range(bracket.max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= bracket.tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisection did not reach width {bracket.tol} within "
        f"{bracket.max_iter} iterations (final width {hi - lo})"
    )


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """num evenly spaced points from lo to hi inclusive."""
    if num < 1:
        raise ValueError(f"linspace requires num >= 1, got {num}")
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    pts = [lo + i * step for i in range(num)]
    pts[-1] = hi
    return pts
