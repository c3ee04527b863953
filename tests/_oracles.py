"""Independent oracles the tests check the library against.

Each oracle deliberately avoids the code path it validates: binomial
coefficients come from the additive Pascal recurrence rather than any
gamma function, p-values from exact rational summation, marginal
likelihoods from adaptive quadrature rather than the closed beta form, the
exact order of the ratio statistics from rationals built on factorials
rather than binomial coefficients, incomplete betas from binomial tail
sums, and Kendall tau-b from a sign for every
pair rather than a merge sort.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from scipy import integrate
from scipy.optimize import bisect


def pascal_row(n: int) -> list[int]:
    """Row n of Pascal's triangle by the additive recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def p_value_fraction(n: int, k: int) -> Fraction:
    """Exact two-sided p-value under a fair coin as a rational number."""
    row = pascal_row(n)
    dist = abs(2 * k - n)
    total = sum(c for j, c in enumerate(row) if abs(2 * j - n) >= dist)
    return Fraction(total, 2**n)


def beta_fraction(x: int, y: int) -> Fraction:
    """The Beta integral B(x, y) = (x-1)! (y-1)! / (x+y-1)! for integers x, y >= 1."""
    return Fraction(math.factorial(x - 1) * math.factorial(y - 1), math.factorial(x + y - 1))


def incomplete_beta_fraction(x: float, a: int, b: int) -> Fraction:
    """I_x(a, b) for integer shapes as P(Bin(a+b-1, x) >= a), summed exactly
    (a double x is a rational)."""
    t, q = x.as_integer_ratio()
    m = a + b - 1

    def mass(js: range) -> int:
        return sum(math.comb(m, j) * t**j * (q - t) ** (m - j) for j in js)

    if a <= b:  # the shorter sum, below a
        return 1 - Fraction(mass(range(a)), q**m)
    return Fraction(mass(range(a, m + 1)), q**m)


def log_fraction(value: Fraction) -> float:
    """ln of a positive rational at 60 digits, so it never underflows."""
    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.mpf(value.numerator) / value.denominator))


def bf_fraction(n: int, k: int, theta0: float, a: int = 1, b: int = 1) -> Fraction:
    """Bayes factor of a Beta(a, b) prior on (0, 1) against the point theta0,
    exactly (a double theta0 is a rational)."""
    theta = Fraction(theta0)
    point = theta**k * (1 - theta) ** (n - k)
    return beta_fraction(k + a, n - k + b) / beta_fraction(a, b) / point


def slr_fraction(n: int, k: int, theta1: float, theta2: float) -> Fraction:
    """Simple likelihood ratio of theta1 against theta2, exactly."""
    t1, t2 = Fraction(theta1), Fraction(theta2)
    return (t1 / t2) ** k * ((1 - t1) / (1 - t2)) ** (n - k)


def mlr_fraction(n: int, k: int, theta0: float) -> Fraction:
    """Maximum likelihood ratio against theta0, exactly (0**0 = 1)."""
    return slr_fraction(n, k, Fraction(k, n), theta0)


def _log_lik(n: float, k: float, theta: float) -> float:
    out = 0.0
    if k > 0:
        out += k * math.log(theta)
    if n - k > 0:
        out += (n - k) * math.log(1.0 - theta)
    return out


def quad_log_bf(
    n: float,
    k: float,
    support: tuple[float, float],
    theta0: float,
    a: float = 1.0,
    b: float = 1.0,
) -> float:
    """Log Bayes factor by adaptive quadrature of the marginal likelihood.

    The integrand is rescaled by the likelihood peak inside the support so
    the quadrature works on O(1) values even for concentrated likelihoods.
    """
    lo, hi = support
    y = k / n if n > 0 else 0.5
    t_star = min(max(y, lo + 1e-9, 1e-9), hi - 1e-9, 1.0 - 1e-9)
    peak = _log_lik(n, k, t_star)

    def integrand(t: float) -> float:
        return math.exp(_log_lik(n, k, t) - peak) * t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)

    def prior_density(t: float) -> float:
        return t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)

    numerator, _ = integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    prior_mass, _ = integrate.quad(prior_density, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    log_marginal = peak + math.log(numerator / prior_mass)
    return log_marginal - _log_lik(n, k, theta0)


def quad_trp(
    n: float,
    support: tuple[float, float],
    theta0: float,
    y_lo: float,
    y_hi: float,
) -> float:
    """Transition point by bisection of the quadrature-oracle log Bayes factor."""
    return bisect(
        lambda y: quad_log_bf(n, y * n, support, theta0), y_lo, y_hi, xtol=1e-12
    )


def sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def pair_signs(values: list[float]) -> list[int]:
    """The order sign of every pair i < j, in lexicographic order."""
    m = len(values)
    return [sign(values[i] - values[j]) for i in range(m) for j in range(i + 1, m)]


def tau_b(pair_signs_x: list[int], pair_signs_y: list[int]) -> float:
    """Kendall tau-b from per-pair order signs (0 marks a tie)."""
    concordant = discordant = ties_x = ties_y = 0
    for sx, sy in zip(pair_signs_x, pair_signs_y):
        if sx == 0:
            ties_x += 1
        if sy == 0:
            ties_y += 1
        if sx == 0 or sy == 0:
            continue
        if sx == sy:
            concordant += 1
        else:
            discordant += 1
    total = len(pair_signs_x)
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        return math.nan
    return (concordant - discordant) / denom


def discordant_count(pair_signs_x: list[int], pair_signs_y: list[int]) -> int:
    """Pairs ordered strictly one way by x and strictly the other by y."""
    return sum(sx * sy < 0 for sx, sy in zip(pair_signs_x, pair_signs_y))
