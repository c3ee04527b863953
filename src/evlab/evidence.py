"""Evidence statistics for binomial data.

Implements the p-value (and -log P), maximum likelihood ratio, simple
likelihood ratio, and Bayes factor families against point and composite
hypotheses about the success probability of a binomial model. All log
values are natural logs; display-base conversion is a presentation concern
handled by the command-line layer.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Union

from .numerics import (
    _bd0,
    _log1mexp,
    _log_beta_front,
    _log_quotient,
    regularized_incomplete_beta,
)

EXACT = "exact"
CONTINUOUS = "continuous"
MODES = (EXACT, CONTINUOUS)

# Statistic identifiers, as spelled on the command line.
EVIDENCE_KINDS = (
    "pvalue",
    "neglogp",
    "mlr",
    "logmlr",
    "slr",
    "logslr",
    "bf",
    "logbf",
    "abslogbf",
)
# Kinds whose value lives on a log scale (subject to display-base rescaling).
LOG_SCALE_KINDS = frozenset({"neglogp", "logmlr", "logslr", "logbf", "abslogbf"})
# Each ratio kind is exp of a log kind.
RATIO_LOG_KINDS = {"mlr": "logmlr", "slr": "logslr", "bf": "logbf"}
# The kinds that compare two point hypotheses, and those that weigh the
# alternative by a prior (a Bayes factor).
SLR_KINDS = ("slr", "logslr")
BF_KINDS = ("bf", "logbf", "abslogbf")


class DegeneratePriorError(ValueError):
    """A composite prior or posterior whose mass on its support is zero to
    double precision: the logs of I_U and I_L round to the same double."""


class _BinomialOutcome(NamedTuple):
    n: float
    k: float
    mode: str


class BinomialOutcome(_BinomialOutcome):
    """Observed binomial data: k successes in n trials.

    In "exact" mode n and k must be integers. "continuous" mode relaxes
    both to nonnegative reals (the likelihood is extended through the
    gamma function), which is what the transition-point machinery uses to
    move along n smoothly.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, n: float, k: float, mode: str = EXACT):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0 <= n < math.inf:
            raise ValueError(f"trial count must be nonnegative, got n={n}")
        if not 0 <= k <= n:
            raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
        if mode == EXACT:
            if not (float(n).is_integer() and float(k).is_integer()):
                raise ValueError(
                    f"exact mode requires integer n and k, got n={n}, k={k}"
                )
        return tuple.__new__(cls, (n, k, mode))


class _PointHypothesis(NamedTuple):
    theta0: float


class PointHypothesis(_PointHypothesis):
    """A fully specified success probability, strictly inside (0, 1)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, theta0: float):
        if not 0.0 < theta0 < 1.0:
            raise ValueError(f"point hypothesis requires theta0 in (0,1), got {theta0}")
        return tuple.__new__(cls, (theta0,))


class _CompositeHypothesis(NamedTuple):
    support: tuple[float, float]
    a: float
    b: float


class CompositeHypothesis(_CompositeHypothesis):
    """An interval of success probabilities with a Beta(a, b) prior.

    The prior is the Beta(a, b) density truncated to `support` and
    renormalized, so it integrates to one over the support by construction.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(
        cls, support: tuple[float, float] = (0.0, 1.0), a: float = 1.0, b: float = 1.0
    ):
        lo, hi = support
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(
                f"support must be a positive-width subinterval of [0,1], got {support}"
            )
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"prior shapes must be positive and finite, got a={a}, b={b}")
        return tuple.__new__(cls, (support, a, b))


Hypothesis = Union[PointHypothesis, CompositeHypothesis]


class EvidenceValue(NamedTuple):
    """A named statistic value."""

    kind: str
    value: float


def _two_sided_count(data: BinomialOutcome, null: PointHypothesis) -> tuple[int, int]:
    """(n, c): the two-sided p-value is exactly c / 2**n; (0, 1) where k = n/2,
    so that 2**n is not built for a p-value of 1."""
    if null.theta0 != 0.5:
        raise ValueError(
            f"two-sided p-value is only defined here for theta0 = 1/2, got {null.theta0}"
        )
    if data.mode != EXACT:
        raise ValueError("p-value requires exact mode (integer n and k)")
    n = int(data.n)
    k = int(data.k)
    if n < 1:
        raise ValueError(f"p-value requires n >= 1, got n={n}")
    low = min(k, n - k)
    if 2 * low == n:
        return 0, 1
    # One tail by the ratio C(n, j+1) = C(n, j) (n-j) / (j+1); the other mirrors it.
    tail, term = 0, 1
    for j in range(low + 1):
        tail += term
        term = term * (n - j) // (j + 1)
    return n, 2 * tail


def _over_power_of_two(n: int, count: int) -> float:
    """count / 2**n, rounded once. 0.0, without building 2**n, where the
    quotient is below 2**-1075, half the smallest subnormal double."""
    if n - count.bit_length() >= 1075:
        return 0.0
    return count / 2**n


def p_value_two_sided(data: BinomialOutcome, null: PointHypothesis) -> float:
    """Exact two-sided p-value P(|K - n/2| >= |k - n/2|) under Binomial(n, 1/2).

    Only the symmetric null theta0 = 1/2 is supported; for an asymmetric
    null there are several competing two-sided conventions, and none is
    silently adopted here. Summation is carried out in exact integer
    arithmetic, so the result is 1.0 exactly whenever k = n/2.
    """
    return _over_power_of_two(*_two_sided_count(data, null))


def neg_log_p(data: BinomialOutcome, null: PointHypothesis) -> float:
    """-ln of the two-sided p-value; exactly 0.0 when p = 1.

    Where p is below the smallest normal double (or underflows to 0.0) the
    value is n ln 2 - ln c, taken on the exact integer count c, so it keeps
    full precision and stays finite for every n.
    """
    n, count = _two_sided_count(data, null)
    p = _over_power_of_two(n, count)
    if p == 1.0:
        return 0.0
    if p < sys.float_info.min:
        return n * math.log(2.0) - math.log(count)
    return -math.log(p)


def log_mlr(data: BinomialOutcome, null: PointHypothesis) -> float:
    """Log maximum likelihood ratio of the unrestricted model against a point null.

    The numerator likelihood is maximized at the observed proportion
    y = k/n, so the value is n times the Kullback-Leibler divergence of y
    from theta0, always >= 0 and exactly 0.0 when k equals n theta0. Each
    outcome's share is summed by _bd0, which keeps full relative precision
    near the null; boundary data (k = 0 or k = n) use 0 * ln(0) = 0.
    """
    if data.n <= 0:
        raise ValueError(f"log_mlr requires n > 0, got n={data.n}")
    n, k, theta0 = data.n, data.k, null.theta0
    return _bd0(k, n, theta0) + _bd0(n - k, n, 1.0 - theta0)


def log_slr(data: BinomialOutcome, h1: PointHypothesis, h2: PointHypothesis) -> float:
    """Log simple likelihood ratio between two point hypotheses.

    Equals k ln(theta1/theta2) + (n-k) ln((1-theta1)/(1-theta2)): linear in
    k and in n-k, hence additive across independent batches of tosses. Each
    log stays finite where its ratio leaves the double range; a ValueError
    where the two terms overflow with opposite signs. Where a quotient lies
    in [0.5, 2], its log is log1p of the thetas' difference over the
    denominator, so close thetas keep their digits and a tiny theta, whose
    1 - theta rounds to 1, keeps its second term: k = 0 of n = 10 between
    1e-300 and 5e-324 gives -1e-299, not 0.
    """
    t1, t2 = h1.theta0, h2.theta0
    value = (data.k * _log_quotient(t1, t2, t1 - t2)
             + (data.n - data.k) * _log_quotient(1.0 - t1, 1.0 - t2, t2 - t1))
    if math.isnan(value):
        raise ValueError(f"the log SLR's two terms overflow with opposite signs at n={data.n}, "
                         f"k={data.k}, theta1={t1}, theta2={t2}")
    return value


def _log_truncated_beta_mass(a: float, b: float, lo: float, hi: float) -> float:
    """ln(I_hi(a, b) - I_lo(a, b)), the Beta(a, b) probability of [lo, hi].

    Taken from the logs of the two ends as lu + ln(1 - exp(ll - lu)), so it
    stays finite where the probability underflows. An interval above the
    mean a/(a+b) is measured in the mirrored upper tail, I_{1-lo}(b, a) -
    I_{1-hi}(b, a), where 1 - I_lo(a, b) would cancel. DegeneratePriorError
    where the two ends' logs round to the same double.
    """
    if lo > a / (a + b):
        upper = regularized_incomplete_beta(1.0 - lo, b, a, log=True)
        lower = regularized_incomplete_beta(1.0 - hi, b, a, log=True)
    else:
        upper = regularized_incomplete_beta(hi, a, b, log=True)
        lower = regularized_incomplete_beta(lo, a, b, log=True)
    if not lower < upper:
        raise DegeneratePriorError(
            f"Beta({a}, {b}) mass on [{lo}, {hi}] is zero to double precision"
        )
    return upper + _log1mexp(lower - upper)


# The exact path's cost grows with its integers' size: at this budget (n <= 511
# at 1/2 under a uniform prior) it is up to about 4x the float path's.
_EXACT_BF_BITS = 1024


def _exact_log_bf(data: BinomialOutcome, h1: CompositeHypothesis, theta0: float) -> float | None:
    """ln BF rounded once from the exact rational, so equal BFs give equal doubles. None
    unless exact data meet integer prior shapes on (0, 1) and the integers fit the budget."""
    (lo, hi), a, b = h1
    t, q = theta0.as_integer_ratio()  # q is a power of two
    if not (data.mode == EXACT and (lo, hi) == (0.0, 1.0) and a % 1 == b % 1 == 0
            and data.n * q.bit_length() + a + b <= _EXACT_BF_BITS):  # bounds den's bits
        return None
    n, k, a, b = int(data.n), int(data.k), int(a), int(b)
    # B(x, y) = 1 / ((x+y-1) C(x+y-2, x-1)) for integers x, y >= 1
    num = (a + b - 1) * math.comb(a + b - 2, a - 1) * q**n
    den = (n + a + b - 1) * math.comb(n + a + b - 2, k + a - 1) * t**k * (q - t) ** (n - k)
    # A normal double: e^-488.8 <= B(k+a, n-k+b) / B(a, b) <= BF <= q^n <= 2^1021 here.
    return math.log(num / den)  # int division rounds once


def log_bf(data: BinomialOutcome, h1: Hypothesis, h2: PointHypothesis) -> float:
    """Log Bayes factor of h1 against the point hypothesis h2.

    For composite h1 with a truncated Beta(a, b) prior on [L, U], the
    marginal likelihood has the closed form

        B(k+a, n-k+b) * [I_U(k+a, n-k+b) - I_L(k+a, n-k+b)]
        ---------------------------------------------------
        B(a, b)       * [I_U(a, b)       - I_L(a, b)]

    (binomial coefficients cancel against the denominator likelihood).
    It is taken as the ratio of the truncated prior and posterior densities
    at theta0, each a deviance-form front over its mass ln(I_U - I_L), so
    the value stays finite where either mass underflows a double.
    When h1 is itself a point hypothesis there are no free parameters to
    average over and the Bayes factor reduces to the simple likelihood
    ratio, so this dispatches to log_slr.
    """
    if isinstance(h1, PointHypothesis):
        return log_slr(data, h1, h2)
    if (exact := _exact_log_bf(data, h1, h2.theta0)) is not None:
        return exact
    (lo, hi), a, b = h1
    if not data.n + a + b < math.inf:  # bounds k + a, n - k + b and the prior's a + b
        raise ValueError(f"the shape sum n + a + b overflows a double at n={data.n}, "
                         f"k={data.k}, a={a}, b={b}")
    post_a, post_b = data.k + a, data.n - data.k + b
    log_prior_mass = _log_truncated_beta_mass(a, b, lo, hi)
    try:
        log_post_mass = _log_truncated_beta_mass(post_a, post_b, lo, hi)
    except DegeneratePriorError as err:
        raise DegeneratePriorError(
            f"posterior mass is zero to double precision for n={data.n}, k={data.k} "
            f"on support [{lo}, {hi}]"
        ) from err
    # The density at theta0 of the truncated prior over that of the truncated
    # posterior: B(k+a, n-k+b) / (theta0^k (1-theta0)^(n-k)) enters as one
    # deviance-form front, so no term of size n ln 2 is rounded.
    theta0 = h2.theta0
    prior_front = _log_beta_front(theta0, a, b)
    post_front = _log_beta_front(theta0, post_a, post_b)
    if prior_front == post_front == -math.inf:  # their difference would be nan
        raise ValueError(f"the prior and posterior log densities at theta0={theta0} both "
                         f"overflow a double at n={data.n}, k={data.k}, a={a}, b={b}")
    return (prior_front - log_prior_mass) - (post_front - log_post_mass)


def support_label(log_bf_value: float) -> str:
    """Which hypothesis a signed log Bayes factor favors; a nan is a ValueError."""
    if log_bf_value > 0.0:
        return "supports H1"
    if log_bf_value < 0.0:
        return "supports H2"
    if log_bf_value == 0.0:
        return "transition point"
    raise ValueError(f"a log Bayes factor of {log_bf_value} favors no hypothesis")


def _reported(kind: str, value: float) -> float:
    """A kind's value as reported: exp of a ratio kind's log (inf past ln of the
    largest double, about 709.78), |log BF| for abslogbf, other values as given."""
    if kind in RATIO_LOG_KINDS:
        try:
            return math.exp(value)
        except OverflowError:
            return math.inf
    if kind == "abslogbf":  # |log BF|, exactly 0.0 at a transition point
        return abs(value)
    return value


def compute_evidence(
    kind: str,
    data: BinomialOutcome,
    *,
    null: PointHypothesis,
    alternative: Hypothesis | None = None,
) -> EvidenceValue:
    """Compute one named statistic, returning it with its kind.

    `null` is the point hypothesis in the denominator role; `alternative`
    is the numerator hypothesis for the likelihood-ratio and Bayes-factor
    families (a PointHypothesis for slr/logslr, a point or composite one
    for bf/logbf/abslogbf). The ratio kinds mlr, slr and bf are inf once
    their log value passes ln of the largest double (about 709.78).
    """
    if kind not in EVIDENCE_KINDS:
        raise ValueError(f"unknown evidence kind {kind!r}; expected one of {EVIDENCE_KINDS}")
    if kind == "pvalue":
        value = p_value_two_sided(data, null)
    elif kind == "neglogp":
        value = neg_log_p(data, null)
    elif kind in ("mlr", "logmlr"):
        value = log_mlr(data, null)
    elif alternative is None:
        raise ValueError(f"kind {kind!r} requires an alternative hypothesis")
    elif kind in SLR_KINDS:
        if not isinstance(alternative, PointHypothesis):
            raise ValueError("slr compares two point hypotheses")
        value = log_slr(data, alternative, null)
    else:
        value = log_bf(data, alternative, null)
    return EvidenceValue(kind, _reported(kind, value))
